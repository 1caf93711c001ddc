#!/usr/bin/env python3
"""Build the end-to-end benchmark from this source tree and run one workload.

Run from the repository root:

    python3 bench/e2e/run.py --workload serve_uniform --seed 1 --seconds 10 --trace 0

The first run configures bench/e2e (a CMake project that builds the sva
libraries from ../..) in Release mode and builds sva_e2e into
$CARGO_TARGET_DIR/e2e, or .bench_build/e2e when that variable is unset;
later runs only re-check the build.  Build output goes to stderr.  Every
argument is passed on to sva_e2e, whose last line of standard output is the
result and whose exit status is returned; bundles, document files and
traces go under <build dir>/work.
"""
import os
import shutil
import subprocess
import sys


def main() -> int:
    source = os.path.join("bench", "e2e")
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "e2e")
    generated = any(os.path.exists(os.path.join(build, f)) for f in ("build.ninja", "Makefile"))
    try:
        if not generated:
            configure = ["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build, "--target", "sva_e2e", "-j", jobs],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    # A child, not an exec: sva_e2e's peak_rss_mb counts its own reaped
    # children, which must not include the compilers run above.
    binary = os.path.join(build, "sva_e2e")
    return subprocess.run([binary, "--work-dir", os.path.join(build, "work")] + sys.argv[1:]
                          ).returncode


if __name__ == "__main__":
    sys.exit(main())

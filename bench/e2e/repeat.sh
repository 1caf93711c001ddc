#!/usr/bin/env bash
# Repeatability check for the end-to-end benchmark.
#
#   bench/e2e/repeat.sh N
#
# Run from the repository root.  Runs N sets; a set is one untraced run of
# every workload in BENCHMARK.json, and set i uses seed i, so each run
# draws different inputs.  For each workload and end-to-end metric it
# prints the median, the quartiles (statistics.quantiles, n=4) and their
# distance as a share of the median, and whether that spread is within the
# metric's bound.  It also compares the medians of the first and the
# second half of the sets (N >= 4), the check a later change's runs are
# judged by.  Exits 1 when a check fails or a run fails.
set -euo pipefail
exec python3 - "$@" <<'PY'
import json
import statistics
import subprocess
import sys

if len(sys.argv) != 2 or not sys.argv[1].isdigit() or int(sys.argv[1]) < 2:
    sys.exit("usage: bench/e2e/repeat.sh N  (N >= 2)")
n = int(sys.argv[1])

with open("BENCHMARK.json") as f:
    bench = json.load(f)
workloads = [w["name"] for w in bench["workloads"]]
metrics = bench["end_to_end"]
values = {w: {m["name"]: [] for m in metrics} for w in workloads}

for seed in range(1, n + 1):
    for w in workloads:
        cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"repeat.sh: {w} seed {seed} failed (exit {proc.returncode})")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"] != 0:
            sys.exit(f"repeat.sh: {w} seed {seed}: incorrect result {lines[-1]}")
        for m in metrics:
            values[w][m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"set {seed}/{n} {w}: " +
              " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              file=sys.stderr, flush=True)


def worse_by(m, base, new):
    """How much worse `new` is than `base`, as a share of `base`."""
    return (new - base) / base if m["better"] == "lower" else (base - new) / base


ok = True
print(f"{'workload':<18} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
      f"{'iqr/med':>8} {'bound':>6} spread  halves")
for w in workloads:
    for m in metrics:
        v = values[w][m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        spread_ok = spread <= m["bound"]
        halves = "-"
        if n >= 4:
            a = statistics.median(v[: n // 2])
            b = statistics.median(v[n // 2:])
            halves_ok = worse_by(m, a, b) <= m["bound"]
            halves = f"{'ok' if halves_ok else 'FAIL'} ({worse_by(m, a, b):+.3f})"
            ok = ok and halves_ok
        ok = ok and spread_ok
        print(f"{w:<18} {m['name']:<12} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {m['bound']:>6.2f} {'ok' if spread_ok else 'FAIL':<6}  {halves}")
print("all sets agree within the bounds" if ok else "some metric is outside its bound")
sys.exit(0 if ok else 1)
PY

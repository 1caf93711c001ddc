// The benchmark's four workloads over the repo's public entry points.
//
// Every workload reports the same end-to-end metrics, each defined over
// the workload's own operation (a full build on build_*, a query on
// serve_*): set-up time, the operation's median latency, the operations
// completed per second, and peak memory.  A traced run (Options::trace)
// instead times each layer's public calls as barrier-aligned spans and
// reports the per-layer metrics; README.md lists both sets.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 20070326;
  double seconds = 15.0;  ///< length of the timed window
  bool trace = false;
  bool smoke = false;  ///< tiny corpora and short windows (harness tests)
  /// Bundles, document files and the trace land here.
  std::filesystem::path work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness-check diagnostics; any entry makes the run incorrect.
  std::vector<std::string> mismatches;
  std::vector<Metric> metrics;
  /// Extra `meta` fields: key and an already-encoded JSON value.
  std::vector<std::pair<std::string, std::string>> meta;
  /// Ranks the workload's worlds run with (for the P > cores warning).
  int max_procs = 1;

  [[nodiscard]] bool correct() const { return mismatches.empty() && failed == 0; }
};

/// Names accepted by run_workload, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Runs one workload end to end.  Throws on an unknown name or when the
/// program under test fails outside a counted operation.
Outcome run_workload(const Options& options);

}  // namespace e2e

// sva_e2e: runs one end-to-end benchmark workload and prints its metrics.
//
//   sva_e2e --workload serve_uniform --seed 20070326 --seconds 10 --trace 0
//
// Standard output ends with one JSON line:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
// preceded by a {"meta": ...} line describing the host and the samples.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same inputs
// with every layer call timed as a span, reports the per-layer metrics and
// writes <work-dir>/trace_<workload>.json.  Exit status: 0 when every
// correctness check passed, 1 when one failed or the run broke, 2 on
// bad usage.
#include <algorithm>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "json.hpp"
#include "sva/util/cli_options.hpp"
#include "workloads.hpp"

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  opt.work_dir = ".bench_build/e2e";
  std::uint64_t seconds = 0;
  int trace = 0;

  std::string names;
  for (const auto& n : e2e::workload_names()) {
    if (!names.empty()) names += " | ";
    names += n;
  }
  sva::cli::Parser p("sva_e2e", "usage: sva_e2e --workload NAME [options]");
  p.option("--workload", "NAME", names, [&](const std::string& v) {
    const auto& all = e2e::workload_names();
    if (std::find(all.begin(), all.end(), v) == all.end()) p.die("unknown workload " + v);
    opt.workload = v;
  });
  p.u64("--seed", "N", "derives the corpus and the query and ingest streams (default 20070326)",
        &opt.seed);
  p.u64("--seconds", "S", "length of the timed window (default 15; 1 with --smoke)", &seconds);
  p.bounded_int("--trace", "0|1", "1: time every layer call, report the per-layer metrics",
                &trace, 0, 1);
  p.flag("--smoke", "tiny corpora and windows, for the harness tests",
         [&] { opt.smoke = true; });
  p.option("--work-dir", "DIR", "bundles, document files and traces (default .bench_build/e2e)",
           [&](const std::string& v) { opt.work_dir = v; });
  p.parse(argc, argv);
  if (opt.workload.empty()) p.die("--workload is required");
  opt.trace = trace == 1;
  opt.seconds = seconds > 0 ? static_cast<double>(seconds) : (opt.smoke ? 1.0 : 15.0);

  e2e::Outcome outcome;
  try {
    std::filesystem::create_directories(opt.work_dir);
    outcome = e2e::run_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "sva_e2e: " << opt.workload << ": " << e.what() << '\n';
    return 1;
  }

  const unsigned cores = std::thread::hardware_concurrency();
  std::string meta = "{\"workload\":" + e2e::json_string(opt.workload) +
                     ",\"seed\":" + std::to_string(opt.seed) +
                     ",\"seconds\":" + e2e::json_number(opt.seconds) +
                     ",\"trace\":" + (opt.trace ? "true" : "false") +
                     ",\"smoke\":" + (opt.smoke ? "true" : "false") +
                     ",\"cores\":" + std::to_string(cores) +
                     ",\"cpu\":" + e2e::json_string(cpu_model()) +
                     ",\"compiler\":" + e2e::json_string(SVA_E2E_COMPILER) +
                     ",\"build_type\":" + e2e::json_string(SVA_E2E_BUILD_TYPE) +
                     ",\"git_sha\":" + e2e::json_string(SVA_E2E_GIT_SHA) +
                     ",\"max_procs\":" + std::to_string(outcome.max_procs);
  if (cores > 0 && static_cast<unsigned>(outcome.max_procs) > cores) {
    meta += ",\"warning\":" +
            e2e::json_string("P=" + std::to_string(outcome.max_procs) + " exceeds " +
                             std::to_string(cores) +
                             " cores: wall time at this P measures overhead, not scaling");
  }
  for (const auto& [key, value] : outcome.meta) meta += ",\"" + key + "\":" + value;
  if (!outcome.mismatches.empty()) {
    meta += ",\"mismatches\":[";
    for (std::size_t i = 0; i < outcome.mismatches.size(); ++i) {
      if (i > 0) meta += ',';
      meta += e2e::json_string(outcome.mismatches[i]);
    }
    meta += "]";
  }
  meta += "}";

  std::string metrics;
  for (const auto& m : outcome.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += e2e::json_string(m.name) + ": {\"value\": " + e2e::json_number(m.value) +
               ", \"unit\": " + e2e::json_string(m.unit) + "}";
  }
  const std::string result =
      std::string("{\"correct\": ") + (outcome.correct() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(outcome.attempted) +
      ", \"failed\": " + std::to_string(outcome.failed) + ", \"metrics\": {" + metrics + "}}";

  for (const auto& e : outcome.mismatches) std::cerr << "sva_e2e: check failed: " << e << '\n';
  std::cout << "{\"meta\": " << meta << "}\n" << result << std::endl;
  return outcome.correct() ? 0 : 1;
}

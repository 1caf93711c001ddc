// The perf-regression gate (bench/compare): identical trajectories pass;
// a doctored baseline — throughput drop beyond tolerance, any modeled_s
// rise, or a determinism-checksum change — fails.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "compare.hpp"
#include "temp_path.hpp"

namespace svabench::compare {
namespace {

json::Value micro_text_doc(double arena_mb_s, double scan_mb_s) {
  json::Value doc = json::Value::object();
  doc["schema_version"] = report::kSchemaVersion;
  doc["name"] = "micro_text";
  json::Value tok = json::Value::object();
  tok["arena_path_mb_s"] = arena_mb_s;
  tok["arena_speedup"] = 1.9;
  json::Value scan = json::Value::array();
  json::Value rec = json::Value::object();
  rec["procs"] = 1;
  rec["mb_s"] = scan_mb_s;
  scan.push_back(std::move(rec));
  json::Value data = json::Value::object();
  data["tokenizer"] = std::move(tok);
  data["scan"] = std::move(scan);
  doc["data"] = std::move(data);
  return doc;
}

json::Value figure_doc(double modeled_s, const std::string& checksum,
                       double modeled_throughput = 10.0) {
  json::Value doc = json::Value::object();
  doc["name"] = "fig5_overall";
  json::Value run = json::Value::object();
  run["procs"] = 4;
  run["modeled_s"] = modeled_s;
  run["throughput_mb_s"] = modeled_throughput;  // modeled, not a wall metric
  json::Value runs = json::Value::array();
  runs.push_back(std::move(run));
  json::Value data = json::Value::object();
  data["runs"] = std::move(runs);
  doc["data"] = std::move(data);

  json::Value by_procs = json::Value::object();
  by_procs["4"] = checksum;
  json::Value entry = json::Value::object();
  entry["key"] = "pubmed/S1";
  entry["checksums"] = std::move(by_procs);
  json::Value series = json::Value::array();
  series.push_back(std::move(entry));
  json::Value det = json::Value::object();
  det["consistent"] = true;
  det["series"] = std::move(series);
  doc["determinism"] = std::move(det);
  return doc;
}

TEST(CompareTest, IdenticalReportsPass) {
  CompareResult out;
  const auto doc = figure_doc(1.25, "0x0123456789abcdef");
  compare_report_documents("fig5_overall", doc, doc, {}, out);
  EXPECT_FALSE(out.failed());
  EXPECT_EQ(out.benchmarks_compared, 1);
}

TEST(CompareTest, AnyModeledRegressionFailsByDefault) {
  CompareResult out;
  compare_report_documents("fig5_overall", figure_doc(1.25, "0xaa"),
                           figure_doc(1.26, "0xaa"), {}, out);
  EXPECT_TRUE(out.failed());
}

TEST(CompareTest, ModeledToleranceAbsorbsSmallRises) {
  CompareResult out;
  CompareOptions options;
  options.modeled_tolerance = 0.05;
  compare_report_documents("fig5_overall", figure_doc(1.25, "0xaa"),
                           figure_doc(1.26, "0xaa"), options, out);
  EXPECT_FALSE(out.failed());
}

TEST(CompareTest, ModeledImprovementPasses) {
  CompareResult out;
  compare_report_documents("fig5_overall", figure_doc(1.25, "0xaa"),
                           figure_doc(1.10, "0xaa"), {}, out);
  EXPECT_FALSE(out.failed());
}

TEST(CompareTest, ChecksumChangeFails) {
  CompareResult out;
  compare_report_documents("fig5_overall", figure_doc(1.25, "0xaa"),
                           figure_doc(1.25, "0xbb"), {}, out);
  EXPECT_TRUE(out.failed());
}

TEST(CompareTest, ChecksumChangeDowngradesWhenAllowed) {
  CompareResult out;
  CompareOptions options;
  options.allow_checksum_change = true;
  compare_report_documents("fig5_overall", figure_doc(1.25, "0xaa"),
                           figure_doc(1.25, "0xbb"), options, out);
  EXPECT_FALSE(out.failed());
  EXPECT_FALSE(out.findings.empty());  // still reported
}

json::Value micro_ga_doc(double barrier_best_s, double allreduce_best_s,
                         bool with_allreduce = true) {
  json::Value doc = json::Value::object();
  doc["name"] = "micro_ga";
  json::Value series = json::Value::array();
  auto entry = [](const std::string& primitive, const std::string& config, double best_s) {
    json::Value e = json::Value::object();
    e["primitive"] = primitive;
    e["config"] = config;
    e["best_s"] = best_s;
    e["ops"] = 64.0;
    e["per_op_us"] = 1.0e6 * best_s / 64.0;
    return e;
  };
  series.push_back(entry("barrier", "P=4", barrier_best_s));
  if (with_allreduce) {
    series.push_back(entry("allreduce_sum", "P=4 n=1024", allreduce_best_s));
  }
  json::Value data = json::Value::object();
  data["series"] = std::move(series);
  doc["data"] = std::move(data);
  return doc;
}

TEST(CompareTest, MicroGaWallRiseBeyondToleranceFails) {
  CompareResult out;
  compare_report_documents("micro_ga", micro_ga_doc(1.0e-3, 1.0e-3),
                           micro_ga_doc(1.2e-3, 1.0e-3), {}, out);
  EXPECT_TRUE(out.failed());
}

TEST(CompareTest, MicroGaWallRiseWithinToleranceIsNoise) {
  CompareResult out;
  compare_report_documents("micro_ga", micro_ga_doc(1.0e-3, 1.0e-3),
                           micro_ga_doc(1.05e-3, 1.0e-3), {}, out);
  EXPECT_FALSE(out.failed());
}

TEST(CompareTest, MicroGaWallMatchesByKeyNotPosition) {
  // The current run reorders the series (allreduce first): matching by
  // (primitive, config) must not misattribute a regression.
  CompareResult out;
  json::Value cur = json::Value::object();
  cur["name"] = "micro_ga";
  json::Value series = json::Value::array();
  json::Value a = json::Value::object();
  a["primitive"] = "allreduce_sum";
  a["config"] = "P=4 n=1024";
  a["best_s"] = 1.0e-3;
  series.push_back(std::move(a));
  json::Value b = json::Value::object();
  b["primitive"] = "barrier";
  b["config"] = "P=4";
  b["best_s"] = 1.0e-3;
  series.push_back(std::move(b));
  json::Value data = json::Value::object();
  data["series"] = std::move(series);
  cur["data"] = std::move(data);
  compare_report_documents("micro_ga", micro_ga_doc(1.0e-3, 1.0e-3), cur, {}, out);
  EXPECT_FALSE(out.failed());
}

TEST(CompareTest, MicroGaConfigAbsentFromCurrentIsInformational) {
  CompareResult out;
  compare_report_documents("micro_ga", micro_ga_doc(1.0e-3, 1.0e-3),
                           micro_ga_doc(1.0e-3, 0.0, /*with_allreduce=*/false), {}, out);
  EXPECT_FALSE(out.failed());
  EXPECT_FALSE(out.findings.empty());  // still noted
}

TEST(CompareTest, MicroGaInformationalEntryReportsButNeverGates) {
  // Entries flagged informational in the baseline (the process-backend
  // axis) report their drift without failing the build.
  CompareResult out;
  auto base = micro_ga_doc(1.0e-3, 1.0e-3);
  auto cur = micro_ga_doc(1.0e-3, 1.0e-3);
  auto shm_entry = [](double best_s, bool informational) {
    json::Value e = json::Value::object();
    e["primitive"] = "barrier";
    e["config"] = "P=4 backend=process";
    e["best_s"] = best_s;
    if (informational) e["informational"] = true;
    return e;
  };
  base["data"]["series"].push_back(shm_entry(1.0e-3, true));
  cur["data"]["series"].push_back(shm_entry(5.0e-3, false));  // 5x slower
  compare_report_documents("micro_ga", base, cur, {}, out);
  EXPECT_FALSE(out.failed());
  EXPECT_FALSE(out.findings.empty());  // drift is still reported
}

TEST(CompareTest, MicroGaWallImprovementPasses) {
  CompareResult out;
  compare_report_documents("micro_ga", micro_ga_doc(1.0e-3, 1.0e-3),
                           micro_ga_doc(0.4e-3, 0.5e-3), {}, out);
  EXPECT_FALSE(out.failed());
}

json::Value micro_query_doc(double single_best_s, double batch_best_s) {
  json::Value doc = json::Value::object();
  doc["name"] = "micro_query";
  json::Value series = json::Value::array();
  auto entry = [](const std::string& plane, double best_s) {
    json::Value e = json::Value::object();
    e["primitive"] = plane;
    e["config"] = "P=2 Q=16";
    e["best_s"] = best_s;
    e["queries"] = 16.0;
    return e;
  };
  series.push_back(entry("single_queries", single_best_s));
  series.push_back(entry("batched", batch_best_s));
  json::Value data = json::Value::object();
  data["series"] = std::move(series);
  doc["data"] = std::move(data);
  return doc;
}

TEST(CompareTest, MicroQueryWallRiseBeyondToleranceFails) {
  // The serving-plane micro rides the same keyed wall gate as micro_ga.
  CompareResult out;
  compare_report_documents("micro_query", micro_query_doc(4.0e-3, 1.0e-3),
                           micro_query_doc(4.0e-3, 1.5e-3), {}, out);
  EXPECT_TRUE(out.failed());
}

TEST(CompareTest, MicroQueryWallWithinToleranceIsNoise) {
  CompareResult out;
  compare_report_documents("micro_query", micro_query_doc(4.0e-3, 1.0e-3),
                           micro_query_doc(4.1e-3, 1.05e-3), {}, out);
  EXPECT_FALSE(out.failed());
}

json::Value micro_serve_doc(double p50_s, double p95_s, double p99_s,
                            double cached_elapsed_s) {
  json::Value doc = json::Value::object();
  doc["name"] = "micro_serve";
  json::Value series = json::Value::array();
  json::Value gated = json::Value::object();
  gated["primitive"] = "coalesced";
  gated["config"] = "P=2 C=8 Q=64";
  gated["best_s"] = 2.0e-3;
  gated["p50_s"] = p50_s;
  gated["p95_s"] = p95_s;
  gated["p99_s"] = p99_s;
  series.push_back(std::move(gated));
  // The cache plane deliberately reports elapsed_s instead of best_s:
  // a few map lookups' wall time is scheduler jitter, not serving cost.
  json::Value cached = json::Value::object();
  cached["primitive"] = "cached";
  cached["config"] = "P=2 C=8 Q=64";
  cached["elapsed_s"] = cached_elapsed_s;
  series.push_back(std::move(cached));
  json::Value data = json::Value::object();
  data["series"] = std::move(series);
  doc["data"] = std::move(data);
  return doc;
}

TEST(CompareTest, MicroServeLatencyQuantileRiseBeyondToleranceFails) {
  CompareResult out;
  compare_report_documents("micro_serve", micro_serve_doc(1.0e-3, 2.0e-3, 3.0e-3, 1.0e-4),
                           micro_serve_doc(1.3e-3, 2.0e-3, 3.0e-3, 1.0e-4), {}, out);
  EXPECT_TRUE(out.failed());
}

TEST(CompareTest, MicroServeP99RiseIsInformationalOnly) {
  CompareResult out;
  compare_report_documents("micro_serve", micro_serve_doc(1.0e-3, 2.0e-3, 3.0e-3, 1.0e-4),
                           micro_serve_doc(1.0e-3, 2.0e-3, 9.0e-3, 1.0e-4), {}, out);
  EXPECT_FALSE(out.failed());
  EXPECT_FALSE(out.findings.empty());  // the tail drift is still noted
}

TEST(CompareTest, MicroServeCachedPlaneElapsedIsNotGated) {
  CompareResult out;
  compare_report_documents("micro_serve", micro_serve_doc(1.0e-3, 2.0e-3, 3.0e-3, 1.0e-4),
                           micro_serve_doc(1.0e-3, 2.0e-3, 3.0e-3, 9.0e-4), {}, out);
  EXPECT_FALSE(out.failed());
}

TEST(CompareTest, ModeledRegressionDowngradesWhenAllowed) {
  CompareResult out;
  CompareOptions options;
  options.allow_modeled_change = true;
  compare_report_documents("fig5_overall", figure_doc(1.25, "0xaa"),
                           figure_doc(1.50, "0xaa"), options, out);
  EXPECT_FALSE(out.failed());
  EXPECT_FALSE(out.findings.empty());  // still reported
}

TEST(CompareTest, ThroughputDropBeyondToleranceFails) {
  CompareResult out;
  compare_report_documents("micro_text", micro_text_doc(100.0, 50.0),
                           micro_text_doc(85.0, 50.0), {}, out);
  EXPECT_TRUE(out.failed());
}

TEST(CompareTest, ThroughputDropWithinToleranceIsNoise) {
  CompareResult out;
  compare_report_documents("micro_text", micro_text_doc(100.0, 50.0),
                           micro_text_doc(92.0, 50.0), {}, out);
  EXPECT_FALSE(out.failed());
}

TEST(CompareTest, ScanThroughputIsGatedToo) {
  CompareResult out;
  compare_report_documents("micro_text", micro_text_doc(100.0, 50.0),
                           micro_text_doc(100.0, 30.0), {}, out);
  EXPECT_TRUE(out.failed());
}

TEST(CompareTest, ModeledThroughputOutsideMicroTextIsNotWallGated) {
  // throughput_mb_s in figure reports derives from modeled time; the
  // 10% wall tolerance must not apply there (modeled_s itself is gated).
  CompareResult out;
  const auto base = figure_doc(1.25, "0xaa", 10.0);
  const auto cur = figure_doc(1.25, "0xaa", 5.0);  // -50% modeled throughput
  compare_report_documents("fig5_overall", base, cur, {}, out);
  EXPECT_FALSE(out.failed());
}

// ---- directory-level behaviour ----------------------------------------

class CompareDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = sva::testing::test_temp_dir() / "base";
    cur_ = sva::testing::test_temp_dir() / "cur";
    std::filesystem::create_directories(base_);
    std::filesystem::create_directories(cur_);
  }

  static void write(const std::filesystem::path& dir, const std::string& name,
                    const json::Value& doc) {
    std::ofstream out(dir / ("BENCH_" + name + ".json"));
    out << doc.dump() << "\n";
  }

  std::filesystem::path base_;
  std::filesystem::path cur_;
};

TEST_F(CompareDirTest, EmptyBaselineIsBootstrapNotFailure) {
  write(cur_, "fig5_overall", figure_doc(1.0, "0xaa"));
  const CompareResult out = compare_directories(base_, cur_, {});
  EXPECT_FALSE(out.failed());
  EXPECT_EQ(out.benchmarks_compared, 0);
  ASSERT_EQ(out.findings.size(), 1u);  // the informational note
}

TEST_F(CompareDirTest, MissingCurrentBenchmarkFails) {
  write(base_, "fig5_overall", figure_doc(1.0, "0xaa"));
  const CompareResult out = compare_directories(base_, cur_, {});
  EXPECT_TRUE(out.failed());
}

TEST_F(CompareDirTest, NewCurrentBenchmarkIsIgnored) {
  write(base_, "fig5_overall", figure_doc(1.0, "0xaa"));
  write(cur_, "fig5_overall", figure_doc(1.0, "0xaa"));
  write(cur_, "ingest_sharded", figure_doc(2.0, "0xcc"));
  const CompareResult out = compare_directories(base_, cur_, {});
  EXPECT_FALSE(out.failed());
  EXPECT_EQ(out.benchmarks_compared, 1);
}

TEST_F(CompareDirTest, MalformedCurrentReportFails) {
  write(base_, "fig5_overall", figure_doc(1.0, "0xaa"));
  std::ofstream(cur_ / "BENCH_fig5_overall.json") << "{not json";
  const CompareResult out = compare_directories(base_, cur_, {});
  EXPECT_TRUE(out.failed());
}

TEST_F(CompareDirTest, DoctoredBaselineFiresTheGate) {
  // The acceptance scenario: a baseline doctored to make the current run
  // look regressed on all three axes must fail.
  write(base_, "fig5_overall", figure_doc(0.80, "0xdeadbeef"));
  write(base_, "micro_text", micro_text_doc(200.0, 100.0));
  write(cur_, "fig5_overall", figure_doc(1.0, "0xaa"));
  write(cur_, "micro_text", micro_text_doc(100.0, 100.0));
  const CompareResult out = compare_directories(base_, cur_, {});
  EXPECT_TRUE(out.failed());
  int fails = 0;
  for (const auto& f : out.findings) fails += f.fail ? 1 : 0;
  EXPECT_GE(fails, 3);  // modeled_s + checksum + throughput
}

}  // namespace
}  // namespace svabench::compare

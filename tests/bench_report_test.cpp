// Report-layer coverage: ComponentTimings label accounting, JSON
// emit→parse round-trips, run_record telemetry and the determinism
// ledger — including checksum stability of the EngineResult across rank
// counts, which is the property the perf-smoke CI gate enforces from the
// emitted BENCH_*.json.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "report.hpp"
#include "sva/corpus/generator.hpp"
#include "sva/engine/digest.hpp"
#include "sva/engine/pipeline.hpp"
#include "sva/util/error.hpp"
#include "temp_path.hpp"

namespace svabench {
namespace {

// ---- ComponentTimings ---------------------------------------------------

TEST(ComponentTimingsTest, StageSumsEqualTotal) {
  sva::engine::ComponentTimings t;
  t.scan = 1.25;
  t.index = 0.5;
  t.topic = 0.125;
  t.am = 2.0;
  t.docvec = 0.75;
  t.clusproj = 4.5;
  double by_labels = 0.0;
  for (const auto& label : sva::engine::ComponentTimings::labels()) {
    by_labels += t.by_label(label);
  }
  EXPECT_DOUBLE_EQ(by_labels, t.total());
  EXPECT_DOUBLE_EQ(t.signature_generation(), t.topic + t.am + t.docvec);
  EXPECT_EQ(sva::engine::ComponentTimings::labels().size(), 6u);
  EXPECT_THROW((void)t.by_label("nonsense"), sva::InvalidArgument);
}

TEST(ComponentTimingsTest, RunRecordStagesSumToModeledTotal) {
  sva::corpus::CorpusSpec spec;
  spec.target_bytes = 64 << 10;
  spec.core_vocabulary = 800;
  spec.num_themes = 4;
  spec.theme_vocabulary = 60;
  const auto sources = sva::corpus::generate_corpus(spec);
  sva::engine::EngineConfig config;
  config.topicality.num_major_terms = 100;
  config.kmeans.k = 4;
  const auto run = sva::engine::run_pipeline(2, sva::ga::CommModel{}, sources, config);

  report::Report report;
  report.name = "probe";
  report.kind = "micro";
  report.title = "probe";
  const json::Value record = report::run_record(report, "probe", 2, run, sources.total_bytes());
  double stage_sum = 0.0;
  for (const auto& [label, seconds] : record.at("stages").members()) {
    stage_sum += seconds.as_double();
  }
  EXPECT_DOUBLE_EQ(stage_sum, run.result.timings.total());
  EXPECT_DOUBLE_EQ(record.at("modeled_s").as_double(), run.modeled_seconds);
  EXPECT_EQ(record.at("checksum").as_string(),
            sva::engine::checksum_hex(sva::engine::result_checksum(run.result)));
}

// ---- JSON ---------------------------------------------------------------

TEST(JsonTest, EmitParseRoundTripPreservesStructure) {
  json::Value doc = json::Value::object();
  doc["string"] = "plain";
  doc["escaped"] = std::string("quote\" slash\\ tab\t newline\n ctl\x01");
  doc["int"] = std::int64_t{-1234567890123};
  doc["double"] = 0.1;
  doc["big"] = 1.0e300;
  doc["small_int_as_double"] = 5.0;
  doc["bool_t"] = true;
  doc["bool_f"] = false;
  doc["null"] = nullptr;
  json::Value arr = json::Value::array();
  arr.push_back(1);
  arr.push_back("two");
  json::Value nested = json::Value::object();
  nested["k"] = 3.5;
  arr.push_back(std::move(nested));
  doc["arr"] = std::move(arr);

  for (const int indent : {0, 2}) {
    const std::string text = doc.dump(indent);
    const json::Value parsed = json::Value::parse(text);
    EXPECT_EQ(parsed, doc) << text;
  }
}

TEST(JsonTest, DoublesRoundTripExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 6.02214076e23, -2.5e-10, 42.0}) {
    json::Value doc = json::Value::object();
    doc["v"] = v;
    const json::Value parsed = json::Value::parse(doc.dump());
    ASSERT_TRUE(parsed.at("v").is_double());
    EXPECT_EQ(parsed.at("v").as_double(), v);
  }
}

TEST(JsonTest, IntegersStayIntegers) {
  json::Value doc = json::Value::object();
  doc["v"] = std::int64_t{9007199254740993};  // not representable as double
  const json::Value parsed = json::Value::parse(doc.dump());
  ASSERT_TRUE(parsed.at("v").is_int());
  EXPECT_EQ(parsed.at("v").as_int(), 9007199254740993);
}

TEST(JsonTest, ObjectOrderIsPreserved) {
  json::Value doc = json::Value::object();
  doc["zebra"] = 1;
  doc["alpha"] = 2;
  doc["mid"] = 3;
  const json::Value parsed = json::Value::parse(doc.dump());
  ASSERT_EQ(parsed.members().size(), 3u);
  EXPECT_EQ(parsed.members()[0].first, "zebra");
  EXPECT_EQ(parsed.members()[1].first, "alpha");
  EXPECT_EQ(parsed.members()[2].first, "mid");
}

TEST(JsonTest, MalformedInputThrowsFormatError) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated",
                          "{\"a\":1} trailing", "01x", "nan", "{\"a\" 1}", "\"\\u12G4\""}) {
    EXPECT_THROW((void)json::Value::parse(bad), sva::FormatError) << bad;
  }
}

TEST(JsonTest, ParsesWhitespaceAndEscapes) {
  const json::Value v = json::Value::parse(
      " { \"a\" : [ 1 , -2.5e1 , \"x\\u0041y\" , null , true ] } ");
  const auto& arr = v.at("a").items();
  ASSERT_EQ(arr.size(), 5u);
  EXPECT_EQ(arr[0].as_int(), 1);
  EXPECT_EQ(arr[1].as_double(), -25.0);
  EXPECT_EQ(arr[2].as_string(), "xAy");
  EXPECT_TRUE(arr[3].is_null());
  EXPECT_TRUE(arr[4].as_bool());
}

// ---- Report + determinism ledger ---------------------------------------

TEST(ReportTest, DeterminismLedgerFlagsMismatches) {
  report::Report report;
  report.name = "r";
  report.kind = "figure";
  report.title = "r";
  report.record_checksum("a", 1, 7);
  report.record_checksum("a", 4, 7);
  report.record_checksum("b", 1, 1);
  EXPECT_TRUE(report.determinism_violations().empty());
  EXPECT_TRUE(report.to_json().at("determinism").at("consistent").as_bool());

  report.record_checksum("b", 4, 2);
  const auto violations = report.determinism_violations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0], "b");
  EXPECT_FALSE(report.to_json().at("determinism").at("consistent").as_bool());
}

TEST(ReportTest, WriteReportEmitsParseableSchemaVersionedJson) {
  report::Report report;
  report.name = "unit_probe";
  report.kind = "micro";
  report.title = "probe";
  report.meta["smoke"] = true;
  report.data["series"] = json::Value::array();
  report.record_checksum("cfg", 1, 0xdeadbeefULL);

  const auto dir = sva::testing::unique_temp_path("report");
  std::filesystem::remove_all(dir);
  const auto path = report::write_report(report, dir);
  EXPECT_EQ(path.filename().string(), "BENCH_unit_probe.json");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const json::Value doc = json::Value::parse(buffer.str());
  EXPECT_EQ(doc.at("schema_version").as_int(), report::kSchemaVersion);
  EXPECT_EQ(doc.at("name").as_string(), "unit_probe");
  EXPECT_EQ(doc.at("determinism").at("series").items().size(), 1u);
  std::filesystem::remove_all(dir);
}

// ---- checksum stability across rank counts ------------------------------

TEST(ChecksumTest, Fnv1aMatchesKnownVectors) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(sva::engine::fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(sva::engine::fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(sva::engine::fnv1a64("foobar", 6), 0x85944171f73967e8ULL);
  EXPECT_EQ(sva::engine::checksum_hex(0xdeadbeefULL), "0x00000000deadbeef");
}

TEST(ChecksumTest, EngineResultChecksumStableAcrossRankCounts) {
  sva::corpus::CorpusSpec spec;
  spec.seed = 99;
  spec.target_bytes = 96 << 10;
  spec.core_vocabulary = 1000;
  spec.num_themes = 5;
  spec.theme_vocabulary = 70;
  const auto sources = sva::corpus::generate_corpus(spec);
  sva::engine::EngineConfig config;
  config.topicality.num_major_terms = 120;
  config.kmeans.k = 5;

  std::uint64_t baseline = 0;
  for (const int nprocs : {1, 2, 4}) {
    const auto run = sva::engine::run_pipeline(nprocs, sva::ga::CommModel{}, sources, config);
    const std::uint64_t checksum = sva::engine::result_checksum(run.result);
    if (nprocs == 1) {
      baseline = checksum;
    } else {
      EXPECT_EQ(checksum, baseline) << "checksum diverged at nprocs=" << nprocs;
    }
  }
  EXPECT_NE(baseline, 0u);
}

}  // namespace
}  // namespace svabench

// Model-bundle tests: an Engine run at one processor/shard count exports
// a bundle that a Session opened at ANY other processor count serves
// with answers bit-identical to the free functions over the live
// EngineResult; and the artifact rejects every corruption (truncation,
// bit flips anywhere) with FormatError, like the checkpoint files.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "sva/corpus/generator.hpp"
#include "sva/corpus/reader.hpp"
#include "sva/engine/bundle.hpp"
#include "sva/engine/delta.hpp"
#include "sva/engine/engine.hpp"
#include "sva/engine/section_file.hpp"
#include "sva/query/session.hpp"
#include "sva/util/error.hpp"
#include "temp_path.hpp"

namespace sva::engine {
namespace {

corpus::CorpusSpec tiny_spec() {
  corpus::CorpusSpec spec;
  spec.kind = corpus::CorpusKind::kPubMedLike;
  spec.seed = 4242;
  spec.target_bytes = 48 << 10;
  spec.core_vocabulary = 700;
  spec.num_themes = 4;
  spec.theme_vocabulary = 50;
  spec.theme_token_fraction = 0.3;
  return spec;
}

EngineConfig tiny_config() {
  EngineConfig config;
  config.topicality.num_major_terms = 100;
  config.kmeans.k = 4;
  return config;
}

/// `<dir>/<name>.svab`; `dir` defaults to the running test's own.
std::filesystem::path fresh_path(
    const std::string& name,
    const std::filesystem::path& dir = sva::testing::test_temp_dir()) {
  return dir / (name + ".svab");
}

std::vector<std::uint8_t> slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  in.seekg(0, std::ios::end);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Reference answers computed by the free functions over the live
/// EngineResult, plus the bundle exported by the same Engine::run.
struct Fixture {
  corpus::CorpusSpec spec = tiny_spec();
  corpus::GeneratedReader reader{spec};
  EngineConfig config = tiny_config();
  std::filesystem::path bundle = fresh_path("fixture", sva::testing::program_temp_dir());

  std::vector<query::SimilarDoc> by_doc;
  std::vector<query::ClusterSummary> summaries;
  std::uint64_t probe_doc = 0;
  std::uint64_t num_records = 0;

  Fixture() {
    // Written at P=4 over 5 ingestion shards — deliberately unlike every
    // processor count the Sessions below open it with.
    Engine engine(config);
    PipelineOptions options;
    options.sharding.num_shards = 5;
    options.export_bundle = bundle;
    ga::spmd_run(4, [&](ga::Context& ctx) {
      const auto result = engine.run(ctx, reader, options);
      ASSERT_TRUE(result.has_value());
      const std::uint64_t probe = result->num_records / 2;
      auto hits = query::similar_to_document(ctx, result->signatures, probe, 8);
      std::vector<query::ClusterSummary> sums;
      for (std::size_t c = 0; c < result->clustering.centroids.rows(); ++c) {
        sums.push_back(query::summarize_cluster(ctx, result->signatures,
                                                result->clustering.assignment,
                                                result->clustering, result->theme_labels,
                                                static_cast<int>(c)));
      }
      if (ctx.rank() == 0) {
        num_records = result->num_records;
        probe_doc = probe;
        by_doc = std::move(hits);
        summaries = std::move(sums);
      }
    });
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

// ---- cross-P serving equivalence ----------------------------------------

class BundleProcsTest : public ::testing::TestWithParam<int> {};

TEST_P(BundleProcsTest, SessionServesBitIdenticalAnswersAtAnyP) {
  const Fixture& f = fixture();
  const int nprocs = GetParam();

  ga::spmd_run(nprocs, [&](ga::Context& ctx) {
    auto session = query::Session::open(ctx, f.bundle);
    EXPECT_EQ(session.num_documents(), f.num_records);
    EXPECT_EQ(session.config_fingerprint(), Engine::config_fingerprint(f.config));

    const auto hits = session.similar(f.probe_doc, 8);
    std::vector<query::Query> batch;
    for (std::size_t c = 0; c < session.num_clusters(); ++c) {
      batch.push_back(query::Query::cluster_summary(static_cast<int>(c)));
    }
    const auto results = session.run_batch(batch);

    if (ctx.rank() != 0) return;
    ASSERT_EQ(hits.size(), f.by_doc.size());
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].doc_id, f.by_doc[i].doc_id) << i;
      EXPECT_TRUE(same_bits(hits[i].similarity, f.by_doc[i].similarity)) << i;
    }
    ASSERT_EQ(results.size(), f.summaries.size());
    for (std::size_t c = 0; c < results.size(); ++c) {
      const auto& got = results[c].summary;
      const auto& want = f.summaries[c];
      EXPECT_EQ(got.size, want.size);
      EXPECT_EQ(got.top_terms, want.top_terms);
      EXPECT_EQ(got.representatives, want.representatives);
      EXPECT_TRUE(same_bits(got.cohesion, want.cohesion)) << "cluster " << c;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Procs, BundleProcsTest, ::testing::Values(1, 2, 8));

TEST(BundleTest, ResumedRunExportsTheSameBundle) {
  const Fixture& f = fixture();
  const auto ckpt_dir = sva::testing::test_temp_dir() / "resume";
  const auto resumed_bundle = fresh_path("resumed");

  Engine engine(f.config);
  PipelineOptions options;
  options.checkpoint_dir = ckpt_dir;
  options.stop_after = Stage::kCluster;
  ga::spmd_run(2, [&](ga::Context& ctx) {
    EXPECT_FALSE(engine.run(ctx, f.reader, options).has_value());
  });
  ga::spmd_run(3, [&](ga::Context& ctx) {
    (void)engine.resume(ctx, ckpt_dir, resumed_bundle);
  });

  // The resumed export serves the identical answers.
  ga::spmd_run(2, [&](ga::Context& ctx) {
    auto session = query::Session::open(ctx, resumed_bundle);
    const auto hits = session.similar(f.probe_doc, 8);
    if (ctx.rank() != 0) return;
    ASSERT_EQ(hits.size(), f.by_doc.size());
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].doc_id, f.by_doc[i].doc_id) << i;
      EXPECT_TRUE(same_bits(hits[i].similarity, f.by_doc[i].similarity)) << i;
    }
  });
}

TEST(BundleTest, StandaloneExportOfInMemoryResultRoundTrips) {
  // export_bundle(EngineResult) with no record sizes (uniform weights):
  // a run_text_engine result is servable without the Engine facade.
  const Fixture& f = fixture();
  const auto bundle = fresh_path("standalone");
  const auto sources = corpus::generate_corpus(f.spec);
  auto reference = std::make_shared<std::vector<query::SimilarDoc>>();
  ga::spmd_run(2, [&](ga::Context& ctx) {
    const auto result = run_text_engine(ctx, sources, f.config);
    export_bundle(ctx, result, f.config, bundle);
    auto hits = query::similar_to_document(ctx, result.signatures, 3, 5);
    if (ctx.rank() == 0) *reference = std::move(hits);
  });
  ga::spmd_run(3, [&](ga::Context& ctx) {
    auto session = query::Session::open(ctx, bundle);
    const auto hits = session.similar(std::uint64_t{3}, 5);
    if (ctx.rank() != 0) return;
    ASSERT_EQ(hits.size(), reference->size());
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].doc_id, (*reference)[i].doc_id) << i;
      EXPECT_TRUE(same_bits(hits[i].similarity, (*reference)[i].similarity)) << i;
    }
  });
}

// ---- corruption fuzzing --------------------------------------------------

TEST(BundleFuzzTest, EveryTruncationRaisesFormatError) {
  const Fixture& f = fixture();
  const auto bytes = slurp(f.bundle);
  ASSERT_GT(bytes.size(), 0u);
  // Every prefix in the header region, then strided through the payload.
  for (std::size_t cut = 0; cut < bytes.size();
       cut += (cut < 256 ? 1 : bytes.size() / 97 + 1)) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_THROW(
        (void)SectionedFile::parse(prefix, kBundleMagic, kBundleFormatVersion, "bundle"),
        FormatError)
        << "cut at " << cut;
  }
}

TEST(BundleFuzzTest, EveryBitFlipRaisesFormatError) {
  const Fixture& f = fixture();
  const auto original = slurp(f.bundle);
  // Strided sweep: header densely, payload sampled.
  for (std::size_t pos = 0; pos < original.size();
       pos += (pos < 256 ? 1 : original.size() / 131 + 1)) {
    auto bytes = original;
    bytes[pos] ^= 0x10;
    EXPECT_THROW(
        (void)SectionedFile::parse(bytes, kBundleMagic, kBundleFormatVersion, "bundle"),
        FormatError)
        << "flip at " << pos;
  }
}

TEST(BundleFuzzTest, GarbageAndEmptyInputsAreRejected) {
  EXPECT_THROW((void)SectionedFile::parse({}, kBundleMagic, kBundleFormatVersion, "bundle"),
               FormatError);
  const std::vector<std::uint8_t> garbage(64, 0xAB);
  EXPECT_THROW(
      (void)SectionedFile::parse(garbage, kBundleMagic, kBundleFormatVersion, "bundle"),
      FormatError);
  // A checkpoint file is not a bundle: the magic check must refuse it.
  std::vector<std::uint8_t> wrong_magic = {'S', 'V', 'A', 'C', 'K', 'P', 'T', '1'};
  wrong_magic.resize(64, 0);
  EXPECT_THROW(
      (void)SectionedFile::parse(wrong_magic, kBundleMagic, kBundleFormatVersion, "bundle"),
      FormatError);
}

TEST(BundleFuzzTest, TruncatedFileFailsCollectivelyThroughTheLoader) {
  const Fixture& f = fixture();
  auto bytes = slurp(f.bundle);
  bytes.resize(bytes.size() / 2);
  const auto path = fresh_path("truncated");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(ga::spmd_run(2,
                            [&](ga::Context& ctx) {
                              (void)query::Session::open(ctx, path);
                            }),
               FormatError);
  EXPECT_THROW(ga::spmd_run(1,
                            [&](ga::Context& ctx) { (void)load_bundle(ctx, path); }),
               FormatError);
}

// ---- generation-link fuzzing ---------------------------------------------

/// A generation-1 bundle delta-ingested over the fixture's base.
struct DeltaFixture {
  std::filesystem::path gen1 = fresh_path("gen1", sva::testing::program_temp_dir());
  corpus::SourceSet new_docs;

  DeltaFixture() {
    const Fixture& f = fixture();
    corpus::CorpusSpec spec = tiny_spec();
    spec.seed = 777;
    spec.target_bytes = 8 << 10;
    new_docs = corpus::generate_corpus(spec);
    const corpus::InMemoryReader reader(new_docs);
    ga::spmd_run(2, [&](ga::Context& ctx) {
      (void)ingest_delta(ctx, f.bundle, reader, gen1);
    });
  }
};

const DeltaFixture& delta_fixture() {
  static const DeltaFixture d;
  return d;
}

TEST(BundleGenerationFuzzTest, CorruptedParentFingerprintRaisesFormatError) {
  const DeltaFixture& d = delta_fixture();
  // Rewrite the bundle with one bit of the parent-lineage word flipped
  // (fixed offset 8 of the "generation" section), re-checksumming every
  // section so only the lineage self-check can catch it.
  auto file = SectionedFile::read(d.gen1, kBundleMagic, kBundleFormatVersion, "bundle");
  SectionedFile corrupted;
  corrupted.tag = file.tag;
  corrupted.fingerprint = file.fingerprint;
  for (const char* name : {"meta", "weights", "signatures", "cluster", "labels",
                           "topic_terms", "projection", "generation", "vocab", "model",
                           "config"}) {
    if (!file.has(name)) continue;
    std::vector<std::uint8_t> payload = file.section(name);
    if (std::string_view(name) == "generation") payload[8] ^= 0x01;
    corrupted.add(name, std::move(payload));
  }
  const auto path = fresh_path("bad_parent");
  corrupted.write(path, kBundleMagic, kBundleFormatVersion);
  try {
    ga::spmd_run(1, [&](ga::Context& ctx) { (void)load_bundle(ctx, path); });
    FAIL() << "corrupted parent fingerprint must not load";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("generation lineage mismatch"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(BundleGenerationFuzzTest, GenerationCounterRollbackRaisesFormatError) {
  const Fixture& f = fixture();
  const DeltaFixture& d = delta_fixture();
  BundleView base_view, gen1_view;
  ga::spmd_run(1, [&](ga::Context& ctx) {
    base_view = load_bundle(ctx, f.bundle);
    gen1_view = load_bundle(ctx, d.gen1);
  });
  // Forward link is fine...
  EXPECT_NO_THROW(require_extends(base_view, gen1_view));
  // ...but a counter that fails to advance by exactly one is a rollback.
  try {
    require_extends(gen1_view, base_view);
    FAIL() << "generation rollback must be rejected";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("generation counter rollback"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(require_extends(gen1_view, gen1_view), FormatError);
}

TEST(BundleGenerationFuzzTest, DeltaOpenedWithoutItsBaseRaisesFormatError) {
  const DeltaFixture& d = delta_fixture();
  // A different gen-0 build (other seed): right counter, wrong lineage.
  corpus::CorpusSpec alt = tiny_spec();
  alt.seed = 999;
  const corpus::GeneratedReader alt_reader(alt);
  const auto alt_path = fresh_path("alt_base");
  Engine engine(tiny_config());
  PipelineOptions options;
  options.export_bundle = alt_path;
  BundleView alt_view, gen1_view;
  ga::spmd_run(1, [&](ga::Context& ctx) {
    (void)engine.run(ctx, alt_reader, options);
    alt_view = load_bundle(ctx, alt_path);
    gen1_view = load_bundle(ctx, d.gen1);
  });
  try {
    require_extends(alt_view, gen1_view);
    FAIL() << "a delta must not open over a foreign base";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("delta bundle opened without its base"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(alt_path);
}

TEST(BundleTest, MissingFileThrows) {
  EXPECT_THROW(ga::spmd_run(1,
                            [](ga::Context& ctx) {
                              (void)load_bundle(ctx, "/nonexistent/nothing.svab");
                            }),
               Error);
}

}  // namespace
}  // namespace sva::engine

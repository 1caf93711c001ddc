// Delta-ingestion equivalence gate (the PR's acceptance invariant):
// extending a base bundle with new documents via engine::ingest_delta
// produces a bundle BYTE-IDENTICAL to recompute_generation — the full
// frozen-model recompute over the combined corpus — at every processor
// count and on both transport backends; queries over the two bundles are
// therefore digest-identical.  CI runs this suite as its own shard
// (`ctest -L delta`).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "backend_testutil.hpp"
#include "sva/corpus/generator.hpp"
#include "sva/corpus/reader.hpp"
#include "sva/engine/bundle.hpp"
#include "sva/engine/delta.hpp"
#include "sva/engine/engine.hpp"
#include "sva/query/session.hpp"
#include "sva/util/error.hpp"
#include "temp_path.hpp"

namespace sva::engine {
namespace {

corpus::CorpusSpec delta_spec() {
  corpus::CorpusSpec spec;
  spec.kind = corpus::CorpusKind::kPubMedLike;
  spec.seed = 20070326;
  spec.target_bytes = 64 << 10;
  spec.core_vocabulary = 700;
  spec.num_themes = 4;
  spec.theme_vocabulary = 50;
  spec.theme_token_fraction = 0.3;
  return spec;
}

EngineConfig delta_config() {
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
  EXPECT_TRUE(in.good()) << path;
  in.seekg(0, std::ios::end);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Base bundle from the first 90% of the corpus, plus the reference
/// next-generation bundle recomputed from the combined corpus under the
/// frozen model (at P=1 — the P-independence of recompute itself is a
/// test below).
struct Fixture {
  corpus::CorpusSpec spec = delta_spec();
  corpus::GeneratedReader reader{spec};
  std::size_t n_base = 0;
  std::filesystem::path base = fresh_path("base", sva::testing::program_temp_dir());
  std::filesystem::path reference = fresh_path("reference", sva::testing::program_temp_dir());
  std::vector<std::uint8_t> reference_bytes;
  DeltaReport reference_report;
  std::vector<query::SimilarDoc> reference_hits;
  std::uint64_t probe_doc = 0;

  Fixture() {
    n_base = reader.size() * 9 / 10;
    // Base built at P=3 over 2 shards — unlike every world the deltas run
    // in, so equivalence cannot lean on matching build geometry.
    const corpus::SliceReader head(reader, 0, n_base);
    Engine engine(delta_config());
    PipelineOptions options;
    options.sharding.num_shards = 2;
    options.export_bundle = base;
    ga::spmd_run(3, [&](ga::Context& ctx) {
      ASSERT_TRUE(engine.run(ctx, head, options).has_value());
    });

    ga::spmd_run(1, [&](ga::Context& ctx) {
      reference_report = recompute_generation(ctx, base, reader, reference);
    });
    reference_bytes = slurp(reference);

    probe_doc = n_base + (reader.size() - n_base) / 2;  // a *new* document
    ga::spmd_run(2, [&](ga::Context& ctx) {
      auto session = query::Session::open(ctx, reference);
      auto hits = session.similar(probe_doc, 8);
      if (ctx.rank() == 0) reference_hits = std::move(hits);
    });
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

// ---- delta == recompute, across P and backends ---------------------------

struct DeltaCase {
  int nprocs;
  ga::Backend backend;
};

class DeltaEquivalenceTest : public ::testing::TestWithParam<DeltaCase> {};

TEST_P(DeltaEquivalenceTest, DeltaBundleIsByteIdenticalToRecompute) {
  const auto [nprocs, backend] = GetParam();
  if (backend == ga::Backend::kProcess) SVA_REQUIRE_PROCESS_BACKEND();
  const Fixture& f = fixture();

  const auto out = fresh_path("ingest_p" + std::to_string(nprocs) + "_" +
                              std::string(ga::backend_name(backend)));
  const corpus::SliceReader tail(f.reader, f.n_base, f.reader.size());
  DeltaReport report;
  ga::SpmdOptions world;
  world.nprocs = nprocs;
  world.backend = backend;
  ga::spmd_run(world, [&](ga::Context& ctx) {
    const auto r = ingest_delta(ctx, f.base, tail, out);
    if (ctx.rank() == 0) report = r;
  });

  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(report.base_records, f.n_base);
  EXPECT_EQ(report.new_records, f.reader.size() - f.n_base);
  EXPECT_EQ(report.generation, f.reference_report.generation);
  EXPECT_EQ(report.lineage, f.reference_report.lineage);
  EXPECT_TRUE(same_bits(report.inertia_rise, f.reference_report.inertia_rise));
  EXPECT_TRUE(same_bits(report.size_skew_rise, f.reference_report.size_skew_rise));

  EXPECT_EQ(slurp(out), f.reference_bytes) << "delta bundle at P=" << nprocs
                                           << " differs from the frozen-model recompute";
  std::filesystem::remove(out);
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, DeltaEquivalenceTest,
    ::testing::Values(DeltaCase{1, ga::Backend::kThread}, DeltaCase{2, ga::Backend::kThread},
                      DeltaCase{4, ga::Backend::kThread}, DeltaCase{1, ga::Backend::kProcess},
                      DeltaCase{2, ga::Backend::kProcess},
                      DeltaCase{4, ga::Backend::kProcess}),
    [](const ::testing::TestParamInfo<DeltaCase>& info) {
      // Appended piecewise: GCC 12 flags the temporary operator+ chain
      // with -Wrestrict in Release builds.
      std::string name = "P";
      name += std::to_string(info.param.nprocs);
      name += '_';
      name += ga::backend_name(info.param.backend);
      return name;
    });

TEST(DeltaTest, RecomputeItselfIsProcessorCountIndependent) {
  const Fixture& f = fixture();
  const auto out = fresh_path("recompute_p4");
  ga::spmd_run(4, [&](ga::Context& ctx) {
    (void)recompute_generation(ctx, f.base, f.reader, out);
  });
  EXPECT_EQ(slurp(out), f.reference_bytes);
  std::filesystem::remove(out);
}

// ---- query equivalence over the new generation ---------------------------

TEST(DeltaTest, QueriesOverTheDeltaGenerationMatchTheRecompute) {
  const Fixture& f = fixture();
  const auto out = fresh_path("query_equiv");
  const corpus::SliceReader tail(f.reader, f.n_base, f.reader.size());
  ga::spmd_run(2, [&](ga::Context& ctx) {
    (void)ingest_delta(ctx, f.base, tail, out);
  });
  ga::spmd_run(4, [&](ga::Context& ctx) {
    auto session = query::Session::open(ctx, out);
    EXPECT_EQ(session.num_documents(), f.reader.size());
    EXPECT_EQ(session.generation(), 1u);
    EXPECT_EQ(session.lineage(), f.reference_report.lineage);
    const auto hits = session.similar(f.probe_doc, 8);
    if (ctx.rank() != 0) return;
    ASSERT_EQ(hits.size(), f.reference_hits.size());
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].doc_id, f.reference_hits[i].doc_id) << i;
      EXPECT_TRUE(same_bits(hits[i].similarity, f.reference_hits[i].similarity)) << i;
    }
  });
  std::filesystem::remove(out);
}

// ---- generation chain and drift ------------------------------------------

TEST(DeltaTest, SecondDeltaAdvancesTheChain) {
  const Fixture& f = fixture();
  // Split the tail in two: gen1 takes the first half, gen2 the rest.
  const std::size_t mid = f.n_base + (f.reader.size() - f.n_base) / 2;
  const auto gen1 = fresh_path("chain_gen1");
  const auto gen2 = fresh_path("chain_gen2");
  const corpus::SliceReader first(f.reader, f.n_base, mid);
  const corpus::SliceReader second(f.reader, mid, f.reader.size());
  DeltaReport r1, r2;
  ga::spmd_run(2, [&](ga::Context& ctx) {
    const auto a = ingest_delta(ctx, f.base, first, gen1);
    const auto b = ingest_delta(ctx, gen1, second, gen2);
    if (ctx.rank() == 0) {
      r1 = a;
      r2 = b;
    }
  });
  EXPECT_EQ(r1.generation, 1u);
  EXPECT_EQ(r2.generation, 2u);
  EXPECT_EQ(r2.base_records, mid);

  // gen2 holds the whole corpus and answers exactly like the one-shot
  // next generation over the same documents (same frozen model, same
  // final point set — only the generation metadata differs).
  ga::spmd_run(1, [&](ga::Context& ctx) {
    BundleView base_view = load_bundle(ctx, f.base);
    BundleView v1 = load_bundle(ctx, gen1);
    BundleView v2 = load_bundle(ctx, gen2);
    require_extends(base_view, v1);  // must not throw
    require_extends(v1, v2);
    sva::require(v2.num_records == f.reader.size(), "gen2 must hold the whole corpus");
    sva::require(v2.generation.parent_lineage == v1.generation.lineage,
                 "gen2 must link to gen1");
  });
  std::filesystem::remove(gen1);
  std::filesystem::remove(gen2);
}

TEST(DeltaTest, DriftThresholdsFlagRecluster) {
  const Fixture& f = fixture();
  const auto out = fresh_path("drift");
  const corpus::SliceReader tail(f.reader, f.n_base, f.reader.size());
  // Impossible-to-satisfy thresholds: any measured drift (even negative
  // rise) exceeds them, so the flag must be set — and must travel through
  // the written generation section into the reopened view and Session.
  DeltaOptions options;
  options.max_inertia_rise = -1.0;
  options.max_size_skew_rise = -1.0;
  DeltaReport report;
  ga::spmd_run(2, [&](ga::Context& ctx) {
    const auto r = ingest_delta(ctx, f.base, tail, out, options);
    if (ctx.rank() == 0) report = r;
  });
  EXPECT_TRUE(report.recluster_recommended);
  ga::spmd_run(1, [&](ga::Context& ctx) {
    const BundleView view = load_bundle(ctx, out);
    sva::require(view.generation.recluster_recommended,
                 "recluster flag must persist in the bundle");
    sva::require(same_bits(view.generation.max_inertia_rise, -1.0),
                 "judged thresholds must persist in the bundle");
    auto session = query::Session::open(ctx, out);
    sva::require(session.recluster_recommended(), "Session must surface the flag");
  });
  std::filesystem::remove(out);
}

TEST(DeltaTest, BaseWithoutEmbeddedConfigIsRejected) {
  // A bundle exported through the fingerprint-only overload carries no
  // serialized engine configuration and cannot be extended; the error
  // must say why.
  const Fixture& f = fixture();
  const auto bare = fresh_path("bare");
  const auto sources = corpus::generate_corpus(delta_spec());
  ga::spmd_run(1, [&](ga::Context& ctx) {
    const auto result = run_text_engine(ctx, sources, delta_config());
    export_bundle(ctx, result, Engine::config_fingerprint(delta_config()), bare);
  });
  const corpus::SliceReader tail(f.reader, f.n_base, f.reader.size());
  const auto out = fresh_path("bare_out");
  try {
    ga::spmd_run(1, [&](ga::Context& ctx) {
      (void)ingest_delta(ctx, bare, tail, out);
    });
    FAIL() << "ingest over an inextensible base must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("base bundle"), std::string::npos) << e.what();
  }
  std::filesystem::remove(bare);
}

}  // namespace
}  // namespace sva::engine

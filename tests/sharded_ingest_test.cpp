// Sharded out-of-core ingestion: the non-negotiable invariant is that
// the sharded pipeline's EngineResult checksum is byte-identical to the
// single-pass engine for every shard count and processor count, and that
// every merged stage-1-2 product (vocabulary, term statistics, record
// streams, term→record postings) equals its single-pass counterpart.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "backend_testutil.hpp"
#include "sva/corpus/generator.hpp"
#include "sva/corpus/reader.hpp"
#include "sva/engine/digest.hpp"
#include "sva/engine/engine.hpp"
#include "sva/engine/ingest.hpp"
#include "sva/engine/pipeline.hpp"
#include "sva/util/error.hpp"

namespace sva::engine {
namespace {

corpus::CorpusSpec small_spec(corpus::CorpusKind kind) {
  corpus::CorpusSpec spec;
  spec.kind = kind;
  spec.seed = 4321;
  spec.target_bytes = 96 << 10;
  spec.core_vocabulary = 1200;
  spec.num_themes = 5;
  spec.theme_vocabulary = 80;
  spec.theme_token_fraction = 0.3;
  return spec;
}

EngineConfig small_config() {
  EngineConfig config;
  config.topicality.num_major_terms = 150;
  config.kmeans.k = 5;
  return config;
}

std::uint64_t sharded_checksum(const corpus::CorpusReader& reader, const EngineConfig& config,
                               int nprocs, std::size_t shards) {
  Engine engine(config);
  PipelineOptions options;
  options.sharding.num_shards = shards;
  std::uint64_t checksum = 0;
  ga::spmd_run(nprocs, [&](ga::Context& ctx) {
    auto result = engine.run(ctx, reader, options);
    ASSERT_TRUE(result.has_value());
    if (ctx.rank() == 0) checksum = result_checksum(*result);
  });
  return checksum;
}

// ---- readers ----------------------------------------------------------

TEST(ReaderTest, GeneratedReaderMatchesGenerateCorpus) {
  const auto spec = small_spec(corpus::CorpusKind::kTrecLike);
  const auto sources = corpus::generate_corpus(spec);
  const corpus::GeneratedReader reader(spec);

  ASSERT_EQ(reader.size(), sources.size());
  EXPECT_EQ(reader.total_bytes(), sources.total_bytes());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(reader.doc_bytes(i), sources[i].bytes());
    const corpus::RawDocument doc = reader.read(i);
    EXPECT_EQ(doc.id, sources[i].id);
    ASSERT_EQ(doc.fields.size(), sources[i].fields.size());
    for (std::size_t f = 0; f < doc.fields.size(); ++f) {
      EXPECT_EQ(doc.fields[f].name, sources[i].fields[f].name);
      EXPECT_EQ(doc.fields[f].text, sources[i].fields[f].text);
    }
  }
}

TEST(ReaderTest, InMemoryReaderBorrowsWithoutCopy) {
  const auto sources = corpus::generate_corpus(small_spec(corpus::CorpusKind::kPubMedLike));
  const corpus::InMemoryReader reader(sources);
  ASSERT_EQ(reader.size(), sources.size());
  corpus::RawDocument scratch;
  const corpus::RawDocument* doc = reader.fetch(3, scratch);
  EXPECT_EQ(doc, &sources[3]);  // resident storage, no copy
}

TEST(ReaderTest, PlanShardsCoversCorpusContiguously) {
  const auto sources = corpus::generate_corpus(small_spec(corpus::CorpusKind::kPubMedLike));
  const corpus::InMemoryReader reader(sources);
  for (const std::size_t shards : {1u, 2u, 5u, 13u}) {
    const auto plan = corpus::plan_shards(reader, {.num_shards = shards});
    ASSERT_EQ(plan.size(), shards);
    EXPECT_EQ(plan.front().first, 0u);
    EXPECT_EQ(plan.back().second, reader.size());
    for (std::size_t s = 1; s < plan.size(); ++s) {
      EXPECT_EQ(plan[s].first, plan[s - 1].second);
    }
  }
}

TEST(ReaderTest, PlanShardsHonorsMemoryBudget) {
  const auto sources = corpus::generate_corpus(small_spec(corpus::CorpusKind::kPubMedLike));
  const corpus::InMemoryReader reader(sources);
  const std::size_t budget = reader.total_bytes() / 7;
  const auto plan = corpus::plan_shards(reader, {.mem_budget_bytes = budget});
  EXPECT_GE(plan.size(), 7u);
  // Byte-balanced contiguous cuts: every shard stays within ~a document
  // of the budget.
  std::size_t max_doc = 0;
  for (std::size_t i = 0; i < reader.size(); ++i) {
    max_doc = std::max(max_doc, reader.doc_bytes(i));
  }
  for (const auto& [begin, end] : plan) {
    std::size_t bytes = 0;
    for (std::size_t i = begin; i < end; ++i) bytes += reader.doc_bytes(i);
    EXPECT_LE(bytes, budget + max_doc);
  }
}

TEST(ReaderTest, SliceShardGivesEveryRankAShareOfEveryShard) {
  const auto sources = corpus::generate_corpus(small_spec(corpus::CorpusKind::kTrecLike));
  const corpus::InMemoryReader reader(sources);
  const auto sizes = reader.doc_sizes();
  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    for (const int nprocs : {1, 2, 3, 4, 8}) {
      for (const auto& shard : corpus::plan_shards(reader, {.num_shards = shards})) {
        const auto slices = corpus::slice_shard(sizes, shard, nprocs);
        ASSERT_EQ(slices.size(), static_cast<std::size_t>(nprocs));
        EXPECT_EQ(slices.front().first, shard.first);
        EXPECT_EQ(slices.back().second, shard.second);
        for (std::size_t r = 0; r < slices.size(); ++r) {
          if (r > 0) {
            EXPECT_EQ(slices[r].first, slices[r - 1].second);
          }
          if (shard.second - shard.first >= static_cast<std::size_t>(nprocs)) {
            EXPECT_LT(slices[r].first, slices[r].second)
                << "rank " << r << " idle in shard [" << shard.first << ", " << shard.second
                << ") at P=" << nprocs;
          }
        }
      }
    }
  }
  // A document larger than a byte share still leaves every rank a slice.
  const std::vector<std::size_t> skewed = {5, 1000, 1, 1, 1, 1};
  const auto slices = corpus::slice_shard(skewed, {1, 6}, 4);
  ASSERT_EQ(slices.size(), 4u);
  for (std::size_t r = 0; r < slices.size(); ++r) {
    EXPECT_EQ(slices[r].first, 1 + r);
    EXPECT_EQ(slices[r].second, r == 3 ? 6 : 2 + r);
  }
  // Fewer documents than ranks: the slices still cover the shard in order.
  const auto few = corpus::slice_shard(skewed, {2, 4}, 4);
  ASSERT_EQ(few.size(), 4u);
  EXPECT_EQ(few.front().first, 2u);
  EXPECT_EQ(few.back().second, 4u);
}

// ---- merged stage-1-2 products ----------------------------------------

/// The generated corpus plus one large document and three large
/// token-free ones, so some shard plans hold a shard with fewer documents
/// than ranks and a shard whose documents hold no tokens.
corpus::SourceSet edge_corpus() {
  auto sources = corpus::generate_corpus(small_spec(corpus::CorpusKind::kPubMedLike));
  const std::size_t width = sources.total_bytes() / 3;
  std::string text;
  for (std::size_t i = 0; text.size() < width; ++i) {
    text += sources[i % sources.size()].fields.back().text + " ";
  }
  sources.add({.id = sources.size(), .fields = {{"TI", "sharded edge"}, {"AB", text}}});
  for (int i = 0; i < 3; ++i) {
    sources.add({.id = sources.size(), .fields = {{"NOTE", std::string(width, '.')}}});
  }
  return sources;
}

/// Collective: ingests `sources` single-pass and sharded, and throws
/// (sva::require) at the first product that differs.  Throwing instead of
/// EXPECTing keeps the check alive in the forked ranks of the process and
/// socket backends.
void check_sharded_matches_single_pass(ga::Context& ctx, const corpus::SourceSet& sources,
                                       std::size_t shards) {
  const corpus::InMemoryReader reader(sources);
  const EngineConfig config = small_config();
  const std::string where =
      " (P=" + std::to_string(ctx.nprocs()) + ", shards=" + std::to_string(shards) + ")";
  const auto check = [&](bool same, const char* what) { require(same, what + where); };

  ga::StageTimer timer_a(ctx);
  IngestState single =
      ingest_single_pass(ctx, sources, config.tokenizer, config.indexing, timer_a);
  ga::StageTimer timer_b(ctx);
  IngestState sharded = ingest_sharded(ctx, reader, config.tokenizer, config.indexing,
                                       {.num_shards = shards}, timer_b);

  check(sharded.shards_used == shards, "shard count");
  check(sharded.num_records == single.num_records, "record count");
  check(sharded.num_terms == single.num_terms, "term count");
  check(sharded.total_term_occurrences == single.total_term_occurrences, "occurrences");
  check(sharded.vocabulary->terms == single.vocabulary->terms, "vocabulary");
  check(sharded.field_type_names == single.field_type_names, "field types");

  // Per-rank record streams (ownership follows the same partition).
  check(sharded.records.size() == single.records.size(), "records on this rank");
  for (std::size_t i = 0; i < single.records.size(); ++i) {
    const auto& a = sharded.records[i];
    const auto& b = single.records[i];
    check(a.doc_id == b.doc_id && a.raw_bytes == b.raw_bytes, "record header");
    check(a.fields.size() == b.fields.size(), "record field count");
    for (std::size_t f = 0; f < b.fields.size(); ++f) {
      check(a.fields[f].type == b.fields[f].type, "field type");
      check(a.fields[f].terms == b.fields[f].terms, "field terms");
    }
  }

  // Gathered products: exact statistics, merged postings, forward CSR.
  const auto check_array = [&](const auto& a, const auto& b, const char* what) {
    check(a.to_vector(ctx) == b.to_vector(ctx), what);
  };
  check_array(sharded.stats.term_frequency, single.stats.term_frequency, "term frequencies");
  check_array(sharded.stats.doc_frequency, single.stats.doc_frequency, "doc frequencies");
  check(sharded.index.total_record_postings == single.index.total_record_postings, "postings");
  check_array(sharded.index.record_offsets, single.index.record_offsets, "posting offsets");
  check_array(sharded.index.record_postings, single.index.record_postings, "postings");
  check(sharded.forward.num_fields == single.forward.num_fields, "forward fields");
  check(sharded.forward.total_terms == single.forward.total_terms, "forward term count");
  check_array(sharded.forward.field_terms, single.forward.field_terms, "forward terms");
  check_array(sharded.forward.field_record, single.forward.field_record, "forward records");
  // No rank may drop its arrays while a peer still reads them one-sidedly.
  ctx.barrier();
}

void check_backend(ga::Backend backend) {
  const corpus::SourceSet sources = edge_corpus();
  for (const int nprocs : {2, 3, 4}) {
    for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
      ga::SpmdOptions world;
      world.nprocs = nprocs;
      world.backend = backend;
      ga::spmd_run(world, [&](ga::Context& ctx) {
        check_sharded_matches_single_pass(ctx, sources, shards);
      });
    }
  }
}

TEST(ShardedIngestTest, EdgeCorpusHasSmallAndTokenFreeShards) {
  const corpus::SourceSet sources = edge_corpus();
  const corpus::InMemoryReader reader(sources);
  const auto plan = corpus::plan_shards(reader, {.num_shards = 7});
  const std::size_t token_free_begin = sources.size() - 3;
  bool small = false;
  bool token_free = false;
  for (const auto& [begin, end] : plan) {
    small = small || (end > begin && end - begin < 2);
    token_free = token_free || (end > begin && begin >= token_free_begin);
  }
  EXPECT_TRUE(small) << "no shard holds fewer documents than P=2 ranks";
  EXPECT_TRUE(token_free) << "no shard is token-free";
}

TEST(ShardedIngestTest, MergedProductsMatchSinglePass) {
  check_backend(ga::Backend::kThread);
}

TEST(ShardedIngestTest, MergedProductsMatchSinglePassOnProcesses) {
  SVA_REQUIRE_PROCESS_BACKEND();
  check_backend(ga::Backend::kProcess);
}

TEST(ShardedIngestTest, MergedProductsMatchSinglePassOnSockets) {
  SVA_REQUIRE_SOCKET_BACKEND();
  check_backend(ga::Backend::kSocket);
}

// ---- the acceptance invariant -----------------------------------------

class ShardedKindTest : public ::testing::TestWithParam<corpus::CorpusKind> {};

TEST_P(ShardedKindTest, ChecksumIdenticalToSinglePassAcrossShardAndProcCounts) {
  const auto spec = small_spec(GetParam());
  const auto sources = corpus::generate_corpus(spec);
  const corpus::GeneratedReader reader(spec);
  const EngineConfig config = small_config();

  // Single-pass baseline through the classic entry point.
  const std::uint64_t baseline =
      result_checksum(run_pipeline(1, ga::CommModel{}, sources, config).result);

  for (const std::size_t shards : {1u, 2u, 5u}) {
    for (const int nprocs : {1, 4}) {
      EXPECT_EQ(sharded_checksum(reader, config, nprocs, shards), baseline)
          << "diverged at shards=" << shards << " nprocs=" << nprocs;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, ShardedKindTest,
                         ::testing::Values(corpus::CorpusKind::kPubMedLike,
                                           corpus::CorpusKind::kTrecLike),
                         [](const auto& info) {
                           return info.param == corpus::CorpusKind::kPubMedLike ? "PubMedLike"
                                                                                : "TrecLike";
                         });

}  // namespace
}  // namespace sva::engine

// Tests for parallel FAST-INV: the inverted index must equal the
// transpose of the forward index for every processor count and every
// scheduling strategy, and term statistics must match serial counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "sva/corpus/generator.hpp"
#include "sva/corpus/lexicon.hpp"
#include "sva/index/inverted_index.hpp"
#include "test_models.hpp"
#include "test_oracles.hpp"

namespace sva::index {
namespace {

text::TokenizerConfig test_tokenizer() {
  text::TokenizerConfig c;
  c.min_length = 2;
  c.use_stopwords = false;
  return c;
}

corpus::SourceSet synthetic_corpus(std::size_t bytes = 64 << 10) {
  corpus::CorpusSpec spec;
  spec.kind = corpus::CorpusKind::kTrecLike;  // irregular docs stress LB
  spec.target_bytes = bytes;
  spec.core_vocabulary = 800;
  spec.num_themes = 4;
  spec.theme_vocabulary = 60;
  spec.giant_doc_fraction = 0.02;
  return corpus::generate_corpus(spec);
}

struct Param {
  int nprocs;
  ga::Scheduling scheduling;
};

class IndexSweepTest : public ::testing::TestWithParam<Param> {};

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  std::string name = std::string(ga::scheduling_name(info.param.scheduling)) + "_p" +
                     std::to_string(info.param.nprocs);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

TEST_P(IndexSweepTest, RecordPostingsMatchOracle) {
  const auto [nprocs, scheduling] = GetParam();
  const auto sources = sva::testing::tiny_corpus();
  const auto oracle = sva::testing::serial_scan(sources, test_tokenizer());

  ga::spmd_run(nprocs, [&](ga::Context& ctx) {
    const auto scan = text::scan_sources(ctx, sources, test_tokenizer());
    IndexingConfig config;
    config.scheduling = scheduling;
    config.chunk_fields = 2;
    const IndexingResult r =
        build_inverted_index(ctx, scan.forward, scan.vocabulary->size(), config);

    const auto offsets = r.index.record_offsets.to_vector(ctx);
    const auto postings = r.index.record_postings.to_vector(ctx);
    for (const auto& [term, docs] : oracle.term_documents) {
      const auto t = static_cast<std::size_t>(term);
      const auto begin = static_cast<std::size_t>(offsets[t]);
      const auto end = static_cast<std::size_t>(offsets[t + 1]);
      const std::set<std::int64_t> got(postings.begin() + begin, postings.begin() + end);
      EXPECT_EQ(got, docs) << "term " << scan.vocabulary->terms[t];
      EXPECT_EQ(end - begin, docs.size());  // dedup: no repeats
    }
  });
}

TEST_P(IndexSweepTest, FieldPostingsMatchOracle) {
  const auto [nprocs, scheduling] = GetParam();
  const auto sources = sva::testing::tiny_corpus();
  const auto oracle = sva::testing::serial_scan(sources, test_tokenizer());

  ga::spmd_run(nprocs, [&](ga::Context& ctx) {
    const auto scan = text::scan_sources(ctx, sources, test_tokenizer());
    IndexingConfig config;
    config.scheduling = scheduling;
    config.chunk_fields = 3;
    const IndexingResult r =
        build_inverted_index(ctx, scan.forward, scan.vocabulary->size(), config);

    const auto offsets = r.index.field_offsets.to_vector(ctx);
    const auto postings = r.index.field_postings.to_vector(ctx);
    for (const auto& [term, fields] : oracle.term_fields) {
      const auto t = static_cast<std::size_t>(term);
      const auto begin = static_cast<std::size_t>(offsets[t]);
      const auto end = static_cast<std::size_t>(offsets[t + 1]);
      const std::set<std::int64_t> got(postings.begin() + begin, postings.begin() + end);
      EXPECT_EQ(got, fields);
      // Postings were canonicalized (sorted) after placement.
      EXPECT_TRUE(std::is_sorted(postings.begin() + begin, postings.begin() + end));
    }
  });
}

TEST_P(IndexSweepTest, TermStatsMatchOracle) {
  const auto [nprocs, scheduling] = GetParam();
  const auto sources = sva::testing::tiny_corpus();
  const auto oracle = sva::testing::serial_scan(sources, test_tokenizer());

  ga::spmd_run(nprocs, [&](ga::Context& ctx) {
    const auto scan = text::scan_sources(ctx, sources, test_tokenizer());
    IndexingConfig config;
    config.scheduling = scheduling;
    const IndexingResult r =
        build_inverted_index(ctx, scan.forward, scan.vocabulary->size(), config);

    const auto tf = r.stats.term_frequency.to_vector(ctx);
    const auto df = r.stats.doc_frequency.to_vector(ctx);
    for (const auto& [term, freq] : oracle.term_frequency) {
      EXPECT_EQ(tf[static_cast<std::size_t>(term)], freq);
    }
    for (const auto& [term, docs] : oracle.term_documents) {
      EXPECT_EQ(df[static_cast<std::size_t>(term)],
                static_cast<std::int64_t>(docs.size()));
    }
    EXPECT_EQ(r.stats.num_records, sources.size());
    EXPECT_EQ(r.stats.total_occurrences, oracle.total_terms);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndexSweepTest,
    ::testing::Values(Param{1, ga::Scheduling::kOwnerFirst},
                      Param{2, ga::Scheduling::kOwnerFirst},
                      Param{3, ga::Scheduling::kOwnerFirst},
                      Param{4, ga::Scheduling::kOwnerFirst},
                      Param{8, ga::Scheduling::kOwnerFirst},
                      Param{4, ga::Scheduling::kStatic},
                      Param{4, ga::Scheduling::kAtomicCounter},
                      Param{4, ga::Scheduling::kMasterWorker}),
    param_name);

class IndexSyntheticTest : public ::testing::TestWithParam<int> {};

TEST_P(IndexSyntheticTest, PostingCountsConsistentOnSyntheticCorpus) {
  const int nprocs = GetParam();
  const auto sources = synthetic_corpus();
  const auto oracle = sva::testing::serial_scan(sources, test_tokenizer());

  ga::spmd_run(nprocs, [&](ga::Context& ctx) {
    const auto scan = text::scan_sources(ctx, sources, test_tokenizer());
    const IndexingResult r =
        build_inverted_index(ctx, scan.forward, scan.vocabulary->size(), {});

    std::size_t expected_record_postings = 0;
    for (const auto& [term, docs] : oracle.term_documents) {
      expected_record_postings += docs.size();
    }
    std::size_t expected_field_postings = 0;
    for (const auto& [term, fields] : oracle.term_fields) {
      expected_field_postings += fields.size();
    }
    EXPECT_EQ(r.index.total_record_postings, expected_record_postings);
    EXPECT_EQ(r.index.total_field_postings, expected_field_postings);
  });
}

TEST_P(IndexSyntheticTest, LoadBalanceReportIsComplete) {
  const int nprocs = GetParam();
  const auto sources = synthetic_corpus();
  ga::spmd_run(nprocs, [&](ga::Context& ctx) {
    const auto scan = text::scan_sources(ctx, sources, test_tokenizer());
    const IndexingResult r =
        build_inverted_index(ctx, scan.forward, scan.vocabulary->size(), {});
    ASSERT_EQ(r.load_balance.busy_seconds.size(), static_cast<std::size_t>(nprocs));
    ASSERT_EQ(r.load_balance.loads_claimed.size(), static_cast<std::size_t>(nprocs));
    std::int64_t total_loads = 0;
    for (auto l : r.load_balance.loads_claimed) total_loads += l;
    // The owner-first queue chunks each rank's owned range separately, so
    // the total is the sum of per-range ceilings (default chunk = 128).
    std::uint64_t expected = 0;
    for (const auto& [fb, fe] : scan.forward.rank_field_ranges) {
      expected += (fe - fb + 127) / 128;
    }
    EXPECT_EQ(static_cast<std::uint64_t>(total_loads), expected);
    EXPECT_GE(r.load_balance.imbalance(), 1.0 - 1e-9);
    EXPECT_GE(r.load_balance.max_busy(), r.load_balance.mean_busy() - 1e-12);
  });
}

INSTANTIATE_TEST_SUITE_P(Procs, IndexSyntheticTest, ::testing::Values(1, 2, 4));

TEST(IndexTest, DynamicBeatsStaticOnSkewedLoad) {
  // With an extremely skewed corpus (one rank owns a giant document), the
  // dynamic queue's modeled placement imbalance must not exceed static's.
  corpus::SourceSet s;
  {
    corpus::RawDocument giant;
    giant.id = 0;
    std::string body;
    for (int i = 0; i < 30000; ++i) {
      body += corpus::Lexicon::word(static_cast<std::uint64_t>(i % 700));
      body += ' ';
    }
    giant.fields.push_back({"body", body});
    s.add(std::move(giant));
    for (int d = 1; d < 60; ++d) {
      corpus::RawDocument small;
      small.id = static_cast<std::uint64_t>(d);
      std::string body;
      for (int i = 0; i < 50; ++i) {
        body += corpus::Lexicon::word(static_cast<std::uint64_t>((i * d) % 700));
        body += ' ';
      }
      small.fields.push_back({"body", body});
      s.add(std::move(small));
    }
  }

  auto run = [&](ga::Scheduling scheduling) {
    auto imbalance = std::make_shared<double>(0.0);
    // Imbalance is a modeled figure: the gate makes the dynamic schedule
    // that of concurrent ranks however the host runs the threads.
    ga::spmd_run(4, sva::testing::vtime_ordered(), [&](ga::Context& ctx) {
      const auto scan = text::scan_sources(ctx, s, test_tokenizer());
      IndexingConfig config;
      config.scheduling = scheduling;
      config.chunk_fields = 1;
      const auto r = build_inverted_index(ctx, scan.forward, scan.vocabulary->size(), config);
      if (ctx.rank() == 0) *imbalance = r.load_balance.imbalance();
    });
    return *imbalance;
  };

  const double dynamic_imbalance = run(ga::Scheduling::kOwnerFirst);
  const double static_imbalance = run(ga::Scheduling::kStatic);
  EXPECT_LE(dynamic_imbalance, static_imbalance + 0.05);
}

TEST(IndexTest, EmptyVocabularyThrows) {
  ga::spmd_run(1, [](ga::Context& ctx) {
    text::ForwardIndex fwd;
    EXPECT_THROW((void)build_inverted_index(ctx, fwd, 0, {}), InvalidArgument);
  });
}

}  // namespace
}  // namespace sva::index

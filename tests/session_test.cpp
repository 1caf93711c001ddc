// Tests for the sessionized query plane: the batched sweep against the
// classic one-shot path (bit-identical by construction), P-invariance of
// every query result — including the cohesion reduction, now a
// fixed-point bank — and a Session over an exported bundle against the
// free functions over the live products.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "backend_testutil.hpp"
#include "sva/cluster/kmeans.hpp"
#include "sva/cluster/pca.hpp"
#include "sva/cluster/projection.hpp"
#include "sva/engine/bundle.hpp"
#include "sva/engine/engine.hpp"
#include "sva/query/session.hpp"
#include "temp_path.hpp"
#include "test_oracles.hpp"

namespace sva::query {
namespace {

/// Deterministic block-distributed signature set (three angular groups),
/// the same construction query_test uses.  With `tie_groups` > 0 the
/// noise is dropped and row g carries pattern g % tie_groups exactly, so
/// each pattern's documents tie on every score, across ranks; row g is
/// then document (7g mod n) (n coprime to 7), so rows do not arrive in
/// doc-id order and only the doc-id tie-break can decide a cut.
sig::SignatureSet make_signatures(ga::Context& ctx, std::size_t n, std::size_t dim,
                                  std::size_t tie_groups = 0) {
  const auto nprocs = static_cast<std::size_t>(ctx.nprocs());
  const std::size_t per = (n + nprocs - 1) / nprocs;
  const std::size_t begin = std::min(n, static_cast<std::size_t>(ctx.rank()) * per);
  const std::size_t end = std::min(n, begin + per);

  sig::SignatureSet s;
  s.dimension = dim;
  s.docvecs = Matrix(end - begin, dim);
  for (std::size_t g = begin; g < end; ++g) {
    const std::size_t i = g - begin;
    const std::size_t groups = tie_groups == 0 ? 3 : tie_groups;
    const std::size_t group = g % groups;
    for (std::size_t d = 0; d < dim; ++d) {
      const double base = (d % groups == group) ? 1.0 : 0.05;
      const double noise =
          tie_groups == 0 ? 0.01 * static_cast<double>((g * 7 + d * 13) % 10) : 0.0;
      s.docvecs.at(i, d) = base + noise;
    }
    s.doc_ids.push_back(static_cast<std::uint64_t>(tie_groups == 0 ? g : g * 7 % n));
    s.is_null.push_back(false);
  }
  return s;
}

/// Bitwise double equality (the contract is byte-identity, not epsilon).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_hits(const std::vector<SimilarDoc>& a, const std::vector<SimilarDoc>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc_id, b[i].doc_id) << "position " << i;
    EXPECT_TRUE(same_bits(a[i].similarity, b[i].similarity)) << "position " << i;
  }
}

void expect_same_summary(const ClusterSummary& a, const ClusterSummary& b) {
  EXPECT_EQ(a.cluster, b.cluster);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.top_terms, b.top_terms);
  EXPECT_EQ(a.representatives, b.representatives);
  EXPECT_TRUE(same_bits(a.cohesion, b.cohesion));
}

std::vector<Query> mixed_batch() {
  std::vector<Query> batch;
  batch.push_back(Query::similar_doc(5, 7));
  batch.push_back(Query::cluster_summary(0, 4));
  batch.push_back(Query::similar_doc(11, 5));
  batch.push_back(Query::similar_probe(std::vector<double>(9, 1.0), 6));
  batch.push_back(Query::cluster_summary(2, 3));
  return batch;
}

/// Runs the mixed batch at `nprocs` and returns rank 0's results.
std::vector<QueryResult> batch_at(int nprocs) {
  auto out = std::make_shared<std::vector<QueryResult>>();
  ga::spmd_run(nprocs, [&](ga::Context& ctx) {
    const auto s = make_signatures(ctx, 60, 9);
    cluster::KMeansConfig config;
    config.k = 3;
    const auto km = cluster::kmeans_cluster(ctx, s.docvecs, config);
    QueryInputs inputs{&s, &km.assignment, &km, nullptr};
    auto results = run_query_batch(ctx, inputs, mixed_batch());
    if (ctx.rank() == 0) *out = std::move(results);
  });
  return *out;
}

// ---- batched plane vs one-shot path ------------------------------------

TEST(BatchTest, BatchMatchesSingleQueriesBitIdentically) {
  ga::spmd_run(3, [](ga::Context& ctx) {
    const auto s = make_signatures(ctx, 60, 9);
    cluster::KMeansConfig config;
    config.k = 3;
    const auto km = cluster::kmeans_cluster(ctx, s.docvecs, config);

    const auto batch = mixed_batch();
    QueryInputs inputs{&s, &km.assignment, &km, nullptr};
    const auto results = run_query_batch(ctx, inputs, batch);
    ASSERT_EQ(results.size(), batch.size());

    expect_same_hits(results[0].hits, similar_to_document(ctx, s, 5, 7));
    expect_same_summary(results[1].summary,
                        summarize_cluster(ctx, s, km.assignment, km, {}, 0, 4));
    expect_same_hits(results[2].hits, similar_to_document(ctx, s, 11, 5));
    const std::vector<double> probe(9, 1.0);
    expect_same_hits(results[3].hits, similar_documents(ctx, s, probe, 6));
    expect_same_summary(results[4].summary,
                        summarize_cluster(ctx, s, km.assignment, km, {}, 2, 3));
  });
}

TEST(BatchTest, ResultsBitIdenticalAcrossProcessorCounts) {
  // Cohesion rides a fixed-point bank, so even the real-valued fields
  // must agree to the last bit for any P.
  const auto baseline = batch_at(1);
  for (const int nprocs : {2, 4}) {
    const auto other = batch_at(nprocs);
    ASSERT_EQ(baseline.size(), other.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      ASSERT_EQ(baseline[i].kind, other[i].kind);
      if (baseline[i].kind == Query::Kind::kClusterSummary) {
        expect_same_summary(baseline[i].summary, other[i].summary);
      } else {
        expect_same_hits(baseline[i].hits, other[i].hits);
      }
    }
  }
}

TEST(BatchTest, EmptyBatchReturnsEmpty) {
  ga::spmd_run(2, [](ga::Context& ctx) {
    const auto s = make_signatures(ctx, 12, 6);
    QueryInputs inputs{&s, nullptr, nullptr, nullptr};
    EXPECT_TRUE(run_query_batch(ctx, inputs, {}).empty());
  });
}

TEST(BatchTest, UnknownDocInBatchThrowsCollectively) {
  EXPECT_THROW(ga::spmd_run(2,
                            [](ga::Context& ctx) {
                              const auto s = make_signatures(ctx, 10, 6);
                              QueryInputs inputs{&s, nullptr, nullptr, nullptr};
                              const auto q = Query::similar_doc(999, 3);
                              (void)run_query_batch(ctx, inputs, {&q, 1});
                            }),
               Error);
}

TEST(BatchTest, SummaryWithoutClusteringThrows) {
  EXPECT_THROW(ga::spmd_run(1,
                            [](ga::Context& ctx) {
                              const auto s = make_signatures(ctx, 10, 6);
                              QueryInputs inputs{&s, nullptr, nullptr, nullptr};
                              const auto q = Query::cluster_summary(0);
                              (void)run_query_batch(ctx, inputs, {&q, 1});
                            }),
               Error);
}

TEST(BatchTest, DuplicateDocQueriesEachGetAnswers) {
  ga::spmd_run(2, [](ga::Context& ctx) {
    const auto s = make_signatures(ctx, 30, 6);
    QueryInputs inputs{&s, nullptr, nullptr, nullptr};
    std::vector<Query> batch = {Query::similar_doc(7, 4), Query::similar_doc(7, 4)};
    const auto results = run_query_batch(ctx, inputs, batch);
    expect_same_hits(results[0].hits, results[1].hits);
    EXPECT_EQ(results[0].hits.size(), 4u);
  });
}

// ---- Session over an exported bundle ------------------------------------

/// Builds a synthetic per-rank EngineResult whose products line up the
/// way the engine's do (signatures/assignment/projection row-aligned,
/// topic terms resolvable through the vocabulary).
engine::EngineResult make_result(ga::Context& ctx, std::size_t n, std::size_t dim,
                                 std::size_t k, std::size_t tie_groups = 0) {
  engine::EngineResult r;
  r.signatures = make_signatures(ctx, n, dim, tie_groups);
  r.dimension = dim;
  r.num_records = n;

  cluster::KMeansConfig config;
  config.k = k;
  r.clustering = cluster::kmeans_cluster(ctx, r.signatures.docvecs, config);

  const auto pca = cluster::pca_fit(r.clustering.centroids, 2);
  r.projection =
      cluster::project_documents(ctx, r.signatures.docvecs, r.signatures.doc_ids, pca);

  auto vocab = std::make_shared<ga::Vocabulary>();
  for (std::size_t d = 0; d < dim; ++d) {
    vocab->terms.push_back("term" + std::to_string(d));
    r.selection.topic_terms.push_back(static_cast<std::int64_t>(d));
  }
  r.num_terms = dim;
  r.vocabulary = std::move(vocab);
  for (std::size_t c = 0; c < r.clustering.centroids.rows(); ++c) {
    r.theme_labels.push_back({"label" + std::to_string(c)});
  }
  return r;
}

std::filesystem::path fresh_bundle(const std::string& name) {
  return sva::testing::test_temp_dir() / (name + ".svab");
}

class SessionProcsTest : public ::testing::TestWithParam<int> {};

TEST_P(SessionProcsTest, SessionMatchesFreeFunctionsAcrossWriteAndOpenP) {
  // Written at P=2, opened at P in {1, 2, 3, 4}: every Session answer
  // must be bit-identical to the free functions over the live products.
  const int open_procs = GetParam();
  const auto bundle = fresh_bundle("xp" + std::to_string(open_procs));

  struct Reference {
    std::vector<SimilarDoc> by_doc;
    std::vector<SimilarDoc> by_probe;
    std::vector<ClusterSummary> summaries;
    std::vector<double> all_xy;  // rank 0 drill projection
    Matrix drill_centroids;
    std::uint64_t drill_subset = 0;
  };
  auto ref = std::make_shared<Reference>();
  const std::vector<double> probe(9, 0.5);

  ga::spmd_run(2, [&](ga::Context& ctx) {
    const auto r = make_result(ctx, 72, 9, 3);
    engine::export_bundle(ctx, r, engine::EngineConfig{}, bundle);

    auto hits = similar_to_document(ctx, r.signatures, 4, 6);
    auto probe_hits = similar_documents(ctx, r.signatures, probe, 5);
    std::vector<ClusterSummary> summaries;
    for (int c = 0; c < 3; ++c) {
      summaries.push_back(summarize_cluster(ctx, r.signatures, r.clustering.assignment,
                                            r.clustering, r.theme_labels, c, 4));
    }
    cluster::KMeansConfig sub;
    sub.k = 2;
    auto drill = drill_down_cluster(ctx, r.signatures, r.clustering.assignment, 0, sub);
    if (ctx.rank() == 0) {
      ref->by_doc = std::move(hits);
      ref->by_probe = std::move(probe_hits);
      ref->summaries = std::move(summaries);
      ref->all_xy = std::move(drill.projection.all_xy);
      ref->drill_centroids = std::move(drill.clustering.centroids);
      ref->drill_subset = drill.subset_size;
    }
  });

  ga::spmd_run(open_procs, [&](ga::Context& ctx) {
    auto session = Session::open(ctx, bundle);
    EXPECT_EQ(session.num_documents(), 72u);
    EXPECT_EQ(session.dimension(), 9u);
    EXPECT_EQ(session.config_fingerprint(),
              engine::Engine::config_fingerprint(engine::EngineConfig{}));

    auto hits = session.similar(std::uint64_t{4}, 6);
    auto probe_hits = session.similar(probe, 5);
    cluster::KMeansConfig sub;
    sub.k = 2;
    auto drill = session.drill_down(0, sub);

    // Batched plane over the same session, interleaved kinds.
    std::vector<Query> batch;
    for (int c = 0; c < 3; ++c) batch.push_back(Query::cluster_summary(c, 4));
    batch.push_back(Query::similar_doc(4, 6));
    const auto results = session.run_batch(batch);

    if (ctx.rank() == 0) {
      expect_same_hits(hits, ref->by_doc);
      expect_same_hits(probe_hits, ref->by_probe);
      expect_same_hits(results[3].hits, ref->by_doc);
      for (int c = 0; c < 3; ++c) {
        expect_same_summary(results[static_cast<std::size_t>(c)].summary,
                            ref->summaries[static_cast<std::size_t>(c)]);
      }
      EXPECT_EQ(drill.subset_size, ref->drill_subset);
      ASSERT_EQ(drill.projection.all_xy.size(), ref->all_xy.size());
      for (std::size_t i = 0; i < ref->all_xy.size(); ++i) {
        EXPECT_TRUE(same_bits(drill.projection.all_xy[i], ref->all_xy[i])) << i;
      }
      ASSERT_EQ(drill.clustering.centroids.rows(), ref->drill_centroids.rows());
      for (std::size_t i = 0; i < ref->drill_centroids.flat().size(); ++i) {
        EXPECT_TRUE(
            same_bits(drill.clustering.centroids.flat()[i], ref->drill_centroids.flat()[i]))
            << i;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Procs, SessionProcsTest, ::testing::Values(1, 2, 3, 4));

TEST(SessionTest, ProcessBackendAnswersMatchThreadBackendBitIdentically) {
  // Serving-plane acceptance bar for the transport seam: a Session over
  // the same bundle must hand back bit-identical answers whether the
  // world is threads or forked shm processes, at every processor count.
  SVA_REQUIRE_PROCESS_BACKEND();
  const auto bundle = fresh_bundle("backend_sweep");
  ga::spmd_run(2, [&](ga::Context& ctx) {
    const auto r = make_result(ctx, 72, 9, 3);
    engine::export_bundle(ctx, r, engine::EngineConfig{}, bundle);
  });

  const auto answers = [&](ga::Backend backend, int nprocs) {
    auto out = std::make_shared<std::vector<QueryResult>>();
    ga::SpmdOptions world;
    world.nprocs = nprocs;
    world.backend = backend;
    ga::spmd_run(world, [&](ga::Context& ctx) {
      auto session = Session::open(ctx, bundle);
      std::vector<Query> batch;
      for (int c = 0; c < 3; ++c) batch.push_back(Query::cluster_summary(c, 4));
      batch.push_back(Query::similar_doc(4, 6));
      batch.push_back(Query::similar_probe(std::vector<double>(9, 0.5), 5));
      auto results = session.run_batch(batch);
      if (ctx.rank() == 0) *out = std::move(results);
    });
    return *out;
  };

  const auto baseline = answers(ga::Backend::kThread, 1);
  ASSERT_EQ(baseline.size(), 5u);
  for (const int nprocs : {1, 2, 4}) {
    const auto other = answers(ga::Backend::kProcess, nprocs);
    ASSERT_EQ(other.size(), baseline.size()) << "nprocs=" << nprocs;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      ASSERT_EQ(baseline[i].kind, other[i].kind) << "query " << i;
      if (baseline[i].kind == Query::Kind::kClusterSummary) {
        expect_same_summary(other[i].summary, baseline[i].summary);
      } else {
        expect_same_hits(other[i].hits, baseline[i].hits);
      }
    }
  }
}

TEST(SessionTest, SocketBackendAnswersMatchThreadBackendBitIdentically) {
  // The same serving-plane bar for the TCP transport: answers must be
  // bit-identical when the ranks are forked processes exchanging frames
  // over loopback sockets, at every processor count.
  SVA_REQUIRE_SOCKET_BACKEND();
  const auto bundle = fresh_bundle("socket_backend_sweep");
  ga::spmd_run(2, [&](ga::Context& ctx) {
    const auto r = make_result(ctx, 72, 9, 3);
    engine::export_bundle(ctx, r, engine::EngineConfig{}, bundle);
  });

  const auto answers = [&](ga::Backend backend, int nprocs) {
    auto out = std::make_shared<std::vector<QueryResult>>();
    ga::SpmdOptions world;
    world.nprocs = nprocs;
    world.backend = backend;
    ga::spmd_run(world, [&](ga::Context& ctx) {
      auto session = Session::open(ctx, bundle);
      std::vector<Query> batch;
      for (int c = 0; c < 3; ++c) batch.push_back(Query::cluster_summary(c, 4));
      batch.push_back(Query::similar_doc(4, 6));
      batch.push_back(Query::similar_probe(std::vector<double>(9, 0.5), 5));
      auto results = session.run_batch(batch);
      if (ctx.rank() == 0) *out = std::move(results);
    });
    return *out;
  };

  const auto baseline = answers(ga::Backend::kThread, 1);
  ASSERT_EQ(baseline.size(), 5u);
  for (const int nprocs : {1, 2, 4}) {
    const auto other = answers(ga::Backend::kSocket, nprocs);
    ASSERT_EQ(other.size(), baseline.size()) << "nprocs=" << nprocs;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      ASSERT_EQ(baseline[i].kind, other[i].kind) << "query " << i;
      if (baseline[i].kind == Query::Kind::kClusterSummary) {
        expect_same_summary(other[i].summary, baseline[i].summary);
      } else {
        expect_same_hits(other[i].hits, baseline[i].hits);
      }
    }
  }
}

TEST(SessionTest, LandscapeIsReplicatedAndGlobal) {
  const auto bundle = fresh_bundle("landscape");
  ga::spmd_run(2, [&](ga::Context& ctx) {
    const auto r = make_result(ctx, 40, 6, 2);
    engine::export_bundle(ctx, r, engine::EngineConfig{}, bundle);
  });
  const int nprocs = 3;
  auto per_rank = std::make_shared<std::vector<Landscape>>(static_cast<std::size_t>(nprocs));
  ga::spmd_run(nprocs, [&](ga::Context& ctx) {
    auto session = Session::open(ctx, bundle);
    (*per_rank)[static_cast<std::size_t>(ctx.rank())] = session.landscape();
  });
  for (int r = 0; r < nprocs; ++r) {
    const auto& land = (*per_rank)[static_cast<std::size_t>(r)];
    ASSERT_EQ(land.doc_ids.size(), 40u);
    ASSERT_EQ(land.xy.size(), 80u);
    EXPECT_EQ(land.doc_ids, (*per_rank)[0].doc_ids);
    EXPECT_EQ(land.xy, (*per_rank)[0].xy);
    // Global document order.
    for (std::size_t i = 0; i < land.doc_ids.size(); ++i) {
      EXPECT_EQ(land.doc_ids[i], static_cast<std::uint64_t>(i));
    }
  }
}

TEST(SessionTest, SubThemeLabelsResolveThroughTheVocabularySlice) {
  const auto bundle = fresh_bundle("sublabels");
  ga::spmd_run(1, [&](ga::Context& ctx) {
    const auto r = make_result(ctx, 30, 6, 2);
    engine::export_bundle(ctx, r, engine::EngineConfig{}, bundle);
    auto session = Session::open(ctx, bundle);
    cluster::KMeansConfig sub;
    sub.k = 2;
    const auto drill = session.drill_down(0, sub);
    const auto labels = session.sub_theme_labels(drill.clustering, 2);
    ASSERT_EQ(labels.size(), drill.clustering.centroids.rows());
    for (const auto& cluster_labels : labels) {
      ASSERT_EQ(cluster_labels.size(), 2u);
      for (const auto& term : cluster_labels) {
        EXPECT_EQ(term.rfind("term", 0), 0u) << term;
      }
    }
  });
}

TEST(SessionTest, TiedScoresAcrossRanksMatchTheBruteForceOracle) {
  // Four exact row patterns over 40 documents: every score ties within a
  // pattern's ten documents, which spread over every rank, and each k
  // below cuts through a tie group.  Doc-id order must decide the cut
  // exactly as a serial brute force does, whether the row norms come
  // from the Session (computed at open) or from the sweep itself.
  constexpr std::size_t kN = 40;
  constexpr std::size_t kDimT = 6;
  const auto bundle = fresh_bundle("ties");
  ga::spmd_run(2, [&](ga::Context& ctx) {
    const auto r = make_result(ctx, kN, kDimT, 4, /*tie_groups=*/4);
    engine::export_bundle(ctx, r, engine::EngineConfig{}, bundle);
  });

  std::vector<double> probe(kDimT, 0.05);
  probe[1] = probe[5] = 1.0;  // pattern 1 exactly
  const std::vector<Query> batch = {
      Query::similar_doc(8, 7),   Query::similar_doc(13, 4), Query::similar_probe(probe, 5),
      Query::cluster_summary(0, 3), Query::cluster_summary(2, 6),
  };

  for (const int nprocs : {1, 2, 4}) {
    ga::spmd_run(nprocs, [&](ga::Context& ctx) {
      auto session = Session::open(ctx, bundle);
      const auto& view = session.bundle();
      const QueryInputs bare{&view.signatures, &view.clustering.assignment, &view.clustering,
                             &view.theme_labels};
      const auto served = session.run_batch(batch);
      const auto swept = run_query_batch(ctx, bare, batch);

      // The oracle's inputs: every row, id and cluster, gathered.
      const auto ids = ctx.allgatherv(std::span<const std::uint64_t>(view.signatures.doc_ids));
      const auto rows = ctx.allgatherv(view.signatures.docvecs.flat());
      const auto assignment =
          ctx.allgatherv(std::span<const std::int32_t>(view.clustering.assignment));
      if (ctx.rank() != 0) return;

      for (std::size_t qi = 0; qi < batch.size(); ++qi) {
        const Query& q = batch[qi];
        SCOPED_TRACE("P=" + std::to_string(nprocs) + " query " + std::to_string(qi));
        if (q.kind == Query::Kind::kClusterSummary) {
          const auto row = view.clustering.centroids.row(static_cast<std::size_t>(q.cluster));
          const std::vector<double> centroid(row.begin(), row.end());
          const auto want = sva::testing::top_k_representatives(ids, rows, kDimT, assignment,
                                                                centroid, q.cluster, q.k + 1);
          ASSERT_EQ(want.size(), q.k + 1);
          EXPECT_TRUE(same_bits(want[q.k - 1].second, want[q.k].second)) << "k cuts no tie";
          std::vector<std::uint64_t> reps;
          for (std::size_t j = 0; j < q.k; ++j) reps.push_back(want[j].first);
          EXPECT_EQ(served[qi].summary.representatives, reps);
          EXPECT_EQ(swept[qi].summary.representatives, reps);
          continue;
        }
        std::vector<double> p = q.probe;
        std::optional<std::uint64_t> exclude;
        if (q.kind == Query::Kind::kSimilarByDoc) {
          const auto at = static_cast<std::size_t>(
              std::find(ids.begin(), ids.end(), q.doc_id) - ids.begin());
          p.assign(rows.begin() + static_cast<std::ptrdiff_t>(at * kDimT),
                   rows.begin() + static_cast<std::ptrdiff_t>((at + 1) * kDimT));
          exclude = q.doc_id;
        }
        auto want = sva::testing::top_k_similar(ids, rows, kDimT, p, q.k + 1, exclude);
        ASSERT_EQ(want.size(), q.k + 1);
        EXPECT_TRUE(same_bits(want[q.k - 1].second, want[q.k].second)) << "k cuts no tie";
        want.pop_back();
        std::vector<SimilarDoc> hits;
        for (const auto& [id, score] : want) hits.push_back({id, score});
        expect_same_hits(served[qi].hits, hits);
        expect_same_hits(swept[qi].hits, hits);
      }
    });
  }
}

TEST(SessionTest, ZeroRepresentativesKeepTheCohesion) {
  // A summary asking for no representatives still sweeps every member for
  // its cohesion; it only keeps none of them, on every rank that owns one.
  const auto bundle = fresh_bundle("zero_reps");
  ga::spmd_run(2, [&](ga::Context& ctx) {
    const auto r = make_result(ctx, 30, 6, 3);
    engine::export_bundle(ctx, r, engine::EngineConfig{}, bundle);
  });
  for (const int nprocs : {1, 2, 4}) {
    ga::spmd_run(nprocs, [&](ga::Context& ctx) {
      auto session = Session::open(ctx, bundle);
      const auto& view = session.bundle();
      for (int c = 0; c < 3; ++c) {
        SCOPED_TRACE("P=" + std::to_string(nprocs) + " cluster " + std::to_string(c));
        const auto none = session.cluster_summary(c, 0);
        const auto some = session.cluster_summary(c, 4);
        const auto free_none = summarize_cluster(ctx, view.signatures,
                                                 view.clustering.assignment, view.clustering,
                                                 view.theme_labels, c, 0);
        EXPECT_TRUE(none.representatives.empty());
        EXPECT_FALSE(some.representatives.empty());
        EXPECT_TRUE(same_bits(none.cohesion, some.cohesion));
        expect_same_summary(none, free_none);
      }
    });
  }
}

TEST(SessionTest, UnknownDocThrowsThroughTheSession) {
  const auto bundle = fresh_bundle("unknown");
  ga::spmd_run(1, [&](ga::Context& ctx) {
    const auto r = make_result(ctx, 20, 6, 2);
    engine::export_bundle(ctx, r, engine::EngineConfig{}, bundle);
  });
  EXPECT_THROW(ga::spmd_run(2,
                            [&](ga::Context& ctx) {
                              auto session = Session::open(ctx, bundle);
                              (void)session.similar(std::uint64_t{777}, 3);
                            }),
               Error);
}

}  // namespace
}  // namespace sva::query

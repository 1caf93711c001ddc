// Tests for the serving daemon stack (serve/): protocol grammar, result
// cache, work-conserving admission, coalescing behind a running sweep,
// cache-hit bit-identity against the uncached path, bundle reload
// invalidation, clean shutdown mid-batch, and the socket ingress end to
// end.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sva/cluster/kmeans.hpp"
#include "sva/cluster/pca.hpp"
#include "sva/cluster/projection.hpp"
#include "sva/corpus/generator.hpp"
#include "sva/corpus/reader.hpp"
#include "sva/engine/bundle.hpp"
#include "sva/engine/engine.hpp"
#include "sva/fault/fault.hpp"
#include "sva/serve/cache.hpp"
#include "sva/serve/ingress.hpp"
#include "sva/serve/protocol.hpp"
#include "sva/serve/scheduler.hpp"
#include "sva/serve/server.hpp"
#include "temp_path.hpp"

namespace sva::serve {
namespace {

// ---- fixture: a small exported bundle ----------------------------------

/// Deterministic block-distributed signature set (three angular groups),
/// the same construction session_test uses.
sig::SignatureSet make_signatures(ga::Context& ctx, std::size_t n, std::size_t dim) {
  const auto nprocs = static_cast<std::size_t>(ctx.nprocs());
  const std::size_t per = (n + nprocs - 1) / nprocs;
  const std::size_t begin = std::min(n, static_cast<std::size_t>(ctx.rank()) * per);
  const std::size_t end = std::min(n, begin + per);

  sig::SignatureSet s;
  s.dimension = dim;
  s.docvecs = Matrix(end - begin, dim);
  for (std::size_t g = begin; g < end; ++g) {
    const std::size_t i = g - begin;
    const std::size_t group = g % 3;
    for (std::size_t d = 0; d < dim; ++d) {
      const double base = (d % 3 == group) ? 1.0 : 0.05;
      s.docvecs.at(i, d) = base + 0.01 * static_cast<double>((g * 7 + d * 13) % 10);
    }
    s.doc_ids.push_back(static_cast<std::uint64_t>(g));
    s.is_null.push_back(false);
  }
  return s;
}

engine::EngineResult make_result(ga::Context& ctx, std::size_t n, std::size_t dim,
                                 std::size_t k) {
  engine::EngineResult r;
  r.signatures = make_signatures(ctx, n, dim);
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

constexpr std::size_t kDocs = 48;
constexpr std::size_t kDim = 9;
constexpr std::size_t kClusters = 3;

std::filesystem::path fresh_path(const std::string& name, const char* ext) {
  return sva::testing::test_temp_dir() / (name + ext);
}

/// Exports the standard test bundle (written at P=2) and returns its path.
std::filesystem::path make_bundle(const std::string& name) {
  const auto path = fresh_path(name, ".svab");
  ga::spmd_run(2, [&](ga::Context& ctx) {
    const auto r = make_result(ctx, kDocs, kDim, kClusters);
    engine::export_bundle(ctx, r, engine::EngineConfig{}, path);
  });
  return path;
}

/// One-shot reference: answers `queries` over a fresh Session at `procs`
/// ranks (the sva_query code path) and returns rank 0's rendered lines.
std::vector<std::string> oneshot_answers(const std::filesystem::path& bundle,
                                         const std::vector<query::Query>& queries,
                                         int procs) {
  auto out = std::make_shared<std::vector<std::string>>();
  ga::spmd_run(procs, [&](ga::Context& ctx) {
    auto session = query::Session::open(ctx, bundle);
    const auto results = session.run_batch(queries);
    if (ctx.rank() == 0) {
      for (const auto& r : results) out->push_back(format_result(r));
    }
  });
  return *out;
}

std::vector<query::Query> mixed_queries(std::size_t n) {
  std::vector<query::Query> qs;
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 3) {
      case 0:
        qs.push_back(query::Query::similar_doc(i % kDocs, 3 + i % 5));
        break;
      case 1:
        qs.push_back(query::Query::cluster_summary(static_cast<int>(i % kClusters),
                                                   2 + i % 3));
        break;
      default:
        qs.push_back(query::Query::similar_probe(
            std::vector<double>(kDim, 0.1 + 0.05 * static_cast<double>(i % 7)),
            2 + i % 4));
        break;
    }
  }
  return qs;
}

// ---- protocol ----------------------------------------------------------

TEST(ProtocolTest, ParsesStrictQueryGrammar) {
  std::string error;
  auto r = parse_query_line("similar 7 4", error);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, Request::Kind::kQuery);
  EXPECT_EQ(r->query.kind, query::Query::Kind::kSimilarByDoc);
  EXPECT_EQ(r->query.doc_id, 7u);
  EXPECT_EQ(r->query.k, 4u);

  r = parse_query_line("summary 2", error);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->query.kind, query::Query::Kind::kClusterSummary);
  EXPECT_EQ(r->query.cluster, 2);
  EXPECT_EQ(r->query.k, 5u);  // default reps

  r = parse_query_line("  summary 1 3  ", error);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->query.k, 3u);

  EXPECT_TRUE(parse_query_line("", error)->kind == Request::Kind::kBlank);
  EXPECT_TRUE(parse_query_line("  # comment", error)->kind == Request::Kind::kBlank);
}

TEST(ProtocolTest, RejectsTrailingGarbageAndBadNumbers) {
  std::string error;
  // The historic bug: trailing fields were silently ignored.
  EXPECT_FALSE(parse_query_line("similar 3 5 oops", error).has_value());
  EXPECT_FALSE(parse_query_line("similar 3", error).has_value());
  EXPECT_FALSE(parse_query_line("similar -3 5", error).has_value());
  EXPECT_FALSE(parse_query_line("similar 3 0", error).has_value());
  EXPECT_FALSE(parse_query_line("similar 99999999999999999999 5", error).has_value());
  EXPECT_FALSE(parse_query_line("summary", error).has_value());
  EXPECT_FALSE(parse_query_line("summary 1 2 3", error).has_value());
  EXPECT_FALSE(parse_query_line("drill 1", error).has_value());
  // Control verbs are not part of the batch-file grammar...
  EXPECT_FALSE(parse_query_line("shutdown", error).has_value());
  // ...but are part of the ingress grammar.
  EXPECT_TRUE(parse_request_line("shutdown", error).has_value());
  EXPECT_FALSE(parse_request_line("shutdown now", error).has_value());
  EXPECT_TRUE(parse_request_line("reload /tmp/b.svab", error).has_value());
  EXPECT_FALSE(parse_request_line("reload", error).has_value());
}

TEST(ProtocolTest, ParsesIngestVerbStrictly) {
  std::string error;
  const auto r = parse_request_line("ingest new.txt gen1.svab", error);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, Request::Kind::kIngest);
  EXPECT_EQ(r->ingest_docs, "new.txt");
  EXPECT_EQ(r->ingest_out, "gen1.svab");
  // Strict arity on both sides, and not part of the batch-file grammar.
  EXPECT_FALSE(parse_request_line("ingest new.txt", error).has_value());
  EXPECT_FALSE(parse_request_line("ingest a b c", error).has_value());
  EXPECT_FALSE(parse_query_line("ingest new.txt gen1.svab", error).has_value());
}

TEST(ProtocolTest, QueryDigestDistinguishesQueries) {
  const auto a = query::Query::similar_doc(7, 4);
  const auto b = query::Query::similar_doc(7, 5);
  const auto c = query::Query::cluster_summary(0, 4);
  EXPECT_EQ(query_digest(a), query_digest(query::Query::similar_doc(7, 4)));
  EXPECT_NE(query_digest(a), query_digest(b));
  EXPECT_NE(query_digest(a), query_digest(c));
  EXPECT_NE(query_key_bytes(a), query_key_bytes(b));
}

TEST(ProtocolTest, EncodeDecodeRoundTrips) {
  ByteWriter w;
  const auto probe = query::Query::similar_probe({0.25, -1.5, 3.0}, 6);
  encode_query(w, probe);
  encode_query(w, query::Query::cluster_summary(2, 3));
  ByteReader in(w.bytes);
  const auto p2 = decode_query(in);
  EXPECT_EQ(p2.kind, query::Query::Kind::kSimilarByProbe);
  EXPECT_EQ(p2.probe, probe.probe);
  EXPECT_EQ(p2.k, 6u);
  const auto s2 = decode_query(in);
  EXPECT_EQ(s2.cluster, 2);
  EXPECT_EQ(s2.k, 3u);
}

// ---- result cache ------------------------------------------------------

TEST(CacheTest, LruEvictionAndCounters) {
  ResultCache cache(2);
  auto key_of = [](std::uint64_t doc) {
    return query_key_bytes(query::Query::similar_doc(doc, 3));
  };
  query::QueryResult result;
  result.kind = query::Query::Kind::kSimilarByDoc;

  EXPECT_FALSE(cache.lookup(1, key_of(1)).has_value());
  cache.insert(1, key_of(1), result);
  cache.insert(2, key_of(2), result);
  EXPECT_TRUE(cache.lookup(1, key_of(1)).has_value());  // 1 now most recent
  cache.insert(3, key_of(3), result);                   // evicts 2
  EXPECT_FALSE(cache.lookup(2, key_of(2)).has_value());
  EXPECT_TRUE(cache.lookup(1, key_of(1)).has_value());
  EXPECT_TRUE(cache.lookup(3, key_of(3)).has_value());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);

  cache.invalidate_all();
  EXPECT_FALSE(cache.lookup(1, key_of(1)).has_value());
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(CacheTest, DigestCollisionDegradesToMiss) {
  ResultCache cache(4);
  query::QueryResult result;
  const auto key_a = query_key_bytes(query::Query::similar_doc(1, 3));
  const auto key_b = query_key_bytes(query::Query::similar_doc(2, 3));
  cache.insert(42, key_a, result);           // same digest, different key:
  EXPECT_FALSE(cache.lookup(42, key_b).has_value());  // must not serve key_a
  EXPECT_TRUE(cache.lookup(42, key_a).has_value());
}

TEST(CacheTest, ZeroCapacityDisables) {
  ResultCache cache(0);
  const auto key = query_key_bytes(query::Query::similar_doc(1, 3));
  cache.insert(1, key, query::QueryResult{});
  EXPECT_FALSE(cache.lookup(1, key).has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---- the daemon --------------------------------------------------------

TEST(ServeTest, CoalescesConcurrentQueriesIntoFewerSweeps) {
  const auto bundle = make_bundle("coalesce");
  const auto queries = mixed_queries(32);
  const auto expected = oneshot_answers(bundle, queries, 1);

  ServeOptions options;
  options.procs = 2;
  options.batch_max = 8;
  options.cache_capacity = 0;  // count every query as a sweep rider
  Server server(bundle, options);
  server.start();

  // Hold the first sweep (the thread backend shares the fault substrate,
  // so arming after start() counts from here): the first query leaves
  // alone, the other 31 queue behind it and ride the next sweeps.
  fault::configure(std::string(fault::sites::kServeSweep) + ":delay:rank=0,hit=1,ms=200");
  std::vector<std::future<query::QueryResult>> futures;
  futures.reserve(queries.size());
  for (const auto& q : queries) futures.push_back(server.submit(q));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto result = futures[i].get();
    EXPECT_EQ(format_result(result), expected[i]) << "query " << i;
  }
  fault::reset();

  const auto stats = server.stats();
  EXPECT_EQ(stats.scheduler.submitted, queries.size());
  EXPECT_EQ(stats.queries_swept, queries.size());
  // The acceptance bar: concurrent in-flight queries ride shared sweeps.
  EXPECT_LE(stats.sweeps * 2, queries.size())
      << "expected >= 2x coalescing, got " << stats.sweeps << " sweeps for "
      << queries.size() << " queries";
  EXPECT_GE(stats.scheduler.max_batch, 2u);

  server.stop();
  server.join();
  EXPECT_FALSE(server.running());
}

TEST(ServeTest, CacheHitIsBitIdenticalToUncachedAnswer) {
  const auto bundle = make_bundle("cachehit");
  // Six pairwise-distinct queries (mixed_queries may repeat, which would
  // turn first-pass submissions into hits and skew the counters).
  const std::vector<query::Query> queries = {
      query::Query::similar_doc(0, 3),
      query::Query::similar_doc(1, 4),
      query::Query::cluster_summary(0, 3),
      query::Query::cluster_summary(1, 4),
      query::Query::similar_probe(std::vector<double>(kDim, 0.2), 5),
      query::Query::similar_probe(std::vector<double>(kDim, 0.7), 3),
  };
  const auto expected = oneshot_answers(bundle, queries, 1);

  ServeOptions options;
  options.procs = 2;
  options.batch_max = 4;
  options.cache_capacity = 64;
  Server server(bundle, options);
  server.start();

  // First pass: misses, answered by sweeps.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(format_result(server.submit(queries[i]).get()), expected[i]);
  }
  const auto mid = server.stats();
  EXPECT_EQ(mid.cache.hits, 0u);
  EXPECT_EQ(mid.cache.misses, queries.size());

  // Second pass: every answer must come from the cache, bit-identical.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(format_result(server.submit(queries[i]).get()), expected[i]);
  }
  const auto after = server.stats();
  EXPECT_EQ(after.cache.hits, queries.size());
  EXPECT_EQ(after.queries_swept, queries.size());  // no extra sweeps

  server.stop();
  server.join();
}

TEST(SchedulerTest, ReleasesPendingQueriesAtOnceSplitAtBatchMax) {
  AdmissionScheduler scheduler(16);
  // A lone query leaves at once: there is no window to wait out.
  (void)scheduler.submit(query::Query::similar_doc(0, 1), 100, {});
  auto first = scheduler.take_batch();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].digest, 100u);

  // Twenty queued while the world was busy ride two batches, 16 then 4,
  // in admission order.
  for (std::uint64_t i = 0; i < 20; ++i) {
    (void)scheduler.submit(query::Query::similar_doc(i, 1), i, {});
  }
  const auto full = scheduler.take_batch();
  const auto rest = scheduler.take_batch();
  ASSERT_EQ(full.size(), 16u);
  ASSERT_EQ(rest.size(), 4u);
  for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(full[i].digest, i);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(rest[i].digest, 16 + i);
  EXPECT_EQ(scheduler.pending(), 0u);

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 21u);
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.size_flushes, 1u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
  EXPECT_EQ(stats.max_batch, 16u);
}

TEST(ServeTest, RejectsInadmissibleQueriesWithoutPoisoningTheWorld) {
  const auto bundle = make_bundle("reject");
  ServeOptions options;
  options.procs = 2;
  Server server(bundle, options);
  server.start();

  EXPECT_THROW(server.submit(query::Query::similar_doc(9999, 3)).get(), InvalidArgument);
  EXPECT_THROW(server.submit(query::Query::cluster_summary(42, 3)).get(),
               InvalidArgument);
  EXPECT_THROW(
      server.submit(query::Query::similar_probe(std::vector<double>(3, 1.0), 3)).get(),
      InvalidArgument);
  EXPECT_EQ(server.stats().rejected, 3u);

  // The world is still healthy and answers a valid query.
  EXPECT_EQ(server.submit(query::Query::similar_doc(5, 4)).get().hits.size(), 4u);

  server.stop();
  server.join();
}

TEST(ServeTest, ReloadInvalidatesCacheAndKeepsAnswersIdentical) {
  const auto bundle = make_bundle("reload");
  const auto q = query::Query::similar_doc(7, 5);
  const auto expected = oneshot_answers(bundle, {q}, 1)[0];

  ServeOptions options;
  options.procs = 2;
  Server server(bundle, options);
  server.start();

  EXPECT_EQ(format_result(server.submit(q).get()), expected);
  EXPECT_EQ(format_result(server.submit(q).get()), expected);  // cache hit
  EXPECT_EQ(server.stats().cache.hits, 1u);

  server.reload(bundle).get();  // same bundle; the cache must still flush
  const auto stats = server.stats();
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_GE(stats.cache.invalidations, 1u);
  EXPECT_EQ(stats.cache.entries, 0u);

  // Re-answered by a fresh sweep, still bit-identical.
  EXPECT_EQ(format_result(server.submit(q).get()), expected);
  EXPECT_EQ(server.stats().cache.misses, 2u);

  server.stop();
  server.join();
}

TEST(ServeTest, ReloadOfMissingBundleFailsWithoutKillingTheDaemon) {
  const auto bundle = make_bundle("reloadbad");
  ServeOptions options;
  options.procs = 2;
  Server server(bundle, options);
  server.start();

  EXPECT_THROW(server.reload(fresh_path("nonexistent", ".svab")).get(), Error);
  EXPECT_EQ(server.stats().reloads, 0u);
  // Still serving off the original bundle.
  EXPECT_EQ(server.submit(query::Query::similar_doc(3, 2)).get().hits.size(), 2u);

  server.stop();
  server.join();
}

TEST(ServeTest, CleanShutdownMidBatch) {
  const auto bundle = make_bundle("shutdown");
  ServeOptions options;
  options.procs = 2;
  options.batch_max = 4;
  options.cache_capacity = 0;
  Server server(bundle, options);
  server.start();

  // Flood, then yank the world out mid-flight: every future must resolve
  // (answer or clean failure) and join() must not report a fault.  The
  // first sweep is held, so stop_now() meets at least 60 queued queries.
  fault::configure(std::string(fault::sites::kServeSweep) + ":delay:rank=0,hit=1,ms=200");
  const auto queries = mixed_queries(64);
  std::vector<std::future<query::QueryResult>> futures;
  futures.reserve(queries.size());
  for (const auto& q : queries) futures.push_back(server.submit(q));
  server.stop_now();

  std::size_t answered = 0;
  std::size_t failed = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
      ++answered;
    } catch (const Error&) {
      ++failed;
    }
  }
  EXPECT_EQ(answered + failed, queries.size());
  EXPECT_NO_THROW(server.join());
  fault::reset();
  EXPECT_FALSE(server.running());
  // What was still queued failed instead of being swept.
  EXPECT_GE(failed, queries.size() - options.batch_max);
  EXPECT_GE(server.stats().scheduler.drain_flushes, 1u);

  // Late submissions fail fast instead of hanging.
  EXPECT_THROW(server.submit(query::Query::similar_doc(1, 2)).get(), Error);
}

TEST(ServeTest, GracefulStopDrainsQueuedQueries) {
  const auto bundle = make_bundle("drain");
  ServeOptions options;
  options.procs = 2;
  options.batch_max = 8;
  options.cache_capacity = 0;  // a repeated query must still be swept
  Server server(bundle, options);
  server.start();

  // Hold the first sweep, so stop() meets at least 4 queued queries.
  fault::configure(std::string(fault::sites::kServeSweep) + ":delay:rank=0,hit=1,ms=200");
  const auto queries = mixed_queries(12);
  std::vector<std::future<query::QueryResult>> futures;
  for (const auto& q : queries) futures.push_back(server.submit(q));
  server.stop();   // graceful: everything already admitted must answer
  server.join();
  fault::reset();

  for (auto& f : futures) EXPECT_NO_THROW((void)f.get());
  const auto stats = server.stats();
  EXPECT_EQ(stats.queries_swept, queries.size());
  EXPECT_GE(stats.scheduler.drain_flushes, 1u);
}

// ---- socket ingress end to end -----------------------------------------

TEST(ServeTest, SocketIngressAnswersProtocolLines) {
  const auto bundle = make_bundle("socket");
  const auto q = query::Query::similar_doc(4, 3);
  const auto expected = oneshot_answers(bundle, {q}, 1)[0];

  ServeOptions options;
  options.procs = 2;
  Server server(bundle, options);
  server.start();
  SocketIngress ingress(server, fresh_path("sock", ".sock"));
  ingress.start();

  const auto responses = client_roundtrip(
      ingress.path(), {"ping", "similar 4 3", "similar 4 3", "# comment", "",
                       "similar 3 5 oops", "stats"});
  ASSERT_EQ(responses.size(), 5u);  // blank + comment get no response
  EXPECT_EQ(responses[0], "ok pong");
  EXPECT_EQ(responses[1], expected);
  EXPECT_EQ(responses[2], expected);  // served from cache, bit-identical
  EXPECT_EQ(responses[3].rfind("error ", 0), 0u);
  EXPECT_EQ(responses[4].rfind("ok stats ", 0), 0u);
  EXPECT_NE(responses[4].find("cache_hits=1"), std::string::npos);

  // Concurrent clients coalesce through the same admission scheduler.
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      const auto r = client_roundtrip(
          ingress.path(), {"similar " + std::to_string(10 + c) + " 4"});
      if (r.size() == 1 && r[0].rfind("ok ", 0) == 0) ok.fetch_add(1);
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), 4);

  const auto shutdown = client_roundtrip(ingress.path(), {"shutdown"});
  EXPECT_EQ(shutdown[0], "ok shutting-down");
  EXPECT_TRUE(ingress.shutdown_requested());
  server.join();
  ingress.stop();
}

// ---- delta ingest through the daemon ------------------------------------

/// A bundle carrying the frozen model/vocab/config sections (a real
/// Engine::run, unlike the synthetic make_bundle exports) — the kind
/// `ingest` can extend — plus a docs file with a few extra documents of
/// the same family, one per line.
/// Built once per process and shared by the ingest tests, so its files
/// live in the program directory, not in the first test's own.
struct IngestFixture {
  std::filesystem::path bundle = sva::testing::program_temp_dir() / "ingestbase.svab";
  std::filesystem::path docs = sva::testing::program_temp_dir() / "newdocs.txt";
  std::uint64_t base_records = 0;
  std::size_t num_new = 0;

  IngestFixture() {
    corpus::CorpusSpec spec;
    spec.kind = corpus::CorpusKind::kPubMedLike;
    spec.seed = 555;
    spec.target_bytes = 32 << 10;
    spec.core_vocabulary = 700;
    spec.num_themes = 4;
    spec.theme_vocabulary = 50;
    spec.theme_token_fraction = 0.3;
    const corpus::GeneratedReader reader(spec);
    engine::EngineConfig config;
    config.topicality.num_major_terms = 100;
    config.kmeans.k = 4;
    engine::Engine engine(config);
    engine::PipelineOptions options;
    options.export_bundle = bundle;
    ga::spmd_run(2, [&](ga::Context& ctx) {
      const auto r = engine.run(ctx, reader, options);
      if (ctx.rank() == 0) base_records = r->num_records;
    });

    corpus::CorpusSpec extra = spec;
    extra.seed = 556;
    extra.target_bytes = 3 << 10;
    const auto docs_set = corpus::generate_corpus(extra);
    num_new = docs_set.size();
    std::ofstream out(docs);
    for (std::size_t i = 0; i < docs_set.size(); ++i) {
      std::string line;
      for (const auto& field : docs_set[i].fields) {
        line += field.text;
        line += ' ';
      }
      for (char& ch : line) {
        if (ch == '\n' || ch == '\r') ch = ' ';
      }
      out << line << "\n";
    }
  }
};

const IngestFixture& ingest_fixture() {
  static const IngestFixture f;
  return f;
}

TEST(ServeTest, StatsResponseCarriesReloadAndGenerationCounters) {
  const auto bundle = make_bundle("statsgen");
  ServeOptions options;
  options.procs = 2;
  Server server(bundle, options);
  server.start();

  const auto before = format_stats(server.stats());
  // The world identity leads the line: which transport backend is
  // serving and at what world size.
  EXPECT_NE(before.find(" backend=thread"), std::string::npos) << before;
  EXPECT_NE(before.find(" world_size=2"), std::string::npos) << before;
  EXPECT_NE(before.find(" reloads=0"), std::string::npos) << before;
  EXPECT_NE(before.find(" ingests=0"), std::string::npos) << before;
  EXPECT_NE(before.find(" generation=0"), std::string::npos) << before;
  // The failure plane reports even when nothing has failed.
  EXPECT_NE(before.find(" world_failures=0"), std::string::npos) << before;
  EXPECT_NE(before.find(" respawns=0"), std::string::npos) << before;
  EXPECT_NE(before.find(" in_flight_failed=0"), std::string::npos) << before;
  EXPECT_NE(before.find(" deadline_expired=0"), std::string::npos) << before;
  EXPECT_NE(before.find(" client_retries=0"), std::string::npos) << before;
  EXPECT_NE(before.find(" last_failure=none"), std::string::npos) << before;

  // A client announcing a retry bumps the counter through either ingress.
  bool shutdown = false;
  EXPECT_EQ(process_request_line(server, "# retry 1", &shutdown), "");
  const auto retried = format_stats(server.stats());
  EXPECT_NE(retried.find(" client_retries=1"), std::string::npos) << retried;

  server.reload(bundle).get();
  const auto after = format_stats(server.stats());
  EXPECT_NE(after.find(" reloads=1"), std::string::npos) << after;
  EXPECT_NE(after.find(" generation=0"), std::string::npos) << after;  // still gen 0

  server.stop();
  server.join();
}

TEST(ServeTest, IngestVerbAdvancesTheGenerationOverTheWire) {
  const IngestFixture& f = ingest_fixture();
  ServeOptions options;
  options.procs = 2;
  Server server(f.bundle, options);
  server.start();
  EXPECT_EQ(server.num_documents(), f.base_records);
  SocketIngress ingress(server, fresh_path("ingest_sock", ".sock"));
  ingress.start();

  const auto out = fresh_path("ingest_gen1", ".svab");
  const auto responses = client_roundtrip(
      ingress.path(),
      {"stats", "ingest " + f.docs.string() + " " + out.string(), "stats",
       // The first NEW document must be queryable after the swap.
       "similar " + std::to_string(f.base_records) + " 3"});
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_NE(responses[0].find(" generation=0"), std::string::npos) << responses[0];
  EXPECT_EQ(responses[1].rfind("ok ingested generation=1 added=" +
                                   std::to_string(f.num_new) + " recluster=",
                               0),
            0u)
      << responses[1];
  EXPECT_NE(responses[2].find(" ingests=1"), std::string::npos) << responses[2];
  EXPECT_NE(responses[2].find(" generation=1"), std::string::npos) << responses[2];
  EXPECT_EQ(responses[3].rfind("ok similar", 0), 0u) << responses[3];
  EXPECT_EQ(server.num_documents(), f.base_records + f.num_new);
  EXPECT_TRUE(std::filesystem::exists(out));

  ingress.stop();
  server.stop();
  server.join();
  std::filesystem::remove(out);
}

TEST(ServeTest, IngestOfMissingDocsFileFailsWithoutKillingTheDaemon) {
  const IngestFixture& f = ingest_fixture();
  ServeOptions options;
  options.procs = 2;
  Server server(f.bundle, options);
  server.start();

  EXPECT_THROW(
      server.ingest(fresh_path("nodocs", ".txt"), fresh_path("noout", ".svab")).get(),
      Error);
  EXPECT_EQ(server.stats().ingests, 0u);
  EXPECT_EQ(server.stats().generation, 0u);
  // Still serving the old generation.
  EXPECT_EQ(server.submit(query::Query::similar_doc(3, 2)).get().hits.size(), 2u);

  server.stop();
  server.join();
}

TEST(ServeTest, FileQueueIngressAnswersRequestFiles) {
  const auto bundle = make_bundle("spool");
  const auto q = query::Query::similar_doc(2, 3);
  const auto expected = oneshot_answers(bundle, {q}, 1)[0];

  ServeOptions options;
  options.procs = 2;
  Server server(bundle, options);
  server.start();

  const auto spool = sva::testing::test_temp_dir() / "spool";
  FileQueueIngress ingress(server, spool, std::chrono::milliseconds(5));
  ingress.start();

  // Drop a request file (write-then-rename, as a client would).
  const auto req = spool / "job1.req";
  {
    std::ofstream out(spool / "job1.part");
    out << "similar 2 3\nping\n";
  }
  std::filesystem::rename(spool / "job1.part", req);

  const auto resp = spool / "job1.resp";
  for (int i = 0; i < 400 && !std::filesystem::exists(resp); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(std::filesystem::exists(resp)) << "spool response never appeared";
  std::ifstream in(resp);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, expected);
  EXPECT_EQ(line2, "ok pong");
  EXPECT_FALSE(std::filesystem::exists(req));  // consumed

  ingress.stop();
  server.stop();
  server.join();
}

}  // namespace
}  // namespace sva::serve

// Robustness tests for the serving daemon under injected faults: a
// SIGKILLed process-backend rank mid-batch fails in-flight futures with
// WorldFailure (never a hang), the supervisor respawns a fresh world
// over the last-good bundle and post-respawn answers are byte-identical
// to the never-failed path; thread-backend worlds recover the same way;
// a daemon whose bundle vanishes gives up after bounded respawn
// attempts; reload faults fail the request while the old session keeps
// serving; queued queries expire at the admission deadline; the client
// helper retries idempotent batches across a respawn; and both ingress
// transports degrade per-request (socket) or per-file (spool, including
// the stale-claim sweep) instead of dying.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend_testutil.hpp"
#include "sva/cluster/kmeans.hpp"
#include "sva/cluster/pca.hpp"
#include "sva/cluster/projection.hpp"
#include "sva/engine/bundle.hpp"
#include "sva/engine/engine.hpp"
#include "sva/fault/fault.hpp"
#include "sva/serve/ingress.hpp"
#include "sva/serve/protocol.hpp"
#include "sva/serve/scheduler.hpp"
#include "sva/serve/server.hpp"
#include "temp_path.hpp"

namespace sva::serve {
namespace {

// ---- fixture: the same small exported bundle serve_test uses -----------

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

std::filesystem::path make_bundle(const std::string& name) {
  const auto path = fresh_path(name, ".svab");
  ga::spmd_run(2, [&](ga::Context& ctx) {
    const auto r = make_result(ctx, kDocs, kDim, kClusters);
    engine::export_bundle(ctx, r, engine::EngineConfig{}, path);
  });
  return path;
}

/// One-shot reference answer over a never-failed world.
std::string oneshot_answer(const std::filesystem::path& bundle, const query::Query& q) {
  auto out = std::make_shared<std::string>();
  ga::spmd_run(2, [&](ga::Context& ctx) {
    auto session = query::Session::open(ctx, bundle);
    const auto results = session.run_batch(std::vector<query::Query>{q});
    if (ctx.rank() == 0) *out = format_result(results[0]);
  });
  return *out;
}

/// Re-submits `q` until a world answers it (WorldFailure rides the
/// respawn window); fails the test if no world recovers in time.
std::string submit_until_served(Server& server, const query::Query& q) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    auto future = server.submit(q);
    if (future.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      ADD_FAILURE() << "future hung: a dead world must fail its clients";
      return {};
    }
    try {
      return format_result(future.get());
    } catch (const Error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  ADD_FAILURE() << "no respawned world ever answered";
  return {};
}

/// Every test starts and ends with the substrate disarmed.
class ServeFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

// ---- the acceptance invariant: rank death -> respawn -> same answer ----

TEST_F(ServeFaultTest, ProcessRankDeathFailsInFlightRespawnsAndAnswersIdentically) {
  SVA_REQUIRE_PROCESS_BACKEND();
  const auto bundle = make_bundle("rankdeath");
  const auto q = query::Query::similar_doc(4, 3);
  const auto expected = oneshot_answer(bundle, q);

  // Child rank 1 SIGKILLs itself at its first sweep — after the batch
  // broadcast, squarely mid-flight.  The config is inherited at fork, so
  // it must be armed before start(); the parent (rank 0) never matches
  // the rank filter.
  fault::configure(std::string(fault::sites::kServeSweep) + ":kill:rank=1,hit=1");

  ServeOptions options;
  options.procs = 2;
  options.backend = ga::Backend::kProcess;
  options.cache_capacity = 0;  // every answer must come from a real sweep
  options.respawn_backoff = std::chrono::milliseconds(10);
  Server server(bundle, options);
  server.start();

  auto doomed = server.submit(q);
  ASSERT_EQ(doomed.wait_for(std::chrono::seconds(60)), std::future_status::ready)
      << "in-flight future hung across a rank death";
  try {
    (void)doomed.get();
    FAIL() << "in-flight query survived a SIGKILLed rank";
  } catch (const WorldFailure& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(kWorldFailureMark, 0), 0u) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  }

  // Disarm before the next world forks: respawned children re-inherit
  // the parent's config, and this fault should strike exactly one era.
  fault::reset();

  EXPECT_TRUE(server.running()) << "supervisor gave up instead of respawning";
  EXPECT_EQ(submit_until_served(server, q), expected)
      << "post-respawn answer must be byte-identical to the never-failed path";

  const auto stats = server.stats();
  EXPECT_GE(stats.failures.world_failures, 1u);
  EXPECT_GE(stats.failures.respawns, 1u);
  EXPECT_GE(stats.failures.in_flight_failed, 1u);
  EXPECT_NE(stats.failures.last_failure.find("rank 1"), std::string::npos)
      << stats.failures.last_failure;

  server.stop();
  server.join();  // clean: the respawned world exits gracefully
  EXPECT_FALSE(server.running());
}

TEST_F(ServeFaultTest, ThreadWorldErrorRespawnsAndKeepsServing) {
  const auto bundle = make_bundle("threadrespawn");
  const auto q = query::Query::cluster_summary(1, 3);
  const auto expected = oneshot_answer(bundle, q);

  ServeOptions options;
  options.procs = 2;
  options.cache_capacity = 0;
  options.respawn_backoff = std::chrono::milliseconds(10);
  Server server(bundle, options);
  server.start();

  // First sweep dies on an injected error (thread backend shares the
  // substrate, so arming after start() is race-free: hit=1 counts from
  // here).
  fault::configure(std::string(fault::sites::kServeSweep) + ":error:hit=1");

  auto doomed = server.submit(q);
  ASSERT_EQ(doomed.wait_for(std::chrono::seconds(60)), std::future_status::ready);
  EXPECT_THROW((void)doomed.get(), WorldFailure);

  EXPECT_EQ(submit_until_served(server, q), expected);
  EXPECT_GE(server.stats().failures.respawns, 1u);

  server.stop();
  server.join();
}

TEST_F(ServeFaultTest, SupervisorGivesUpWhenTheBundleNeverRevalidates) {
  const auto bundle = make_bundle("giveup");
  ServeOptions options;
  options.procs = 2;
  options.cache_capacity = 0;
  options.max_respawn_attempts = 2;
  options.respawn_backoff = std::chrono::milliseconds(5);
  Server server(bundle, options);
  server.start();

  ASSERT_NO_THROW((void)server.submit(query::Query::similar_doc(1, 2)).get());

  // The bundle vanishes, then the world dies: every respawn attempt now
  // fails pre-validation, so the supervisor must give up fatally instead
  // of spinning forever.
  std::filesystem::remove(bundle);
  fault::configure(std::string(fault::sites::kServeSweep) + ":error:hit=1");
  auto doomed = server.submit(query::Query::similar_doc(1, 2));
  ASSERT_EQ(doomed.wait_for(std::chrono::seconds(60)), std::future_status::ready);
  EXPECT_THROW((void)doomed.get(), WorldFailure);

  for (int i = 0; i < 1200 && server.running(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(server.running()) << "supervisor kept respawning a dead bundle";
  try {
    server.join();
    FAIL() << "join() swallowed the give-up";
  } catch (const WorldFailure& e) {
    EXPECT_NE(std::string(e.what()).find("giving up"), std::string::npos) << e.what();
  }
  EXPECT_EQ(server.stats().failures.respawns, 0u);  // no world ever respawned
}

TEST_F(ServeFaultTest, ReloadFaultFailsTheRequestAndTheOldSessionKeepsServing) {
  const auto bundle = make_bundle("reloadfault");
  const auto next = make_bundle("reloadfault_next");
  const auto q = query::Query::similar_doc(7, 4);
  const auto expected = oneshot_answer(bundle, q);

  ServeOptions options;
  options.procs = 2;
  options.cache_capacity = 0;
  Server server(bundle, options);
  server.start();
  ASSERT_EQ(format_result(server.submit(q).get()), expected);

  // The reload's serial pre-validation trips the injected read fault;
  // the request fails, the world survives, the old bundle keeps serving.
  fault::configure(std::string(fault::sites::kSectionFileRead) + ":error:hit=1");
  try {
    server.reload(next).get();
    FAIL() << "reload survived an injected read fault";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("fault injected"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(server.running());
  EXPECT_EQ(format_result(server.submit(q).get()), expected);
  EXPECT_EQ(server.stats().failures.world_failures, 0u);  // request-level only

  // The rule is spent: the same reload now lands.
  ASSERT_NO_THROW(server.reload(next).get());

  server.stop();
  server.join();
}

TEST_F(ServeFaultTest, QueuedQueriesExpireAtTheAdmissionDeadline) {
  AdmissionScheduler scheduler(4, std::chrono::milliseconds(30));
  auto future = scheduler.submit(query::Query::similar_doc(0, 1), 0, {});
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  // Nothing is calling take_batch (the world is "down"); the supervisor's
  // backoff loop calls fail_expired instead.
  EXPECT_EQ(scheduler.fail_expired(), 1u);
  try {
    (void)future.get();
    FAIL() << "expired query did not fail";
  } catch (const DeadlineExceeded& e) {
    EXPECT_NE(std::string(e.what()).find("admission deadline"), std::string::npos);
  }
  EXPECT_EQ(scheduler.stats().expired, 1u);
  EXPECT_EQ(scheduler.fail_expired(), 0u);  // nothing left to expire
}

// ---- client retry across a respawn -------------------------------------

TEST_F(ServeFaultTest, ClientRoundtripRetriesAcrossARespawn) {
  const auto bundle = make_bundle("clientretry");
  const auto q = query::Query::similar_doc(9, 3);
  const auto expected = oneshot_answer(bundle, q);

  ServeOptions options;
  options.procs = 2;
  options.cache_capacity = 0;
  options.respawn_backoff = std::chrono::milliseconds(10);
  Server server(bundle, options);
  server.start();
  SocketIngress ingress(server, fresh_path("retrysock", ".sock"));
  ingress.start();

  fault::configure(std::string(fault::sites::kServeSweep) + ":error:hit=1");

  // The first attempt's sweep dies; the batch is all-idempotent, so the
  // helper retries with a "# retry" marker and the respawned world
  // answers — the caller never sees the failure.
  ClientRetryPolicy retry;
  retry.attempts = 8;
  retry.backoff = std::chrono::milliseconds(50);
  const auto responses = client_roundtrip(ingress.path(), {"similar 9 3"}, retry);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0], expected);
  EXPECT_GE(server.stats().failures.client_retries, 1u);
  EXPECT_GE(server.stats().failures.respawns, 1u);

  // A batch carrying a control verb must NOT retry: the world-failure
  // response surfaces instead.
  EXPECT_FALSE(retry_safe_line("reload /tmp/x.svab"));
  EXPECT_FALSE(retry_safe_line("shutdown"));
  EXPECT_TRUE(retry_safe_line("similar 9 3"));
  EXPECT_TRUE(retry_safe_line("stats"));

  ingress.stop();
  server.stop();
  server.join();
}

// ---- ingress degradation ------------------------------------------------

TEST_F(ServeFaultTest, SocketLineFaultAnswersErrorAndTheConnectionSurvives) {
  const auto bundle = make_bundle("sockline");
  ServeOptions options;
  options.procs = 2;
  Server server(bundle, options);
  server.start();
  SocketIngress ingress(server, fresh_path("linesock", ".sock"));
  ingress.start();

  fault::configure(std::string(fault::sites::kServeSocketLine) + ":error:hit=1");
  // No retry: the injected per-line fault is not a world failure.
  const auto responses = client_roundtrip(ingress.path(), {"ping", "ping"},
                                          ClientRetryPolicy{.attempts = 1});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].rfind("error ", 0), 0u) << responses[0];
  EXPECT_NE(responses[0].find("fault injected"), std::string::npos) << responses[0];
  EXPECT_EQ(responses[1], "ok pong");  // same connection, next line is fine

  ingress.stop();
  server.stop();
  server.join();
}

TEST_F(ServeFaultTest, SpoolFaultHandsTheClaimBackAndTheFileIsStillAnswered) {
  const auto bundle = make_bundle("spoolfault");
  ServeOptions options;
  options.procs = 2;
  Server server(bundle, options);
  server.start();

  const auto spool = sva::testing::test_temp_dir() / "spool";
  FileQueueIngress ingress(server, spool, std::chrono::milliseconds(5));
  ingress.start();

  // First claim aborts on the injected fault and is handed back as .req;
  // the next poll pass answers it.
  fault::configure(std::string(fault::sites::kServeSpoolFile) + ":error:hit=1");
  {
    std::ofstream out(spool / "job.part");
    out << "ping\n";
  }
  std::filesystem::rename(spool / "job.part", spool / "job.req");

  const auto resp = spool / "job.resp";
  for (int i = 0; i < 400 && !std::filesystem::exists(resp); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(std::filesystem::exists(resp)) << "abandoned claim was never re-served";
  std::ifstream in(resp);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "ok pong");
  EXPECT_GE(fault::fired(fault::sites::kServeSpoolFile), 1u);

  ingress.stop();
  server.stop();
  server.join();
}

TEST_F(ServeFaultTest, StaleClaimsFromADeadPollerAreSweptBackAndServed) {
  const auto bundle = make_bundle("staleclaim");
  ServeOptions options;
  options.procs = 2;
  Server server(bundle, options);

  const auto spool = sva::testing::test_temp_dir() / "stale";
  std::filesystem::create_directories(spool);

  // A request claimed by a poller that no longer exists.  A pid near the
  // kernel's pid_max ceiling is almost certainly unused; the test skips
  // in the freak case it is alive.
  const pid_t dead = 2999999;
  {
    std::ofstream out(spool / ("stuck.req.claimed." + std::to_string(dead)));
    out << "ping\n";
  }
  // A claim held by a live process (us) must be left alone.
  {
    std::ofstream out(spool / ("live.req.claimed." + std::to_string(::getpid())));
    out << "ping\n";
  }

  FileQueueIngress ingress(server, spool, std::chrono::milliseconds(5));
  const std::size_t recovered = ingress.recover_stale_claims();
  if (::kill(dead, 0) == 0) {
    GTEST_SKIP() << "improbable: pid " << dead << " is alive on this machine";
  }
  EXPECT_EQ(recovered, 1u);
  EXPECT_TRUE(std::filesystem::exists(spool / "stuck.req"));
  EXPECT_TRUE(std::filesystem::exists(
      spool / ("live.req.claimed." + std::to_string(::getpid()))));

  // start() runs the same sweep, then the poll loop serves the recovered
  // request end to end.
  server.start();
  ingress.start();
  const auto resp = spool / "stuck.resp";
  for (int i = 0; i < 400 && !std::filesystem::exists(resp); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(std::filesystem::exists(resp)) << "recovered request was never served";
  std::ifstream in(resp);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "ok pong");

  ingress.stop();
  server.stop();
  server.join();
}

}  // namespace
}  // namespace sva::serve

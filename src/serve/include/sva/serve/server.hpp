// The serving daemon's core: one long-lived SPMD world over one opened
// Session, fed by the admission scheduler, fronted by the result cache.
//
// Lifecycle:
//
//   serve::Server server(bundle, options);
//   server.start();                    // opens the Session, blocks until ready
//   auto f = server.submit(query);     // from any thread
//   f.get();                           // completes when its sweep lands
//   server.stop();                     // drain queued sweeps, then exit
//   server.join();                     // rethrows a fatal serve-loop error
//
// Internally rank 0 of the world owns the ingress side: it blocks in
// AdmissionScheduler::take_batch, encodes each released batch (or
// control command) and broadcasts it to the other ranks, so every rank
// executes the identical Session::run_batch sweep — the daemon pays
// Session::open once and every burst rides the batched plane.  The
// result cache is consulted at admission (a hit never enters the
// scheduler) and filled after each sweep.
//
// Queries are validated at admission against the served bundle's
// metadata (dimension, cluster count, the full doc-id set), so a
// malformed query fails its own future instead of poisoning a sweep.
//
// stop() drains: queued queries still complete.  stop_now() raises the
// sweep cancel flag — an in-flight sweep is abandoned at its next phase
// boundary (query::BatchControl) and every unanswered query fails with
// "server is shutting down".
//
// The world thread is a supervisor, not a single spmd_run: when the
// serving world dies abnormally (a rank SIGKILLed, a transport abort, an
// injected fault), the supervisor fails every future the dead world owned
// with WorldFailure — a client is never left hanging — then respawns a
// fresh world over the last-good bundle (serially pre-validated, the same
// idiom the reload path uses) with bounded exponential backoff, and
// resumes serving.  Queries queued during the outage ride over the
// respawn; the admission deadline bounds how long they may wait.  The
// bundle is unchanged across a respawn, so post-respawn answers are
// byte-identical to the never-failed path (and the result cache stays
// valid).  A world that has never served (first open fails) or that
// exhausts max_respawn_attempts consecutive failures becomes the fatal
// error join() rethrows.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>

#include "sva/engine/delta.hpp"
#include "sva/ga/comm_model.hpp"
#include "sva/serve/cache.hpp"
#include "sva/serve/scheduler.hpp"

namespace sva::serve {

struct ServeOptions {
  /// SPMD ranks the world serves with.
  int procs = 2;
  /// Most queries one sweep carries; whatever is pending rides the next
  /// sweep as soon as the world is idle.
  std::size_t batch_max = 16;
  /// Result-cache capacity in entries (0 disables caching).
  std::size_t cache_capacity = 1024;
  /// Communication model for the serving world.
  ga::CommModel model{};
  /// Transport backend for the serving world.  Rank 0 always runs in the
  /// daemon's own address space (it drives the scheduler and fulfils the
  /// futures), so every backend serves identically; kProcess isolates the
  /// other ranks in forked children and kSocket connects them over TCP
  /// (loopback by default, other hosts via socket_rendezvous).
  ga::Backend backend = ga::Backend::kThread;
  /// kSocket only: rendezvous address for multi-node serving worlds
  /// (empty = ephemeral loopback), and this daemon's node slot.
  std::string socket_rendezvous;
  int socket_node = 0;
  int socket_nodes = 1;
  /// Supervisor: respawn the world after an abnormal death.  Off, the
  /// first world death is fatal (join() rethrows it) — the pre-PR-9
  /// behavior.
  bool respawn = true;
  /// Give up (fatally) after this many consecutive failed respawn
  /// attempts; the counter resets once a respawned world serves again.
  int max_respawn_attempts = 5;
  /// Backoff before the first respawn attempt; doubles per consecutive
  /// failure up to respawn_backoff_max.
  std::chrono::milliseconds respawn_backoff{50};
  std::chrono::milliseconds respawn_backoff_max{2000};
  /// A queued query that has waited this long fails with DeadlineExceeded
  /// instead of waiting forever (the bound that matters when queries pile
  /// up across repeated respawn attempts).  Zero disables expiry.
  std::chrono::milliseconds admission_deadline{30000};
};

/// The serving world died (rank killed, transport abort, injected fault)
/// with this request in flight.  Queries are idempotent: a client may
/// re-issue once the supervisor has respawned the world and the answer
/// will be byte-identical to the never-failed path.  The what() text
/// always starts with protocol's kWorldFailureMark ("world failure: ").
class WorldFailure : public Error {
 public:
  explicit WorldFailure(const std::string& what) : Error(what) {}
};

/// Failure-plane counters (the `stats` verb surfaces all of these).
struct FailureStats {
  std::uint64_t world_failures = 0;   ///< abnormal world deaths observed
  std::uint64_t respawns = 0;         ///< worlds respawned by the supervisor
  std::uint64_t in_flight_failed = 0; ///< futures failed with WorldFailure
  std::uint64_t client_retries = 0;   ///< "# retry" markers seen on ingress
  std::string last_failure;           ///< reason of the most recent world death
};

/// Counter snapshot across the daemon's moving parts.
struct ServerStats {
  std::string backend;               ///< serving world's transport backend
  std::uint64_t world_size = 0;      ///< SPMD ranks the world serves with
  std::uint64_t sweeps = 0;          ///< run_batch sweeps executed
  std::uint64_t queries_swept = 0;   ///< queries answered by sweeps
  std::uint64_t rejected = 0;        ///< failed admission validation
  std::uint64_t reloads = 0;         ///< completed bundle swaps
  std::uint64_t ingests = 0;         ///< completed delta ingests
  std::uint64_t generation = 0;      ///< served bundle's generation counter
  SchedulerStats scheduler;
  CacheStats cache;
  FailureStats failures;
};

class Server {
 public:
  Server(std::filesystem::path bundle_path, ServeOptions options);
  /// Stops (now) and joins; a pending fatal error is swallowed here —
  /// call join() first to observe it.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Launches the serving world and blocks until the Session is open and
  /// admission metadata is ready; rethrows the open failure.
  void start();

  /// Admits one query: answered from the cache immediately on a hit,
  /// otherwise scheduled into the next sweep.  The future fails with
  /// InvalidArgument on a query the served bundle cannot answer.
  std::future<query::QueryResult> submit(query::Query q);

  /// Swaps the served bundle (collectively re-opens the Session) and
  /// invalidates the result cache.  The future fails if the new bundle
  /// does not validate; the old bundle keeps serving in that case.
  std::future<void> reload(std::filesystem::path new_bundle);

  /// Delta-ingests the newline-delimited documents of `docs_file` into
  /// the currently served bundle: the world runs engine::ingest_delta
  /// collectively, writes the next generation to `out_bundle` and swaps
  /// the live Session to it through the same pre-validated path reload
  /// uses (cache invalidated, metadata re-gathered).  The future carries
  /// the drift report; it fails — and the old generation keeps serving —
  /// when the docs file is unreadable or the served bundle cannot be
  /// extended (no frozen model/vocabulary/config).
  std::future<engine::DeltaReport> ingest(std::filesystem::path docs_file,
                                          std::filesystem::path out_bundle);

  /// Graceful shutdown: stops admission, drains queued sweeps, exits.
  void stop();

  /// Urgent shutdown: additionally abandons the in-flight sweep at its
  /// next phase boundary and fails unanswered queries.
  void stop_now();

  /// Waits for the serve loop to exit; rethrows its fatal error, if any.
  void join();

  /// Ingress transports report a client's "# retry" marker here so the
  /// stats verb can surface how many retries the respawn window caused.
  void note_client_retry() { client_retries_.fetch_add(1); }

  [[nodiscard]] bool running() const { return running_.load(); }
  [[nodiscard]] ServerStats stats() const;

  // Served-bundle metadata (admission validation reads the same values).
  [[nodiscard]] std::uint64_t num_documents() const;
  [[nodiscard]] std::size_t num_clusters() const;
  [[nodiscard]] std::size_t dimension() const;

 private:
  struct Metadata {
    std::uint64_t num_documents = 0;
    std::size_t dimension = 0;
    std::size_t num_clusters = 0;
    std::unordered_set<std::uint64_t> doc_ids;
  };
  struct ReloadRequest {
    std::filesystem::path path;
    std::promise<void> promise;
  };
  struct IngestRequest {
    std::filesystem::path docs;
    std::filesystem::path out;
    std::promise<engine::DeltaReport> promise;
  };

  /// The world thread's body: runs serving worlds in a loop, turning each
  /// abnormal death into failed futures + a backed-off respawn over the
  /// last-good bundle, until a clean exit or a fatal give-up.
  void supervise();
  /// The SPMD body every rank runs (rank 0 drives the scheduler).
  void serve_world(ga::Context& ctx);
  /// Collective: re-gathers the served bundle's admission metadata
  /// (rank 0 publishes it under meta_mutex_).
  void refresh_metadata(ga::Context& ctx, query::Session& session);
  /// Rank 0: blocks for the next command; returns the encoded blob.  A
  /// sweep command parks its batch in inflight_ so the supervisor can
  /// fail it if the world dies mid-sweep.  `served_path` is the bundle
  /// the world currently serves (the delta base an ingest command
  /// extends).
  std::vector<std::uint8_t> next_command(const std::filesystem::path& served_path);
  /// Rank 0: validates `q` against the current metadata; empty string
  /// when admissible.
  std::string validate(const query::Query& q) const;
  /// Supervisor: fails the in-flight batch and any in-flight
  /// reload/ingest with WorldFailure("world failure: " + reason).
  void fail_world_owned(const std::string& reason);
  /// Fails every query in `batch` with `why`.
  static void fail_batch(std::vector<PendingQuery>& batch, const std::string& why);

  const std::filesystem::path bundle_path_;
  const ServeOptions options_;

  AdmissionScheduler scheduler_;
  ResultCache cache_;

  mutable std::mutex meta_mutex_;
  Metadata meta_;

  std::mutex control_mutex_;
  std::deque<ReloadRequest> reloads_;
  std::deque<IngestRequest> ingests_;
  /// The bundle the live world serves; reload/ingest move it (rank 0) and
  /// the supervisor re-opens it on respawn.  Guarded by control_mutex_.
  std::filesystem::path served_path_;
  /// The reload/ingest whose collective phase is in flight (rank 0 /
  /// exit path).
  std::optional<ReloadRequest> current_reload_;
  std::optional<IngestRequest> current_ingest_;
  /// The batch the current sweep carries.  Touched only by rank 0 inside
  /// a world and by the supervisor between worlds — rank 0 runs on the
  /// supervisor's own thread (both backends), so no lock is needed.
  std::vector<PendingQuery> inflight_;

  std::atomic<bool> cancel_{false};
  std::atomic<bool> running_{false};
  /// Set by rank 0 once a world's Session is open and serving; tells the
  /// supervisor whether a death was a serving failure (respawn counter
  /// resets) or a failed respawn attempt (counter escalates).
  std::atomic<bool> world_healthy_{false};
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> queries_swept_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> reload_count_{0};
  std::atomic<std::uint64_t> ingest_count_{0};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> world_failures_{0};
  std::atomic<std::uint64_t> respawns_{0};
  std::atomic<std::uint64_t> in_flight_failed_{0};
  std::atomic<std::uint64_t> client_retries_{0};
  std::string last_failure_;  ///< guarded by meta_mutex_

  std::thread world_thread_;
  std::promise<void> ready_;
  bool ready_signalled_ = false;  ///< guarded by meta_mutex_
  std::exception_ptr run_error_;  ///< guarded by meta_mutex_
  bool joined_ = false;
};

}  // namespace sva::serve

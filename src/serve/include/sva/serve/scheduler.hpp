// Admission scheduler of the serving daemon: the piece that turns
// concurrent single queries into Session::run_batch sweeps.
//
// Ingress threads submit() individual queries; the serve loop's rank 0
// calls take_batch() only between sweeps, and take_batch() releases up
// to `batch_max` pending queries the moment any are pending.  Dispatch
// is work-conserving: a query never waits while the serving world is
// idle, and queries that arrive during a sweep queue up and ride the
// next one together, so batches grow with load without a timer.
//
// The scheduler never reorders: batches are admission-ordered prefixes
// of the queue, so a client's pipelined queries complete in order.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <vector>

#include "sva/query/session.hpp"
#include "sva/util/error.hpp"

namespace sva::serve {

/// One admitted query waiting for (or riding) a sweep.
struct PendingQuery {
  query::Query query;
  std::uint64_t digest = 0;             ///< protocol::query_digest
  std::vector<std::uint8_t> key;        ///< canonical key bytes (cache insert)
  std::promise<query::QueryResult> promise;
  std::chrono::steady_clock::time_point admitted{};
};

/// A queued request outlived its admission deadline (typically because
/// the serving world was down across repeated respawn attempts) and was
/// failed rather than left waiting forever.
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& what) : Error(what) {}
};

/// Counter snapshot; taken under the scheduler lock.
struct SchedulerStats {
  std::uint64_t submitted = 0;
  std::uint64_t batches = 0;           ///< batches released to the serve loop
  std::uint64_t size_flushes = 0;      ///< released with batch_max or more pending
  /// Always 0: dispatch has no coalescing window.  Kept only because the
  /// end-to-end benchmark (bench/e2e/workloads.cpp) still reads it.
  std::uint64_t deadline_flushes = 0;
  std::uint64_t drain_flushes = 0;     ///< released while draining for shutdown
  std::uint64_t max_batch = 0;         ///< largest batch released
  std::uint64_t expired = 0;           ///< failed by the admission deadline
};

class AdmissionScheduler {
 public:
  /// `admission_deadline` bounds how long a query may sit in the queue
  /// before it fails with DeadlineExceeded: take_batch() prunes expired
  /// entries before releasing a batch, and the server's supervisor prunes
  /// during respawn backoff (when nothing is calling take_batch).  Zero
  /// disables expiry.
  explicit AdmissionScheduler(std::size_t batch_max,
                              std::chrono::milliseconds admission_deadline =
                                  std::chrono::milliseconds::zero())
      : batch_max_(batch_max > 0 ? batch_max : 1),
        admission_deadline_(admission_deadline) {}

  /// Admits one query; returns the future its sweep will complete.
  /// After stop(), admission fails the promise immediately with
  /// InvalidArgument("server is shutting down").
  std::future<query::QueryResult> submit(query::Query q, std::uint64_t digest,
                                         std::vector<std::uint8_t> key);

  /// Blocks until a query is pending, then returns up to batch_max of
  /// them (admission order).
  /// Returns an empty vector when `interrupt` reports true (an external
  /// command needs the serve loop) or when the scheduler is stopped and
  /// fully drained — the caller distinguishes via stopped()/pending().
  std::vector<PendingQuery> take_batch(const std::function<bool()>& interrupt = {});

  /// Stops admission and wakes take_batch so it can drain what remains.
  void stop();

  /// Wakes a blocked take_batch (external condition changed).
  void wake();

  /// Fails every queued query older than the admission deadline with
  /// DeadlineExceeded; returns how many were failed.  No-op when the
  /// deadline is disabled.
  std::size_t fail_expired();

  [[nodiscard]] bool stopped() const;
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] SchedulerStats stats() const;

 private:
  /// Pops up to batch_max_ items (caller holds the lock).
  std::vector<PendingQuery> pop_batch_locked();
  /// fail_expired() body (caller holds the lock).
  std::size_t fail_expired_locked();

  const std::size_t batch_max_;
  const std::chrono::milliseconds admission_deadline_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<PendingQuery> queue_;
  bool stopped_ = false;
  SchedulerStats stats_;
};

}  // namespace sva::serve

#include "sva/serve/scheduler.hpp"

#include <utility>

#include "sva/fault/fault.hpp"
#include "sva/util/error.hpp"

namespace sva::serve {

std::future<query::QueryResult> AdmissionScheduler::submit(query::Query q,
                                                           std::uint64_t digest,
                                                           std::vector<std::uint8_t> key) {
  fault::point(fault::sites::kServeAdmission);
  PendingQuery item;
  item.query = std::move(q);
  item.digest = digest;
  item.key = std::move(key);
  item.admitted = std::chrono::steady_clock::now();
  auto future = item.promise.get_future();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) {
      item.promise.set_exception(
          std::make_exception_ptr(InvalidArgument("server is shutting down")));
      return future;
    }
    ++stats_.submitted;
    queue_.push_back(std::move(item));
  }
  cv_.notify_all();
  return future;
}

std::vector<PendingQuery> AdmissionScheduler::pop_batch_locked() {
  const std::size_t take = std::min(queue_.size(), batch_max_);
  std::vector<PendingQuery> batch;
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  ++stats_.batches;
  stats_.max_batch = std::max(stats_.max_batch, static_cast<std::uint64_t>(take));
  return batch;
}

std::size_t AdmissionScheduler::fail_expired_locked() {
  if (admission_deadline_ <= std::chrono::milliseconds::zero()) return 0;
  const auto now = std::chrono::steady_clock::now();
  std::size_t failed = 0;
  // Admission order means expiry order: only a prefix can be expired.
  while (!queue_.empty() && now - queue_.front().admitted >= admission_deadline_) {
    queue_.front().promise.set_exception(std::make_exception_ptr(DeadlineExceeded(
        "admission deadline of " + std::to_string(admission_deadline_.count()) +
        "ms exceeded before a sweep could run")));
    queue_.pop_front();
    ++failed;
  }
  stats_.expired += failed;
  return failed;
}

std::size_t AdmissionScheduler::fail_expired() {
  std::lock_guard<std::mutex> lock(mutex_);
  return fail_expired_locked();
}

std::vector<PendingQuery> AdmissionScheduler::take_batch(
    const std::function<bool()>& interrupt) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    fail_expired_locked();
    if (interrupt && interrupt()) return {};
    if (!queue_.empty()) {
      if (stopped_) {
        ++stats_.drain_flushes;
      } else if (queue_.size() >= batch_max_) {
        ++stats_.size_flushes;
      }
      return pop_batch_locked();
    }
    if (stopped_) return {};
    cv_.wait(lock);
  }
}

void AdmissionScheduler::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
  }
  cv_.notify_all();
}

void AdmissionScheduler::wake() { cv_.notify_all(); }

bool AdmissionScheduler::stopped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stopped_;
}

std::size_t AdmissionScheduler::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

SchedulerStats AdmissionScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace sva::serve

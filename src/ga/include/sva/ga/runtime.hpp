// SPMD runtime: the Global-Arrays-style substrate the paper's engine runs
// on.  `spmd_run(SpmdOptions{...}, fn)` launches P ranks, every rank
// executes `fn(Context&)`, and the runtime provides:
//
//   * collectives — barrier, broadcast, reduce/allreduce, gather(v),
//     allgather(v), exclusive scan — with LogGP-modeled costs;
//   * virtual time — per-rank clocks combining measured thread-CPU compute
//     with modeled communication (see comm_model.hpp);
//   * collective object creation — the hook GlobalArray / DistHashmap /
//     task queues use to materialize shared state;
//   * pluggable transports — SpmdOptions::backend selects threads in one
//     address space (default) or forked processes over POSIX shared
//     memory (see transport.hpp); Context::backend() lets shared
//     containers adapt without engine code caring.
//
// Protocol: like MPI/GA, all ranks must issue collectives in the same
// order.  If any rank throws, the runtime aborts the remaining ranks at
// their next synchronization point and rethrows the first exception from
// spmd_run (under the process backend, peer failures surface as a
// ProtocolError carrying the first rank's diagnostic; a killed rank is
// detected and reported as "rank N died" instead of hanging the world).
//
// Host fast path (see README "GA substrate performance"): synchronization
// is an epoch-counting sense-reversing barrier — one atomic arrival per
// rank, the last arriver folds the virtual clocks and releases the epoch;
// waiters spin briefly, then park on the epoch word (futex).  Collectives
// that can stage their payload in transport-owned scratch complete in a
// single arrival round; zero-copy paths add one departure fence so caller
// buffers stay readable until every peer is done.  Allreduce combines
// partitioned: each rank reduces only its contiguous element block (in
// rank order per element, so results are bit-identical to a serial
// rank-order fold), with a leader-combines fallback for small payloads.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sva/ga/comm_model.hpp"
#include "sva/ga/transport.hpp"
#include "sva/util/error.hpp"
#include "sva/util/timer.hpp"

namespace sva::ga {

class Context;

/// Shared state of one SPMD world.  Users never construct this directly;
/// it is owned by spmd_run and surfaced through Context.
class World {
 public:
  explicit World(const SpmdOptions& options);

  [[nodiscard]] int nprocs() const { return nprocs_; }
  [[nodiscard]] const CommModel& model() const { return model_; }
  [[nodiscard]] Transport& transport() { return *transport_; }
  [[nodiscard]] const Transport& transport() const { return *transport_; }

  // Internal state below: accessed by Context and the spmd_run launchers.
  // Not part of the public API surface.
  int nprocs_;
  CommModel model_;
  std::unique_ptr<Transport> transport_;

  // Collective object transfer (thread backend): rank 0 parks a
  // shared_ptr here between the two barriers of collective_create.
  std::shared_ptr<void> create_slot_;

  // First exception thrown by any rank (thread backend; the process
  // backend propagates error text through the transport).
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

/// Per-rank handle: rank id, collectives, and the virtual clock.
class Context {
 public:
  Context(World& world, int rank);

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int nprocs() const { return world_.nprocs(); }
  [[nodiscard]] const CommModel& model() const { return world_.model(); }
  [[nodiscard]] World& world() { return world_; }

  /// Which transport carries this world — lets shared containers pick a
  /// strategy (e.g. replicated vs shared-pointer state) while engine code
  /// stays transport-agnostic.
  [[nodiscard]] Backend backend() const { return world_.transport().backend(); }

  /// True once any rank has failed the world; pollable from wait loops.
  [[nodiscard]] bool world_aborted() const { return world_.transport().aborted(); }

  /// Parking/abort parameters for WorldMutex-protected shared state.
  [[nodiscard]] detail::LockEnv lock_env() const {
    return detail::LockEnv{backend() == Backend::kProcess,
                           world_.transport().abort_word()};
  }

  // ---- virtual time ------------------------------------------------------

  /// Folds thread-CPU time accrued since the last call into the virtual
  /// clock (scaled by model().compute_scale).  Called automatically by
  /// every communication op; call manually before reading vtime().
  void sample_compute();

  /// Adds a modeled communication/IO charge to this rank's clock.
  void charge(double seconds) { vtime_ += seconds; }

  /// Current virtual time in seconds (samples compute first).
  [[nodiscard]] double vtime();

  /// Virtual time without sampling (value as of the last sync point).
  [[nodiscard]] double vtime_raw() const { return vtime_; }

  /// Overwrites the clock; used by barriers (max-synchronization) and by
  /// harnesses that reset between repetitions.
  void set_vtime(double t) { vtime_ = t; }

  /// Resets the clock and the CPU baseline to zero; collective callers
  /// should barrier first so ranks stay aligned.
  void reset_vtime();

  // ---- collectives ---------------------------------------------------

  /// Barrier: synchronizes all ranks; every clock advances to the maximum
  /// plus the modeled barrier cost.  One arrival round.
  void barrier();

  /// Generic exchange: publish `mine`, run `consume(slots)` with every
  /// rank's pointer visible, then resynchronize.  `consume` runs on every
  /// rank between the arrival round and the departure fence.  `comm_cost`
  /// is added to each clock after max-synchronization.  Thread backend
  /// only: raw pointers cannot cross address spaces, so the process
  /// backend throws ProtocolError (use the typed collectives instead).
  void exchange(const void* mine, double comm_cost,
                const std::function<void(const std::vector<const void*>&)>& consume);

  /// Broadcast `count` elements from `root`'s buffer into every rank's.
  template <typename T>
  void broadcast(T* data, std::size_t count, int root);

  template <typename T>
  void broadcast_value(T& value, int root) {
    broadcast(&value, 1, root);
  }

  /// Element-wise allreduce over equal-length buffers.  `op` must be
  /// associative and commutative; contributions are combined in rank order
  /// so floating-point results are deterministic — the partitioned and
  /// leader paths fold per element in the same order and are bit-identical.
  template <typename T, typename Op>
  void allreduce(T* data, std::size_t count, Op op);

  template <typename T>
  void allreduce_sum(T* data, std::size_t count) {
    allreduce(data, count, [](T a, T b) { return a + b; });
  }

  template <typename T>
  [[nodiscard]] T allreduce_sum(T value) {
    allreduce_sum(&value, 1);
    return value;
  }

  template <typename T>
  [[nodiscard]] T allreduce_max(T value) {
    allreduce(&value, 1, [](T a, T b) { return a > b ? a : b; });
    return value;
  }

  template <typename T>
  [[nodiscard]] T allreduce_min(T value) {
    allreduce(&value, 1, [](T a, T b) { return a < b ? a : b; });
    return value;
  }

  /// Gathers one value per rank; result on every rank (allgather).
  template <typename T>
  [[nodiscard]] std::vector<T> allgather(const T& value);

  /// Gathers variable-length contributions; result (rank-ordered
  /// concatenation) on every rank.  The modeled charge is computed from
  /// the summed contribution sizes observed inside the exchange.
  template <typename T>
  [[nodiscard]] std::vector<T> allgatherv(std::span<const T> mine);

  /// Gathers variable-length contributions to `root`; other ranks receive
  /// an empty vector.  Charged as a tree gather of the summed sizes.
  template <typename T>
  [[nodiscard]] std::vector<T> gatherv(std::span<const T> mine, int root);

  /// Exclusive prefix sum of one value per rank (rank 0 gets T{}).
  template <typename T>
  [[nodiscard]] T exscan_sum(const T& value);

  // ---- collective object creation -------------------------------------

  /// All ranks call this with the same factory.  Thread backend: rank 0
  /// runs it and everyone returns the same shared_ptr.  Process and
  /// socket backends: every rank runs the factory and keeps its own
  /// replica (a shared_ptr cannot cross address spaces), so the factory
  /// must be deterministic
  /// and must not itself issue collectives — hoist collective sub-steps
  /// (GlobalArray::create, create_shared_region, ...) before the call, as
  /// the task-queue factories do.
  template <typename T>
  std::shared_ptr<T> collective_create(const std::function<std::shared_ptr<T>()>& factory);

  /// Collective: zero-filled memory of `bytes` shared by every rank (one
  /// allocation for threads, a shm segment mapped per rank for
  /// processes).  Synchronizes internally without a modeled charge.
  /// Store offsets or rank-local pointers inside the region, never
  /// absolute pointers.
  [[nodiscard]] std::shared_ptr<void> create_shared_region(std::size_t bytes) {
    return world_.transport().create_region(rank_, bytes);
  }

 private:
  // ---- round engine ----------------------------------------------------
  // Every collective is built from at most two arrival rounds on the
  // transport.  sync_round publishes this rank's clock and lets the
  // round's last arriver fold the max (plus run `on_last` while it owns
  // the round); fence_round is an arrival-only departure fence for
  // zero-copy payloads.  finish_round applies the post-round clock:
  // vtime = folded max + modeled cost, and restarts the CPU baseline so
  // in-window combine work is not double-charged.

  template <typename OnLast>
  void sync_round(OnLast&& on_last) {
    using Fn = std::remove_reference_t<OnLast>;
    synced_clock_ = world_.transport().sync(
        rank_, vtime_, [](void* arg) { (*static_cast<Fn*>(arg))(); },
        const_cast<void*>(static_cast<const void*>(&on_last)));
  }
  void sync_round() {
    synced_clock_ = world_.transport().sync(rank_, vtime_, nullptr, nullptr);
  }
  void fence_round() { world_.transport().fence(rank_); }
  void finish_round(double extra_cost);

  /// Flips the slot/scratch parity; every rank executes the same
  /// collective sequence, so the per-rank counters stay in lockstep.
  std::uint32_t next_parity() { return static_cast<std::uint32_t>(data_round_++ & 1U); }

  /// Publishes this rank's contribution for the current data round,
  /// staging it into transport scratch when `copy` is set (the scratch
  /// only ever grows: steady-state collectives allocate nothing).
  void publish(std::uint32_t parity, const void* ptr, std::size_t bytes, bool copy) {
    world_.transport().publish(parity, rank_, ptr, bytes, copy);
  }

  /// Contiguous element block [begin, end) combined by `rank` in the
  /// partitioned allreduce; identical on every rank.
  static std::pair<std::size_t, std::size_t> element_block(std::size_t count, int rank,
                                                           int nprocs) {
    const auto p = static_cast<std::size_t>(nprocs);
    const auto r = static_cast<std::size_t>(rank);
    const std::size_t per = count / p;
    const std::size_t rem = count % p;
    const std::size_t begin = r * per + std::min(r, rem);
    return {begin, begin + per + (r < rem ? 1 : 0)};
  }

  World& world_;
  int rank_;
  double vtime_ = 0.0;
  double cpu_mark_;
  double synced_clock_ = 0.0;
  std::uint64_t data_round_ = 0;
};

/// Result of one SPMD run.
struct SpmdResult {
  double max_vtime = 0.0;              ///< modeled duration of the run
  std::vector<double> rank_vtimes;     ///< per-rank final clocks
  double wall_seconds = 0.0;           ///< actual host wall-clock
};

/// Launches `options.nprocs` ranks executing `fn` on the selected
/// transport backend.  Rethrows the first rank exception.  `nprocs` may
/// exceed the hardware concurrency; the virtual-time model keeps timing
/// meaningful.
SpmdResult spmd_run(const SpmdOptions& options, const std::function<void(Context&)>& fn);

/// \deprecated Classic entry point; prefer
/// `spmd_run(SpmdOptions{.nprocs = P, .comm_model = model}, fn)`.  Kept
/// as a thin wrapper (thread backend) so existing call sites compile
/// unmodified; see the README migration table.
SpmdResult spmd_run(int nprocs, const CommModel& model,
                    const std::function<void(Context&)>& fn);

/// \deprecated Classic entry point with the default cluster model; prefer
/// `spmd_run(SpmdOptions{.nprocs = P}, fn)`.
SpmdResult spmd_run(int nprocs, const std::function<void(Context&)>& fn);

/// Broadcasts a variable-length byte buffer from `root`: the size first,
/// then the payload (non-root buffers are resized to fit).  The shard
/// merger and the checkpoint loader ship their serialized blobs this way.
inline void broadcast_bytes(Context& ctx, std::vector<std::uint8_t>& bytes, int root) {
  auto size = static_cast<std::uint64_t>(bytes.size());
  ctx.broadcast_value(size, root);
  if (ctx.rank() != root) bytes.resize(static_cast<std::size_t>(size));
  if (size > 0) ctx.broadcast(bytes.data(), bytes.size(), root);
}

// ===== template implementations =========================================

template <typename T>
void Context::broadcast(T* data, std::size_t count, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  require(root >= 0 && root < nprocs(), "broadcast: bad root");
  sample_compute();
  const std::size_t bytes = count * sizeof(T);
  const double cost = model().broadcast(nprocs(), bytes);
  const std::uint32_t par = next_parity();
  // `bytes` is identical on every rank, so the path choice is collective.
  const bool staged = bytes <= model().host_copy_max_bytes;
  if (rank_ == root) publish(par, data, bytes, staged);
  sync_round();
  if (rank_ != root) {
    const T* src = detail::slot_as<T>(
        world_.transport().peers(par)[static_cast<std::size_t>(root)]);
    std::copy(src, src + count, data);
  }
  if (!staged) fence_round();  // root's buffer may be reused after return
  finish_round(cost);
}

template <typename T, typename Op>
void Context::allreduce(T* data, std::size_t count, Op op) {
  static_assert(std::is_trivially_copyable_v<T>);
  sample_compute();
  const std::size_t bytes = count * sizeof(T);
  const double cost = model().allreduce(nprocs(), bytes);
  const int np = nprocs();
  const std::uint32_t par = next_parity();
  Transport& tp = world_.transport();
  const detail::PeerSlot* slots = tp.peers(par);
  if (bytes <= model().host_leader_max_bytes || np == 1) {
    // Leader combines: the round's last arriver folds every contribution
    // (rank order per element) into the shared combine buffer; one round,
    // and the staged copies make the contributions outlive the fold.
    publish(par, data, bytes, /*copy=*/true);
    sync_round([&] {
      tp.ensure_reduce_capacity(bytes);
      T* acc = static_cast<T*>(tp.reduce_base());
      const T* first = detail::slot_as<T>(slots[0]);
      std::copy(first, first + count, acc);
      for (int r = 1; r < np; ++r) {
        const T* src = detail::slot_as<T>(slots[static_cast<std::size_t>(r)]);
        for (std::size_t i = 0; i < count; ++i) acc[i] = op(acc[i], src[i]);
      }
    });
    const T* acc = static_cast<const T*>(tp.reduce_base());
    std::copy(acc, acc + count, data);
  } else if (!tp.shared_combine()) {
    // Wire partitioned combining (reduce-scatter + allgather as two framed
    // rounds, socket backend): each rank ships every peer only that peer's
    // contiguous element block, folds the received slices in rank order —
    // the same per-element fold order as the shared-memory paths, so
    // results stay bit-identical — then a second round allgathers the
    // folded blocks.  Both rounds publish the same unchanged clock, so the
    // folded max (and therefore vtime) matches the one-round backends.
    for (int q = 0; q < np; ++q) {
      const auto [qb, qe] = element_block(count, q, np);
      tp.publish_to(par, rank_, q, data + qb, (qe - qb) * sizeof(T));
    }
    sync_round([&] { tp.ensure_reduce_capacity(bytes); });
    const auto [eb, ee] = element_block(count, rank_, np);
    const std::size_t mine = ee - eb;
    T* acc = static_cast<T*>(tp.reduce_base());
    for (std::size_t i = 0; i < mine; ++i) {
      T v = detail::slot_as<T>(slots[0])[i];
      for (int r = 1; r < np; ++r) {
        v = op(v, detail::slot_as<T>(slots[static_cast<std::size_t>(r)])[i]);
      }
      acc[i] = v;
    }
    const std::uint32_t par2 = next_parity();
    publish(par2, acc, mine * sizeof(T), /*copy=*/true);
    sync_round();
    const detail::PeerSlot* blocks = tp.peers(par2);
    std::size_t cursor = 0;
    for (int r = 0; r < np; ++r) {
      const auto& s = blocks[static_cast<std::size_t>(r)];
      const T* src = detail::slot_as<T>(s);
      std::copy(src, src + s.bytes / sizeof(T), data + cursor);
      cursor += s.bytes / sizeof(T);
    }
  } else {
    // Partitioned combining (reduce-scatter + allgather): contributions
    // stay zero-copy in the callers' buffers (the process backend stages
    // them in the shared mapping instead); each rank folds only its
    // contiguous element block — same rank order per element, so results
    // are bit-identical to the leader path — then a departure fence
    // protects the source buffers and everyone copies the assembled
    // result out.
    publish(par, data, bytes, /*copy=*/false);
    sync_round([&] { tp.ensure_reduce_capacity(bytes); });
    const auto [eb, ee] = element_block(count, rank_, np);
    T* acc = static_cast<T*>(tp.reduce_base());
    const T* first = detail::slot_as<T>(slots[0]);
    for (std::size_t i = eb; i < ee; ++i) {
      T v = first[i];
      for (int r = 1; r < np; ++r) {
        v = op(v, detail::slot_as<T>(slots[static_cast<std::size_t>(r)])[i]);
      }
      acc[i] = v;
    }
    fence_round();  // every block folded, every source read complete
    std::copy(acc, acc + count, data);
  }
  finish_round(cost);
}

template <typename T>
std::vector<T> Context::allgather(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  sample_compute();
  const double cost = model().allgather(nprocs(), sizeof(T));
  std::vector<T> out(static_cast<std::size_t>(nprocs()));
  const std::uint32_t par = next_parity();
  publish(par, &value, sizeof(T), /*copy=*/true);
  sync_round();
  const detail::PeerSlot* slots = world_.transport().peers(par);
  for (int r = 0; r < nprocs(); ++r) {
    out[static_cast<std::size_t>(r)] = *detail::slot_as<T>(slots[static_cast<std::size_t>(r)]);
  }
  finish_round(cost);
  return out;
}

template <typename T>
std::vector<T> Context::allgatherv(std::span<const T> mine) {
  static_assert(std::is_trivially_copyable_v<T>);
  sample_compute();
  const std::size_t my_bytes = mine.size_bytes();
  const std::uint32_t par = next_parity();
  // Small contributions are staged (one round); oversized ones stay
  // zero-copy and force a departure fence, which every rank detects from
  // the published `copied` flags — the decision needs no extra round.
  publish(par, mine.data(), my_bytes, my_bytes <= model().host_vstage_max_bytes);
  sync_round();
  const detail::PeerSlot* slots = world_.transport().peers(par);
  std::size_t total = 0;
  bool any_raw = false;
  for (int r = 0; r < nprocs(); ++r) {
    const auto& s = slots[static_cast<std::size_t>(r)];
    total += s.bytes;
    any_raw = any_raw || !s.copied;
  }
  std::vector<T> out;
  out.reserve(total / sizeof(T));
  for (int r = 0; r < nprocs(); ++r) {
    const auto& s = slots[static_cast<std::size_t>(r)];
    if (s.bytes == 0) continue;
    const T* src = detail::slot_as<T>(s);
    out.insert(out.end(), src, src + s.bytes / sizeof(T));
  }
  if (any_raw) fence_round();
  // Ring allgather of the true moved volume: average chunk over the
  // summed sizes (uniform across ranks — vtime stays synchronized).
  const std::size_t avg =
      (total + static_cast<std::size_t>(nprocs()) - 1) / static_cast<std::size_t>(nprocs());
  finish_round(model().allgather(nprocs(), std::max<std::size_t>(avg, sizeof(T))));
  return out;
}

template <typename T>
std::vector<T> Context::gatherv(std::span<const T> mine, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  require(root >= 0 && root < nprocs(), "gatherv: bad root");
  sample_compute();
  const std::size_t my_bytes = mine.size_bytes();
  const std::uint32_t par = next_parity();
  publish(par, mine.data(), my_bytes, my_bytes <= model().host_vstage_max_bytes);
  sync_round();
  const detail::PeerSlot* slots = world_.transport().peers(par);
  std::size_t total = 0;
  bool any_raw = false;
  for (int r = 0; r < nprocs(); ++r) {
    const auto& s = slots[static_cast<std::size_t>(r)];
    total += s.bytes;
    any_raw = any_raw || !s.copied;
  }
  std::vector<T> out;
  if (rank_ == root) {
    out.reserve(total / sizeof(T));
    for (int r = 0; r < nprocs(); ++r) {
      const auto& s = slots[static_cast<std::size_t>(r)];
      if (s.bytes == 0) continue;
      const T* src = detail::slot_as<T>(s);
      out.insert(out.end(), src, src + s.bytes / sizeof(T));
    }
  }
  if (any_raw) fence_round();
  // Tree gather of the true total payload (previously this under-charged
  // by modeling only the local contribution).
  finish_round(model().gather(nprocs(), std::max<std::size_t>(total, sizeof(T))));
  return out;
}

template <typename T>
T Context::exscan_sum(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  sample_compute();
  const double cost = model().reduce(nprocs(), sizeof(T));
  const std::uint32_t par = next_parity();
  publish(par, &value, sizeof(T), /*copy=*/true);
  sync_round();
  const detail::PeerSlot* slots = world_.transport().peers(par);
  T acc{};
  for (int r = 0; r < rank_; ++r) {
    acc = acc + *detail::slot_as<T>(slots[static_cast<std::size_t>(r)]);
  }
  finish_round(cost);
  return acc;
}

template <typename T>
std::shared_ptr<T> Context::collective_create(
    const std::function<std::shared_ptr<T>()>& factory) {
  if (!world_.transport().shared_address()) {
    // Disjoint address spaces (process, socket): every rank materializes
    // its own replica from the (deterministic) factory.  Same two rounds
    // as the thread path so modeled time stays aligned across backends.
    std::shared_ptr<T> result = factory();
    barrier();
    barrier();
    return result;
  }
  std::shared_ptr<T> result;
  if (rank_ == 0) {
    result = factory();
    world_.create_slot_ = result;
  }
  barrier();
  result = std::static_pointer_cast<T>(world_.create_slot_);
  barrier();
  if (rank_ == 0) world_.create_slot_.reset();
  return result;
}

}  // namespace sva::ga

// Dynamic load balancing by fixed-size chunking (§3.3).
//
// The paper's shared task queue is a counter in a global array advanced
// with GA's atomic fetch-and-increment; any idle process grabs the next
// chunk of inversion "loads" without involving a coordinator.  For the
// ablation study we also provide the master–worker strategy the paper
// argues against ([20]): every chunk request is serviced serially by a
// master rank, which becomes a bottleneck as P grows.  Both queues expose
// the same interface so the indexing code is strategy-agnostic.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sva/ga/global_array.hpp"
#include "sva/ga/runtime.hpp"

namespace sva::ga {

/// Half-open range of task indices handed to a worker.
struct TaskChunk {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const { return end - begin; }
};

/// Orders queue claims by *virtual* time.  Simulated ranks are host
/// threads that the OS may schedule arbitrarily — on an oversubscribed
/// host one thread can drain an entire dynamic queue before its peers run
/// at all, which would make any load-balance measurement meaningless.
/// The gate grants claims in (vtime, rank) order: a rank may claim only
/// when no other active rank could still issue an earlier-in-virtual-time
/// claim.  This is a conservative parallel-discrete-event rule; it can
/// serialize claim *processing* in real time, but virtual-time results
/// are then exactly those of a cluster whose ranks run concurrently.
///
/// Protocol: every rank of the world must call next() until it returns
/// nullopt (the standard drain loop); a rank that abandons the queue
/// early would stall peers with larger virtual times.
///
/// The per-rank claim cells live in a transport-shared region (thread and
/// process backends): ranks publish their (state, vtime) cell lock-free
/// and park on a generation futex word until the grant condition holds.
/// Queues attach a gate when the world's CommModel asks for vtime-ordered
/// claims; spmd_run rejects that model on the socket backend.
class ClaimGate {
 public:
  /// Collective: null when the world's CommModel leaves claims unordered;
  /// otherwise allocates the claim cells in a shared region.  The cells
  /// are zero-init-valid, so no construction round is needed; every rank
  /// gets its own (cheap) handle onto the same cell table.
  static std::shared_ptr<ClaimGate> create(Context& ctx);

  /// Blocks until this rank holds the minimal (vtime, rank) key among
  /// active ranks.  Throws ProtocolError if the world aborts.
  void enter(Context& ctx);

  /// Marks this rank done with the queue (its claim returned nullopt).
  void finish(Context& ctx);

 private:
  // One cache line per rank; zero bytes == {kUnseen, vtime 0}.  Accessed
  // only through std::atomic_ref.
  struct alignas(64) Cell {
    std::uint32_t state;       // kUnseen / kWaiting / kProcessing / kDone
    std::uint32_t pad;
    std::uint64_t vtime_bits;  // bit pattern of the rank's claim vtime
  };
  enum : std::uint32_t { kUnseen = 0, kWaiting = 1, kProcessing = 2, kDone = 3 };

  ClaimGate(std::shared_ptr<void> region, detail::LockEnv env, int nprocs);

  [[nodiscard]] bool may_grant(int rank) const;
  void bump_generation();

  std::shared_ptr<void> region_;
  detail::LockEnv env_;
  int nprocs_;
  std::uint32_t* generation_ = nullptr;  ///< futex word waiters park on
  Cell* cells_ = nullptr;
};

/// Interface for chunk schedulers.  next() claims the next chunk or
/// returns nullopt when the queue is drained; when the world's CommModel
/// asks for vtime-ordered claims, they are funneled through a ClaimGate
/// first.
class TaskQueue {
 public:
  virtual ~TaskQueue() = default;

  /// Claims the next chunk, or nullopt when the queue is drained.
  std::optional<TaskChunk> next(Context& ctx);

  [[nodiscard]] virtual std::size_t num_tasks() const = 0;

 protected:
  /// Strategy-specific claim, called with gate ordering already applied.
  virtual std::optional<TaskChunk> claim(Context& ctx) = 0;

  /// Attaches a gate created collectively (ClaimGate::create, possibly
  /// null) *before* the queue's collective_create factory ran — the
  /// factory itself must not issue collectives (see
  /// Context::collective_create).
  void enable_vtime_order(std::shared_ptr<ClaimGate> gate) { gate_ = std::move(gate); }

 private:
  std::shared_ptr<ClaimGate> gate_;
};

/// Shared-counter queue: one atomic fetch-and-add per claim, hosted in a
/// GlobalArray exactly like the paper's GA-based implementation.  The
/// queue is "prioritized" by construction: callers seed their scan cursor
/// with rank-local chunks first via the owner_first option in the indexing
/// layer; the counter itself is strictly global.
class AtomicCounterQueue : public TaskQueue {
 public:
  /// Collective: creates a queue over `num_tasks` tasks with the given
  /// chunk size.
  static std::shared_ptr<AtomicCounterQueue> create(Context& ctx, std::size_t num_tasks,
                                                    std::size_t chunk_size);

  [[nodiscard]] std::size_t num_tasks() const override { return num_tasks_; }
  [[nodiscard]] std::size_t chunk_size() const { return chunk_size_; }

  AtomicCounterQueue(GlobalArray<std::int64_t> counter, std::size_t num_tasks,
                     std::size_t chunk_size);

 protected:
  std::optional<TaskChunk> claim(Context& ctx) override;

 private:
  GlobalArray<std::int64_t> counter_;
  std::size_t num_tasks_;
  std::size_t chunk_size_;
};

/// Master–worker queue: rank 0 "services" every chunk request serially.
/// The modeled request/response latencies plus the master's serial service
/// time reproduce the scalability bottleneck the paper describes.  (The
/// master also performs its own work; its requests are serviced locally.)
/// Under the socket backend the master's serial state lives only on rank
/// 0 and claims become genuine request/reply messages through a one-sided
/// window — the same arithmetic, so modeled results are unchanged.
class MasterWorkerQueue : public TaskQueue {
 public:
  static std::shared_ptr<MasterWorkerQueue> create(Context& ctx, std::size_t num_tasks,
                                                   std::size_t chunk_size);

  [[nodiscard]] std::size_t num_tasks() const override { return num_tasks_; }

  MasterWorkerQueue(std::size_t num_tasks, std::size_t chunk_size,
                    std::shared_ptr<void> state_region, detail::LockEnv env);
  /// Windowed (socket) construction: rank 0 hosts the serial state.
  MasterWorkerQueue(std::size_t num_tasks, std::size_t chunk_size, Transport& transport,
                    double rpc_service);
  ~MasterWorkerQueue() override;

 protected:
  std::optional<TaskChunk> claim(Context& ctx) override;

 private:
  /// The master's serial service state, in a transport-shared region so
  /// the bottleneck clock is one value under either backend.  Zero bytes
  /// are the valid initial state (implicit-lifetime aggregate).
  struct SharedState {
    detail::WorldMutex mutex;
    std::uint64_t next_task;
    double busy_until;  ///< master's virtual clock for queue service
  };

  std::shared_ptr<void> region_;
  detail::LockEnv env_;
  SharedState* state_ = nullptr;
  std::size_t num_tasks_;
  std::size_t chunk_size_;

  // Windowed (socket) mode: rank 0's replica hosts the state; every
  // rank's claim is one request/reply.
  Transport* transport_ = nullptr;
  std::uint64_t window_ = 0;
  double rpc_service_ = 0.0;
  std::mutex host_mu_;
  std::uint64_t host_next_task_ = 0;
  double host_busy_until_ = 0.0;
};

/// Static pre-partitioned "queue": rank r receives exactly its contiguous
/// 1/P share, mimicking no load balancing at all (the Figure 9 baseline).
class StaticPartitionQueue : public TaskQueue {
 public:
  static std::shared_ptr<StaticPartitionQueue> create(Context& ctx, std::size_t num_tasks);

  [[nodiscard]] std::size_t num_tasks() const override { return num_tasks_; }

  StaticPartitionQueue(std::size_t num_tasks, int nprocs);

 protected:
  std::optional<TaskChunk> claim(Context& ctx) override;

 private:
  std::size_t num_tasks_;
  int nprocs_;
  // Per-rank single-shot flags; index = rank.  Each rank touches only its
  // own byte (distinct memory locations), so no lock is needed.
  std::vector<unsigned char> claimed_;
};

/// The paper's queue (§3.3): per-rank cursors in a global array, advanced
/// with GA fetch-and-increment.  "The task queue is prioritized in such a
/// way that each process completes its inversion loads first, and then
/// works on loads owned by other processes" — next() drains the caller's
/// own range, then steals from peers in round-robin order.
class OwnerFirstChunkQueue : public TaskQueue {
 public:
  /// Collective: `ranges[r]` is the contiguous task interval owned by rank
  /// r; interval union must cover the queue's task space.
  static std::shared_ptr<OwnerFirstChunkQueue> create(
      Context& ctx, std::vector<std::pair<std::size_t, std::size_t>> ranges,
      std::size_t chunk_size);

  [[nodiscard]] std::size_t num_tasks() const override { return num_tasks_; }

  OwnerFirstChunkQueue(GlobalArray<std::int64_t> cursors,
                       std::vector<std::pair<std::size_t, std::size_t>> ranges,
                       std::size_t chunk_size);

 protected:
  std::optional<TaskChunk> claim(Context& ctx) override;

 private:
  std::optional<TaskChunk> claim_from(Context& ctx, int owner);

  GlobalArray<std::int64_t> cursors_;
  std::vector<std::pair<std::size_t, std::size_t>> ranges_;
  std::size_t chunk_size_;
  std::size_t num_tasks_ = 0;
};

/// Scheduling strategies selectable in the indexing configuration.
enum class Scheduling {
  kStatic,         ///< contiguous 1/P shares, no balancing
  kOwnerFirst,     ///< the paper's prioritized GA-atomic queue
  kAtomicCounter,  ///< single global GA fetch-and-increment counter
  kMasterWorker,   ///< message-passing master–worker baseline
};

/// Factory used by the indexing component.  `ranges` (per-rank ownership)
/// is required by kOwnerFirst; other strategies ignore it.  Claims are
/// gated as the world's CommModel says (see ClaimGate's protocol note:
/// every rank must drain to nullopt).
std::shared_ptr<TaskQueue> make_task_queue(
    Context& ctx, Scheduling scheduling, std::size_t num_tasks, std::size_t chunk_size,
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges = {});

const char* scheduling_name(Scheduling s);

}  // namespace sva::ga

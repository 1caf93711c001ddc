#include "sva/ga/task_queue.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

namespace sva::ga {

namespace {

// Little-endian scalar codec for the windowed (socket) request payloads.
void wire_put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t wire_get_u64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

void wire_put_f64(std::uint8_t* out, double v) { std::memcpy(out, &v, sizeof v); }

double wire_get_f64(const std::uint8_t* in) {
  double v;
  std::memcpy(&v, in, sizeof v);
  return v;
}

}  // namespace

// ---- ClaimGate -------------------------------------------------------------

std::shared_ptr<ClaimGate> ClaimGate::create(Context& ctx) {
  if (!ctx.model().vtime_ordered_claims) return nullptr;
  const auto np = static_cast<std::size_t>(ctx.nprocs());
  // Layout: [generation word, padded to a line][Cell × nprocs].
  const std::size_t bytes = detail::kCacheLine + np * sizeof(Cell);
  auto region = ctx.create_shared_region(bytes);
  return std::shared_ptr<ClaimGate>(
      new ClaimGate(std::move(region), ctx.lock_env(), ctx.nprocs()));
}

ClaimGate::ClaimGate(std::shared_ptr<void> region, detail::LockEnv env, int nprocs)
    : region_(std::move(region)), env_(env), nprocs_(nprocs) {
  auto* base = static_cast<std::uint8_t*>(region_.get());
  generation_ = reinterpret_cast<std::uint32_t*>(base);
  cells_ = reinterpret_cast<Cell*>(base + detail::kCacheLine);
}

void ClaimGate::bump_generation() {
  std::atomic_ref<std::uint32_t>(*generation_).fetch_add(1, std::memory_order_release);
  detail::futex_wake_all_u32(generation_, env_.process_shared);
}

bool ClaimGate::may_grant(int rank) const {
  const auto r = static_cast<std::size_t>(rank);
  const double my_vtime = std::bit_cast<double>(
      std::atomic_ref<std::uint64_t>(cells_[r].vtime_bits).load(std::memory_order_relaxed));
  for (std::size_t s = 0; s < static_cast<std::size_t>(nprocs_); ++s) {
    if (s == r) continue;
    // Acquire on the state pairs with the release store in enter(): once a
    // peer reads kWaiting/kProcessing, its vtime_bits are visible.
    const std::uint32_t st =
        std::atomic_ref<std::uint32_t>(cells_[s].state).load(std::memory_order_acquire);
    switch (st) {
      case kUnseen:
        // s has not reached the queue yet; its first claim could carry any
        // virtual time, so nobody may overtake it.
        return false;
      case kWaiting:
      case kProcessing: {
        const double v = std::bit_cast<double>(std::atomic_ref<std::uint64_t>(
                                                   cells_[s].vtime_bits)
                                                   .load(std::memory_order_relaxed));
        if (v < my_vtime || (v == my_vtime && s < r)) return false;
        break;
      }
      case kDone:
      default:
        break;
    }
  }
  return true;
}

void ClaimGate::enter(Context& ctx) {
  const auto r = static_cast<std::size_t>(ctx.rank());
  Cell& me = cells_[r];
  std::atomic_ref<std::uint32_t> state(me.state);
  if (state.load(std::memory_order_relaxed) == kDone) {
    return;  // post-drain probes skip the gate
  }
  const double now = ctx.vtime();  // samples compute before blocking
  std::atomic_ref<std::uint64_t>(me.vtime_bits)
      .store(std::bit_cast<std::uint64_t>(now), std::memory_order_relaxed);
  state.store(kWaiting, std::memory_order_release);
  bump_generation();
  for (;;) {
    // Snapshot the generation before scanning, so a peer update between
    // the scan and the park turns the wait into an immediate retry.
    const std::uint32_t gen =
        std::atomic_ref<std::uint32_t>(*generation_).load(std::memory_order_acquire);
    if (may_grant(ctx.rank())) break;
    // The timeout doubles as the abort poll: a peer's exception must not
    // strand us here.
    detail::futex_wait_u32(generation_, gen, env_.process_shared, 20);
    if (ctx.world_aborted()) {
      throw ProtocolError("ClaimGate: world aborted while waiting for a claim");
    }
  }
  // Same (vtime, rank) key while processing, so no generation bump: this
  // transition cannot enable any peer's grant.
  state.store(kProcessing, std::memory_order_release);
}

void ClaimGate::finish(Context& ctx) {
  const auto r = static_cast<std::size_t>(ctx.rank());
  std::atomic_ref<std::uint32_t>(cells_[r].state).store(kDone, std::memory_order_release);
  bump_generation();
}

// ---- TaskQueue base ----------------------------------------------------------

std::optional<TaskChunk> TaskQueue::next(Context& ctx) {
  if (!gate_) return claim(ctx);
  gate_->enter(ctx);
  auto chunk = claim(ctx);
  if (!chunk) gate_->finish(ctx);
  return chunk;
}

// ---- AtomicCounterQueue --------------------------------------------------

AtomicCounterQueue::AtomicCounterQueue(GlobalArray<std::int64_t> counter,
                                       std::size_t num_tasks, std::size_t chunk_size)
    : counter_(std::move(counter)), num_tasks_(num_tasks), chunk_size_(chunk_size) {
  require(chunk_size >= 1, "AtomicCounterQueue: chunk_size must be >= 1");
}

std::shared_ptr<AtomicCounterQueue> AtomicCounterQueue::create(Context& ctx,
                                                               std::size_t num_tasks,
                                                               std::size_t chunk_size) {
  // Collective sub-steps run before the factory: under the process
  // backend every rank executes the factory, which therefore must not
  // issue collectives of its own.
  auto counter = GlobalArray<std::int64_t>::create(ctx, 1);
  const auto gate = ClaimGate::create(ctx);
  return ctx.collective_create<AtomicCounterQueue>([&]() {
    auto q = std::make_shared<AtomicCounterQueue>(counter, num_tasks, chunk_size);
    q->enable_vtime_order(gate);
    return q;
  });
}

std::optional<TaskChunk> AtomicCounterQueue::claim(Context& ctx) {
  // GA NGA_Read_inc on the shared counter: one atomic RMW per claim.
  const auto begin = static_cast<std::size_t>(
      counter_.fetch_add(ctx, 0, static_cast<std::int64_t>(chunk_size_)));
  if (begin >= num_tasks_) return std::nullopt;
  return TaskChunk{begin, std::min(num_tasks_, begin + chunk_size_)};
}

// ---- MasterWorkerQueue -----------------------------------------------------

MasterWorkerQueue::MasterWorkerQueue(std::size_t num_tasks, std::size_t chunk_size,
                                     std::shared_ptr<void> state_region,
                                     detail::LockEnv env)
    : region_(std::move(state_region)),
      env_(env),
      state_(static_cast<SharedState*>(region_.get())),
      num_tasks_(num_tasks),
      chunk_size_(chunk_size) {
  require(chunk_size >= 1, "MasterWorkerQueue: chunk_size must be >= 1");
}

MasterWorkerQueue::MasterWorkerQueue(std::size_t num_tasks, std::size_t chunk_size,
                                     Transport& transport, double rpc_service)
    : num_tasks_(num_tasks),
      chunk_size_(chunk_size),
      transport_(&transport),
      rpc_service_(rpc_service) {
  require(chunk_size >= 1, "MasterWorkerQueue: chunk_size must be >= 1");
  // The claim request carries only the arrival time; the master replies
  // with {service_end, begin, end} computed under its serial clock —
  // byte-for-byte the arithmetic of the shared-region path.
  window_ = transport_->onesided_register(
      [this](const std::uint8_t* req, std::size_t len,
             std::vector<std::uint8_t>& reply) {
        require_format(len == 8, "MasterWorkerQueue window: malformed request");
        const double request_arrives = wire_get_f64(req);
        std::lock_guard<std::mutex> lock(host_mu_);
        const double service_start = std::max(host_busy_until_, request_arrives);
        const double service_end = service_start + rpc_service_;
        host_busy_until_ = service_end;
        std::uint64_t begin = host_next_task_;
        std::uint64_t end = begin;
        if (begin < num_tasks_) {
          end = std::min<std::uint64_t>(num_tasks_, begin + chunk_size_);
          host_next_task_ = end;
        }
        reply.resize(24);
        wire_put_f64(reply.data(), service_end);
        wire_put_u64(reply.data() + 8, begin);
        wire_put_u64(reply.data() + 16, end);
      });
}

MasterWorkerQueue::~MasterWorkerQueue() {
  if (transport_ != nullptr) transport_->onesided_unregister(window_);
}

std::shared_ptr<MasterWorkerQueue> MasterWorkerQueue::create(Context& ctx,
                                                             std::size_t num_tasks,
                                                             std::size_t chunk_size) {
  Transport& tp = ctx.world().transport();
  if (!tp.shared_regions()) {
    // Socket worlds never gate claims (spmd_run rejects the model).
    const double rpc_service = ctx.model().rpc_service;
    return ctx.collective_create<MasterWorkerQueue>([&]() {
      return std::make_shared<MasterWorkerQueue>(num_tasks, chunk_size, tp, rpc_service);
    });
  }
  auto region = ctx.create_shared_region(sizeof(SharedState));
  const auto gate = ClaimGate::create(ctx);
  const detail::LockEnv env = ctx.lock_env();
  return ctx.collective_create<MasterWorkerQueue>([&]() {
    auto q = std::make_shared<MasterWorkerQueue>(num_tasks, chunk_size, region, env);
    q->enable_vtime_order(gate);
    return q;
  });
}

std::optional<TaskChunk> MasterWorkerQueue::claim(Context& ctx) {
  const bool is_master = ctx.rank() == 0;
  const double request_latency = is_master ? ctx.model().alpha_local : ctx.model().alpha;

  // The request leaves the worker at its current virtual time and queues
  // at the master, which services requests one at a time.  The reply
  // arrives one message latency after service completes.  This serial
  // `busy_until` clock is precisely the bottleneck of [20].
  const double request_arrives = ctx.vtime() + request_latency;

  if (transport_ != nullptr) {
    std::uint8_t req[8];
    wire_put_f64(req, request_arrives);
    std::vector<std::uint8_t> reply;
    transport_->onesided_call(0, window_, req, sizeof req, reply);
    require(reply.size() == 24, "MasterWorkerQueue: malformed claim reply");
    const double service_end = wire_get_f64(reply.data());
    const auto begin = static_cast<std::size_t>(wire_get_u64(reply.data() + 8));
    const auto end = static_cast<std::size_t>(wire_get_u64(reply.data() + 16));
    ctx.set_vtime(service_end + request_latency);
    if (begin >= num_tasks_) return std::nullopt;
    return TaskChunk{begin, end};
  }

  detail::WorldLock lock(state_->mutex, env_);
  const double service_start = std::max(state_->busy_until, request_arrives);
  const double service_end = service_start + ctx.model().rpc_service;
  state_->busy_until = service_end;
  ctx.set_vtime(service_end + request_latency);

  if (state_->next_task >= num_tasks_) return std::nullopt;
  const auto begin = static_cast<std::size_t>(state_->next_task);
  const std::size_t end = std::min(num_tasks_, begin + chunk_size_);
  state_->next_task = end;
  return TaskChunk{begin, end};
}

// ---- StaticPartitionQueue ---------------------------------------------------

StaticPartitionQueue::StaticPartitionQueue(std::size_t num_tasks, int nprocs)
    : num_tasks_(num_tasks),
      nprocs_(nprocs),
      claimed_(static_cast<std::size_t>(nprocs), 0) {}

std::shared_ptr<StaticPartitionQueue> StaticPartitionQueue::create(Context& ctx,
                                                                   std::size_t num_tasks) {
  const auto gate = ClaimGate::create(ctx);
  return ctx.collective_create<StaticPartitionQueue>([&]() {
    auto q = std::make_shared<StaticPartitionQueue>(num_tasks, ctx.nprocs());
    q->enable_vtime_order(gate);
    return q;
  });
}

std::optional<TaskChunk> StaticPartitionQueue::claim(Context& ctx) {
  const auto rank = static_cast<std::size_t>(ctx.rank());
  if (claimed_[rank] != 0) return std::nullopt;
  claimed_[rank] = 1;
  const auto nprocs = static_cast<std::size_t>(nprocs_);
  const std::size_t per_rank = (num_tasks_ + nprocs - 1) / nprocs;
  const std::size_t begin = std::min(num_tasks_, rank * per_rank);
  const std::size_t end = std::min(num_tasks_, begin + per_rank);
  if (begin >= end) return std::nullopt;
  return TaskChunk{begin, end};
}

// ---- OwnerFirstChunkQueue ---------------------------------------------------

OwnerFirstChunkQueue::OwnerFirstChunkQueue(
    GlobalArray<std::int64_t> cursors,
    std::vector<std::pair<std::size_t, std::size_t>> ranges, std::size_t chunk_size)
    : cursors_(std::move(cursors)), ranges_(std::move(ranges)), chunk_size_(chunk_size) {
  require(chunk_size >= 1, "OwnerFirstChunkQueue: chunk_size must be >= 1");
  for (const auto& [begin, end] : ranges_) {
    require(begin <= end, "OwnerFirstChunkQueue: malformed range");
    num_tasks_ += end - begin;
  }
}

std::shared_ptr<OwnerFirstChunkQueue> OwnerFirstChunkQueue::create(
    Context& ctx, std::vector<std::pair<std::size_t, std::size_t>> ranges,
    std::size_t chunk_size) {
  require(ranges.size() == static_cast<std::size_t>(ctx.nprocs()),
          "OwnerFirstChunkQueue: need one range per rank");
  auto cursors = GlobalArray<std::int64_t>::create(ctx, ranges.size());
  // Each rank initializes its own cursor to its range start.
  cursors.put_value(
      ctx, static_cast<std::size_t>(ctx.rank()),
      static_cast<std::int64_t>(ranges[static_cast<std::size_t>(ctx.rank())].first));
  const auto gate = ClaimGate::create(ctx);
  auto queue = ctx.collective_create<OwnerFirstChunkQueue>([&]() {
    auto q = std::make_shared<OwnerFirstChunkQueue>(cursors, ranges, chunk_size);
    q->enable_vtime_order(gate);
    return q;
  });
  ctx.barrier();  // cursors visible before anyone claims
  return queue;
}

std::optional<TaskChunk> OwnerFirstChunkQueue::claim_from(Context& ctx, int owner) {
  const auto& [begin, end] = ranges_[static_cast<std::size_t>(owner)];
  (void)begin;
  const auto claimed = static_cast<std::size_t>(cursors_.fetch_add(
      ctx, static_cast<std::size_t>(owner), static_cast<std::int64_t>(chunk_size_)));
  if (claimed >= end) return std::nullopt;
  return TaskChunk{claimed, std::min(end, claimed + chunk_size_)};
}

std::optional<TaskChunk> OwnerFirstChunkQueue::claim(Context& ctx) {
  // Own loads first...
  if (auto chunk = claim_from(ctx, ctx.rank())) return chunk;
  // ...then help peers, cycling from the next rank upward.
  for (int step = 1; step < ctx.nprocs(); ++step) {
    const int victim = (ctx.rank() + step) % ctx.nprocs();
    if (auto chunk = claim_from(ctx, victim)) return chunk;
  }
  return std::nullopt;
}

// ---- factory ---------------------------------------------------------------

std::shared_ptr<TaskQueue> make_task_queue(
    Context& ctx, Scheduling scheduling, std::size_t num_tasks, std::size_t chunk_size,
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges) {
  switch (scheduling) {
    case Scheduling::kStatic:
      return StaticPartitionQueue::create(ctx, num_tasks);
    case Scheduling::kOwnerFirst: {
      auto owned = ranges;
      if (owned.empty()) {
        // Fall back to equal contiguous shares.
        const auto nprocs = static_cast<std::size_t>(ctx.nprocs());
        const std::size_t per_rank = (num_tasks + nprocs - 1) / nprocs;
        for (std::size_t r = 0; r < nprocs; ++r) {
          const std::size_t begin = std::min(num_tasks, r * per_rank);
          owned.emplace_back(begin, std::min(num_tasks, begin + per_rank));
        }
      }
      return OwnerFirstChunkQueue::create(ctx, std::move(owned), chunk_size);
    }
    case Scheduling::kAtomicCounter:
      return AtomicCounterQueue::create(ctx, num_tasks, chunk_size);
    case Scheduling::kMasterWorker:
      return MasterWorkerQueue::create(ctx, num_tasks, chunk_size);
  }
  throw InvalidArgument("make_task_queue: unknown scheduling strategy");
}

const char* scheduling_name(Scheduling s) {
  switch (s) {
    case Scheduling::kStatic: return "static";
    case Scheduling::kOwnerFirst: return "owner-first";
    case Scheduling::kAtomicCounter: return "atomic-counter";
    case Scheduling::kMasterWorker: return "master-worker";
  }
  return "?";
}

}  // namespace sva::ga

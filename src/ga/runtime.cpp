#include "sva/ga/runtime.hpp"

#include <algorithm>
#include <thread>

#include "sva/fault/fault.hpp"
#include "sva/util/log.hpp"
#include "transport_impl.hpp"

namespace sva::ga {

World::World(const SpmdOptions& options)
    : nprocs_(options.nprocs),
      model_(options.comm_model),
      transport_(make_transport(options)) {
  require(options.nprocs >= 1, "World: nprocs must be >= 1");
}

Context::Context(World& world, int rank)
    : world_(world), rank_(rank), cpu_mark_(ThreadCpuTimer::now()) {
  // A Context is constructed on its rank's own thread (or forked process),
  // so this is where the fault substrate learns which rank a `rank=` rule
  // filter should match on.
  fault::set_thread_rank(rank);
}

void Context::sample_compute() {
  const double now = ThreadCpuTimer::now();
  vtime_ += (now - cpu_mark_) * world_.model().compute_scale;
  cpu_mark_ = now;
}

double Context::vtime() {
  sample_compute();
  return vtime_;
}

void Context::reset_vtime() {
  vtime_ = 0.0;
  cpu_mark_ = ThreadCpuTimer::now();
}

void Context::finish_round(double extra_cost) {
  vtime_ = synced_clock_ + extra_cost;
  // Compute done inside the exchange window (e.g. local combine work)
  // belongs to the next interval; reset the CPU baseline.
  cpu_mark_ = ThreadCpuTimer::now();
}

void Context::barrier() {
  sample_compute();
  sync_round();
  finish_round(world_.model().barrier(nprocs()));
}

void Context::exchange(const void* mine, double comm_cost,
                       const std::function<void(const std::vector<const void*>&)>& consume) {
  sample_compute();
  // The generic path publishes through the ptrs mirror only (the typed
  // slots of this parity stay untouched); the parity still advances so
  // ptr reuse follows the same two-rounds-apart rule as the slots.
  const std::uint32_t par = next_parity();
  std::vector<const void*>* ptrs = world_.transport().ptr_slots(par);
  if (ptrs == nullptr) {
    throw ProtocolError(
        "Context::exchange requires the thread backend: raw pointers cannot "
        "cross rank address spaces (use the typed collectives instead)");
  }
  (*ptrs)[static_cast<std::size_t>(rank_)] = mine;
  sync_round();
  consume(*ptrs);
  fence_round();  // caller buffers stay readable until every consume is done
  finish_round(comm_cost);
}

namespace {

/// what() of the in-flight exception, for the transport error channel.
std::string describe_current_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

SpmdResult run_thread_world(World& world, const std::function<void(Context&)>& fn) {
  const int nprocs = world.nprocs();
  SpmdResult result;
  result.rank_vtimes.assign(static_cast<std::size_t>(nprocs), 0.0);

  WallTimer wall;

  auto body = [&](int rank) {
    Context ctx(world, rank);
    try {
      fn(ctx);
      ctx.sample_compute();
      result.rank_vtimes[static_cast<std::size_t>(rank)] = ctx.vtime_raw();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(world.error_mutex_);
        if (!world.first_error_) world.first_error_ = std::current_exception();
      }
      world.transport().post_error(describe_current_exception().c_str());
    }
  };

  if (nprocs == 1) {
    body(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nprocs));
    for (int r = 0; r < nprocs; ++r) threads.emplace_back(body, r);
    for (auto& t : threads) t.join();
  }

  result.wall_seconds = wall.elapsed();
  if (world.first_error_) std::rethrow_exception(world.first_error_);
  result.max_vtime = *std::max_element(result.rank_vtimes.begin(), result.rank_vtimes.end());
  return result;
}

}  // namespace

SpmdResult spmd_run(const SpmdOptions& options, const std::function<void(Context&)>& fn) {
  require(options.nprocs >= 1 && options.nprocs <= 4096,
          "spmd_run: nprocs out of range [1, 4096]");
  // The claim gate parks ranks on cells in shared memory.
  require(options.backend != Backend::kSocket || !options.comm_model.vtime_ordered_claims,
          "spmd_run: CommModel::vtime_ordered_claims needs shared memory; "
          "Backend::kSocket cannot order claims");
  World world(options);
  if (options.backend == Backend::kProcess) {
    return detail::run_process_world(world, fn);
  }
  if (options.backend == Backend::kSocket) {
    return detail::run_socket_world(world, fn);
  }
  return run_thread_world(world, fn);
}

SpmdResult spmd_run(int nprocs, const CommModel& model,
                    const std::function<void(Context&)>& fn) {
  SpmdOptions options;
  options.nprocs = nprocs;
  options.comm_model = model;
  return spmd_run(options, fn);
}

SpmdResult spmd_run(int nprocs, const std::function<void(Context&)>& fn) {
  SpmdOptions options;
  options.nprocs = nprocs;
  return spmd_run(options, fn);
}

}  // namespace sva::ga

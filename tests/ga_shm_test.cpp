// ShmTransport (Backend::kProcess) shard: the collectives, global array,
// hashmap and task queues under forked ranks over POSIX shm, plus the
// failure semantics the seam promises — an abort mid-collective or a
// killed child rank must fail the whole world with a diagnostic, never
// hang it.
//
// gtest EXPECTs inside a non-zero rank run in a forked child and vanish
// at its _exit, so every in-world check here throws (sva::require); the
// parent observes the failure as a world abort.  Result comparisons
// happen at rank 0, which runs on the parent's calling thread.
#include <gtest/gtest.h>

#include <csignal>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "backend_testutil.hpp"
#include "sva/ga/dist_hashmap.hpp"
#include "sva/ga/global_array.hpp"
#include "sva/ga/runtime.hpp"
#include "sva/ga/task_queue.hpp"
#include "sva/util/error.hpp"

namespace sva::ga {
namespace {

SpmdOptions process_world(int nprocs) {
  SpmdOptions world;
  world.nprocs = nprocs;
  world.backend = Backend::kProcess;
  return world;
}

/// Runs a scripted sweep over every collective primitive and returns a
/// rank-0 FNV digest of all result bytes.  Pure function of (P); running
/// it under both backends and comparing digests is the transport seam's
/// equivalence check at the substrate level.
std::uint64_t collective_sweep_digest(Backend backend, int nprocs) {
  auto out = std::make_shared<std::uint64_t>(0);
  SpmdOptions world;
  world.nprocs = nprocs;
  world.backend = backend;
  spmd_run(world, [&](Context& ctx) {
    const int P = ctx.nprocs();
    const int rank = ctx.rank();
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    const auto mix_f64 = [&](double v) { mix(std::bit_cast<std::uint64_t>(v)); };

    for (int round = 0; round < 6; ++round) {
      // Sizes sweep 1..4^5 doubles: both the staged small path and the
      // large partitioned-allreduce path get exercised.
      const std::size_t n = static_cast<std::size_t>(1) << (2 * round);
      const int root = round % P;

      std::vector<double> bcast(n, 0.0);
      if (rank == root) {
        for (std::size_t i = 0; i < n; ++i) {
          bcast[i] = 1.0 / static_cast<double>(round * 101 + i + 1);
        }
      }
      ctx.broadcast(bcast.data(), n, root);
      for (const double v : bcast) mix_f64(v);

      std::vector<double> acc(n);
      for (std::size_t i = 0; i < n; ++i) {
        acc[i] = std::sin(static_cast<double>(rank + 1)) /
                 static_cast<double>(i + round + 1);
      }
      ctx.allreduce_sum(acc.data(), acc.size());
      for (const double v : acc) mix_f64(v);

      std::vector<std::int64_t> mine(static_cast<std::size_t>(rank + round + 1),
                                     static_cast<std::int64_t>(rank * 31 + round));
      const auto all = ctx.allgatherv(std::span<const std::int64_t>(mine));
      for (const auto v : all) mix(static_cast<std::uint64_t>(v));

      const auto gathered = ctx.gatherv(std::span<const std::int64_t>(mine), root);
      if (rank == root) {
        require(gathered.size() == all.size(), "gatherv size diverged from allgatherv");
      }

      const auto counts = ctx.allgather(static_cast<std::uint64_t>(mine.size()));
      require(counts.size() == static_cast<std::size_t>(P), "allgather arity");
      for (const auto c : counts) mix(c);

      mix(ctx.exscan_sum(static_cast<std::uint64_t>(rank + 1) *
                         static_cast<std::uint64_t>(round + 1)));
      ctx.barrier();
    }
    if (rank == 0) *out = h;
  });
  return *out;
}

TEST(GaShmTest, CollectiveSweepMatchesThreadBackendBitIdentically) {
  SVA_REQUIRE_PROCESS_BACKEND();
  for (const int nprocs : {1, 2, 4}) {
    const std::uint64_t thread_digest =
        collective_sweep_digest(Backend::kThread, nprocs);
    const std::uint64_t process_digest =
        collective_sweep_digest(Backend::kProcess, nprocs);
    EXPECT_EQ(process_digest, thread_digest) << "nprocs=" << nprocs;
  }
}

TEST(GaShmTest, GlobalArrayHashmapAndQueuesWorkUnderProcessBackend) {
  SVA_REQUIRE_PROCESS_BACKEND();
  for (const int P : {1, 2, 4}) {
    SpmdOptions world = process_world(P);
    world.comm_model.vtime_ordered_claims = true;  // claim gate over the shared region
    spmd_run(world, [&](Context& ctx) {
      auto array = GlobalArray<std::int64_t>::create(ctx, 100);
      array.put_value(ctx, (ctx.rank() * 37) % 100, ctx.rank() + 1);
      ctx.barrier();
      (void)array.fetch_add(ctx, 5, 1);
      ctx.barrier();
      const auto vec = array.to_vector(ctx);
      require(vec[5] >= P, "fetch_add lost cross-process updates");

      auto map = DistHashmap::create(ctx);
      const std::vector<std::string> terms = {"alpha", "beta",
                                              "rank" + std::to_string(ctx.rank())};
      const auto ids = map.insert_batch(ctx, terms);
      require(ids.size() == 3 && ids[0] >= 0, "insert_batch returned bad ids");
      ctx.barrier();
      const auto fin = map.finalize(ctx);
      require(fin.vocabulary->size() == static_cast<std::size_t>(2 + P),
              "replicated hashmap vocabulary diverged");

      for (const auto sched : {Scheduling::kAtomicCounter, Scheduling::kOwnerFirst,
                               Scheduling::kMasterWorker, Scheduling::kStatic}) {
        auto queue = make_task_queue(ctx, sched, 64, 4);
        std::size_t got = 0;
        while (const auto chunk = queue->next(ctx)) got += chunk->size();
        const auto total = ctx.allreduce_sum(static_cast<std::int64_t>(got));
        require(total == 64, std::string("task queue dropped tasks under ") +
                                 scheduling_name(sched));
        ctx.barrier();
      }
    });
  }
}

TEST(GaShmTest, InsertOrGetIsRejectedUnderProcessBackend) {
  SVA_REQUIRE_PROCESS_BACKEND();
  try {
    spmd_run(process_world(2), [](Context& ctx) {
      auto map = DistHashmap::create(ctx);
      (void)map.insert_or_get(ctx, "term");
    });
    FAIL() << "insert_or_get succeeded under Backend::kProcess";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("insert_or_get"), std::string::npos)
        << e.what();
  }
}

TEST(GaShmTest, AbortMidCollectiveFailsTheWholeWorld) {
  SVA_REQUIRE_PROCESS_BACKEND();
  try {
    spmd_run(process_world(4), [](Context& ctx) {
      if (ctx.rank() == 2) throw Error("boom mid-collective");
      // The survivors sit in barriers the thrower never reaches; the
      // abort must wake and fail them rather than leave them parked.
      for (int i = 0; i < 1000; ++i) ctx.barrier();
    });
    FAIL() << "world survived a mid-collective abort";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("boom mid-collective"), std::string::npos)
        << e.what();
  }
}

TEST(GaShmTest, DeadRankFailsTheWorldWithADiagnosticInsteadOfHanging) {
  SVA_REQUIRE_PROCESS_BACKEND();
  try {
    spmd_run(process_world(4), [](Context& ctx) {
      if (ctx.rank() == 2) ::kill(::getpid(), SIGKILL);
      for (int i = 0; i < 1000; ++i) ctx.barrier();
    });
    FAIL() << "world survived a killed rank";
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 2 died"), std::string::npos) << what;
    EXPECT_NE(what.find("signal 9"), std::string::npos) << what;
  }
}

TEST(GaShmTest, OversizedContributionNamesTheCapacityKnob) {
  SVA_REQUIRE_PROCESS_BACKEND();
  SpmdOptions world = process_world(2);
  world.shm_slot_bytes = 4096;
  try {
    spmd_run(world, [](Context& ctx) {
      std::vector<double> big(4096, 1.0);  // 32 KiB > the 4 KiB slot cap
      ctx.broadcast(big.data(), big.size(), 0);
    });
    FAIL() << "oversized contribution was accepted";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("shm_slot_bytes"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace sva::ga

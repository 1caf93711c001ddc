// Tests for the dynamic load-balancing task queues: every strategy must
// hand out each task exactly once; the owner-first queue must honor its
// priority; the master-worker queue must serialize in virtual time.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <vector>

#include "sva/ga/task_queue.hpp"

#include "test_models.hpp"

namespace sva::ga {
namespace {

struct SweepParam {
  int nprocs;
  Scheduling scheduling;
};

class QueueSweepTest : public ::testing::TestWithParam<SweepParam> {};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = std::string(scheduling_name(info.param.scheduling)) + "_p" +
                     std::to_string(info.param.nprocs);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

TEST_P(QueueSweepTest, EveryTaskClaimedExactlyOnce) {
  const auto [nprocs, scheduling] = GetParam();
  constexpr std::size_t kTasks = 337;
  std::vector<std::atomic<int>> claims(kTasks);
  spmd_run(nprocs, [&](Context& ctx) {
    auto queue = make_task_queue(ctx, scheduling, kTasks, 16);
    while (auto chunk = queue->next(ctx)) {
      for (std::size_t t = chunk->begin; t < chunk->end; ++t) claims[t].fetch_add(1);
    }
    ctx.barrier();
  });
  for (std::size_t t = 0; t < kTasks; ++t) EXPECT_EQ(claims[t].load(), 1) << "task " << t;
}

TEST_P(QueueSweepTest, DrainedQueueStaysDrained) {
  const auto [nprocs, scheduling] = GetParam();
  spmd_run(nprocs, [&](Context& ctx) {
    auto queue = make_task_queue(ctx, scheduling, 10, 4);
    while (queue->next(ctx)) {
    }
    EXPECT_FALSE(queue->next(ctx).has_value());
    EXPECT_FALSE(queue->next(ctx).has_value());
    ctx.barrier();
  });
}

TEST_P(QueueSweepTest, ChunksAreWithinBoundsAndNonEmpty) {
  const auto [nprocs, scheduling] = GetParam();
  constexpr std::size_t kTasks = 100;
  spmd_run(nprocs, [&](Context& ctx) {
    auto queue = make_task_queue(ctx, scheduling, kTasks, 7);
    while (auto chunk = queue->next(ctx)) {
      EXPECT_LT(chunk->begin, chunk->end);
      EXPECT_LE(chunk->end, kTasks);
    }
    ctx.barrier();
  });
}

TEST_P(QueueSweepTest, ReportsTaskCount) {
  const auto [nprocs, scheduling] = GetParam();
  spmd_run(nprocs, [&](Context& ctx) {
    auto queue = make_task_queue(ctx, scheduling, 55, 8);
    EXPECT_EQ(queue->num_tasks(), 55u);
    while (queue->next(ctx)) {
    }
    ctx.barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, QueueSweepTest,
    ::testing::Values(SweepParam{1, Scheduling::kStatic}, SweepParam{4, Scheduling::kStatic},
                      SweepParam{1, Scheduling::kOwnerFirst},
                      SweepParam{3, Scheduling::kOwnerFirst},
                      SweepParam{8, Scheduling::kOwnerFirst},
                      SweepParam{1, Scheduling::kAtomicCounter},
                      SweepParam{4, Scheduling::kAtomicCounter},
                      SweepParam{8, Scheduling::kAtomicCounter},
                      SweepParam{1, Scheduling::kMasterWorker},
                      SweepParam{4, Scheduling::kMasterWorker}),
    param_name);

// ---- strategy-specific properties ------------------------------------------

TEST(StaticQueueTest, RankGetsItsContiguousShareOnce) {
  spmd_run(4, [](Context& ctx) {
    auto queue = StaticPartitionQueue::create(ctx, 100);
    auto chunk = queue->next(ctx);
    ASSERT_TRUE(chunk.has_value());
    EXPECT_EQ(chunk->begin, static_cast<std::size_t>(ctx.rank()) * 25);
    EXPECT_EQ(chunk->end, static_cast<std::size_t>(ctx.rank() + 1) * 25);
    EXPECT_FALSE(queue->next(ctx).has_value());
    ctx.barrier();
  });
}

TEST(StaticQueueTest, MoreRanksThanTasks) {
  std::vector<std::atomic<int>> claims(3);
  spmd_run(8, [&](Context& ctx) {
    auto queue = StaticPartitionQueue::create(ctx, 3);
    while (auto chunk = queue->next(ctx)) {
      for (std::size_t t = chunk->begin; t < chunk->end; ++t) claims[t].fetch_add(1);
    }
    ctx.barrier();
  });
  for (auto& c : claims) EXPECT_EQ(c.load(), 1);
}

TEST(OwnerFirstQueueTest, FirstClaimComesFromOwnRange) {
  // Assertions happen outside the SPMD region: a fatal assertion inside a
  // rank lambda would return early, skip the collective protocol, and
  // deadlock the remaining ranks.  The barrier between the first claim and
  // the drain loop keeps fast ranks from stealing a slow rank's entire
  // range before its first (owner-priority) claim.
  std::vector<std::pair<std::size_t, std::size_t>> ranges = {{0, 40}, {40, 60}, {60, 100}};
  std::vector<std::optional<TaskChunk>> first(3);
  spmd_run(3, [&](Context& ctx) {
    auto queue = OwnerFirstChunkQueue::create(ctx, ranges, 10);
    first[static_cast<std::size_t>(ctx.rank())] = queue->next(ctx);
    ctx.barrier();
    while (queue->next(ctx)) {
    }
    ctx.barrier();
  });
  for (std::size_t r = 0; r < 3; ++r) {
    ASSERT_TRUE(first[r].has_value()) << "rank " << r;
    const auto [b, e] = ranges[r];
    EXPECT_GE(first[r]->begin, b) << "rank " << r;
    EXPECT_LE(first[r]->end, e) << "rank " << r;
  }
}

TEST(OwnerFirstQueueTest, IdleRanksStealFromBusyOnes) {
  // Rank 1 owns everything; ranks 0 and 2 must still get work.  The
  // vtime-ordered gate makes the claim schedule follow virtual time, so
  // the steals happen deterministically even though the host OS may run
  // the three rank threads in any real-time order.
  std::vector<std::pair<std::size_t, std::size_t>> ranges = {{0, 0}, {0, 90}, {90, 90}};
  std::vector<std::atomic<int>> claimed_by(3);
  spmd_run(3, sva::testing::vtime_ordered(), [&](Context& ctx) {
    auto queue = OwnerFirstChunkQueue::create(ctx, ranges, 5);
    int chunks = 0;
    while (queue->next(ctx)) ++chunks;
    claimed_by[static_cast<std::size_t>(ctx.rank())] = chunks;
    ctx.barrier();
  });
  EXPECT_GT(claimed_by[0].load(), 0);
  EXPECT_GT(claimed_by[2].load(), 0);
  EXPECT_EQ(claimed_by[0].load() + claimed_by[1].load() + claimed_by[2].load(), 90 / 5);
}

TEST(OwnerFirstQueueTest, WrongRangeCountThrows) {
  EXPECT_THROW(spmd_run(3,
                        [](Context& ctx) {
                          (void)OwnerFirstChunkQueue::create(ctx, {{0, 10}}, 2);
                        }),
               Error);
}

TEST(MasterWorkerQueueTest, RequestsSerializeOnMasterClock) {
  // With many workers each making one request, replies must be spaced by
  // at least the master's service time: the later reply arrives no
  // earlier than (n_requests - 1) * service after the first.
  constexpr int kProcs = 8;
  // Modeled-cost comparison only: see test_models.hpp.
  const CommModel model = sva::testing::zero_compute_model();
  auto replies = std::make_shared<std::vector<double>>(kProcs, 0.0);
  spmd_run(kProcs, model, [&](Context& ctx) {
    auto queue = MasterWorkerQueue::create(ctx, 1000, 1);
    ctx.barrier();
    (void)queue->next(ctx);
    (*replies)[static_cast<std::size_t>(ctx.rank())] = ctx.vtime();
    ctx.barrier();
  });
  std::sort(replies->begin(), replies->end());
  // 0.9 slack for FP accumulation order in the modeled clocks.
  EXPECT_GE(replies->back() - replies->front(), model.rpc_service * (kProcs - 2) * 0.9);
}

TEST(MasterWorkerQueueTest, MasterPaysLowerLatencyThanWorkers) {
  // Modeled-cost comparison only: see test_models.hpp.
  const CommModel model = sva::testing::zero_compute_model();
  auto costs = std::make_shared<std::vector<double>>(2, 0.0);
  spmd_run(2, model, [&](Context& ctx) {
    auto queue = MasterWorkerQueue::create(ctx, 100, 1);
    ctx.barrier();
    // Barrier-separated service windows: rank 0's request completes (in
    // both real and virtual time) before rank 1 requests, so queueing at
    // the master cannot mask the latency difference.
    if (ctx.rank() == 0) {
      const double t0 = ctx.vtime();
      (void)queue->next(ctx);
      (*costs)[0] = ctx.vtime() - t0;
    }
    ctx.barrier();
    if (ctx.rank() == 1) {
      const double t0 = ctx.vtime();
      (void)queue->next(ctx);
      (*costs)[1] = ctx.vtime() - t0;
    }
    ctx.barrier();
  });
  EXPECT_LT((*costs)[0], (*costs)[1]);
}

TEST(AtomicCounterQueueTest, ChunkSizeRespected) {
  spmd_run(2, [](Context& ctx) {
    auto queue = AtomicCounterQueue::create(ctx, 100, 30);
    std::size_t total = 0;
    while (auto chunk = queue->next(ctx)) {
      EXPECT_LE(chunk->size(), 30u);
      total += chunk->size();
    }
    const auto sum = ctx.allreduce_sum(static_cast<std::int64_t>(total));
    EXPECT_EQ(sum, 100);
  });
}

TEST(AtomicCounterQueueTest, ZeroChunkSizeThrows) {
  EXPECT_THROW(
      spmd_run(1, [](Context& ctx) { (void)AtomicCounterQueue::create(ctx, 10, 0); }),
      Error);
}


// ---- virtual-time claim ordering (ClaimGate) --------------------------------

TEST(ClaimGateTest, ClaimsFollowVirtualTimeNotThreadOrder) {
  // Rank 2 charges a large virtual-time head start to ranks 0/1... i.e.
  // rank 2's clock is far AHEAD, so regardless of which thread the OS
  // runs first, ranks 0 and 1 must drain the whole queue before rank 2
  // gets a single chunk.
  constexpr int kProcs = 3;
  std::vector<std::atomic<int>> claimed(kProcs);
  spmd_run(kProcs, sva::testing::vtime_ordered(), [&](Context& ctx) {
    auto queue = AtomicCounterQueue::create(ctx, 40, 4);
    ctx.barrier();
    if (ctx.rank() == 2) ctx.charge(100.0);  // way in the future
    int chunks = 0;
    while (queue->next(ctx)) ++chunks;
    claimed[static_cast<std::size_t>(ctx.rank())] = chunks;
    ctx.barrier();
  });
  EXPECT_EQ(claimed[2].load(), 0) << "the far-future rank must never win a claim";
  EXPECT_EQ(claimed[0].load() + claimed[1].load(), 10);
  EXPECT_GT(claimed[0].load(), 0);
  EXPECT_GT(claimed[1].load(), 0);
}

TEST(ClaimGateTest, CounterLocalityFavorsTheOwnerRank) {
  // The shared counter is a 1-row GlobalArray hosted on rank 0, so rank
  // 0's fetch-and-add costs alpha_local while peers pay the remote
  // alpha_rmw — in virtual time the owner claims fastest.  Under the
  // gate this locality advantage must show up deterministically: rank 0
  // claims at least as many chunks as any peer, everyone gets work, and
  // every chunk is claimed.
  constexpr int kProcs = 4;
  // Modeled-cost comparison only: see test_models.hpp.
  const CommModel model = sva::testing::vtime_ordered(sva::testing::zero_compute_model());
  std::vector<std::atomic<int>> claimed(kProcs);
  spmd_run(kProcs, model, [&](Context& ctx) {
    auto queue = AtomicCounterQueue::create(ctx, 64, 4);
    ctx.barrier();
    int chunks = 0;
    while (queue->next(ctx)) ++chunks;
    claimed[static_cast<std::size_t>(ctx.rank())] = chunks;
    ctx.barrier();
  });
  int total = 0;
  for (int r = 0; r < kProcs; ++r) {
    total += claimed[static_cast<std::size_t>(r)].load();
    EXPECT_GT(claimed[static_cast<std::size_t>(r)].load(), 0) << "rank " << r;
    EXPECT_GE(claimed[0].load(), claimed[static_cast<std::size_t>(r)].load())
        << "counter owner must claim fastest in virtual time";
  }
  EXPECT_EQ(total, 16);
}

TEST(ClaimGateTest, GatedQueueStillClaimsEveryTaskOnce) {
  constexpr std::size_t kTasks = 101;
  std::vector<std::atomic<int>> claims(kTasks);
  spmd_run(5, sva::testing::vtime_ordered(), [&](Context& ctx) {
    auto queue = make_task_queue(ctx, Scheduling::kOwnerFirst, kTasks, 7);
    while (auto chunk = queue->next(ctx)) {
      for (std::size_t t = chunk->begin; t < chunk->end; ++t) claims[t].fetch_add(1);
    }
    ctx.barrier();
  });
  for (std::size_t t = 0; t < kTasks; ++t) EXPECT_EQ(claims[t].load(), 1) << "task " << t;
}

TEST(ClaimGateTest, AbortWhileWaitingDoesNotDeadlock) {
  // Rank 1 throws between its first and second claim; ranks waiting at
  // the gate must observe the abort and unwind instead of hanging.
  EXPECT_THROW(
      spmd_run(3, sva::testing::vtime_ordered(),
               [](Context& ctx) {
                 auto queue = AtomicCounterQueue::create(ctx, 1000, 1);
                 ctx.barrier();
                 if (ctx.rank() == 1) {
                   (void)queue->next(ctx);
                   throw InvalidArgument("injected failure");
                 }
                 while (queue->next(ctx)) {
                 }
                 ctx.barrier();
               }),
      Error);
}

TEST(TaskQueueTest, SchedulingNamesAreDistinct) {
  EXPECT_STRNE(scheduling_name(Scheduling::kStatic), scheduling_name(Scheduling::kOwnerFirst));
  EXPECT_STRNE(scheduling_name(Scheduling::kAtomicCounter),
               scheduling_name(Scheduling::kMasterWorker));
}

}  // namespace
}  // namespace sva::ga

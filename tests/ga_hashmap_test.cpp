// Tests for the distributed hashmap / global vocabulary map.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "backend_testutil.hpp"
#include "sva/ga/dist_hashmap.hpp"
#include "sva/util/error.hpp"

namespace sva::ga {
namespace {

std::vector<std::string> make_terms(int count, int salt = 0) {
  std::vector<std::string> terms;
  terms.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    terms.push_back("term" + std::to_string(salt) + "_" + std::to_string(i));
  }
  return terms;
}

class HashmapSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(HashmapSweepTest, InsertAssignsStableIds) {
  const int nprocs = GetParam();
  spmd_run(nprocs, [&](Context& ctx) {
    auto map = DistHashmap::create(ctx);
    const auto id1 = map.insert_or_get(ctx, "hello");
    const auto id2 = map.insert_or_get(ctx, "hello");
    EXPECT_EQ(id1, id2);
    ctx.barrier();
    // Every rank resolved the same id for the same term.
    const auto ids = ctx.allgather(id1);
    for (auto v : ids) EXPECT_EQ(v, ids[0]);
  });
}

TEST_P(HashmapSweepTest, DistinctTermsGetDistinctIds) {
  const int nprocs = GetParam();
  spmd_run(nprocs, [&](Context& ctx) {
    auto map = DistHashmap::create(ctx);
    // All ranks insert an overlapping but shuffled set.
    const auto terms = make_terms(200);
    std::vector<std::int64_t> ids;
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const std::size_t j = (i * 37 + static_cast<std::size_t>(ctx.rank()) * 11) % terms.size();
      ids.push_back(map.insert_or_get(ctx, terms[j]));
    }
    ctx.barrier();
    EXPECT_EQ(map.size_estimate(), terms.size());
    // Lookup agrees and ids are unique per term.
    std::set<std::int64_t> unique;
    for (const auto& t : terms) {
      const auto found = map.find(ctx, t);
      ASSERT_TRUE(found.has_value());
      unique.insert(*found);
    }
    EXPECT_EQ(unique.size(), terms.size());
  });
}

TEST_P(HashmapSweepTest, BatchMatchesScalarInsert) {
  const int nprocs = GetParam();
  spmd_run(nprocs, [&](Context& ctx) {
    auto map = DistHashmap::create(ctx);
    const auto terms = make_terms(64, ctx.rank());
    const auto batch_ids = map.insert_batch(ctx, terms);
    ASSERT_EQ(batch_ids.size(), terms.size());
    for (std::size_t i = 0; i < terms.size(); ++i) {
      EXPECT_EQ(map.insert_or_get(ctx, terms[i]), batch_ids[i]);
    }
  });
}

TEST_P(HashmapSweepTest, FindMissingReturnsNullopt) {
  const int nprocs = GetParam();
  spmd_run(nprocs, [&](Context& ctx) {
    auto map = DistHashmap::create(ctx);
    EXPECT_FALSE(map.find(ctx, "never-inserted").has_value());
  });
}

TEST_P(HashmapSweepTest, FinalizeSortsVocabulary) {
  const int nprocs = GetParam();
  spmd_run(nprocs, [&](Context& ctx) {
    auto map = DistHashmap::create(ctx);
    const std::vector<std::string> terms = {"pear", "apple", "zebra", "mango", "fig"};
    // Insert in rank-dependent order to scramble provisional ids.
    for (std::size_t i = 0; i < terms.size(); ++i) {
      (void)map.insert_or_get(ctx, terms[(i + static_cast<std::size_t>(ctx.rank())) %
                                         terms.size()]);
    }
    ctx.barrier();
    const auto fin = map.finalize(ctx);
    ASSERT_EQ(fin.vocabulary->size(), terms.size());
    EXPECT_EQ(fin.vocabulary->terms.front(), "apple");
    EXPECT_EQ(fin.vocabulary->terms.back(), "zebra");
    EXPECT_TRUE(std::is_sorted(fin.vocabulary->terms.begin(), fin.vocabulary->terms.end()));
  });
}

TEST_P(HashmapSweepTest, RemapTranslatesProvisionalToCanonical) {
  const int nprocs = GetParam();
  spmd_run(nprocs, [&](Context& ctx) {
    auto map = DistHashmap::create(ctx);
    const auto terms = make_terms(100, 3);
    const auto provisional = map.insert_batch(ctx, terms);
    ctx.barrier();
    const auto fin = map.finalize(ctx);
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const auto canonical = fin.remap_id(provisional[i]);
      ASSERT_GE(canonical, 0);
      EXPECT_EQ(fin.vocabulary->terms[static_cast<std::size_t>(canonical)], terms[i]);
      EXPECT_EQ(fin.vocabulary->id_of(terms[i]), canonical);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Procs, HashmapSweepTest, ::testing::Values(1, 2, 3, 4, 8));

TEST(HashmapTest, CanonicalIdsIndependentOfProcessorCount) {
  // The central reproducibility property: same term set -> same canonical
  // vocabulary for any P.
  const auto terms = make_terms(150, 9);
  std::vector<std::vector<std::string>> vocabularies;
  for (int nprocs : {1, 2, 4}) {
    auto out = std::make_shared<std::vector<std::string>>();
    spmd_run(nprocs, [&](Context& ctx) {
      auto map = DistHashmap::create(ctx);
      // Spread insertion across ranks.
      std::vector<std::string> mine;
      for (std::size_t i = static_cast<std::size_t>(ctx.rank()); i < terms.size();
           i += static_cast<std::size_t>(ctx.nprocs())) {
        mine.push_back(terms[i]);
      }
      (void)map.insert_batch(ctx, mine);
      ctx.barrier();
      const auto fin = map.finalize(ctx);
      if (ctx.rank() == 0) *out = fin.vocabulary->terms;
    });
    vocabularies.push_back(*out);
  }
  EXPECT_EQ(vocabularies[0], vocabularies[1]);
  EXPECT_EQ(vocabularies[0], vocabularies[2]);
}

TEST(HashmapTest, AdversarialSamePartitionKeys) {
  // Keys engineered to hash to few partitions must still work (collision
  // storm on one partition's lock).
  spmd_run(4, [](Context& ctx) {
    auto map = DistHashmap::create(ctx);
    std::vector<std::string> keys;
    for (int i = 0; i < 500; ++i) keys.push_back("collide_" + std::to_string(i % 17));
    const auto ids = map.insert_batch(ctx, keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(ids[i], ids[i % 17]);
    }
    ctx.barrier();
    EXPECT_EQ(map.size_estimate(), 17u);
  });
}

TEST(HashmapTest, EmptyMapFinalizes) {
  spmd_run(3, [](Context& ctx) {
    auto map = DistHashmap::create(ctx);
    ctx.barrier();
    const auto fin = map.finalize(ctx);
    EXPECT_EQ(fin.vocabulary->size(), 0u);
    EXPECT_EQ(fin.vocabulary->id_of("anything"), -1);
  });
}

TEST(HashmapTest, EmptyStringIsAValidKey) {
  spmd_run(2, [](Context& ctx) {
    auto map = DistHashmap::create(ctx);
    const auto id = map.insert_or_get(ctx, "");
    EXPECT_GE(id, 0);
    EXPECT_EQ(map.find(ctx, "").value(), id);
  });
}

TEST(HashmapTest, OwnerIsStable) {
  spmd_run(4, [](Context& ctx) {
    auto map = DistHashmap::create(ctx);
    const int o1 = map.owner_of("stable-key");
    const int o2 = map.owner_of("stable-key");
    EXPECT_EQ(o1, o2);
    EXPECT_GE(o1, 0);
    EXPECT_LT(o1, 4);
  });
}

// ---- process and socket backends: sorted runs merged at finalize -------

/// What one world produced: the vocabulary and, in rank order, the
/// canonical ID of every term each rank inserted.
struct RunOutcome {
  std::vector<std::string> vocabulary;
  std::vector<std::int64_t> canonical;
};

/// Rank `rank`'s two insert_batch calls: duplicates within a batch and
/// across the calls, byte-order edge terms, and ranks with empty batches.
std::vector<std::vector<std::string>> batches_of(int rank) {
  const std::string own = "r" + std::to_string(rank);
  const std::string nul("a\0", 2);
  std::vector<std::string> first = {"ab", "a", "a\xff", "", nul, "a", "shared", own, "ab"};
  std::vector<std::string> second = {"shared", "a", own + "_2", "zz", "zz"};
  if (rank % 3 == 1) first.clear();
  if (rank % 3 == 2) second.clear();
  return {first, second};
}

RunOutcome run_batches(Backend backend, int nprocs) {
  RunOutcome out;
  SpmdOptions world;
  world.nprocs = nprocs;
  world.backend = backend;
  spmd_run(world, [&](Context& ctx) {
    auto map = DistHashmap::create(ctx);
    std::vector<std::string> inserted;
    std::vector<std::int64_t> provisional;
    for (const auto& batch : batches_of(ctx.rank())) {
      const auto ids = map.insert_batch(ctx, batch);
      inserted.insert(inserted.end(), batch.begin(), batch.end());
      provisional.insert(provisional.end(), ids.begin(), ids.end());
    }
    ctx.barrier();  // the thread backend's inserts must land before finalize
    const auto fin = map.finalize(ctx);
    const auto& terms = fin.vocabulary->terms;
    require(std::adjacent_find(terms.begin(), terms.end(), std::greater_equal<>()) ==
                terms.end(),
            "vocabulary not sorted and duplicate-free");
    std::vector<std::int64_t> canonical;
    for (std::size_t i = 0; i < inserted.size(); ++i) {
      const std::int64_t c = fin.remap_id(provisional[i]);
      require(c >= 0 && static_cast<std::size_t>(c) < terms.size() &&
                  terms[static_cast<std::size_t>(c)] == inserted[i],
              "remap sends a term to another term's canonical ID");
      require(fin.vocabulary->id_of(inserted[i]) == c, "id_of disagrees with the remap");
      canonical.push_back(c);
    }
    const auto all = ctx.allgatherv(std::span<const std::int64_t>(canonical));
    if (ctx.rank() == 0) {
      out.vocabulary = terms;
      out.canonical = all;
    }
  });
  return out;
}

class ReplicatedHashmapTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (!sva::testutil::process_backend_supported()) {
      GTEST_SKIP() << "process and socket backends require Linux without TSan";
    }
  }
};

TEST_P(ReplicatedHashmapTest, VocabularyAndRemapsMatchTheThreadBackend) {
  for (const int nprocs : {1, 2, 3, 4}) {
    const RunOutcome want = run_batches(Backend::kThread, nprocs);
    const RunOutcome got = run_batches(GetParam(), nprocs);
    EXPECT_EQ(got.vocabulary, want.vocabulary) << "P=" << nprocs;
    EXPECT_EQ(got.canonical, want.canonical) << "P=" << nprocs;
  }
  // Byte order: "" < "a" < "a\0" < "ab" < "a\xff" (unsigned bytes).
  const RunOutcome one = run_batches(GetParam(), 1);
  const std::vector<std::string> head = {"", "a", std::string("a\0", 2), "ab", "a\xff"};
  ASSERT_GE(one.vocabulary.size(), head.size());
  EXPECT_EQ(std::vector<std::string>(one.vocabulary.begin(), one.vocabulary.begin() + 5), head);
}

TEST_P(ReplicatedHashmapTest, FindAndSizeEstimateNeedTheSharedMap) {
  SpmdOptions world;
  world.nprocs = 2;
  world.backend = GetParam();
  spmd_run(world, [](Context& ctx) {
    auto map = DistHashmap::create(ctx);
    (void)map.insert_batch(ctx, std::vector<std::string>{"alpha"});
    const auto names_call = [](const ProtocolError& e, const char* call) {
      require(std::string(e.what()).find(call) != std::string::npos,
              std::string("ProtocolError does not name ") + call + ": " + e.what());
    };
    try {
      (void)map.find(ctx, "alpha");
      require(false, "find answered from a partial map");
    } catch (const ProtocolError& e) {
      names_call(e, "find");
    }
    try {
      (void)map.size_estimate();
      require(false, "size_estimate answered from a partial map");
    } catch (const ProtocolError& e) {
      names_call(e, "size_estimate");
    }
    require(map.finalize(ctx).vocabulary->size() == 1, "finalize after the rejected calls");
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, ReplicatedHashmapTest,
                         ::testing::Values(Backend::kProcess, Backend::kSocket),
                         [](const auto& info) { return backend_name(info.param); });

TEST(MergeSortedRunsTest, UnionsRunsAndMapsEveryEntry) {
  const std::vector<std::vector<std::string_view>> runs = {
      {"b", "d", "f"}, {}, {"a", "b", "z"}, {"d"}};
  std::vector<std::vector<std::int64_t>> positions;
  const auto merged = merge_sorted_runs(runs, positions);
  EXPECT_EQ(merged, (std::vector<std::string>{"a", "b", "d", "f", "z"}));
  const std::vector<std::vector<std::int64_t>> want = {{1, 2, 3}, {}, {0, 1, 4}, {2}};
  EXPECT_EQ(positions, want);
}

TEST(MergeSortedRunsTest, RejectsAnUnsortedRun) {
  const std::vector<std::vector<std::string_view>> runs = {{"b", "a"}};
  std::vector<std::vector<std::int64_t>> positions;
  EXPECT_THROW((void)merge_sorted_runs(runs, positions), InvalidArgument);
}

}  // namespace
}  // namespace sva::ga

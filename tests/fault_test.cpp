// Tests for the fault-injection substrate (fault/): spec grammar
// rejection, the hit/every/prob triggers and their determinism, count
// caps, rank scoping, the delay and short-read actions, environment
// arming, and the SectionedFile integration (an injected format/torn
// read surfaces as the same FormatError a real corruption would).
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "sva/engine/section_file.hpp"
#include "sva/fault/fault.hpp"
#include "sva/util/error.hpp"
#include "temp_path.hpp"

namespace sva::fault {
namespace {

/// The substrate is process-global; every test starts and ends disarmed.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
};

TEST_F(FaultTest, MalformedSpecsAreRejectedWithInvalidArgument) {
  const char* bad[] = {
      "no-action-here",                    // missing :action
      ":error",                            // empty site
      "site:explode",                      // unknown action
      "site:error:hit=0",                  // hit is 1-based
      "site:error:every=0",                // every is 1-based
      "site:error:hit=1,every=2",          // two triggers
      "site:error:prob=1.5",               // out of [0, 1]
      "site:error:prob=abc",               // not a number
      "site:error:frequency=2",            // unknown option
      "site:delay:ms=soon",                // not an integer
      "site:error:hit",                    // option is not key=value
  };
  for (const char* spec : bad) {
    EXPECT_THROW(configure(spec), InvalidArgument) << spec;
    EXPECT_FALSE(armed()) << spec;  // a rejected spec must not half-arm
  }
}

TEST_F(FaultTest, DisarmedPointIsANoOp) {
  EXPECT_FALSE(armed());
  EXPECT_EQ(point("t.anything"), Hint::kNone);
  EXPECT_EQ(hits("t.anything"), 0u);
  EXPECT_TRUE(sites_seen().empty());
}

TEST_F(FaultTest, HitFiresOnExactlyTheNthTraversal) {
  configure("t.site:error:hit=3");
  EXPECT_EQ(point("t.site"), Hint::kNone);
  EXPECT_EQ(point("t.site"), Hint::kNone);
  try {
    point("t.site");
    FAIL() << "third traversal did not fire";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("t.site"), std::string::npos) << e.what();
  }
  // hit= implies count=1: the rule is spent.
  EXPECT_EQ(point("t.site"), Hint::kNone);
  EXPECT_EQ(hits("t.site"), 4u);
  EXPECT_EQ(fired("t.site"), 1u);
}

TEST_F(FaultTest, EveryFiresPeriodicallyUpToTheCountCap) {
  configure("t.site:error:every=2,count=2");
  std::vector<int> fired_at;
  for (int i = 1; i <= 8; ++i) {
    try {
      point("t.site");
    } catch (const Error&) {
      fired_at.push_back(i);
    }
  }
  EXPECT_EQ(fired_at, (std::vector<int>{2, 4}));
  EXPECT_EQ(fired("t.site"), 2u);
}

TEST_F(FaultTest, UnarmedSiteTraversalsAreStillCounted) {
  configure("t.other:error:hit=1");
  EXPECT_EQ(point("t.quiet"), Hint::kNone);
  EXPECT_EQ(hits("t.quiet"), 1u);
  const auto seen = sites_seen();
  EXPECT_EQ(seen, (std::vector<std::string>{"t.quiet"}));
}

std::vector<int> prob_fire_pattern(const std::string& spec, int traversals) {
  configure(spec);
  std::vector<int> pattern;
  for (int i = 1; i <= traversals; ++i) {
    try {
      point("t.prob");
    } catch (const Error&) {
      pattern.push_back(i);
    }
  }
  return pattern;
}

TEST_F(FaultTest, ProbabilityTriggerIsDeterministicPerSeed) {
  const auto first = prob_fire_pattern("t.prob:error:prob=0.3,seed=7,count=1000", 200);
  const auto again = prob_fire_pattern("t.prob:error:prob=0.3,seed=7,count=1000", 200);
  EXPECT_EQ(first, again);  // same spec, same traversals, same firings
  EXPECT_FALSE(first.empty());
  EXPECT_LT(first.size(), 200u);  // actually probabilistic, not always-on

  const auto reseeded = prob_fire_pattern("t.prob:error:prob=0.3,seed=8,count=1000", 200);
  EXPECT_NE(first, reseeded);  // the seed is load-bearing
}

TEST_F(FaultTest, RankFilterScopesARuleToOneRank) {
  configure("t.site:error:rank=2");
  // This thread has no published rank: the rule never matches.
  EXPECT_EQ(point("t.site"), Hint::kNone);
  set_thread_rank(2);
  EXPECT_EQ(thread_rank(), 2);
  EXPECT_THROW(point("t.site"), Error);
  set_thread_rank(1);
  EXPECT_EQ(point("t.site"), Hint::kNone);
  set_thread_rank(-1);
}

TEST_F(FaultTest, DelayActionSleepsThenContinues) {
  configure("t.site:delay:ms=50,hit=1");
  const auto before = std::chrono::steady_clock::now();
  EXPECT_EQ(point("t.site"), Hint::kNone);
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_GE(elapsed, std::chrono::milliseconds(45));
  EXPECT_EQ(fired("t.site"), 1u);
}

TEST_F(FaultTest, ShortActionReturnsTheHintInsteadOfThrowing) {
  configure("t.site:short:hit=2");
  EXPECT_EQ(point("t.site"), Hint::kNone);
  EXPECT_EQ(point("t.site"), Hint::kShortRead);
  EXPECT_EQ(point("t.site"), Hint::kNone);
}

TEST_F(FaultTest, FormatActionThrowsFormatError) {
  configure("t.site:format:hit=1");
  EXPECT_THROW(point("t.site"), FormatError);
}

TEST_F(FaultTest, ConfigureFromEnvArmsAndDisarms) {
  ASSERT_EQ(::setenv("SVA_FAULT", "t.env:error:hit=1", 1), 0);
  configure_from_env();
  EXPECT_TRUE(armed());
  EXPECT_THROW(point("t.env"), Error);
  ASSERT_EQ(::unsetenv("SVA_FAULT"), 0);
  configure_from_env();
  EXPECT_FALSE(armed());
}

TEST_F(FaultTest, ConfigureReplacesRulesAndResetsCounters) {
  configure("t.site:error:hit=1");
  EXPECT_THROW(point("t.site"), Error);
  configure("t.site:error:hit=1");  // fresh counters: fires again
  EXPECT_THROW(point("t.site"), Error);
  reset();
  EXPECT_EQ(point("t.site"), Hint::kNone);
  EXPECT_EQ(hits("t.site"), 0u);  // reset forgets history
}

// ---- SectionedFile integration -----------------------------------------

constexpr char kMagic[8] = {'T', 'E', 'S', 'T', 'F', 'L', 'T', '1'};
constexpr std::uint64_t kVersion = 1;

std::filesystem::path write_test_file(const std::string& name) {
  const auto path = sva::testing::test_temp_dir() / (name + ".bin");
  engine::SectionedFile f;
  f.tag = 1;
  f.add("payload", std::vector<std::uint8_t>(512, 0xAB));
  f.write(path, kMagic, kVersion);
  return path;
}

TEST_F(FaultTest, InjectedFormatFaultSurfacesThroughSectionedFileRead) {
  const auto path = write_test_file("format");
  configure(std::string(sites::kSectionFileRead) + ":format:hit=1");
  try {
    (void)engine::SectionedFile::read(path, kMagic, kVersion, "test");
    FAIL() << "injected format fault did not surface";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("fault injected"), std::string::npos);
  }
  // The rule is spent: the same file now reads clean.
  const auto loaded = engine::SectionedFile::read(path, kMagic, kVersion, "test");
  EXPECT_EQ(loaded.tag, 1u);
}

TEST_F(FaultTest, InjectedShortReadIsRejectedLikeRealTruncation) {
  const auto path = write_test_file("short");
  configure(std::string(sites::kSectionFileRead) + ":short:hit=1");
  // The torn image must be caught by the same validation that rejects a
  // genuinely truncated file — FormatError, never silently-decoded junk.
  EXPECT_THROW((void)engine::SectionedFile::read(path, kMagic, kVersion, "test"),
               FormatError);
  const auto loaded = engine::SectionedFile::read(path, kMagic, kVersion, "test");
  EXPECT_EQ(loaded.tag, 1u);
}

TEST_F(FaultTest, InjectedWriteFaultLeavesNoArtifactBehind) {
  const auto path = sva::testing::test_temp_dir() / "wr.bin";
  configure(std::string(sites::kSectionFileWrite) + ":error:hit=1");
  engine::SectionedFile f;
  f.add("payload", std::vector<std::uint8_t>(64, 1));
  EXPECT_THROW(f.write(path, kMagic, kVersion), Error);
  EXPECT_FALSE(std::filesystem::exists(path));  // nothing half-published
  f.write(path, kMagic, kVersion);  // rule spent: publish succeeds
  EXPECT_TRUE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace sva::fault

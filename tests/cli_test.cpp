// Black-box CLI tests for the tools' argument/batch-file validation —
// the regression suite for the strtoull bugs: negative values wrapping
// to huge u64s, ERANGE silently saturating, and batch lines with
// trailing garbage being silently accepted.  Each case asserts on the
// process exit code (2 = usage error) without needing a real bundle,
// because flag and batch parsing run before anything is opened.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "temp_path.hpp"

namespace {

/// Runs `cmd` with stdout/stderr discarded; returns the exit code
/// (-1 when the child did not exit normally).
int run(const std::string& cmd) {
  const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

std::filesystem::path write_batch(const std::string& name, const std::string& text) {
  const auto path = sva::testing::test_temp_dir() / (name + ".txt");
  std::ofstream out(path);
  out << text;
  return path;
}

const std::string kQuery = SVA_QUERY_BIN;
const std::string kPipeline = SVA_PIPELINE_BIN;
const std::string kServe = SVA_SERVE_BIN;

// A bundle path is required before batch parsing; it need not exist for
// cases that must fail during argument/batch validation.
const std::string kQueryBase = kQuery + " --bundle /nonexistent.svab";

// ---- flag value parsing ------------------------------------------------

TEST(CliTest, QueryRejectsNegativeFlagValues) {
  // strtoull would have wrapped -1 to 18446744073709551615 and happily
  // queried for that document.
  EXPECT_EQ(run(kQueryBase + " --similar-doc -1"), 2);
  EXPECT_EQ(run(kQueryBase + " --topk -5 --similar-doc 1"), 2);
  EXPECT_EQ(run(kQueryBase + " --procs -2"), 2);
}

TEST(CliTest, QueryRejectsOverflowingFlagValues) {
  // One past UINT64_MAX: strtoull sets ERANGE, which was ignored.
  EXPECT_EQ(run(kQueryBase + " --similar-doc 18446744073709551616"), 2);
  // Within u64 but far past int: flags consumed as int are bounded too.
  EXPECT_EQ(run(kQueryBase + " --procs 4294967298"), 2);
  EXPECT_EQ(run(kQueryBase + " --summary 99999999999"), 2);
}

TEST(CliTest, QueryRejectsNonNumericFlagValues) {
  EXPECT_EQ(run(kQueryBase + " --topk ten --similar-doc 1"), 2);
  EXPECT_EQ(run(kQueryBase + " --similar-doc 12abc"), 2);
  EXPECT_EQ(run(kQueryBase + " --similar-doc +3"), 2);
  EXPECT_EQ(run(kQueryBase + " --similar-doc ''"), 2);
}

TEST(CliTest, PipelineRejectsBadFlagValues) {
  EXPECT_EQ(run(kPipeline + " --size-mb -4"), 2);
  EXPECT_EQ(run(kPipeline + " --seed 18446744073709551616"), 2);
  EXPECT_EQ(run(kPipeline + " --procs 4294967298"), 2);
  EXPECT_EQ(run(kPipeline + " --shards two"), 2);
}

TEST(CliTest, ServeRejectsBadFlagValues) {
  EXPECT_EQ(run(kServe + " --bundle /nonexistent.svab --batch-max -1"), 2);
  EXPECT_EQ(run(kServe + " --bundle /nonexistent.svab --batch-max 0"), 2);
  EXPECT_EQ(run(kServe + " --bundle /nonexistent.svab --batch-max junk"), 2);
  EXPECT_EQ(run(kServe + " --bundle /nonexistent.svab --procs 0"), 2);
}

// ---- batch files -------------------------------------------------------

TEST(CliTest, BatchRejectsTrailingGarbage) {
  // The historic bug: `similar 3 5 oops` parsed as `similar 3 5`.
  const auto batch = write_batch("trailing", "similar 3 5 oops\n");
  EXPECT_EQ(run(kQueryBase + " --batch " + batch.string()), 2);
}

TEST(CliTest, BatchRejectsMalformedLinesAfterGoodOnes) {
  const auto batch = write_batch("midfile",
                                 "# fine so far\n"
                                 "similar 3 5\n"
                                 "summary 1 2 3\n");
  EXPECT_EQ(run(kQueryBase + " --batch " + batch.string()), 2);
}

TEST(CliTest, BatchRejectsNegativeAndOverflowingNumbers) {
  EXPECT_EQ(run(kQueryBase + " --batch " +
                write_batch("neg", "similar -3 5\n").string()),
            2);
  EXPECT_EQ(run(kQueryBase + " --batch " +
                write_batch("ovf", "similar 18446744073709551616 5\n").string()),
            2);
  EXPECT_EQ(run(kQueryBase + " --batch " +
                write_batch("zerok", "similar 3 0\n").string()),
            2);
}

TEST(CliTest, BatchRejectsUnknownVerbsAndEmptyFiles) {
  EXPECT_EQ(run(kQueryBase + " --batch " +
                write_batch("verb", "drill 3\n").string()),
            2);
  EXPECT_EQ(run(kQueryBase + " --batch " +
                write_batch("empty", "# only comments\n\n").string()),
            2);
  EXPECT_EQ(run(kQueryBase + " --batch /nonexistent-batch-file"), 2);
}

TEST(CliTest, HelpExitsZero) {
  EXPECT_EQ(run(kQuery + " --help"), 0);
  EXPECT_EQ(run(kPipeline + " --help"), 0);
  EXPECT_EQ(run(kServe + " --help"), 0);
}

}  // namespace

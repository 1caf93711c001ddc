// Unit tests for sva/util: tables, string helpers, RNG, timers, errors.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "sva/util/error.hpp"
#include "sva/util/parse.hpp"
#include "sva/util/rng.hpp"
#include "sva/util/stringutil.hpp"
#include "sva/util/table.hpp"
#include "sva/util/timer.hpp"
#include "temp_path.hpp"

namespace sva {
namespace {

// ---- error -----------------------------------------------------------------

TEST(ErrorTest, RequireThrowsOnFalse) {
  EXPECT_THROW(require(false, "boom"), InvalidArgument);
}

TEST(ErrorTest, RequirePassesOnTrue) { EXPECT_NO_THROW(require(true, "fine")); }

TEST(ErrorTest, HierarchyIsCatchableAsError) {
  try {
    throw ProtocolError("p");
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "p");
  }
}

// ---- parse ------------------------------------------------------------------

TEST(ParseU64Test, AcceptsPlainDigits) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("007"), 7u);
  // Exactly UINT64_MAX is the last representable value.
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ull);
}

TEST(ParseU64Test, RejectsSignsWhitespaceAndEmpty) {
  // strtoull accepted all of these (negation wraps, whitespace skips).
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("+1").has_value());
  EXPECT_FALSE(parse_u64(" 1").has_value());
  EXPECT_FALSE(parse_u64("1 ").has_value());
  EXPECT_FALSE(parse_u64("").has_value());
}

TEST(ParseU64Test, RejectsNonDigitsAndMixed) {
  EXPECT_FALSE(parse_u64("abc").has_value());
  EXPECT_FALSE(parse_u64("12a").has_value());
  EXPECT_FALSE(parse_u64("a12").has_value());
  EXPECT_FALSE(parse_u64("1.5").has_value());
  EXPECT_FALSE(parse_u64("0x10").has_value());
}

TEST(ParseU64Test, RejectsOverflow) {
  // One past UINT64_MAX — strtoull reported ERANGE, which was ignored.
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());
  EXPECT_FALSE(parse_u64("99999999999999999999").has_value());
  EXPECT_FALSE(parse_u64("184467440737095516150").has_value());
}

// ---- stringutil -------------------------------------------------------------

TEST(StringUtilTest, SplitAnyBasic) {
  const auto parts = split_any("a b,c", " ,");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitAnyDropsEmptyPieces) {
  const auto parts = split_any("  a   b  ", " ");
  ASSERT_EQ(parts.size(), 2u);
}

TEST(StringUtilTest, SplitAnyEmptyInput) { EXPECT_TRUE(split_any("", " ").empty()); }

TEST(StringUtilTest, SplitAnyNoDelimiters) {
  const auto parts = split_any("abc", " ");
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(to_lower("AbC123"), "abc123");
  EXPECT_EQ(to_lower(""), "");
}

TEST(StringUtilTest, IsAllDigits) {
  EXPECT_TRUE(is_all_digits("0123"));
  EXPECT_FALSE(is_all_digits("12a"));
  EXPECT_FALSE(is_all_digits(""));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(StringUtilTest, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KB");
  EXPECT_EQ(format_bytes(3u << 20), "3.00 MB");
}

// ---- rng --------------------------------------------------------------------

TEST(RngTest, SplitMixIsDeterministic) {
  std::uint64_t s1 = 7, s2 = 7;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

TEST(RngTest, Mix64ChangesValue) { EXPECT_NE(mix64(1), 1u); }

TEST(RngTest, SameSeedSameStream) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Xoshiro256 a(123), b(124);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(RngTest, SubstreamsAreIndependent) {
  Xoshiro256 a(9, 0), b(9, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanIsHalf) {
  Xoshiro256 rng(6);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(RngTest, BelowCoversAllValues) {
  Xoshiro256 rng(8);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Xoshiro256 rng(9);
  std::array<int, 10> hist{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++hist[rng.below(10)];
  for (int count : hist) { EXPECT_NEAR(count, n / 10, n / 100); }
}

// ---- timers -----------------------------------------------------------------

TEST(TimerTest, WallTimerAdvances) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(t.elapsed(), 0.002);
}

TEST(TimerTest, WallTimerReset) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.reset();
  EXPECT_LT(t.elapsed(), 0.004);
}

TEST(TimerTest, ThreadCpuTimerCountsWork) {
  ThreadCpuTimer t;
  volatile double x = 0.0;
  for (int i = 0; i < 2000000; ++i) x = x + 1.0;
  EXPECT_GT(t.elapsed(), 0.0);
}

TEST(TimerTest, ThreadCpuTimerIgnoresSleep) {
  ThreadCpuTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_LT(t.elapsed(), 0.015);
}

TEST(TimerTest, ThreadCpuNowMonotonic) {
  const double a = ThreadCpuTimer::now();
  volatile long long x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_GE(ThreadCpuTimer::now(), a);
}

// ---- table ------------------------------------------------------------------

TEST(TableTest, HeaderRequired) { EXPECT_THROW(Table({}), InvalidArgument); }

TEST(TableTest, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), InvalidArgument);
}

TEST(TableTest, CsvRoundTrip) {
  Table t({"p", "time"});
  t.add_row({"1", "10.0"});
  t.add_row({"2", "5.2"});
  EXPECT_EQ(t.to_csv(), "p,time\n1,10.0\n2,5.2\n");
}

TEST(TableTest, AsciiContainsCellsAndRules) {
  Table t({"col"});
  t.add_row({"value"});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("col"), std::string::npos);
  EXPECT_NE(ascii.find("value"), std::string::npos);
  EXPECT_NE(ascii.find("+--"), std::string::npos);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(std::size_t{42}), "42");
  EXPECT_EQ(Table::num(static_cast<long long>(-7)), "-7");
}

TEST(TableTest, WriteCsvCreatesDirectories) {
  const auto dir = sva::testing::test_temp_dir() / "table";
  std::filesystem::remove_all(dir);
  Table t({"x"});
  t.add_row({"1"});
  const auto path = (dir / "deep" / "out.csv").string();
  t.write_csv(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x");
  std::filesystem::remove_all(dir);
}

TEST(TableTest, DimensionsReported) {
  Table t({"a", "b", "c"});
  t.add_row({"1", "2", "3"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cols(), 3u);
}

}  // namespace
}  // namespace sva

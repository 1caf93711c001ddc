#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

TEST(E2eStats, NearestRankPercentile) {
  const std::vector<double> v = {15, 20, 35, 40, 50};
  EXPECT_EQ(e2e::percentile(v, 5), 15);
  EXPECT_EQ(e2e::percentile(v, 30), 20);
  EXPECT_EQ(e2e::percentile(v, 40), 20);
  EXPECT_EQ(e2e::percentile(v, 50), 35);
  EXPECT_EQ(e2e::percentile(v, 100), 50);
  // p99 of fewer than 100 samples is the maximum, never an interpolation.
  EXPECT_EQ(e2e::percentile(v, 99), 50);
  const std::vector<double> unsorted = {9, 1, 5, 3, 7};
  EXPECT_EQ(e2e::percentile(unsorted, 50), 5);
  EXPECT_THROW((void)e2e::percentile(std::vector<double>{}, 50), std::invalid_argument);
  EXPECT_THROW((void)e2e::percentile(v, 0), std::invalid_argument);
  EXPECT_THROW((void)e2e::percentile(v, 101), std::invalid_argument);
}

TEST(E2eStats, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(e2e::median(std::vector<double>{3, 1, 2}), 2);
  EXPECT_EQ(e2e::median(std::vector<double>{4, 1, 3, 2}), 2.5);
  EXPECT_THROW((void)e2e::median(std::vector<double>{}), std::invalid_argument);
}

// Reference values from Python: statistics.quantiles(data, n=4).
TEST(E2eStats, QuartilesMatchPythonExclusiveMethod) {
  auto check = [](std::vector<double> data, double q1, double q2, double q3) {
    const auto q = e2e::quartiles(data);
    EXPECT_DOUBLE_EQ(q.q1, q1);
    EXPECT_DOUBLE_EQ(q.q2, q2);
    EXPECT_DOUBLE_EQ(q.q3, q3);
  };
  check({1, 2}, 0.75, 1.5, 2.25);
  check({3, 1, 2}, 1.0, 2.0, 3.0);
  check({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25);
  check({5.5, 1.25, 9.0, 2.0, 7.75}, 1.625, 5.5, 8.375);
  EXPECT_THROW((void)e2e::quartiles(std::vector<double>{1}), std::invalid_argument);
}

TEST(E2eStats, RelativeIqr) {
  EXPECT_DOUBLE_EQ(e2e::relative_iqr(std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                   (8.25 - 2.75) / 5.5);
  EXPECT_DOUBLE_EQ(e2e::relative_iqr(std::vector<double>{4, 4, 4}), 0.0);
}

TEST(E2eStats, RatesPerWholeSlice) {
  const std::vector<double> t = {0.1, 0.2, 0.6, 1.1, 1.4, 1.9, 2.0, 2.7};
  // Slices [0,0.5) [0.5,1) [1,1.5) [1.5,2); the partial slice [2,2.2) is dropped.
  const auto r = e2e::rates_per_slice(t, 0.5, 2.2);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_DOUBLE_EQ(r[0], 4.0);
  EXPECT_DOUBLE_EQ(r[1], 2.0);
  EXPECT_DOUBLE_EQ(r[2], 4.0);
  EXPECT_DOUBLE_EQ(r[3], 2.0);
  EXPECT_THROW((void)e2e::rates_per_slice(t, 0.0, 1.0), std::invalid_argument);
}

TEST(E2eStats, OpenLoopLatencyCountsFromPlannedArrival) {
  // Request 1 is sent 40 ms late because the generator stalled; its
  // latency includes that wait even though the server answered it fast.
  const std::vector<e2e::OpenLoopSample> samples = {
      {0.000, 0.000, 0.005},
      {0.010, 0.050, 0.052},
      {0.020, 0.051, 0.053},
  };
  const auto s = e2e::summarize_open_loop(samples);
  ASSERT_EQ(s.latency_s.size(), 3u);
  EXPECT_NEAR(s.latency_s[0], 0.005, 1e-12);
  EXPECT_NEAR(s.latency_s[1], 0.042, 1e-12);
  EXPECT_NEAR(s.latency_s[2], 0.033, 1e-12);
  EXPECT_NEAR(s.late_s[1], 0.040, 1e-12);
  EXPECT_NEAR(s.late_s[2], 0.031, 1e-12);
  EXPECT_EQ(s.late_s[0], 0.0);
}

}  // namespace

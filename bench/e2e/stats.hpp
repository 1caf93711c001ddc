// Sample statistics for the end-to-end benchmark.
//
// Percentiles are nearest-rank (the value a reader can point at in the
// sample, never an interpolation between two runs); the median averages
// the middle pair like Python's statistics.median; quartiles follow
// statistics.quantiles(n=4)'s default "exclusive" method, so the spread
// this harness prints is the spread the repeat script and any outside
// checker compute from the same values.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace e2e {

/// Nearest-rank percentile, p in (0, 100]: the smallest sample with at
/// least p% of the samples at or below it.  Throws on an empty sample or
/// p outside (0, 100].
double percentile(std::span<const double> values, double p);

/// Median (mean of the middle pair for an even count).  Throws when empty.
double median(std::span<const double> values);

/// First, second and third quartile per statistics.quantiles(n=4),
/// method "exclusive".  Needs at least two values.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::span<const double> values);

/// (q3 - q1) / median: the run-to-run spread BENCHMARK.json bounds are
/// judged against.
double relative_iqr(std::span<const double> values);

/// Events per second in each whole `slice_s` slice of [0, end_s), from
/// event times in seconds; a trailing partial slice is dropped.
std::vector<double> rates_per_slice(std::span<const double> times_s, double slice_s,
                                    double end_s);

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its answer was ready (seconds on one clock).
struct OpenLoopSample {
  double planned_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
};

/// Latency of each request measured from its *planned* arrival, so a
/// stall that delays later sends is charged to those requests instead of
/// vanishing (coordinated omission), plus how late the generator ran.
struct OpenLoopSummary {
  std::vector<double> latency_s;
  std::vector<double> late_s;
};
OpenLoopSummary summarize_open_loop(std::span<const OpenLoopSample> samples);

}  // namespace e2e

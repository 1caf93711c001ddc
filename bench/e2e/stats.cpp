#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace e2e {

namespace {

std::vector<double> sorted_copy(std::span<const double> values) {
  std::vector<double> v(values.begin(), values.end());
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

double percentile(std::span<const double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile: empty sample");
  if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument("percentile: p outside (0, 100]");
  const auto v = sorted_copy(values);
  const double n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument("median: empty sample");
  const auto v = sorted_copy(values);
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Quartiles quartiles(std::span<const double> values) {
  if (values.size() < 2) throw std::invalid_argument("quartiles: need at least two values");
  const auto v = sorted_copy(values);
  const std::size_t n = v.size();
  const std::size_t m = n + 1;
  double q[3] = {0.0, 0.0, 0.0};
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const auto delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return {q[0], q[1], q[2]};
}

double relative_iqr(std::span<const double> values) {
  const Quartiles q = quartiles(values);
  const double mid = median(values);
  return mid == 0.0 ? 0.0 : (q.q3 - q.q1) / mid;
}

std::vector<double> rates_per_slice(std::span<const double> times_s, double slice_s,
                                    double end_s) {
  if (!(slice_s > 0.0)) throw std::invalid_argument("rates_per_slice: slice must be > 0");
  // The epsilon keeps end_s = k * slice_s at k slices despite rounding.
  const auto slices = static_cast<std::size_t>(std::max(0.0, end_s) / slice_s + 1e-9);
  std::vector<double> counts(slices, 0.0);
  for (const double t : times_s) {
    if (t < 0.0) continue;
    const auto k = static_cast<std::size_t>(t / slice_s);
    if (k < slices) counts[k] += 1.0;
  }
  for (double& c : counts) c /= slice_s;
  return counts;
}

OpenLoopSummary summarize_open_loop(std::span<const OpenLoopSample> samples) {
  OpenLoopSummary out;
  out.latency_s.reserve(samples.size());
  out.late_s.reserve(samples.size());
  for (const auto& s : samples) {
    out.latency_s.push_back(s.done_s - s.planned_s);
    out.late_s.push_back(std::max(0.0, s.sent_s - s.planned_s));
  }
  return out;
}

}  // namespace e2e

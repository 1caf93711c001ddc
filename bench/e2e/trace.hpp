// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each layer's public entry points (the program under test is not
// instrumented).  They are kept in memory and written once, at the end of
// the run, as Chrome trace-event JSON: open the file in chrome://tracing
// or https://ui.perfetto.dev.  Each event carries its span id, the id of
// the span that caused it and, for query sweeps, a request id.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = a root span
  std::string name;
  double start_us = 0.0;  ///< since the tracer was created
  double dur_us = 0.0;
  std::int64_t request = -1;  ///< -1 = not part of a request
};

/// Single-threaded recorder: one thread (the harness, or rank 0 of a
/// world) opens and closes spans in LIFO order.
class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its id.
  std::uint64_t open(std::string name, std::int64_t request = -1);
  /// Closes the innermost open span; returns its duration in seconds.
  double close();

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations (seconds) of every closed span named `name`, in order.
  [[nodiscard]] std::vector<double> durations_s(std::string_view name) const;
  /// Duration of the only span named `name`; throws unless exactly one.
  [[nodiscard]] double only_s(std::string_view name) const;
  /// Summed durations (seconds) of the direct children of span `id`.
  [[nodiscard]] double children_s(std::uint64_t id) const;
  /// Duration (seconds) of span `id`.
  [[nodiscard]] double duration_s(std::uint64_t id) const;

  /// Writes {"traceEvents": [...]} ("X" complete events, microseconds).
  void write_chrome(const std::filesystem::path& path) const;

 private:
  [[nodiscard]] double now_us() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices into spans_, innermost last
};

}  // namespace e2e

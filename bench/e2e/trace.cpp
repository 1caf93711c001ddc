#include "trace.hpp"

#include <fstream>
#include <stdexcept>

namespace e2e {

double Tracer::now_us() const {
  using Micros = std::chrono::duration<double, std::micro>;
  return Micros(std::chrono::steady_clock::now() - origin_).count();
}

std::uint64_t Tracer::open(std::string name, std::int64_t request) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.name = std::move(name);
  s.request = request;
  s.start_us = now_us();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

double Tracer::close() {
  if (open_.empty()) throw std::logic_error("Tracer::close: no open span");
  Span& s = spans_[open_.back()];
  open_.pop_back();
  s.dur_us = now_us() - s.start_us;
  return s.dur_us * 1e-6;
}

std::vector<double> Tracer::durations_s(std::string_view name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(s.dur_us * 1e-6);
  }
  return out;
}

double Tracer::only_s(std::string_view name) const {
  const auto d = durations_s(name);
  if (d.size() != 1) {
    throw std::runtime_error("trace: expected one span named " + std::string(name) +
                             ", found " + std::to_string(d.size()));
  }
  return d.front();
}

double Tracer::children_s(std::uint64_t id) const {
  double sum = 0.0;
  for (const auto& s : spans_) {
    if (s.parent == id) sum += s.dur_us * 1e-6;
  }
  return sum;
}

double Tracer::duration_s(std::uint64_t id) const {
  if (id == 0 || id > spans_.size()) {
    throw std::out_of_range("trace: no span " + std::to_string(id));
  }
  return spans_[id - 1].dur_us * 1e-6;
}

void Tracer::write_chrome(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot write " + path.string());
  out << std::fixed;
  out.precision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans_) {
    // Span names are the harness's own ASCII identifiers; nothing to escape.
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << s.name.substr(0, s.name.find('.')) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << s.start_us << ",\"dur\":" << s.dur_us << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent;
    if (s.request >= 0) out << ",\"request\":" << s.request;
    out << "}}";
    first = false;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("trace: write failed for " + path.string());
}

}  // namespace e2e

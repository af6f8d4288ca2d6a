// Measurement plumbing shared by every workload: a monotonic clock, sample
// sets with quantiles and the tail rule, the metric tables the result line
// is built from, and a small JSON writer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// A protocol verdict or output that differs from what the benchmark knows
/// to be right. Never counted as a failed operation: the run aborts.
struct WrongOutput : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void expect(bool ok, const std::string& what) {
  if (!ok) throw WrongOutput(what);
}

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The tail of a latency sample: the highest percentile of the ladder, up
/// to `cap`, that still has at least 10 samples beyond it. The cap is fixed
/// per workload so the reported percentile does not flip between runs whose
/// sample counts differ slightly.
struct Tail {
  double percentile = 50;
  double value = 0;
  std::size_t samples = 0;
};

inline Tail tail_of(const std::vector<double>& v, double cap) {
  static constexpr double kLadder[] = {99.9, 99, 95, 90, 75, 50};
  Tail t;
  t.samples = v.size();
  for (double p : kLadder) {
    if (p > cap) continue;
    const double beyond = static_cast<double>(v.size()) * (1.0 - p / 100.0);
    if (beyond >= 10.0 || p == 50) {
      t.percentile = p;
      break;
    }
  }
  t.value = quantile(v, t.percentile / 100.0);
  return t;
}

struct Metric {
  double value = 0;
  std::string unit;
};

/// Ordered name -> metric table (the final line's "metrics" object).
using MetricTable = std::map<std::string, Metric>;

inline std::string fmt_num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// Minimal JSON object writer (keys in insertion order).
class Json {
 public:
  Json& num(const std::string& k, double v) { return raw(k, fmt_num(v)); }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, json_str(v));
  }
  Json& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& obj(const std::string& k, const Json& v) { return raw(k, v.dump()); }
  Json& raw(const std::string& k, const std::string& v) {
    fields_.emplace_back(k, v);
    return *this;
  }
  bool empty() const { return fields_.empty(); }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i) out += ", ";
      out += json_str(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

inline Json metrics_json(const MetricTable& t) {
  Json j;
  for (const auto& [name, m] : t)
    j.obj(name, Json().num("value", m.value).str("unit", m.unit));
  return j;
}

/// Accumulates per-call durations by name (the benchmark's own timing of
/// the public calls it makes into a layer).
class CallTimes {
 public:
  void add(const std::string& name, double ms) { calls_[name].push_back(ms); }
  const std::vector<double>& of(const std::string& name) const {
    static const std::vector<double> kNone;
    const auto it = calls_.find(name);
    return it == calls_.end() ? kNone : it->second;
  }
  double median_ms(const std::string& name) const { return median(of(name)); }
  double total_ms(const std::string& name) const {
    double s = 0;
    for (double x : of(name)) s += x;
    return s;
  }

 private:
  std::map<std::string, std::vector<double>> calls_;
};

/// Correlation id of the request the benchmark is currently driving; its
/// own spans carry it as the "req" arg so a request's spans can be joined.
inline std::uint64_t& current_request() {
  static std::uint64_t id = 0;
  return id;
}

/// Times one call into a layer, records it under `name`, returns its value.
/// When tracing is on, the call also runs inside a "bench" span of that
/// name (which must be a string literal: the tracer stores the pointer).
template <typename F>
auto timed(CallTimes& times, const char* name, F&& f) {
  peace::obs::Span span(name, "bench");
  span.arg("req", current_request());
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    times.add(name, ms_between(t0, Clock::now()));
  } else {
    auto r = f();
    times.add(name, ms_between(t0, Clock::now()));
    return r;
  }
}

}  // namespace perfbench

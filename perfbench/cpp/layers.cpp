#include "layers.hpp"

#include <algorithm>
#include <vector>

namespace perfbench {

namespace {
constexpr const char* kPoolCounters[] = {"pool.jobs", "pool.batches"};
}  // namespace

CounterSnapshot CounterSnapshot::take() {
  auto& reg = peace::obs::Registry::global();
  CounterSnapshot s;
  for (const char* name : kCurveCounters) s.values[name] = reg.counter(name).value();
  for (const char* name : kPoolCounters) s.values[name] = reg.counter(name).value();
  return s;
}

std::map<std::string, double> CounterSnapshot::delta(
    const CounterSnapshot& later) const {
  std::map<std::string, double> d;
  for (const auto& [name, v] : values)
    d[name] = static_cast<double>(later.values.at(name) - v);
  return d;
}

std::map<std::string, SpanStats> span_report(
    const std::vector<peace::obs::TraceEvent>& events) {
  std::map<std::uint32_t, std::vector<const peace::obs::TraceEvent*>> by_tid;
  for (const auto& e : events)
    if (e.ph == 'X' && e.pid == peace::obs::Tracer::kWallPid)
      by_tid[e.tid].push_back(&e);

  std::map<std::string, SpanStats> out;
  for (auto& [tid, evs] : by_tid) {
    // Parents first: earlier start, then the longer span at equal starts.
    std::sort(evs.begin(), evs.end(), [](const auto* a, const auto* b) {
      if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
      return a->dur_us > b->dur_us;
    });
    std::vector<std::pair<const peace::obs::TraceEvent*, double>> stack;
    std::map<const peace::obs::TraceEvent*, double> child_us;
    for (const auto* e : evs) {
      while (!stack.empty() &&
             stack.back().first->ts_us + stack.back().first->dur_us <
                 e->ts_us + e->dur_us)
        stack.pop_back();
      if (!stack.empty()) child_us[stack.back().first] += e->dur_us;
      stack.emplace_back(e, 0.0);
    }
    for (const auto* e : evs) {
      SpanStats& s = out[e->name];
      const double dur_ms = static_cast<double>(e->dur_us) / 1000.0;
      s.count += 1;
      s.total_ms += dur_ms;
      s.self_ms += std::max(0.0, dur_ms - child_us[e] / 1000.0);
      s.durations_ms.push_back(dur_ms);
    }
  }
  return out;
}

Json span_json(const std::map<std::string, SpanStats>& spans,
               double per_op_divisor) {
  Json j;
  for (const auto& [name, s] : spans)
    j.obj(name, Json()
                    .num("count", static_cast<double>(s.count))
                    .num("total_ms", s.total_ms)
                    .num("self_ms", s.self_ms)
                    .num("self_ms_per_op", s.self_ms / per_op_divisor));
  return j;
}

}  // namespace perfbench

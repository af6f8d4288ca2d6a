// Reading the counters the program already exposes (the obs registry's
// curve.* / pool.* counters) and the spans its tracer records, as deltas
// over one measured phase.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "util.hpp"

namespace perfbench {

/// The always-on crypto-op registry counters, in metric order.
inline constexpr std::array<const char*, 11> kCurveCounters = {
    "curve.pairings",         "curve.miller_loops",
    "curve.final_exps",       "curve.g2_prepared_builds",
    "curve.msm_calls",        "curve.msm_terms",
    "curve.gt_pows",          "curve.fp12_inverses",
    "curve.field_inversions", "curve.glv_decompositions",
    "curve.gls_decompositions"};

/// Registry counter values at one instant; `delta` gives a phase's counts.
struct CounterSnapshot {
  std::map<std::string, std::uint64_t> values;

  static CounterSnapshot take();
  std::map<std::string, double> delta(const CounterSnapshot& later) const;
};

/// Per-span-name aggregate of one traced phase.
struct SpanStats {
  std::uint64_t count = 0;
  double total_ms = 0;  // summed wall durations
  double self_ms = 0;   // minus the time of directly nested spans
  std::vector<double> durations_ms;
};

/// Aggregates every wall-clock span the tracer holds, by name. Self time
/// subtracts the spans nested directly inside a span on the same thread.
std::map<std::string, SpanStats> span_report(
    const std::vector<peace::obs::TraceEvent>& events);

/// The span table as JSON: name -> {count, total_ms, self_ms}.
Json span_json(const std::map<std::string, SpanStats>& spans,
               double per_op_divisor);

}  // namespace perfbench

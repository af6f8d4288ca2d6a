// What every workload shares: the run configuration, the report it fills,
// the metric catalogue the result line is checked against, and helpers for
// set-up timing, traced phases and admission counters.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "layers.hpp"
#include "probe.hpp"
#include "peace/router.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  unsigned threads = 1;  // VerifyPool size, calling thread included
};

/// Fixed offered rate of flash_crowd's first phase. At 50 req/s most
/// batches hold one M.2 and the router (4-thread pool, 4-core x86-64 host,
/// gcc 12 Release) is mostly idle, so the latency figure is service time
/// plus a little queueing. Nearer saturation, queueing amplifies the host's
/// speed drift into latency swings wider than the benchmark's bounds. It is
/// an input, not a measurement: it stays fixed so every run and every later
/// change faces the same offered load.
inline constexpr double kFlashCrowdOfferedRps = 50;

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricTable e2e;    // --trace 0: the end-to-end metrics
  MetricTable layer;  // --trace 1: the per-layer metrics
  Json named;         // the workload's own end-to-end figures, by name
  Json detail;        // tails, phase facts, span tables
};

struct CatalogEntry {
  std::string name;
  std::string unit;
};
/// Every end-to-end metric, printed by every workload with --trace 0.
const std::vector<CatalogEntry>& e2e_catalog();
/// Every per-layer metric, printed by every workload with --trace 1. A
/// layer a workload does not exercise reads 0 and is listed in the detail
/// line under "not_exercised".
const std::vector<CatalogEntry>& layer_catalog();

/// Builds the workload `reps` times, timing each build; keeps the last.
/// Returns the median set-up time in seconds, normalized to the reference
/// speed (probe.hpp) of `threads` cores, as many as the set-up runs on;
/// `raw_s` receives the unscaled median.
template <typename W>
double timed_setup(int reps, std::unique_ptr<W>& out,
                   const std::function<std::unique_ptr<W>()>& make,
                   double* raw_s = nullptr, unsigned threads = 1) {
  std::vector<double> s, raw;
  for (int i = 0; i < reps; ++i) {
    out.reset();
    probe().sample(threads);
    const auto t0 = Clock::now();
    out = make();
    raw.push_back(seconds_since(t0));
    probe().sample(threads);
    s.push_back(raw.back() * probe().factor());
  }
  if (raw_s) *raw_s = median(raw);
  return median(s);
}

/// Runs `fn` with the obs tracer on and returns the span table of what it
/// recorded. The tracer is cleared before and after.
std::map<std::string, SpanStats> traced(const std::function<void()>& fn);

/// Records a latency sample set under `name`: p50 and tail (with its
/// percentile and sample count) into report.named.
void put_latency(Report& r, const std::string& name,
                 const std::vector<double>& ms, double tail_cap);

/// RouterStats and groupsig op counters summed over routers, as deltas.
struct AdmissionTally {
  std::uint64_t received = 0, accepted = 0, rejected_revoked = 0,
                rejected_bad_signature = 0, rejected_stale = 0,
                rejected_replay = 0, signature_verifications = 0,
                batched_requests = 0;
  peace::groupsig::OpCounters ops;

  /// Adds what `after` counted beyond `before`.
  void add(const peace::proto::RouterStats& before,
           const peace::proto::RouterStats& after,
           const peace::groupsig::OpCounters& ops_before,
           const peace::groupsig::OpCounters& ops_after);
};

/// Snapshot of one router's counters, for AdmissionTally::add.
struct RouterMark {
  peace::proto::RouterStats stats;
  peace::groupsig::OpCounters ops;
  static RouterMark of(const peace::proto::MeshRouter& r) {
    return {r.stats(), r.verify_ops()};
  }
  void tally_into(AdmissionTally& t, const peace::proto::MeshRouter& r) const {
    t.add(stats, r.stats(), ops, r.verify_ops());
  }
};

/// Verdict and groupsig-count metrics of an admission tally (peace.accept_ratio,
/// peace.rejected_*, groupsig.verify_*_per_req, groupsig.batched_req_frac).
/// Bisection re-verifications come from the batch.leaf spans of a traced
/// phase that received `traced_requests` M.2s.
void admission_layer_metrics(const AdmissionTally& t,
                             const std::map<std::string, SpanStats>& spans,
                             double traced_requests, MetricTable& out);

/// curve.* registry deltas per operation, and the count x unit-cost model's
/// residual against the measured time per operation.
void curve_layer_metrics(const std::map<std::string, double>& counts,
                         double ops, double measured_ms_per_op,
                         const Calibration& cal, MetricTable& out);

/// pool.* and groupsig.batch.* figures from a traced phase's spans.
void span_layer_metrics(const std::map<std::string, SpanStats>& spans,
                        double requests, unsigned threads, MetricTable& out);

/// Seals `payload` on each end of a session pair and opens it on the other;
/// throws WrongOutput unless both directions round-trip byte-equal.
void check_roundtrip(peace::proto::Session& a, peace::proto::Session& b,
                     peace::BytesView payload, const char* what);

/// The verdict an M.2 must get.
enum class Verdict { kAccept, kRevoked };

/// The admission output check every workload runs after each
/// handle_access_requests call: an M.2 expected kAccept was accepted and
/// left a router session; one expected kRevoked was refused, and the
/// router's rejected_revoked counter grew by exactly the number of those.
/// Throws WrongOutput otherwise.
void check_verdicts(
    peace::proto::MeshRouter& router, const peace::proto::RouterStats& before,
    const std::vector<Verdict>& expected,
    const std::vector<std::optional<peace::proto::MeshRouter::AccessOutcome>>&
        results,
    const char* what);

Report run_handshake(const RunConfig& cfg);
Report run_flash_crowd(const RunConfig& cfg);
Report run_revocation_wave(const RunConfig& cfg);
Report run_session_stream(const RunConfig& cfg);

/// Feeds a bit-flipped M.2 and a revoked user's M.2 through the verdict
/// checks with the opposite expectation and confirms both checks fire.
/// Returns 0 when they do.
int self_test(std::uint64_t seed);

}  // namespace perfbench

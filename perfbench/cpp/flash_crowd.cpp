// flash_crowd: one router with a VerifyPool receives an open-loop,
// seed-scheduled stream of M.2s from hundreds of distinct users. The users
// sign during set-up, as their own devices would. Two phases: a fixed
// offered rate (Poisson arrivals; the benchmark drains everything due into one
// handle_access_requests call) and saturation (a standing backlog: the
// router's service capacity). Empty URL, fresh era: batch verification,
// the pool and the accept path do the work.
#include <algorithm>
#include <cmath>
#include <ctime>
#include <thread>

#include "harness.hpp"
#include "peace/verify_pool.hpp"
#include "probe.hpp"
#include "world.hpp"

namespace perfbench {

namespace {

using proto::Timestamp;

constexpr std::size_t kUsers = 256;  // one M.2 each per round
constexpr Timestamp kT0 = 10'000;    // logical time of the round's beacon
constexpr double kFixedShare = 0.7;  // of the measured time; rest saturates
constexpr double kTailCap = 75;  // Poisson clumps make higher percentiles swing by seed
constexpr int kSetupReps = 3;  // set-ups per run; setup_s is their median
/// This workload's figures scale about in proportion to the probe's kernel
/// time, not with kProbeExponent's 0.6: the slope of log(raw figure) on
/// log(kernel time) across runs was 0.85-0.98 for goodput, 0.99-1.56 for
/// the latency p50 and 0.62-0.82 for set-up (perfbench/README.md). Its pool
/// threads share the host's cores with whatever slows the kernel.
constexpr double kCrowdProbeExponent = 1.0;

double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

struct Phase {
  // fixed-rate phase; latency_ms normalized to the reference speed
  // (probe.hpp), every other time as measured
  double fixed_wall_s = 0, busy_s = 0;
  std::vector<double> latency_ms, latency_raw_ms, queue_wait_ms, late_ms,
      batch_ms, batch_size;
  std::size_t depth_max = 0, arrivals = 0;
  // saturation phase; sat_s normalized, sat_raw_s as measured
  double sat_s = 0, sat_raw_s = 0;
  std::uint64_t sat_requests = 0;
  // both
  std::uint64_t requests = 0, calls = 0;
  double call_ms = 0, call_cpu_ms = 0;
  std::map<std::string, double> counts;
  AdmissionTally admission;
};

class FlashCrowd {
 public:
  FlashCrowd(std::uint64_t seed, unsigned threads)
      : d_(seed, kUsers), spec_(d_.provision(1)), rng_(drbg(seed, "schedule")) {
    config_.verify_threads = threads;
    threads_ = threads;
    router_ = d_.router(spec_, config_);
    const auto m1 = timed(setup_calls_, "bench.make_beacon",
                          [&] { return router_->make_beacon(kT0); });
    beacon_wire_ = m1.to_bytes();

    std::vector<proto::GroupManager::Enrollment> enrollments;
    for (std::size_t u = 0; u < kUsers; ++u)
      enrollments.push_back(d_.gm.enroll(uid(u), d_.ttp));
    users_.resize(kUsers);
    m2_.resize(kUsers);
    std::vector<peace::curve::EcdsaSignature> receipts(kUsers);
    beacon_ms_.resize(kUsers);
    // The users' devices sign in parallel, on a pool of the router's size.
    proto::VerifyPool(threads).run(kUsers, [&](std::size_t u) {
      users_[u] = std::make_unique<proto::User>(uid(u), d_.no.params(),
                                                drbg(seed, "user/" + uid(u)));
      receipts[u] = users_[u]->complete_enrollment(enrollments[u]);
      const auto rx = proto::BeaconMessage::from_bytes(beacon_wire_);
      const auto a = Clock::now();
      auto m2 = users_[u]->process_beacon(rx, kT0 + 1);
      beacon_ms_[u] = ms_between(a, Clock::now());
      expect(m2.has_value(), "flash_crowd: honest beacon rejected");
      m2_[u] = std::move(*m2);
    });
    for (std::size_t u = 0; u < kUsers; ++u)
      d_.gm.record_receipt(enrollments[u], users_[u]->receipt_public_key(),
                           receipts[u]);
    m3_wire_.resize(kUsers);
  }

  Phase measure(double seconds) {
    Phase ph;
    const auto c0 = CounterSnapshot::take();
    const auto t0 = Clock::now();
    while (seconds_since(t0) < seconds * kFixedShare) fixed_round(ph);
    ph.fixed_wall_s = seconds_since(t0);
    const auto t1 = Clock::now();
    while (seconds_since(t1) < seconds * (1 - kFixedShare)) saturated_round(ph);
    ph.counts = c0.delta(CounterSnapshot::take());
    return ph;
  }

 private:
  static std::string uid(std::size_t u) { return "crowd-" + std::to_string(u); }

  /// A fresh router instance from the same spec: identical beacon, empty
  /// replay cache, so the pre-signed M.2s are admissible again.
  void fresh_router(Phase& ph) {
    if (router_->stats().requests_received > 0) {
      mark_.tally_into(ph.admission, *router_);
      router_.reset();
      router_ = d_.router(spec_, config_);
      expect(router_->make_beacon(kT0).to_bytes() == beacon_wire_,
             "flash_crowd: rebuilt router's beacon differs");
    }
    mark_ = RouterMark::of(*router_);
  }

  /// This round's arrival order (a seeded permutation of the users).
  std::vector<proto::AccessRequest> arrivals() {
    std::vector<std::size_t> order(kUsers);
    for (std::size_t i = 0; i < kUsers; ++i) order[i] = i;
    for (std::size_t i = kUsers - 1; i > 0; --i)
      std::swap(order[i], order[rng_.uniform(i + 1)]);
    std::vector<proto::AccessRequest> out;
    out.reserve(kUsers);
    for (std::size_t i : order) out.push_back(m2_[i]);
    order_ = std::move(order);
    return out;
  }

  /// Admits batch[lo, hi) in one call, checks every verdict, returns the
  /// call's wall time in ms.
  double admit(const std::vector<proto::AccessRequest>& batch, std::size_t lo,
               std::size_t hi, Phase& ph) {
    current_request() = ++calls_;
    const auto before = router_->stats();
    const double cpu0 = cpu_ms();
    const auto a = Clock::now();
    const auto results = [&] {
      peace::obs::Span span("bench.handle_access_requests", "bench");
      span.arg("req", calls_);
      return router_->handle_access_requests(
          std::span(batch).subspan(lo, hi - lo), kT0 + 2);
    }();
    last_return_ = Clock::now();
    const double ms = ms_between(a, last_return_);
    ph.call_cpu_ms += cpu_ms() - cpu0;
    ph.call_ms += ms;
    ph.calls += 1;
    ph.requests += hi - lo;
    check_verdicts(*router_, before, std::vector(hi - lo, Verdict::kAccept),
                   results, "flash_crowd");
    for (std::size_t k = lo; k < hi; ++k)
      check_confirm(order_[k], results[k - lo]->confirm);
    return ms;
  }

  /// Every accepted M.2 must yield a working session. The first time a
  /// user is answered, its device processes the M.3 and a frame
  /// round-trips both ways; later rounds must reproduce that M.3 exactly
  /// (same beacon, same DH share, so the same session keys).
  void check_confirm(std::size_t user, const proto::AccessConfirm& m3) {
    const peace::Bytes wire = m3.to_bytes();
    if (!m3_wire_[user].empty()) {
      expect(wire == m3_wire_[user], "flash_crowd: M.3 differs between rounds");
      return;
    }
    m3_wire_[user] = wire;
    pending_checks_.push_back(user);
  }

  /// Deferred device-side half of check_confirm, run between rounds.
  void finish_checks() {
    for (std::size_t user : pending_checks_) {
      const auto m3 = proto::AccessConfirm::from_bytes(m3_wire_[user]);
      auto session = users_[user]->process_access_confirm(m3);
      expect(session.has_value(), "flash_crowd: honest M.3 rejected");
      proto::Session* rs = router_->session(session->id());
      expect(rs != nullptr, "flash_crowd: router kept no session");
      check_roundtrip(*session, *rs, session->id(), "flash_crowd");
    }
    pending_checks_.clear();
  }

  /// Arrivals at kFlashCrowdOfferedRps per second of reference-speed time:
  /// on a host running slower than the reference the schedule stretches
  /// alike, so the router's utilization - and with it the queueing - stays
  /// the same.
  /// At this rate most batches hold one M.2, verified on the calling thread,
  /// so the single-thread probe tracks it; saturation probes the pool.
  void fixed_round(Phase& ph) {
    fresh_router(ph);
    const auto batch = arrivals();
    probe().sample();
    const double rate = kFlashCrowdOfferedRps * probe().factor();
    std::vector<Clock::time_point> due(kUsers);
    auto t = Clock::now() + std::chrono::milliseconds(1);
    for (auto& d : due) {
      const double u = (static_cast<double>(rng_.next_u64() >> 11) + 0.5) /
                       9007199254740992.0;
      t += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(-std::log(u) / rate));
      d = t;
    }
    for (std::size_t i = 0; i < kUsers;) {
      auto now = Clock::now();
      if (due[i] > now) {
        // Idle until the next arrival: probe the host's speed if the gap
        // allows, sleep most of the rest, spin the last stretch.
        if (due[i] - now > std::chrono::milliseconds(2) &&
            now - last_probe_ > std::chrono::milliseconds(50)) {
          probe().sample();
          last_probe_ = now = Clock::now();
        }
        if (due[i] - now > std::chrono::microseconds(1500))
          std::this_thread::sleep_until(due[i] - std::chrono::microseconds(1000));
        while ((now = Clock::now()) < due[i]) {
        }
        ph.late_ms.push_back(ms_between(due[i], now));
      }
      std::size_t j = i;
      while (j < kUsers && due[j] <= now) ++j;
      for (std::size_t k = i; k < j; ++k)
        ph.queue_wait_ms.push_back(ms_between(due[k], now));
      ph.depth_max = std::max(ph.depth_max, j - i);
      const double speed = probe().factor();
      ph.batch_size.push_back(static_cast<double>(j - i));
      ph.batch_ms.push_back(admit(batch, i, j, ph));
      ph.busy_s += ph.batch_ms.back() / 1000.0;
      for (std::size_t k = i; k < j; ++k) {
        ph.latency_raw_ms.push_back(ms_between(due[k], last_return_));
        ph.latency_ms.push_back(ph.latency_raw_ms.back() * speed);
      }
      i = j;
    }
    ph.arrivals += kUsers;
    finish_checks();
  }

  void saturated_round(Phase& ph) {
    fresh_router(ph);
    const auto batch = arrivals();
    // The pool's speed is probed on both sides of the backlog it drains.
    probe().sample(threads_);
    const double s = admit(batch, 0, kUsers, ph) / 1000.0;
    probe().sample(threads_);
    const double speed = probe().factor();
    ph.sat_raw_s += s;
    ph.sat_s += s * speed;
    ph.sat_requests += kUsers;
    finish_checks();
  }

  Deployment d_;
  RouterSpec spec_;
  peace::crypto::Drbg rng_;
  proto::ProtocolConfig config_;
  std::unique_ptr<proto::MeshRouter> router_;
  RouterMark mark_;
  peace::Bytes beacon_wire_;
  std::vector<std::unique_ptr<proto::User>> users_;
  std::vector<proto::AccessRequest> m2_;
  std::vector<peace::Bytes> m3_wire_;
  std::vector<std::size_t> order_, pending_checks_;
  std::uint64_t calls_ = 0;
  Clock::time_point last_return_;  // when the last admission call returned
  Clock::time_point last_probe_;
  unsigned threads_ = 1;

 public:
  CallTimes setup_calls_;       // make_beacon during set-up
  std::vector<double> beacon_ms_;  // each user's process_beacon (set-up)

  /// Folds the current router instance's counters into the phase tally.
  void close(Phase& ph) {
    mark_.tally_into(ph.admission, *router_);
    mark_ = RouterMark::of(*router_);
  }
};

}  // namespace

Report run_flash_crowd(const RunConfig& cfg) {
  Report rep;
  probe().set_exponent(kCrowdProbeExponent);
  std::unique_ptr<FlashCrowd> w;
  double setup_raw_s = 0;
  const double setup_s = timed_setup<FlashCrowd>(
      kSetupReps, w,
      [&] { return std::make_unique<FlashCrowd>(cfg.seed, cfg.threads); },
      &setup_raw_s, cfg.threads);
  const auto run = [&](double seconds) {
    Phase ph = w->measure(seconds);
    w->close(ph);
    return ph;
  };
  const auto fill = [&](const Phase& ph) {
    rep.attempted = ph.requests;
    const double goodput = static_cast<double>(ph.sat_requests) / ph.sat_s;
    put_latency(rep, "admit", ph.latency_ms, kTailCap);
    rep.named.obj("admit_goodput_rps",
                  Json().num("value", goodput).str("unit", "req/s"));
    rep.named.obj("offered_rps",
                  Json()
                      .num("value", static_cast<double>(ph.arrivals) /
                                        ph.fixed_wall_s)
                      .str("unit", "req/s"));
    rep.e2e["setup_s"] = {setup_s, "s"};
    rep.e2e["latency_p50_ms"] = {median(ph.latency_ms), "ms"};
    rep.e2e["latency_tail_ms"] = {tail_of(ph.latency_ms, kTailCap).value, "ms"};
    rep.e2e["goodput_per_s"] = {goodput, "1/s"};
    rep.named.obj("raw", Json()
                             .num("admit_p50_ms", median(ph.latency_raw_ms))
                             .num("admit_goodput_rps",
                                  static_cast<double>(ph.sat_requests) / ph.sat_raw_s)
                             .num("setup_s", setup_raw_s)
                             .num("probe_us", median(probe().samples())));
  };

  if (!cfg.trace) {
    fill(run(cfg.seconds));
    return rep;
  }
  const Phase plain = run(cfg.seconds / 2);
  fill(plain);
  Phase traced_phase;
  const auto spans = traced([&] { traced_phase = run(cfg.seconds / 2); });
  const Calibration cal = calibrate(cfg.seed);
  rep.layer = cal.metrics;
  MetricTable& m = rep.layer;
  const double reqs = static_cast<double>(plain.requests);
  m["peace.make_beacon_ms"] = {w->setup_calls_.median_ms("bench.make_beacon"),
                               "ms"};
  m["peace.process_beacon_ms"] = {median(w->beacon_ms_), "ms"};
  m["peace.admit_batch_ms"] = {median(plain.batch_ms), "ms"};
  m["peace.admit_per_req_ms"] = {plain.call_ms / reqs, "ms"};
  m["peace.admit_batch_size"] = {mean(plain.batch_size), "count"};
  m["peace.admit_queue_wait_ms"] = {median(plain.queue_wait_ms), "ms"};
  m["peace.admit_queue_depth_max"] = {static_cast<double>(plain.depth_max),
                                      "count"};
  m["peace.admit_busy_frac"] = {plain.busy_s / plain.fixed_wall_s, "ratio"};
  m["peace.generator_late_ms"] = {median(plain.late_ms), "ms"};
  m["pool.jobs_per_req"] = {plain.counts.at("pool.jobs") / reqs, "1/req"};
  m["pool.batches"] = {plain.counts.at("pool.batches") /
                           static_cast<double>(plain.calls),
                       "1/call"};
  admission_layer_metrics(plain.admission, spans,
                          static_cast<double>(traced_phase.requests), m);
  curve_layer_metrics(plain.counts, reqs, plain.call_cpu_ms / reqs, cal, m);
  span_layer_metrics(spans, static_cast<double>(traced_phase.requests),
                     cfg.threads, m);
  // Overhead over the saturation phase: identical batches traced and not.
  const double plain_ms = plain.sat_s / static_cast<double>(plain.sat_requests);
  const double traced_ms =
      traced_phase.sat_s / static_cast<double>(traced_phase.sat_requests);
  m["obs.trace_overhead_pct"] = {100.0 * (traced_ms - plain_ms) / plain_ms, "%"};
  rep.detail.obj("spans", span_json(spans, static_cast<double>(traced_phase.requests)));
  rep.detail.num("model_basis_cpu_ms_per_req", plain.call_cpu_ms / reqs);
  return rep;
}

}  // namespace perfbench

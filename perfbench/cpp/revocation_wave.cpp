// revocation_wave: an in-memory NetworkOperator and a few mesh segments,
// each with several routers sharing one SharedRevocationState. Each wave
// revokes a user (write path: delta, announcement over the wire,
// handle_rl_announce, snapshot publish), then one router, taken in turn,
// admits a batch mixing an honest and the just-revoked user's M.2 (read
// path); over a cycle every router admits. Users sign with
// epoch 0, so every verification scans the URL with TokenScan; the URL
// starts long enough that the scan is most of the verify cost and grows
// across the waves of a cycle. A cycle restores the NO from its state
// image, so every cycle repeats the same URL growth.
#include <algorithm>

#include "harness.hpp"
#include "probe.hpp"
#include "world.hpp"

namespace perfbench {

namespace {

using proto::Timestamp;

constexpr std::size_t kSegments = 2;
constexpr std::size_t kRoutersPerSegment = 2;
constexpr std::size_t kRouters = kSegments * kRoutersPerSegment;
constexpr std::size_t kBackground = 4;  // URL length at the start of a cycle
constexpr std::size_t kWaves = kRouters;  // waves per cycle, one user each
constexpr std::size_t kHonest = 2;
constexpr Timestamp kT0 = 10'000;
constexpr double kTailCap = 90;
constexpr int kSetupReps = 5;  // set-ups per run; setup_s is their median

/// Sums curve.* / pool.* registry deltas over the calls it wraps.
struct CounterSum {
  std::map<std::string, double> sum;
  template <typename F>
  auto around(F&& f) {
    const auto before = CounterSnapshot::take();
    auto r = f();
    for (const auto& [k, v] : before.delta(CounterSnapshot::take())) sum[k] += v;
    return r;
  }
};

struct Phase {
  // Normalized to the reference speed (probe.hpp); *_raw as measured.
  std::vector<double> wave_ms, wave_raw_ms, batch_ms;
  double admit_ms = 0, admit_raw_ms = 0;
  std::uint64_t requests = 0, verdicts = 0, waves = 0, cycles = 0;
  std::uint64_t snapshots_published = 0, deltas_stale = 0;
  CallTimes calls;
  CounterSum counts;
  AdmissionTally admission;
};

/// One M.2 and the verdict it must get.
struct Request {
  proto::AccessRequest m2;
  bool honest = true;
};

class RevocationWave {
 public:
  explicit RevocationWave(std::uint64_t seed)
      : d_(seed, kBackground + kWaves + kHonest), rng_(drbg(seed, "waves")) {
    for (std::size_t r = 0; r < kRouters; ++r)
      specs_.push_back(d_.provision(static_cast<proto::RouterId>(r + 1)));
    for (std::size_t b = 0; b < kBackground; ++b)
      d_.no.revoke_user_key(d_.gm.enroll("background-" + std::to_string(b), d_.ttp).index,
                            kT0);
    for (std::size_t u = 0; u < kWaves + kHonest; ++u)
      users_.push_back(d_.enroll("rw-user-" + std::to_string(u)));
    no_state_ = d_.no.state_bytes();
    build_segments();
    for (std::size_t r = 0; r < kRouters; ++r)
      beacon_wire_.push_back(
          timed(setup_calls_, "bench.make_beacon",
                [&] { return routers_[r]->make_beacon(kT0); })
              .to_bytes());

    // Wave w revokes user w; router w % kRouters then admits that user's
    // M.2 beside an honest user's, in a seeded order.
    for (std::size_t w = 0; w < kWaves; ++w) {
      std::vector<Request> batch;
      const std::size_t r = w % kRouters;
      for (std::size_t u : {w, kWaves + w % kHonest}) {
        const auto beacon = proto::BeaconMessage::from_bytes(beacon_wire_[r]);
        auto m2 = timed(setup_calls_, "bench.process_beacon", [&] {
          return users_[u].user->process_beacon(beacon, kT0 + 1);
        });
        expect(m2.has_value(), "revocation_wave: honest beacon rejected");
        batch.push_back({std::move(*m2), u >= kWaves});
      }
      if (rng_.uniform(2)) std::swap(batch[0], batch[1]);
      batches_.push_back(std::move(batch));
    }
  }

  Phase measure(double seconds) {
    Phase ph;
    const auto t0 = Clock::now();
    while (ph.cycles == 0 || seconds_since(t0) < seconds) cycle(ph);
    return ph;
  }

 private:
  /// Fresh segment states loaded with the NO's current lists, and routers
  /// rebuilt from their specs (identical beacons, empty replay caches).
  void build_segments() {
    routers_.clear();
    segments_.clear();
    for (std::size_t s = 0; s < kSegments; ++s) {
      auto state = std::make_shared<peace::revoke::SharedRevocationState>(
          d_.no.npk());
      state->install_full(d_.no.current_crl(), d_.no.current_url());
      segments_.push_back(state);
      for (std::size_t k = 0; k < kRoutersPerSegment; ++k)
        routers_.push_back(
            d_.router(specs_[s * kRoutersPerSegment + k], {}, state));
    }
  }

  void cycle(Phase& ph) {
    d_.no = proto::NetworkOperator::from_state(no_state_);
    build_segments();
    for (std::size_t r = 0; r < kRouters; ++r)
      expect(routers_[r]->make_beacon(kT0).to_bytes() == beacon_wire_[r],
             "revocation_wave: rebuilt router's beacon differs");
    std::vector<peace::revoke::SharedRevocationStats> base;
    for (const auto& s : segments_) base.push_back(s->stats());
    std::vector<RouterMark> marks;
    for (const auto& r : routers_) marks.push_back(RouterMark::of(*r));

    for (std::size_t w = 0; w < kWaves; ++w) wave(ph, w);

    for (std::size_t s = 0; s < kSegments; ++s) {
      const auto st = segments_[s]->stats();
      ph.snapshots_published += st.snapshots_published - base[s].snapshots_published;
      ph.deltas_stale += st.deltas_stale - base[s].deltas_stale;
    }
    for (std::size_t r = 0; r < kRouters; ++r)
      marks[r].tally_into(ph.admission, *routers_[r]);
    ph.cycles += 1;
  }

  void wave(Phase& ph, std::size_t w) {
    const Timestamp now = kT0 + 2 + w;
    current_request() = ++waves_;
    probe().sample();
    const double speed = probe().factor();

    // --- write path: revoke, announce over the wire, every segment applies
    const auto t0 = Clock::now();
    const std::uint64_t url_before = d_.no.current_url().version;
    timed(ph.calls, "bench.revoke_user_key",
          [&] { d_.no.revoke_user_key(users_[w].index, now); });
    const auto ann = timed(ph.calls, "bench.make_delta_announcement", [&] {
      return d_.no.make_delta_announcement(d_.no.current_crl().version,
                                           url_before);
    });
    const peace::Bytes wire = ann.to_bytes();
    const std::uint64_t target = d_.no.current_url().version;
    for (std::size_t s = 0; s < kSegments; ++s) {
      const auto rx = proto::RLDeltaAnnounce::from_bytes(wire);
      const auto resync = timed(ph.calls, "bench.handle_rl_announce", [&] {
        return routers_[s * kRoutersPerSegment]->handle_rl_announce(rx);
      });
      expect(resync.empty(), "revocation_wave: in-order delta asked for resync");
    }
    for (const auto& seg : segments_)
      expect(seg->url_version() == target,
             "revocation_wave: a segment missed the NO's URL version");
    ph.wave_raw_ms.push_back(ms_between(t0, Clock::now()));
    ph.wave_ms.push_back(ph.wave_raw_ms.back() * speed);
    ph.waves += 1;
    // The rest of each segment hears the same broadcast: already current.
    for (std::size_t s = 0; s < kSegments; ++s)
      for (std::size_t k = 1; k < kRoutersPerSegment; ++k)
        routers_[s * kRoutersPerSegment + k]->handle_rl_announce(
            proto::RLDeltaAnnounce::from_bytes(wire));

    // --- read path: this wave's router admits honest + just-revoked M.2s
    {
      const auto& batch = batches_[w];
      std::vector<proto::AccessRequest> m2s;
      for (const Request& q : batch) m2s.push_back(q.m2);
      auto& router = *routers_[w % kRouters];
      const auto before = router.stats();
      const auto a = Clock::now();
      const auto results = ph.counts.around([&] {
        peace::obs::Span span("bench.handle_access_requests", "bench");
        span.arg("req", waves_);
        return router.handle_access_requests(m2s, now);
      });
      const double ms = ms_between(a, Clock::now());
      ph.batch_ms.push_back(ms);
      ph.admit_raw_ms += ms;
      ph.admit_ms += ms * speed;
      ph.requests += batch.size();
      std::vector<Verdict> expected;
      for (const Request& q : batch)
        expected.push_back(q.honest ? Verdict::kAccept : Verdict::kRevoked);
      check_verdicts(router, before, expected, results, "revocation_wave");
      ph.verdicts += batch.size();
    }
  }

  Deployment d_;
  peace::crypto::Drbg rng_;
  std::vector<RouterSpec> specs_;
  std::vector<EnrolledUser> users_;  // [0, kWaves): revoked in wave w
  peace::Bytes no_state_;
  std::vector<std::shared_ptr<peace::revoke::SharedRevocationState>> segments_;
  std::vector<std::unique_ptr<proto::MeshRouter>> routers_;
  std::vector<peace::Bytes> beacon_wire_;
  std::vector<std::vector<Request>> batches_;  // one per wave
  std::uint64_t waves_ = 0;

 public:
  CallTimes setup_calls_;
};

}  // namespace

Report run_revocation_wave(const RunConfig& cfg) {
  Report rep;
  std::unique_ptr<RevocationWave> w;
  double setup_raw_s = 0;
  const double setup_s = timed_setup<RevocationWave>(
      kSetupReps, w, [&] { return std::make_unique<RevocationWave>(cfg.seed); },
      &setup_raw_s);
  const auto fill = [&](const Phase& ph) {
    rep.attempted = ph.waves + ph.requests;
    const double goodput = static_cast<double>(ph.verdicts) / (ph.admit_ms / 1000.0);
    put_latency(rep, "rl_wave", ph.wave_ms, kTailCap);
    rep.named.obj("admit_goodput_rps",
                  Json().num("value", goodput).str("unit", "req/s"));
    rep.named.obj("raw", Json()
                             .num("rl_wave_p50_ms", median(ph.wave_raw_ms))
                             .num("admit_goodput_rps", static_cast<double>(ph.verdicts) /
                                                           (ph.admit_raw_ms / 1000.0))
                             .num("setup_s", setup_raw_s)
                             .num("probe_us", median(probe().samples())));
    rep.named.num("url_tokens_first_wave", kBackground + 1)
        .num("url_tokens_last_wave", kBackground + kWaves);
    rep.e2e["setup_s"] = {setup_s, "s"};
    rep.e2e["latency_p50_ms"] = {median(ph.wave_ms), "ms"};
    rep.e2e["latency_tail_ms"] = {tail_of(ph.wave_ms, kTailCap).value, "ms"};
    rep.e2e["goodput_per_s"] = {goodput, "1/s"};
  };
  if (!cfg.trace) {
    fill(w->measure(cfg.seconds));
    return rep;
  }
  const Phase plain = w->measure(cfg.seconds / 2);
  fill(plain);
  Phase traced_phase;
  const auto spans = traced([&] { traced_phase = w->measure(cfg.seconds / 2); });
  const Calibration cal = calibrate(cfg.seed);
  rep.layer = cal.metrics;
  MetricTable& m = rep.layer;
  const double reqs = static_cast<double>(plain.requests);
  const double waves = static_cast<double>(plain.waves);
  m["peace.make_beacon_ms"] = {w->setup_calls_.median_ms("bench.make_beacon"), "ms"};
  m["peace.process_beacon_ms"] = {w->setup_calls_.median_ms("bench.process_beacon"),
                                  "ms"};
  m["peace.revoke_user_key_ms"] = {plain.calls.median_ms("bench.revoke_user_key"),
                                   "ms"};
  m["peace.announce_build_ms"] = {
      plain.calls.median_ms("bench.make_delta_announcement"), "ms"};
  m["peace.handle_rl_announce_ms"] = {
      plain.calls.median_ms("bench.handle_rl_announce"), "ms"};
  m["peace.rl_snapshots_published"] = {
      static_cast<double>(plain.snapshots_published) / waves, "1/wave"};
  m["peace.rl_deltas_stale"] = {static_cast<double>(plain.deltas_stale) / waves,
                                "1/wave"};
  m["peace.admit_batch_ms"] = {median(plain.batch_ms), "ms"};
  m["peace.admit_per_req_ms"] = {plain.admit_raw_ms / reqs, "ms"};
  m["peace.admit_batch_size"] = {reqs / static_cast<double>(plain.batch_ms.size()),
                                 "count"};
  m["pool.jobs_per_req"] = {plain.counts.sum.at("pool.jobs") / reqs, "1/req"};
  m["pool.batches"] = {plain.counts.sum.at("pool.batches") /
                           static_cast<double>(plain.batch_ms.size()),
                       "1/call"};
  admission_layer_metrics(plain.admission, spans,
                          static_cast<double>(traced_phase.requests), m);
  curve_layer_metrics(plain.counts.sum, reqs, plain.admit_raw_ms / reqs, cal, m);
  span_layer_metrics(spans, static_cast<double>(traced_phase.requests), 1, m);
  const auto per_wave_ms = [](const Phase& ph) {
    double total = ph.admit_ms;
    for (double x : ph.wave_ms) total += x;
    return total / static_cast<double>(ph.waves);
  };
  const double plain_ms = per_wave_ms(plain);
  const double traced_ms = per_wave_ms(traced_phase);
  m["obs.trace_overhead_pct"] = {100.0 * (traced_ms - plain_ms) / plain_ms, "%"};
  rep.detail.obj("spans",
                 span_json(spans, static_cast<double>(traced_phase.waves)));
  return rep;
}

}  // namespace perfbench

// handshake: one client at a time, closed loop. Alternating user->router
// (M.1 -> M.3) and user<->user (M~.1 -> M~.3) handshakes over serialized
// bytes, each followed by a short session exchange. Empty URL, inline
// verification with a batch of one: the latency a user sees with nothing
// contending.
#include "harness.hpp"
#include "world.hpp"

namespace perfbench {

namespace {

using proto::Timestamp;

constexpr std::size_t kRouters = 2;
constexpr std::size_t kUsers = 4;
constexpr double kTailCap = 90;  // ~350 samples per kind in a 20 s run
constexpr int kSetupReps = 5;  // set-ups per run; setup_s is their median

/// The eight public calls that make up the two handshakes.
constexpr const char* kUrCalls[] = {
    "bench.make_beacon", "bench.process_beacon",
    "bench.handle_access_request", "bench.process_access_confirm"};
constexpr const char* kUuCalls[] = {
    "bench.make_peer_hello", "bench.process_peer_hello",
    "bench.process_peer_reply", "bench.process_peer_confirm"};

struct Phase {
  double wall_s = 0;
  double norm_s = 0;  // loop time normalized to the reference speed
  // Normalized to the reference speed (probe.hpp); *_raw as measured.
  std::vector<double> ur_ms, uu_ms, ur_raw_ms, uu_raw_ms;
  CallTimes calls;
  std::map<std::string, double> counts;
  AdmissionTally admission;
  std::uint64_t frames = 0;
};

class Handshake {
 public:
  explicit Handshake(std::uint64_t seed)
      : d_(seed, 2 * kUsers), payload_rng_(drbg(seed, "payloads")) {
    for (std::size_t r = 0; r < kRouters; ++r)
      routers_.push_back(d_.router(d_.provision(static_cast<proto::RouterId>(r + 1))));
    for (std::size_t u = 0; u < kUsers; ++u)
      users_.push_back(d_.enroll("hs-user-" + std::to_string(u)));
  }

  Phase measure(double seconds) {
    Phase ph;
    std::vector<RouterMark> marks;
    for (const auto& r : routers_) marks.push_back(RouterMark::of(*r));
    const auto c0 = CounterSnapshot::take();
    const auto t0 = Clock::now();
    while (seconds_since(t0) < seconds) {
      probe().sample();
      const double speed = probe().factor();
      const auto a = Clock::now();
      step(ph);
      ph.norm_s += seconds_since(a) * speed;
      ph.ur_ms.push_back(ph.ur_raw_ms.back() * speed);
      ph.uu_ms.push_back(ph.uu_raw_ms.back() * speed);
    }
    ph.wall_s = seconds_since(t0);
    ph.counts = c0.delta(CounterSnapshot::take());
    for (std::size_t r = 0; r < kRouters; ++r)
      marks[r].tally_into(ph.admission, *routers_[r]);
    return ph;
  }

 private:
  void step(Phase& ph) {
    const std::size_t i = iter_++;
    now_ += 100;
    auto& router = *routers_[i % kRouters];
    auto& user = *users_[i % kUsers].user;
    auto& peer = *users_[(i + 1 + (i / kUsers) % (kUsers - 1)) % kUsers].user;

    // --- user -> router: M.1 -> M.2 -> M.3 over the wire -----------------
    current_request() = 2 * i;
    auto t0 = Clock::now();
    const auto m1 = timed(ph.calls, "bench.make_beacon",
                          [&] { return router.make_beacon(now_); });
    const auto m1_rx = proto::BeaconMessage::from_bytes(m1.to_bytes());
    const auto m2 = timed(ph.calls, "bench.process_beacon",
                          [&] { return user.process_beacon(m1_rx, now_); });
    expect(m2.has_value(), "handshake: honest beacon rejected");
    const auto m2_rx = proto::AccessRequest::from_bytes(m2->to_bytes());
    const auto m3 = timed(ph.calls, "bench.handle_access_request", [&] {
      return router.handle_access_request(m2_rx, now_ + 1);
    });
    expect(m3.has_value(), "handshake: honest M.2 rejected");
    const auto m3_rx = proto::AccessConfirm::from_bytes(m3->confirm.to_bytes());
    auto user_session = timed(ph.calls, "bench.process_access_confirm",
                              [&] { return user.process_access_confirm(m3_rx); });
    ph.ur_raw_ms.push_back(ms_between(t0, Clock::now()));
    expect(user_session.has_value(), "handshake: honest M.3 rejected");
    proto::Session* router_session = router.session(m3->session_id);
    expect(router_session != nullptr, "handshake: router kept no session");
    exchange(*user_session, *router_session, ph, "user-router");
    router.close_session(m3->session_id);

    // --- user <-> user: M~.1 -> M~.2 -> M~.3 over the wire ----------------
    current_request() = 2 * i + 1;
    t0 = Clock::now();
    const auto hello = timed(ph.calls, "bench.make_peer_hello",
                             [&] { return user.make_peer_hello(m1.g, now_ + 2); });
    const auto hello_rx = proto::PeerHello::from_bytes(hello.to_bytes());
    const auto reply = timed(ph.calls, "bench.process_peer_hello", [&] {
      return peer.process_peer_hello(hello_rx, now_ + 3);
    });
    expect(reply.has_value(), "handshake: honest M~.1 rejected");
    const auto reply_rx = proto::PeerReply::from_bytes(reply->to_bytes());
    auto est = timed(ph.calls, "bench.process_peer_reply", [&] {
      return user.process_peer_reply(reply_rx, now_ + 4);
    });
    expect(est.has_value(), "handshake: honest M~.2 rejected");
    const auto confirm_rx =
        proto::PeerConfirm::from_bytes(est->confirm.to_bytes());
    auto peer_session = timed(ph.calls, "bench.process_peer_confirm",
                              [&] { return peer.process_peer_confirm(confirm_rx); });
    ph.uu_raw_ms.push_back(ms_between(t0, Clock::now()));
    expect(peer_session.has_value(), "handshake: honest M~.3 rejected");
    exchange(est->session, *peer_session, ph, "user-user");
  }

  /// The short session exchange after each handshake: one small and one
  /// MTU-sized frame each way, checked byte-equal.
  void exchange(proto::Session& a, proto::Session& b, Phase& ph,
                const char* what) {
    for (std::size_t size : {64u, 1400u}) {
      check_roundtrip(a, b, payload_rng_.bytes(size), what);
      ph.frames += 2;
    }
  }

  Deployment d_;
  peace::crypto::Drbg payload_rng_;
  std::vector<std::unique_ptr<proto::MeshRouter>> routers_;
  std::vector<EnrolledUser> users_;
  Timestamp now_ = 10'000;
  std::size_t iter_ = 0;
};

}  // namespace

Report run_handshake(const RunConfig& cfg) {
  Report rep;
  std::unique_ptr<Handshake> w;
  double setup_raw_s = 0;
  const double setup_s = timed_setup<Handshake>(
      kSetupReps, w, [&] { return std::make_unique<Handshake>(cfg.seed); },
      &setup_raw_s);

  const auto fill = [&](const Phase& ph) {
    const double handshakes = static_cast<double>(ph.ur_ms.size() + ph.uu_ms.size());
    rep.attempted = static_cast<std::uint64_t>(handshakes) + ph.frames;
    put_latency(rep, "ur_handshake", ph.ur_ms, kTailCap);
    put_latency(rep, "uu_handshake", ph.uu_ms, kTailCap);
    rep.e2e["setup_s"] = {setup_s, "s"};
    rep.e2e["latency_p50_ms"] = {median(ph.ur_ms), "ms"};
    rep.e2e["latency_tail_ms"] = {tail_of(ph.ur_ms, kTailCap).value, "ms"};
    rep.e2e["goodput_per_s"] = {handshakes / ph.norm_s, "1/s"};
    rep.named.obj("raw", Json()
                             .num("ur_handshake_p50_ms", median(ph.ur_raw_ms))
                             .num("uu_handshake_p50_ms", median(ph.uu_raw_ms))
                             .num("handshakes_per_s", handshakes / ph.wall_s)
                             .num("setup_s", setup_raw_s)
                             .num("probe_us", median(probe().samples())));
  };

  if (!cfg.trace) {
    fill(w->measure(cfg.seconds));
    return rep;
  }

  const Phase plain = w->measure(cfg.seconds / 2);
  fill(plain);
  Phase traced_phase;
  const auto spans =
      traced([&] { traced_phase = w->measure(cfg.seconds / 2); });
  const Calibration cal = calibrate(cfg.seed);
  rep.layer = cal.metrics;
  MetricTable& m = rep.layer;

  double covered = 0;
  const auto call = [&](const char* bench_name, const char* metric) {
    m[metric] = {plain.calls.median_ms(bench_name), "ms"};
    covered += plain.calls.total_ms(bench_name);
  };
  call(kUrCalls[0], "peace.make_beacon_ms");
  call(kUrCalls[1], "peace.process_beacon_ms");
  call(kUrCalls[2], "peace.handle_access_request_ms");
  call(kUrCalls[3], "peace.process_access_confirm_ms");
  call(kUuCalls[0], "peace.make_peer_hello_ms");
  call(kUuCalls[1], "peace.process_peer_hello_ms");
  call(kUuCalls[2], "peace.process_peer_reply_ms");
  call(kUuCalls[3], "peace.process_peer_confirm_ms");
  double total = 0;
  for (double x : plain.ur_raw_ms) total += x;
  for (double x : plain.uu_raw_ms) total += x;
  m["peace.handshake_residual_pct"] = {100.0 * (total - covered) / total, "%"};

  const double handshakes =
      static_cast<double>(plain.ur_ms.size() + plain.uu_ms.size());
  admission_layer_metrics(plain.admission, spans,
                          static_cast<double>(traced_phase.admission.received), m);
  curve_layer_metrics(plain.counts, handshakes, total / handshakes, cal, m);
  span_layer_metrics(spans, static_cast<double>(plain.admission.received), 1, m);

  const double traced_ms = traced_phase.norm_s / traced_phase.ur_ms.size();
  const double plain_ms = plain.norm_s / plain.ur_ms.size();
  m["obs.trace_overhead_pct"] = {100.0 * (traced_ms - plain_ms) / plain_ms, "%"};
  rep.detail.obj("spans", span_json(spans, static_cast<double>(
                                               traced_phase.ur_ms.size() +
                                               traced_phase.uu_ms.size())));
  return rep;
}

}  // namespace perfbench

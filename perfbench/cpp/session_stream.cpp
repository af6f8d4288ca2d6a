// session_stream: single-threaded closed loop over established sessions of
// both cipher suites (keys from a DH exchange), sealing on one end and
// opening on the other at 64 B (per-frame cost) and 1400 B (bulk). The
// crypto AEAD layer does almost all the work here and almost none
// elsewhere.
#include <algorithm>

#include "curve/ecdsa.hpp"
#include "harness.hpp"
#include "world.hpp"

namespace perfbench {

namespace {

using Suite = proto::Session::CipherSuite;

constexpr std::size_t kPayloads = 64;
constexpr double kTailCap = 99;
constexpr int kSetupReps = 15;  // set-ups per run; setup_s is their median
constexpr double kProbeEveryMs = 50;

/// One round is a fixed traffic mix: `frames` of each suite and size, each
/// sealed on one end and opened on the other. The counts give every suite
/// and size about a quarter of the round on a 4-core x86-64 host at 2.1 GHz
/// (per frame: ChaCha20-Poly1305 2.2 µs at 64 B and 16 µs at 1400 B,
/// AES-128-GCM 51 µs and 630 µs), so a 2x slowdown of any one of them moves
/// the round time by about a quarter. Like the offered rate of flash_crowd,
/// the mix is an input and stays fixed.
struct Combo {
  const char* suite_name;
  Suite suite;
  std::size_t size;
  std::size_t frames;
};
constexpr Combo kCombos[] = {{"chacha", Suite::kChaCha20Poly1305, 64, 288},
                             {"chacha", Suite::kChaCha20Poly1305, 1400, 40},
                             {"gcm", Suite::kAes128Gcm, 64, 12},
                             {"gcm", Suite::kAes128Gcm, 1400, 1}};

/// Per-frame means of each round, and normalized time (probe.hpp) in all.
struct ComboSamples {
  std::vector<double> seal_us, open_us;
  double time_s = 0;
  std::uint64_t frames = 0;
};

struct Phase {
  double wall_s = 0, norm_s = 0;
  ComboSamples combo[std::size(kCombos)];
  // per round: round_ms normalized to the reference speed, round_raw_ms as
  // measured
  std::vector<double> round_ms, round_raw_ms;
  std::map<std::string, double> counts;
  std::uint64_t frames = 0;
};

class SessionStream {
 public:
  explicit SessionStream(std::uint64_t seed) {
    auto rng = drbg(seed, "session-stream");
    const auto& g = peace::curve::Bn254::get().g1_gen;
    const auto a = peace::curve::random_fr(rng), b = peace::curve::random_fr(rng);
    const auto ga = g * a, gb = g * b;
    const auto k_a = gb * a, k_b = ga * b;
    expect(k_a == k_b, "session_stream: DH shares disagree");
    const auto sid = proto::session_id_from(ga, gb);
    for (const Combo& c : kCombos) {
      ends_.emplace_back(
          proto::Session::establish(k_a, sid, proto::Session::Role::kInitiator,
                                    c.suite),
          proto::Session::establish(k_b, sid, proto::Session::Role::kResponder,
                                    c.suite));
      std::vector<peace::Bytes> p;
      for (std::size_t i = 0; i < kPayloads; ++i) p.push_back(rng.bytes(c.size));
      payloads_.push_back(std::move(p));
    }
  }

  Phase measure(double seconds) {
    Phase ph;
    std::size_t most = 0;
    for (const Combo& c : kCombos) most = std::max(most, c.frames);
    std::vector<proto::DataFrame> frames(most);
    std::size_t next = 0;  // payload index, advanced every round
    const auto c0 = CounterSnapshot::take();
    const auto t0 = Clock::now();
    auto last_probe = t0;
    probe().sample();
    while (seconds_since(t0) < seconds) {
      if (ms_between(last_probe, Clock::now()) > kProbeEveryMs) {
        probe().sample();
        last_probe = Clock::now();
      }
      const double speed = probe().factor();
      const auto round = Clock::now();
      for (std::size_t c = 0; c < std::size(kCombos); ++c) {
        auto& [tx, rx] = ends_[c];
        const auto& pl = payloads_[c];
        const std::size_t n = kCombos[c].frames;
        ComboSamples& s = ph.combo[c];
        const auto a = Clock::now();
        for (std::size_t j = 0; j < n; ++j)
          frames[j] = tx.seal(pl[(next + j) % kPayloads]);
        const auto b = Clock::now();
        for (std::size_t j = 0; j < n; ++j) {
          const auto opened = rx.open(frames[j]);
          expect(opened.has_value() && *opened == pl[(next + j) % kPayloads],
                 "session_stream: frame did not round-trip");
        }
        const auto e = Clock::now();
        s.seal_us.push_back(ms_between(a, b) * 1000.0 / n);
        s.open_us.push_back(ms_between(b, e) * 1000.0 / n);
        s.time_s += ms_between(a, e) / 1000.0 * speed;
        s.frames += n;
        ph.frames += n;
      }
      ph.round_raw_ms.push_back(ms_between(round, Clock::now()));
      ph.round_ms.push_back(ph.round_raw_ms.back() * speed);
      ph.norm_s += ph.round_ms.back() / 1000.0;
      next += 1;
    }
    ph.wall_s = seconds_since(t0);
    ph.counts = c0.delta(CounterSnapshot::take());
    return ph;
  }

 private:
  std::vector<std::pair<proto::Session, proto::Session>> ends_;
  std::vector<std::vector<peace::Bytes>> payloads_;
};

}  // namespace

Report run_session_stream(const RunConfig& cfg) {
  Report rep;
  std::unique_ptr<SessionStream> w;
  double setup_raw_s = 0;
  const double setup_s = timed_setup<SessionStream>(
      kSetupReps, w, [&] { return std::make_unique<SessionStream>(cfg.seed); },
      &setup_raw_s);

  const auto fill = [&](const Phase& ph) {
    rep.attempted = ph.frames;
    for (std::size_t c = 0; c < std::size(kCombos); ++c) {
      const ComboSamples& s = ph.combo[c];
      const std::string base =
          std::string("session_") + kCombos[c].suite_name + "_" +
          std::to_string(kCombos[c].size) + "B";
      if (kCombos[c].size == 64)
        rep.named.obj(base + "_fps",
                      Json().num("value", s.frames / s.time_s).str("unit", "frames/s"));
      else
        rep.named.obj(base + "_mb_s",
                      Json()
                          .num("value", s.frames * kCombos[c].size / s.time_s / 1e6)
                          .str("unit", "MB/s"));
    }
    put_latency(rep, "session_round", ph.round_ms, kTailCap);
    rep.e2e["setup_s"] = {setup_s, "s"};
    rep.e2e["latency_p50_ms"] = {median(ph.round_ms), "ms"};
    rep.e2e["latency_tail_ms"] = {tail_of(ph.round_ms, kTailCap).value, "ms"};
    rep.e2e["goodput_per_s"] = {static_cast<double>(ph.frames) / ph.norm_s,
                                "1/s"};
    rep.named.obj("raw", Json()
                             .num("session_round_p50_ms", median(ph.round_raw_ms))
                             .num("frames_per_s", static_cast<double>(ph.frames) /
                                                      ph.wall_s)
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
  const auto spans = traced([&] { traced_phase = w->measure(cfg.seconds / 2); });
  const Calibration cal = calibrate(cfg.seed);
  rep.layer = cal.metrics;
  MetricTable& m = rep.layer;
  for (std::size_t c = 0; c < std::size(kCombos); ++c) {
    const std::string key = std::string(kCombos[c].suite_name) + "." +
                            std::to_string(kCombos[c].size);
    m["peace.session_seal_us." + key] = {median(plain.combo[c].seal_us), "us"};
    m["peace.session_open_us." + key] = {median(plain.combo[c].open_us), "us"};
  }
  curve_layer_metrics(plain.counts, static_cast<double>(plain.frames),
                      plain.wall_s * 1000.0 / plain.frames, cal, m);
  const double per_frame_ms = plain.norm_s * 1000.0 / plain.frames;
  const double traced_ms = traced_phase.norm_s * 1000.0 / traced_phase.frames;
  m["obs.trace_overhead_pct"] = {100.0 * (traced_ms - per_frame_ms) / per_frame_ms,
                                 "%"};
  rep.detail.obj("spans", span_json(spans, static_cast<double>(traced_phase.frames)));
  return rep;
}

}  // namespace perfbench

#include "calibrate.hpp"

#include <vector>

#include "crypto/aead.hpp"
#include "crypto/gcm.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "curve/ecdsa.hpp"
#include "curve/hash_to_curve.hpp"
#include "curve/pairing.hpp"
#include "world.hpp"

namespace perfbench {

namespace {

using namespace peace;

template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// Median over `batches` of the mean time (µs) of one call of `fn`, each
/// batch running it `reps` times.
template <typename F>
double per_call_us(int reps, int batches, F&& fn) {
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) fn();
    samples.push_back(ms_between(t0, Clock::now()) * 1000.0 / reps);
  }
  return median(samples);
}

void serde_row(MetricTable& m, const std::string& kind, int reps,
               const auto& msg) {
  using Msg = std::decay_t<decltype(msg)>;
  const Bytes wire = msg.to_bytes();
  m["common.encode_us." + kind] = {
      per_call_us(reps, 5, [&] { keep(msg.to_bytes()); }), "us"};
  m["common.decode_us." + kind] = {
      per_call_us(reps, 5, [&] { keep(Msg::from_bytes(wire)); }), "us"};
  m["common.wire_bytes." + kind] = {static_cast<double>(wire.size()), "B"};
}

}  // namespace

double Calibration::model_ms(const std::map<std::string, double>& c) const {
  const auto n = [&](const char* k) {
    const auto it = c.find(k);
    return it == c.end() ? 0.0 : it->second;
  };
  return (n("curve.miller_loops") * miller_us +
          n("curve.final_exps") * final_exp_us +
          n("curve.glv_decompositions") * g1_mul_us +
          n("curve.gls_decompositions") * g2_mul_us) /
         1000.0;
}

Calibration calibrate(std::uint64_t seed) {
  Calibration cal;
  MetricTable& m = cal.metrics;
  crypto::Drbg rng = drbg(seed, "calibration");
  const auto& bn = curve::Bn254::get();

  // --- math: field kernels -------------------------------------------------
  {
    math::Fp x = math::Fp::from_u64(rng.next_u64() | 1);
    const math::Fp y = math::Fp::from_u64(rng.next_u64() | 1);
    m["math.fp_mul_ns"] = {per_call_us(20000, 7, [&] { x = x * y; }) * 1000.0,
                           "ns"};
    keep(x);
    m["math.fp_inv_ns"] = {
        per_call_us(500, 7, [&] { x = x.inverse() + y; }) * 1000.0, "ns"};
    keep(x);
  }

  // --- curve ---------------------------------------------------------------
  const curve::G1 p = bn.g1_gen * curve::random_fr(rng);
  const curve::G2 q = bn.g2_gen * curve::random_fr(rng);
  const curve::Fp12 ml = curve::miller_loop(p, q);
  {
    curve::Fp12 acc = ml;
    m["math.fp12_mul_ns"] = {
        per_call_us(2000, 7, [&] { acc = acc * ml; }) * 1000.0, "ns"};
    keep(acc);
  }
  cal.miller_us = per_call_us(10, 5, [&] { keep(curve::miller_loop(p, q)); });
  cal.final_exp_us =
      per_call_us(10, 5, [&] { keep(curve::final_exponentiation(ml)); });
  const curve::Fr k = curve::random_fr(rng);
  cal.g1_mul_us = per_call_us(40, 5, [&] { keep(p * k); });
  cal.g2_mul_us = per_call_us(20, 5, [&] { keep(q * k); });
  m["curve.miller_loop_us"] = {cal.miller_us, "us"};
  m["curve.final_exp_us"] = {cal.final_exp_us, "us"};
  m["curve.g1_mul_us"] = {cal.g1_mul_us, "us"};
  m["curve.g2_mul_us"] = {cal.g2_mul_us, "us"};
  {
    const auto key = curve::EcdsaKeyPair::generate(rng);
    const Bytes msg = rng.bytes(96);
    const auto sig = key.sign(msg, rng);
    m["curve.ecdsa_sign_us"] = {
        per_call_us(30, 5, [&] { keep(key.sign(msg, rng)); }), "us"};
    m["curve.ecdsa_verify_us"] = {
        per_call_us(30, 5,
                    [&] { keep(curve::ecdsa_verify(key.public_key(), msg, sig)); }),
        "us"};
    m["curve.hash_to_g1_us"] = {
        per_call_us(40, 5,
                    [&] { keep(curve::hash_to_g1("perfbench", msg)); }),
        "us"};
    const Bytes enc = curve::g1_to_bytes(p);
    m["curve.g1_decode_us"] = {
        per_call_us(200, 5, [&] { keep(curve::g1_from_bytes(enc)); }), "us"};
  }

  // --- groupsig ------------------------------------------------------------
  {
    const auto issuer = groupsig::Issuer::create(rng);
    const groupsig::PreparedGroupPublicKey pgpk(issuer.gpk());
    const curve::Fr grp = issuer.new_group_secret(rng);
    const auto gsk = issuer.issue(grp, rng);
    const Bytes msg = rng.bytes(80);
    const auto sig = groupsig::sign(issuer.gpk(), gsk, msg, rng);
    m["groupsig.sign_ms"] = {
        per_call_us(4, 5,
                    [&] { keep(groupsig::sign(issuer.gpk(), gsk, msg, rng)); }) /
            1000.0,
        "ms"};
    m["groupsig.verify_prepared_ms"] = {
        per_call_us(4, 5,
                    [&] { keep(groupsig::verify_proof(pgpk, msg, sig)); }) /
            1000.0,
        "ms"};
    m["groupsig.prepare_bases_ms"] = {
        per_call_us(4, 5,
                    [&] {
                      keep(groupsig::prepare_bases(issuer.gpk(), msg, sig));
                    }) /
            1000.0,
        "ms"};
    // Marginal cost of one more token in a scan that finds no match: the
    // slope between a 4-token and a 20-token scan, so the per-scan constant
    // (shared Miller factor, batched easy part) cancels out.
    std::vector<groupsig::RevocationToken> url;
    for (int i = 0; i < 20; ++i) url.push_back({issuer.issue(grp, rng).a});
    const auto bases = groupsig::prepare_bases(issuer.gpk(), msg, sig);
    const auto scan_us = [&](std::size_t n) {
      return per_call_us(1, 5, [&] {
        const auto hit = groupsig::scan_tokens(
            bases, sig, std::span(url).first(n));
        if (hit != groupsig::TokenScan::npos)
          throw WrongOutput("calibration: foreign token matched");
      });
    };
    const double short_us = scan_us(4);
    m["groupsig.scan_ms_per_token"] = {(scan_us(20) - short_us) / 16.0 / 1000.0,
                                       "ms"};
  }

  // --- crypto: AEADs, hashing, key derivation --------------------------------
  {
    const Bytes key32 = rng.bytes(32), key16 = rng.bytes(16),
                nonce = rng.bytes(12), aad = rng.bytes(16);
    for (std::size_t size : {64u, 1400u}) {
      const Bytes pt = rng.bytes(size);
      const std::string s = std::to_string(size);
      m["crypto.chacha20poly1305_seal_us." + s] = {
          per_call_us(500, 7,
                      [&] { keep(crypto::aead_seal(key32, nonce, aad, pt)); }),
          "us"};
      m["crypto.aes128gcm_seal_us." + s] = {
          per_call_us(200, 7,
                      [&] { keep(crypto::aes_gcm_seal(key16, nonce, aad, pt)); }),
          "us"};
    }
    const Bytes kib = rng.bytes(1024);
    m["crypto.sha256_us.1k"] = {
        per_call_us(500, 7, [&] { keep(crypto::Sha256::hash(kib)); }), "us"};
    m["crypto.hkdf_us"] = {
        per_call_us(500, 7,
                    [&] { keep(crypto::hkdf(aad, key32, nonce, 64)); }),
        "us"};
  }

  // --- common: serde of every handshake message kind -------------------------
  {
    Deployment d(seed ^ 0xca11b, 4);
    const RouterSpec spec = d.provision(1);
    auto router = d.router(spec);
    auto alice = d.enroll("cal-alice");
    auto bob = d.enroll("cal-bob");
    const proto::Timestamp now = 1'000;
    const auto m1 = router->make_beacon(now);
    const auto m2 = alice.user->process_beacon(m1, now);
    expect(m2.has_value(), "calibration: beacon rejected");
    const auto m3 = router->handle_access_request(*m2, now);
    expect(m3.has_value(), "calibration: honest M.2 rejected");
    const auto pm1 = alice.user->make_peer_hello(m1.g, now);
    const auto pm2 = bob.user->process_peer_hello(pm1, now);
    expect(pm2.has_value(), "calibration: honest M~.1 rejected");
    const auto pm3 = alice.user->process_peer_reply(*pm2, now);
    expect(pm3.has_value(), "calibration: honest M~.2 rejected");
    const std::uint64_t url_before = d.no.current_url().version;
    d.no.revoke_user_key(bob.index, now);
    const auto ann = d.no.make_delta_announcement(
        d.no.current_crl().version, url_before);
    serde_row(m, "m1", 40, m1);
    serde_row(m, "m2", 40, *m2);
    serde_row(m, "m3", 200, m3->confirm);
    serde_row(m, "pm1", 40, pm1);
    serde_row(m, "pm2", 40, *pm2);
    serde_row(m, "pm3", 200, pm3->confirm);
    serde_row(m, "rl_announce", 100, ann);
  }
  return cal;
}

}  // namespace perfbench

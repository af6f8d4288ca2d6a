// E5 — three-way handshake cost (paper Sec. V.C: "minimal communication
// rounds necessary to achieve mutual authentication"). Full user-router
// (M.1 -> M.2 -> M.3) and user-user (M~.1 -> M~.2 -> M~.3) handshakes,
// end to end over serialized messages, against the non-anonymous baseline.
#include "bench_common.hpp"

#include "baseline/plain_auth.hpp"

namespace peace::bench {
namespace {

void BM_UserRouterHandshake(benchmark::State& state) {
  World& w = World::instance();
  proto::Timestamp now = 10'000;
  std::size_t wire_bytes = 0;
  for (auto _ : state) {
    now += 10'000;
    const auto beacon = w.router->make_beacon(now);
    auto m2 = w.user->process_beacon(
        proto::BeaconMessage::from_bytes(beacon.to_bytes()), now);
    auto outcome = w.router->handle_access_request(
        proto::AccessRequest::from_bytes(m2->to_bytes()), now + 1);
    auto session = w.user->process_access_confirm(
        proto::AccessConfirm::from_bytes(outcome->confirm.to_bytes()));
    benchmark::DoNotOptimize(session);
    wire_bytes = beacon.to_bytes().size() + m2->to_bytes().size() +
                 outcome->confirm.to_bytes().size();
  }
  state.counters["rounds"] = 3;
  state.counters["total_wire_bytes"] = static_cast<double>(wire_bytes);
}
BENCHMARK(BM_UserRouterHandshake)->Unit(benchmark::kMillisecond);

void BM_UserUserHandshake(benchmark::State& state) {
  World& w = World::instance();
  proto::User peer("peer", w.no.params(), crypto::Drbg::from_string("peer"));
  peer.complete_enrollment(w.gm.enroll("peer-bench", w.ttp));
  proto::Timestamp now = 10'000;
  std::size_t wire_bytes = 0;
  const auto g = curve::Bn254::get().g1_gen;
  for (auto _ : state) {
    now += 10'000;
    const auto hello = w.user->make_peer_hello(g, now);
    auto reply = peer.process_peer_hello(
        proto::PeerHello::from_bytes(hello.to_bytes()), now + 1);
    auto established = w.user->process_peer_reply(
        proto::PeerReply::from_bytes(reply->to_bytes()), now + 2);
    auto peer_session = peer.process_peer_confirm(
        proto::PeerConfirm::from_bytes(established->confirm.to_bytes()));
    benchmark::DoNotOptimize(peer_session);
    wire_bytes = hello.to_bytes().size() + reply->to_bytes().size() +
                 established->confirm.to_bytes().size();
  }
  state.counters["rounds"] = 3;
  state.counters["total_wire_bytes"] = static_cast<double>(wire_bytes);
}
BENCHMARK(BM_UserUserHandshake)->Unit(benchmark::kMillisecond);

void BM_PlainBaselineHandshake(benchmark::State& state) {
  // What the handshake costs WITHOUT anonymity: two ECDSA verifies, no
  // pairings — the price PEACE pays for privacy is the difference.
  curve::Bn254::init();
  crypto::Drbg rng = crypto::Drbg::from_string("e5-plain");
  baseline::PlainAuthority authority(crypto::Drbg::from_string("e5-auth"));
  const auto user = authority.issue_user("alice", ~0ull);
  const auto g = curve::Bn254::get().g1_gen;
  std::uint64_t now = 10'000;
  for (auto _ : state) {
    now += 10'000;
    const auto g_rj = g * curve::random_fr(rng);
    const auto g_rr = g * curve::random_fr(rng);
    const auto req = baseline::make_plain_request(user, g_rj, g_rr, now, rng);
    auto uid = baseline::verify_plain_request(
        authority, baseline::PlainAccessRequest::from_bytes(req.to_bytes()),
        now, 5000);
    benchmark::DoNotOptimize(uid);
  }
}
BENCHMARK(BM_PlainBaselineHandshake)->Unit(benchmark::kMillisecond);

void BM_BeaconGeneration(benchmark::State& state) {
  // Router-side per-period work: sign every beacon (Sec. V.C notes this
  // recurring cost).
  World& w = World::instance();
  proto::Timestamp now = 50'000'000;
  for (auto _ : state) {
    now += 1000;
    auto beacon = w.router->make_beacon(now);
    benchmark::DoNotOptimize(beacon);
  }
}
BENCHMARK(BM_BeaconGeneration)->Unit(benchmark::kMillisecond);

void BM_BeaconValidation(benchmark::State& state) {
  // User-side cost of process_beacon: the step 2.1 beacon checks
  // (certificate + CRL + signature) plus the M.2 build they lead to, on a
  // beacon that fails nothing. The router's make_beacon is not timed.
  World& w = World::instance();
  proto::User fresh("fresh", w.no.params(), crypto::Drbg::from_string("f"));
  fresh.complete_enrollment(w.gm.enroll("fresh-bench", w.ttp));
  proto::Timestamp now = 90'000'000;
  for (auto _ : state) {
    state.PauseTiming();
    now += 1000;
    const auto beacon = w.router->make_beacon(now);
    state.ResumeTiming();
    auto m2 = fresh.process_beacon(beacon, now);
    benchmark::DoNotOptimize(m2);
  }
}
BENCHMARK(BM_BeaconValidation)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace peace::bench

BENCHMARK_MAIN();

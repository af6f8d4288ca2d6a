// The benchmark's own self-test: proves that its admission output checks
// fire. A bit-flipped M.2 expected to be accepted must trip the honest
// check; a revoked user's M.2 must trip the revoked check while the wave
// has not landed, and pass it once it has.
#include <cstdio>

#include "harness.hpp"
#include "world.hpp"

namespace perfbench {

namespace {

/// True when check_verdicts rejects this admission (the check fired).
bool fires(proto::MeshRouter& router, const proto::AccessRequest& m2,
           Verdict expected, proto::Timestamp now) {
  const auto before = router.stats();
  const std::vector<proto::AccessRequest> batch = {
      proto::AccessRequest::from_bytes(m2.to_bytes())};
  const auto results = router.handle_access_requests(batch, now);
  try {
    check_verdicts(router, before, {expected}, results, "self-test");
    return false;
  } catch (const WrongOutput&) {
    return true;
  }
}

}  // namespace

int self_test(std::uint64_t seed) {
  Deployment d(seed, 4);
  auto router = d.router(d.provision(1));
  auto alice = d.enroll("alice");
  auto mallory = d.enroll("mallory");
  const proto::Timestamp t = 10'000;
  const auto beacon = router->make_beacon(t);
  const auto sign = [&](proto::User& u) {
    auto m2 = u.process_beacon(beacon, t + 1);
    expect(m2.has_value(), "self-test: honest beacon rejected");
    return *m2;
  };

  bool ok = true;
  const auto step = [&](const char* what, bool good) {
    std::printf("self-test: %-58s %s\n", what, good ? "ok" : "FAILED");
    ok = ok && good;
  };

  step("honest M.2 passes the honest check",
       !fires(*router, sign(*alice.user), Verdict::kAccept, t + 2));
  auto flipped = sign(*alice.user);
  flipped.ts2 ^= 1;  // one bit of the signed payload
  step("bit-flipped M.2 trips the honest check",
       fires(*router, flipped, Verdict::kAccept, t + 2));
  step("revoked M.2 before its wave trips the revoked check",
       fires(*router, sign(*mallory.user), Verdict::kRevoked, t + 2));

  const std::uint64_t url_before = d.no.current_url().version;
  d.no.revoke_user_key(mallory.index, t + 3);
  const auto ann = d.no.make_delta_announcement(d.no.current_crl().version,
                                                url_before);
  router->handle_rl_announce(proto::RLDeltaAnnounce::from_bytes(ann.to_bytes()));
  step("revoked M.2 after its wave passes the revoked check",
       !fires(*router, sign(*mallory.user), Verdict::kRevoked, t + 4));
  step("revoked M.2 after its wave trips the honest check",
       fires(*router, sign(*mallory.user), Verdict::kAccept, t + 4));
  std::printf("self-test: %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace perfbench

// Batched-equals-one-at-a-time cross-check for the user-user (M~.1/M~.2)
// batch path: a responder running process_peer_hellos — with or without a
// VerifyPool — must be bit-identical (replies, rng consumption,
// pending-session state, rejection behaviour) to a clone processing the
// same hellos one at a time.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "peace/router.hpp"
#include "peace/user.hpp"

namespace peace::proto {
namespace {

constexpr Timestamp kFarFuture = 1000ull * 86400 * 365;

class PeerBatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }

  PeerBatchTest() : no_(crypto::Drbg::from_string("pb-no")) {
    gm_ = std::make_unique<GroupManager>(no_.register_group("G", 16, ttp_));
    auto provision = no_.provision_router(1, kFarFuture);
    router_ = std::make_unique<MeshRouter>(
        1, provision.keypair, provision.certificate, no_.params(),
        crypto::Drbg::from_string("pb-router"));
    router_->install_revocation_lists(no_.current_crl(), no_.current_url());
  }

  std::unique_ptr<User> make_user(const std::string& uid,
                                  ProtocolConfig config = {}) {
    // Deterministic DRBG seeded by uid only: two users built with the same
    // uid are exact clones apart from `config`.
    auto user = std::make_unique<User>(uid, no_.params(),
                                       crypto::Drbg::from_string(uid), config);
    if (enrollments_.find(uid) == enrollments_.end())
      enrollments_.emplace(uid, gm_->enroll(uid, ttp_));
    user->complete_enrollment(enrollments_.at(uid));
    return user;
  }

  /// A mixed batch of hellos for a responder at local time 1110: valid ones
  /// from alice and carol, a tampered signature, a stale timestamp, and —
  /// once mallory is revoked — a hello whose URL scan must reject.
  std::vector<PeerHello> make_hellos(const BeaconMessage& beacon,
                                     User& alice, User& carol, User& mallory) {
    std::vector<PeerHello> hellos;
    hellos.push_back(alice.make_peer_hello(beacon.g, 1100));
    PeerHello tampered = carol.make_peer_hello(beacon.g, 1101);
    tampered.ts1 += 1;  // signature no longer covers the payload
    hellos.push_back(tampered);
    hellos.push_back(mallory.make_peer_hello(beacon.g, 1102));
    hellos.push_back(carol.make_peer_hello(beacon.g, 1000 - 60000));  // stale
    hellos.push_back(carol.make_peer_hello(beacon.g, 1103));
    return hellos;
  }

  NetworkOperator no_;
  TrustedThirdParty ttp_;
  std::unique_ptr<GroupManager> gm_;
  std::unique_ptr<MeshRouter> router_;
  std::map<std::string, GroupManager::Enrollment> enrollments_;
};

TEST_F(PeerBatchTest, PooledBatchBitIdenticalToSequential) {
  auto alice = make_user("alice");
  auto carol = make_user("carol");
  auto mallory = make_user("mallory");
  no_.revoke_user_key(enrollments_.at("mallory").index, 900);
  router_->install_revocation_lists(no_.current_crl(), no_.current_url());

  // Two clones of the responder: same uid seed, different thread counts.
  ProtocolConfig pooled_cfg;
  pooled_cfg.verify_threads = 4;
  auto sequential = make_user("bob");
  auto pooled = make_user("bob", pooled_cfg);

  // Both learn g and the URL (with mallory's token) from the same beacon.
  const BeaconMessage beacon = router_->make_beacon(1000);
  ASSERT_TRUE(sequential->process_beacon(beacon, 1000).has_value());
  ASSERT_TRUE(pooled->process_beacon(beacon, 1000).has_value());

  const std::vector<PeerHello> hellos =
      make_hellos(beacon, *alice, *carol, *mallory);
  std::vector<std::optional<PeerReply>> expect;
  for (const PeerHello& h : hellos)
    expect.push_back(sequential->process_peer_hello(h, 1110));
  const auto got = pooled->process_peer_hellos(hellos, 1110);

  // Only the two honest hellos produce replies; tampered, revoked, and
  // stale are rejected in both modes.
  ASSERT_EQ(expect.size(), got.size());
  ASSERT_TRUE(expect[0].has_value());
  EXPECT_FALSE(expect[1].has_value());
  EXPECT_FALSE(expect[2].has_value());
  EXPECT_FALSE(expect[3].has_value());
  ASSERT_TRUE(expect[4].has_value());
  for (std::size_t i = 0; i < hellos.size(); ++i) {
    ASSERT_EQ(expect[i].has_value(), got[i].has_value()) << i;
    if (expect[i].has_value()) {
      EXPECT_EQ(expect[i]->to_bytes(), got[i]->to_bytes()) << i;
    }
  }
  EXPECT_EQ(pooled->stats().peer_verify_batches, 1u);
  // The stale hello is weeded out by the sequential precheck pass and
  // never reaches the pool; the other four all enter the batch.
  EXPECT_EQ(pooled->stats().peer_batched_hellos, hellos.size() - 1);
  EXPECT_EQ(sequential->stats().peer_verify_batches, 0u);

  // Both responders hold working pending-session state: each initiator can
  // complete a handshake against one of them (a reply can only be consumed
  // once, so alice finishes with the pooled clone and carol with the
  // sequential one).
  auto est_alice = alice->process_peer_reply(*got[0], 1120);
  ASSERT_TRUE(est_alice.has_value());
  EXPECT_TRUE(pooled->process_peer_confirm(est_alice->confirm).has_value());
  auto est_carol = carol->process_peer_reply(*expect[4], 1120);
  ASSERT_TRUE(est_carol.has_value());
  EXPECT_TRUE(
      sequential->process_peer_confirm(est_carol->confirm).has_value());
  EXPECT_EQ(sequential->stats().peer_sessions_established,
            pooled->stats().peer_sessions_established);
}

/// verify_stage's two paths (batch of one vs BatchVerifier) crossed with
/// pool sizes on the responder side: (verify_threads, batch size).
class PeerBatchSweep
    : public PeerBatchTest,
      public ::testing::WithParamInterface<std::tuple<unsigned, std::size_t>> {
};

TEST_P(PeerBatchSweep, BatchMatchesOneAtATimeWithRevokedAndTampered) {
  const auto [threads, batch_size] = GetParam();
  std::vector<std::unique_ptr<User>> initiators;
  for (int i = 0; i < 10; ++i)
    initiators.push_back(make_user("peer-" + std::to_string(i)));
  const std::set<std::size_t> revoked = {1, 6};
  const std::set<std::size_t> tampered = {2, 7};
  for (const std::size_t i : revoked)
    no_.revoke_user_key(enrollments_.at(initiators[i]->uid()).index, 900);
  router_->install_revocation_lists(no_.current_crl(), no_.current_url());

  ProtocolConfig cfg;
  cfg.verify_threads = threads;
  auto batched = make_user("bob", cfg);
  auto reference = make_user("bob");
  const BeaconMessage beacon = router_->make_beacon(1000);
  ASSERT_TRUE(batched->process_beacon(beacon, 1000).has_value());
  ASSERT_TRUE(reference->process_beacon(beacon, 1000).has_value());

  std::vector<PeerHello> hellos;
  for (std::size_t i = 0; i < initiators.size(); ++i) {
    PeerHello hello = initiators[i]->make_peer_hello(beacon.g, 1100);
    if (tampered.contains(i)) hello.ts1 += 1;  // signature no longer covers it
    hellos.push_back(hello);
  }

  std::vector<std::optional<PeerReply>> got;
  for (std::size_t lo = 0; lo < hellos.size(); lo += batch_size) {
    const std::size_t n = std::min(batch_size, hellos.size() - lo);
    for (auto& reply :
         batched->process_peer_hellos(std::span(hellos).subspan(lo, n), 1110))
      got.push_back(std::move(reply));
  }
  ASSERT_EQ(got.size(), hellos.size());
  for (std::size_t i = 0; i < hellos.size(); ++i) {
    const auto expect = reference->process_peer_hello(hellos[i], 1110);
    ASSERT_EQ(got[i].has_value(), expect.has_value()) << i;
    EXPECT_EQ(got[i].has_value(),
              !revoked.contains(i) && !tampered.contains(i))
        << i;
    if (got[i].has_value()) {
      EXPECT_EQ(got[i]->to_bytes(), expect->to_bytes()) << i;
    }
  }
  EXPECT_EQ(batched->pending_peer_size(), reference->pending_peer_size());
  EXPECT_EQ(batched->resend_cache_size(), reference->resend_cache_size());
  EXPECT_EQ(batched->stats().peer_verify_batches,
            (hellos.size() + batch_size - 1) / batch_size);
  EXPECT_EQ(batched->stats().peer_batched_hellos, hellos.size());
  EXPECT_EQ(reference->stats().peer_verify_batches, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsBySize, PeerBatchSweep,
    ::testing::Combine(::testing::Values(0u, 4u),
                       ::testing::Values(std::size_t{2}, std::size_t{5})),
    [](const auto& info) {
      return "threads" + std::to_string(std::get<0>(info.param)) + "_batch" +
             std::to_string(std::get<1>(info.param));
    });

TEST_F(PeerBatchTest, SingletonAndEmptyBatchesSkipThePool) {
  auto alice = make_user("alice");
  ProtocolConfig pooled_cfg;
  pooled_cfg.verify_threads = 4;
  auto bob = make_user("bob", pooled_cfg);
  const BeaconMessage beacon = router_->make_beacon(1000);
  ASSERT_TRUE(bob->process_beacon(beacon, 1000).has_value());

  EXPECT_TRUE(bob->process_peer_hellos({}, 1110).empty());
  const PeerHello hello = alice->make_peer_hello(beacon.g, 1100);
  const auto replies =
      bob->process_peer_hellos(std::span(&hello, 1), 1110);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].has_value());
  // A batch of one is not worth a pool dispatch.
  EXPECT_EQ(bob->stats().peer_verify_batches, 0u);
  EXPECT_EQ(bob->stats().peer_batched_hellos, 0u);
}

TEST_F(PeerBatchTest, BatchScanPreparesBasesOncePerHello) {
  // The responder's URL scan (3 revoked tokens) prepares each hello's
  // bases exactly once; matches_token builds no per-token G2Prepared.
  for (const char* uid : {"r1", "r2", "r3"}) {
    auto u = make_user(uid);
    no_.revoke_user_key(enrollments_.at(uid).index, 900);
  }
  router_->install_revocation_lists(no_.current_crl(), no_.current_url());

  auto alice = make_user("alice");
  auto carol = make_user("carol");
  auto bob = make_user("bob");
  const BeaconMessage beacon = router_->make_beacon(1000);
  ASSERT_TRUE(bob->process_beacon(beacon, 1000).has_value());

  const std::vector<PeerHello> hellos = {
      alice->make_peer_hello(beacon.g, 1100),
      carol->make_peer_hello(beacon.g, 1101),
  };
  const std::uint64_t before = curve::g2_prepared_count();
  const auto replies = bob->process_peer_hellos(hellos, 1110);
  EXPECT_EQ(curve::g2_prepared_count() - before, hellos.size());
  for (const auto& r : replies) EXPECT_TRUE(r.has_value());
}

}  // namespace
}  // namespace peace::proto

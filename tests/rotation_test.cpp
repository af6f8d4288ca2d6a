// Membership renewal via group-master-key rotation (paper III.A; the
// Sec. V.A revocation argument "revoked users do not have any group private
// key currently in use due to group public key update" depends on it).
#include <gtest/gtest.h>

#include "peace/router.hpp"
#include "peace/user.hpp"

namespace peace::proto {
namespace {

constexpr Timestamp kFarFuture = 1000ull * 86400 * 365;

class RotationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }

  RotationTest() : no_(crypto::Drbg::from_string("rot-no")) {
    gm_ = std::make_unique<GroupManager>(no_.register_group("G", 4, ttp_));
    auto provision = no_.provision_router(1, kFarFuture);
    router_ = std::make_unique<MeshRouter>(
        1, provision.keypair, provision.certificate, no_.params(),
        crypto::Drbg::from_string("rot-router"));
    router_->install_revocation_lists(no_.current_crl(), no_.current_url());
  }

  bool try_connect(User& user, Timestamp now) {
    const auto beacon = router_->make_beacon(now);
    auto m2 = user.process_beacon(beacon, now);
    if (!m2.has_value()) return false;
    return router_->handle_access_request(*m2, now + 1).has_value();
  }

  NetworkOperator no_;
  TrustedThirdParty ttp_;
  std::unique_ptr<GroupManager> gm_;
  std::unique_ptr<MeshRouter> router_;
};

TEST_F(RotationTest, OldCredentialsDieWithTheOldKey) {
  User alice("alice", no_.params(), crypto::Drbg::from_string("rot-a"));
  alice.complete_enrollment(gm_->enroll("alice", ttp_));
  ASSERT_TRUE(try_connect(alice, 1000));

  no_.rotate_master_key(2000);
  router_->install_params(no_.params());
  router_->install_revocation_lists(no_.current_crl(), no_.current_url());
  EXPECT_EQ(no_.era_count(), 2u);

  // Alice's old credential no longer verifies against the new gpk.
  EXPECT_FALSE(try_connect(alice, 3000));
}

TEST_F(RotationTest, ReEnrolledUserWorksInNewEra) {
  User alice("alice", no_.params(), crypto::Drbg::from_string("rot-b"));
  alice.complete_enrollment(gm_->enroll("alice", ttp_));

  no_.rotate_master_key(2000);
  no_.reissue_group(*gm_, 4, ttp_);
  router_->install_params(no_.params());
  router_->install_revocation_lists(no_.current_crl(), no_.current_url());

  // Renewal: the user fetches the new parameters and re-enrolls through
  // the GM as at initial setup.
  alice.install_params(no_.params());
  EXPECT_TRUE(alice.enrolled_groups().empty());
  alice.complete_enrollment(gm_->enroll("alice", ttp_));
  EXPECT_TRUE(try_connect(alice, 3000));
}

TEST_F(RotationTest, RenewedUserSignsUnderTheNewKeyOnly) {
  // The user signs on prepared g2 / w lines; install_params must re-prepare
  // them, or the M.2 would carry an R2 bound to the retired w.
  User alice("alice", no_.params(), crypto::Drbg::from_string("rot-e"));
  alice.complete_enrollment(gm_->enroll("alice", ttp_));
  const groupsig::GroupPublicKey old_gpk = no_.params().gpk;

  no_.rotate_master_key(2000);
  no_.reissue_group(*gm_, 4, ttp_);
  router_->install_params(no_.params());
  router_->install_revocation_lists(no_.current_crl(), no_.current_url());
  alice.install_params(no_.params());
  alice.complete_enrollment(gm_->enroll("alice", ttp_));

  const auto m2 = alice.process_beacon(router_->make_beacon(3000), 3000);
  ASSERT_TRUE(m2.has_value());
  const Bytes payload = m2->signed_payload();
  EXPECT_TRUE(groupsig::verify_proof(no_.params().gpk, payload, m2->signature));
  EXPECT_FALSE(groupsig::verify_proof(old_gpk, payload, m2->signature));
}

TEST_F(RotationTest, StaleEnrollmentRejectedAfterRotation) {
  // An enrollment produced before the rotation cannot be completed against
  // the new parameters: the SDH check catches it.
  const auto old_enrollment = gm_->enroll("late-joiner", ttp_);
  no_.rotate_master_key(2000);
  User late("late-joiner", no_.params(), crypto::Drbg::from_string("rot-c"));
  EXPECT_THROW(late.complete_enrollment(old_enrollment), Error);
}

TEST_F(RotationTest, KeyIndicesStayUniqueAcrossEras) {
  no_.rotate_master_key(2000);
  no_.reissue_group(*gm_, 4, ttp_);
  // Fresh indices continue numbering; enrolling two users yields indices
  // from the new range (members 4..7), not colliding with era-0 (0..3).
  const auto e1 = gm_->enroll("u1", ttp_);
  EXPECT_GE(e1.index.member, 4u);
}

TEST_F(RotationTest, ArchivedSessionsRemainAuditable) {
  User alice("alice", no_.params(), crypto::Drbg::from_string("rot-d"));
  alice.complete_enrollment(gm_->enroll("alice", ttp_));
  const auto beacon = router_->make_beacon(1000);
  auto logged_m2 = alice.process_beacon(beacon, 1000);
  ASSERT_TRUE(logged_m2.has_value());

  no_.rotate_master_key(2000);
  // Audit of the pre-rotation session still resolves via the archived era.
  const auto audit = no_.audit(*logged_m2);
  ASSERT_TRUE(audit.has_value());
  EXPECT_EQ(audit->group_id, gm_->id());
  // And the full trace still works (GM keeps historical uid mappings).
  const auto traced = LawAuthority::trace(no_, {gm_.get()}, *logged_m2);
  ASSERT_TRUE(traced.has_value());
  EXPECT_EQ(traced->uid, "alice");
}

TEST_F(RotationTest, UrlResetsForNewEra) {
  User bad("bad", no_.params(), crypto::Drbg::from_string("rot-e"));
  const auto enrollment = gm_->enroll("bad", ttp_);
  bad.complete_enrollment(enrollment);
  no_.revoke_user_key(enrollment.index, 1500);
  EXPECT_EQ(no_.current_url().entries.size(), 1u);

  const auto old_version = no_.current_url().version;
  no_.rotate_master_key(2000);
  // New era: empty URL with a strictly higher version (no rollback).
  EXPECT_TRUE(no_.current_url().entries.empty());
  EXPECT_GT(no_.current_url().version, old_version);
}

TEST_F(RotationTest, CrossEraTokensNeverFalsePositive) {
  // Tokens from a previous era must not match new-era signatures (and the
  // check must not crash): the credential spaces are disjoint under
  // different gammas.
  User alice("alice", no_.params(), crypto::Drbg::from_string("rot-x"));
  alice.complete_enrollment(gm_->enroll("alice", ttp_));
  const groupsig::RevocationToken old_token{alice.credential(gm_->id()).a};

  no_.rotate_master_key(2000);
  no_.reissue_group(*gm_, 4, ttp_);
  User bob("bob", no_.params(), crypto::Drbg::from_string("rot-y"));
  bob.complete_enrollment(gm_->enroll("bob", ttp_));

  crypto::Drbg rng = crypto::Drbg::from_string("rot-z");
  const auto sig = groupsig::sign(no_.params().gpk, bob.credential(gm_->id()),
                                  as_bytes("m"), rng);
  EXPECT_TRUE(groupsig::verify_proof(no_.params().gpk, as_bytes("m"), sig));
  EXPECT_FALSE(groupsig::matches_token(no_.params().gpk, as_bytes("m"), sig,
                                       old_token));
}

TEST_F(RotationTest, UrlCompactionPolicy) {
  // Sec. V.C's URL size control: once the list is long enough that linear
  // Eq.3 scans dominate, a rotation resets it to empty.
  for (std::uint32_t j = 0; j < 3; ++j)
    no_.revoke_user_key(KeyIndex{gm_->id(), j}, 1000 + j);
  EXPECT_FALSE(no_.url_needs_compaction(4));
  EXPECT_TRUE(no_.url_needs_compaction(3));
  EXPECT_TRUE(no_.url_needs_compaction(2));

  no_.rotate_master_key(5000);
  EXPECT_FALSE(no_.url_needs_compaction(1));
  EXPECT_TRUE(no_.current_url().entries.empty());
}

TEST_F(RotationTest, MultipleRotations) {
  for (int era = 0; era < 3; ++era) {
    no_.rotate_master_key(1000 * (era + 2));
    no_.reissue_group(*gm_, 2, ttp_);
  }
  EXPECT_EQ(no_.era_count(), 4u);
  router_->install_params(no_.params());
  router_->install_revocation_lists(no_.current_crl(), no_.current_url());
  User fresh("fresh", no_.params(), crypto::Drbg::from_string("rot-f"));
  fresh.complete_enrollment(gm_->enroll("fresh", ttp_));
  EXPECT_TRUE(try_connect(fresh, 50'000));
}

}  // namespace
}  // namespace peace::proto

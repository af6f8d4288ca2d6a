// A small PEACE deployment built through the public entity API: one network
// operator (NO), a TTP, one user group and its GM, routers provisioned by
// the NO, and enrolled users. Every DRBG is derived from the run's seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "peace/router.hpp"
#include "peace/user.hpp"

namespace perfbench {

namespace proto = peace::proto;

/// Seeded DRBG for one named role of the deployment.
inline peace::crypto::Drbg drbg(std::uint64_t seed, const std::string& role) {
  return peace::crypto::Drbg::from_string("perfbench/" + role, seed);
}

struct EnrolledUser {
  std::unique_ptr<proto::User> user;
  proto::KeyIndex index;  // what the NO revokes to revoke this user
};

/// A provisioned router's long-term material. Building a MeshRouter from
/// the same spec twice gives the same keys and the same DRBG, so its
/// beacons repeat bit for bit: M.2s signed for the first instance verify
/// again against the second one's empty replay cache.
struct RouterSpec {
  proto::RouterId id = 0;
  peace::curve::EcdsaKeyPair keypair;
  proto::RouterCertificate certificate;
};

struct Deployment {
  Deployment(std::uint64_t seed, std::size_t group_keys);

  /// Enrolls a fresh user (GM allocation, TTP delivery, key check, receipt).
  EnrolledUser enroll(const std::string& uid, proto::ProtocolConfig config = {});

  RouterSpec provision(proto::RouterId id);

  /// `revocation` shares one snapshot state across a segment; null gives
  /// the router its own state, loaded with the NO's current lists.
  std::unique_ptr<proto::MeshRouter> router(
      const RouterSpec& spec, proto::ProtocolConfig config = {},
      std::shared_ptr<peace::revoke::SharedRevocationState> revocation = {})
      const;

  std::uint64_t seed;
  proto::NetworkOperator no;
  proto::TrustedThirdParty ttp;
  proto::GroupManager gm;
};

}  // namespace perfbench

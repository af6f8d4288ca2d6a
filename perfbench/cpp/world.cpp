#include "world.hpp"

namespace perfbench {

Deployment::Deployment(std::uint64_t seed_, std::size_t group_keys)
    : seed(seed_),
      no(drbg(seed_, "no")),
      gm(no.register_group("perfbench-group", group_keys, ttp)) {}

EnrolledUser Deployment::enroll(const std::string& uid,
                                proto::ProtocolConfig config) {
  EnrolledUser out;
  out.user = std::make_unique<proto::User>(uid, no.params(),
                                           drbg(seed, "user/" + uid), config);
  const auto enrollment = gm.enroll(uid, ttp);
  const auto receipt = out.user->complete_enrollment(enrollment);
  gm.record_receipt(enrollment, out.user->receipt_public_key(), receipt);
  out.index = enrollment.index;
  return out;
}

RouterSpec Deployment::provision(proto::RouterId id) {
  auto p = no.provision_router(id, ~proto::Timestamp{0});
  return RouterSpec{id, std::move(p.keypair), std::move(p.certificate)};
}

std::unique_ptr<proto::MeshRouter> Deployment::router(
    const RouterSpec& spec, proto::ProtocolConfig config,
    std::shared_ptr<peace::revoke::SharedRevocationState> revocation) const {
  const bool own_state = revocation == nullptr;
  auto r = std::make_unique<proto::MeshRouter>(
      spec.id, spec.keypair, spec.certificate, no.params(),
      drbg(seed, "router/" + std::to_string(spec.id)), config,
      std::move(revocation));
  if (own_state) r->install_revocation_lists(no.current_crl(), no.current_url());
  return r;
}

}  // namespace perfbench

// Shared setup for the experiment benches: a small PEACE deployment with
// one operator, one group, one router, and one enrolled user, plus the
// main() of the benches that write a default JSON report.
#pragma once

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "peace/router.hpp"
#include "peace/user.hpp"

namespace peace::bench {

struct World {
  World()
      : no(crypto::Drbg::from_string("bench-no")),
        gm(no.register_group("bench-group", 64, ttp)) {
    auto provision = no.provision_router(1, ~proto::Timestamp{0});
    router = std::make_unique<proto::MeshRouter>(
        1, provision.keypair, provision.certificate, no.params(),
        crypto::Drbg::from_string("bench-router"));
    router->install_revocation_lists(no.current_crl(), no.current_url());
    user = std::make_unique<proto::User>("bench-user", no.params(),
                                         crypto::Drbg::from_string("bench-u"));
    user->complete_enrollment(gm.enroll("bench-user", ttp));
  }

  static World& instance() {
    static World world = [] {
      curve::Bn254::init();
      return World();
    }();
    return world;
  }

  proto::NetworkOperator no;
  proto::TrustedThirdParty ttp;
  proto::GroupManager gm;
  std::unique_ptr<proto::MeshRouter> router;
  std::unique_ptr<proto::User> user;
};

/// BENCHMARK_MAIN, plus a default JSON report (`default_out` in the working
/// directory) when the caller didn't pick an output file.
inline int run_main(int argc, char** argv, const char* default_out) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = std::string("--benchmark_out=") + default_out;
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    has_out |= std::string_view(argv[i]).starts_with("--benchmark_out=");
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace peace::bench

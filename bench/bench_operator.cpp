// Operator key-issuance throughput (docs/ARCHITECTURE.md §8): members
// provisioned per second, end-to-end — SDH key issuance (amortized over
// 64-key batches), enrollment, the user's receipt signature, and the
// durable WAL append — measured with per-record fsync, with syncs
// batched, and against the in-memory operator as the no-durability
// baseline. Emits BENCH_operator.json for the CI bench artifacts.
#include <filesystem>
#include <optional>
#include <string>

#include "bench_common.hpp"
#include "peace/persist/control.hpp"
#include "peace/user.hpp"

namespace peace::bench {
namespace {

constexpr std::size_t kBatch = 64;

std::string scratch_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("peace-bench-" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

// One member, end-to-end: consume a key (reissuing a 64-key batch when the
// group runs dry), enroll, and archive the signed receipt.
void provision_member(persist::ControlPlane& cp, proto::GroupId gid,
                      std::uint64_t n) {
  if (cp.gm(gid).keys_remaining() == 0) cp.reissue_group(gid, kBatch);
  const std::string uid = "member-" + std::to_string(n);
  const auto enrollment = cp.enroll(gid, uid);
  proto::User user(uid, cp.no().params(),
                   crypto::Drbg::from_string("seed-" + uid));
  cp.record_receipt(enrollment, user.receipt_public_key(),
                    user.complete_enrollment(enrollment));
}

void run_durable(benchmark::State& state, bool sync_each_append,
                 const std::string& name) {
  curve::Bn254::init();
  const std::string dir = scratch_dir(name);
  persist::ControlPlaneOptions opts;
  opts.store.sync_each_append = sync_each_append;
  opts.snapshot_every = 1024;
  auto cp = persist::ControlPlane::create(
      dir, crypto::Drbg::from_string("bench-" + name), opts);
  const auto gid = cp.register_group("bench-riders", kBatch);
  std::uint64_t n = 0;
  for (auto _ : state) provision_member(cp, gid, n++);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["members_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["wal_records"] = static_cast<double>(cp.last_seq());
  std::filesystem::remove_all(dir);
}

void BM_MemberProvisionDurable(benchmark::State& state) {
  run_durable(state, /*sync_each_append=*/true, "durable");
}
BENCHMARK(BM_MemberProvisionDurable)->Unit(benchmark::kMillisecond);

void BM_MemberProvisionDurableNoSync(benchmark::State& state) {
  run_durable(state, /*sync_each_append=*/false, "nosync");
}
BENCHMARK(BM_MemberProvisionDurableNoSync)->Unit(benchmark::kMillisecond);

void BM_MemberProvisionInMemory(benchmark::State& state) {
  // The pre-§8 operator: same ceremony, no log — the durability overhead
  // baseline.
  curve::Bn254::init();
  proto::NetworkOperator no(crypto::Drbg::from_string("bench-mem"));
  proto::TrustedThirdParty ttp;
  proto::GroupManager gm = no.register_group("bench-riders", kBatch, ttp);
  std::uint64_t n = 0;
  for (auto _ : state) {
    if (gm.keys_remaining() == 0) no.reissue_group(gm, kBatch, ttp);
    const std::string uid = "member-" + std::to_string(n++);
    const auto enrollment = gm.enroll(uid, ttp);
    proto::User user(uid, no.params(), crypto::Drbg::from_string("seed-" + uid));
    gm.record_receipt(enrollment, user.receipt_public_key(),
                      user.complete_enrollment(enrollment));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["members_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MemberProvisionInMemory)->Unit(benchmark::kMillisecond);

void BM_OperatorRecover(benchmark::State& state) {
  // Restart cost for a site with `range` members on the books: newest
  // snapshot + chain-verified tail replay.
  curve::Bn254::init();
  const std::string dir = scratch_dir("recover");
  persist::ControlPlaneOptions opts;
  opts.snapshot_every = 64;
  {
    auto cp = persist::ControlPlane::create(
        dir, crypto::Drbg::from_string("bench-recover"), opts);
    const auto gid = cp.register_group("bench-riders", kBatch);
    for (std::uint64_t n = 0;
         n < static_cast<std::uint64_t>(state.range(0)); ++n)
      provision_member(cp, gid, n);
  }
  for (auto _ : state) {
    auto cp = persist::ControlPlane::recover(dir, opts);
    benchmark::DoNotOptimize(cp.last_seq());
  }
  state.counters["members"] = static_cast<double>(state.range(0));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_OperatorRecover)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace peace::bench

int main(int argc, char** argv) {
  return peace::bench::run_main(argc, argv, "BENCH_operator.json");
}

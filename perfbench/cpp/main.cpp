// peace_perfbench: runs one seeded workload of the PEACE deployment
// benchmark and prints two JSON lines: a detail line ({"perfbench": ...},
// host facts and every named figure) and the result line
// ({"correct", "attempted", "failed", "metrics"}). See perfbench/README.md.
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "curve/bn254.hpp"
#include "harness.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: peace_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "       peace_perfbench --self-test [--seed N]\n"
               "workloads: handshake flash_crowd revocation_wave "
               "session_stream\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") cfg.workload = value();
      else if (a == "--seed") cfg.seed = std::stoull(value());
      else if (a == "--seconds") cfg.seconds = std::stod(value());
      else if (a == "--trace") cfg.trace = std::stoi(value()) != 0;
      else if (a == "--self-test") self = true;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  cfg.threads = std::min(nproc, 4u);
  peace::curve::Bn254::init();

  if (self) return self_test(cfg.seed);

  Report rep;
  try {
    if (cfg.workload == "handshake") rep = run_handshake(cfg);
    else if (cfg.workload == "flash_crowd") rep = run_flash_crowd(cfg);
    else if (cfg.workload == "revocation_wave") rep = run_revocation_wave(cfg);
    else if (cfg.workload == "session_stream") rep = run_session_stream(cfg);
    else return usage();
  } catch (const WrongOutput& e) {
    std::fprintf(stderr, "perfbench: WRONG OUTPUT: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 4;
  }

  const double failed_ratio =
      rep.attempted ? static_cast<double>(rep.failed) / rep.attempted : 0.0;
  rep.layer["failed_ops_ratio"] = {failed_ratio, "ratio"};

  // Every catalogued metric of the requested kind is printed; per-layer
  // metrics a workload does not exercise read 0 and are listed as such.
  MetricTable out;
  Json not_exercised;
  const auto& catalog = cfg.trace ? layer_catalog() : e2e_catalog();
  const MetricTable& have = cfg.trace ? rep.layer : rep.e2e;
  for (const auto& [name, unit] : catalog) {
    const auto it = have.find(name);
    if (it == have.end()) {
      if (!cfg.trace) {
        std::fprintf(stderr, "perfbench: %s missing from %s\n", name.c_str(),
                     cfg.workload.c_str());
        return 4;
      }
      out[name] = {0, unit};
      not_exercised.boolean(name, true);
      continue;
    }
    if (it->second.unit != unit) {
      std::fprintf(stderr, "perfbench: unit mismatch for %s\n", name.c_str());
      return 4;
    }
    out[name] = it->second;
  }

  Json host;
  host.num("nproc", nproc)
      .num("pool_threads", cfg.threads)
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .boolean("peace_obs", PERFBENCH_OBS)
      .num("seed", static_cast<double>(cfg.seed))
      .num("seconds", cfg.seconds)
      .num("offered_rps", kFlashCrowdOfferedRps)
      .boolean("trace", cfg.trace);
  rep.named.obj("failed_ops_ratio",
                Json()
                    .num("value", failed_ratio)
                    .str("unit", "ratio")
                    .num("failed", static_cast<double>(rep.failed))
                    .num("attempted", static_cast<double>(rep.attempted)));
  Json detail;
  detail.str("workload", cfg.workload).obj("host", host).obj("named", rep.named);
  if (!rep.detail.empty()) detail.obj("detail", rep.detail);
  if (!not_exercised.empty()) detail.obj("not_exercised", not_exercised);
  std::printf("%s\n", Json().obj("perfbench", detail).dump().c_str());

  Json result;
  result.boolean("correct", true)
      .num("attempted", static_cast<double>(rep.attempted))
      .num("failed", static_cast<double>(rep.failed))
      .obj("metrics", metrics_json(out));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

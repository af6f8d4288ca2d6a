// Host-speed probe. The shared hosts this benchmark runs on change speed by
// tens of percent from one second to the next (frequency and neighbour
// load), which would swamp any change to the program. The probe times a
// fixed integer kernel that uses none of the program's code - a 4x4-limb
// multiply-accumulate chain, the instruction mix of the field arithmetic
// the program spends its time in - right next to each measured operation.
// A time is normalized by scaling it with (reference / probe)^exponent: the
// figure the operation would show on a host running the kernel at the
// reference speed. The exponent is the program's measured sensitivity to
// the kernel: when the kernel slows by 1.6x on the reference host, pairing
// work slows by about 1.35x (1.6^0.6), since the kernel is bound by the
// multiplier alone. kProbeExponent was fitted on Miller loops and then
// checked on each workload's figures; a workload that measured otherwise
// sets its own (perfbench/README.md, "Normalization"). Raw, unscaled
// figures stay in the detail line.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "util.hpp"

namespace perfbench {

/// Kernel time (µs) at the reference speed: about its median on a 4-core
/// x86-64 host at 2.1 GHz. Only scales the figures; any fixed value would do.
inline constexpr double kProbeReferenceUs = 18.0;
inline constexpr double kProbeExponent = 0.6;

/// The probe kernel: `iters` rounds of a 256x256-bit schoolbook product
/// folded back into its input. Never inlined, so the work is fixed by this
/// translation unit's flags alone.
[[gnu::noinline]] inline std::uint64_t probe_kernel(std::uint64_t seed,
                                                    int iters) {
  std::uint64_t a[4] = {seed, seed * 3 + 1, seed * 5 + 7, seed * 11 + 13};
  const std::uint64_t b[4] = {0x9e3779b97f4a7c15ull, 0xbf58476d1ce4e5b9ull,
                              0x94d049bb133111ebull, 0x2545f4914f6cdd1dull};
  for (int it = 0; it < iters; ++it) {
    std::uint64_t r[8] = {};
    for (int i = 0; i < 4; ++i) {
      unsigned __int128 c = 0;
      for (int j = 0; j < 4; ++j) {
        c += static_cast<unsigned __int128>(a[i]) * b[j] + r[i + j];
        r[i + j] = static_cast<std::uint64_t>(c);
        c >>= 64;
      }
      r[i + 4] = static_cast<std::uint64_t>(c);
    }
    for (int i = 0; i < 4; ++i) a[i] = r[i] ^ r[i + 4];
  }
  return a[0] ^ a[1] ^ a[2] ^ a[3];
}

class SpeedProbe {
 public:
  /// Times the kernel now (median of three short runs, ~0.1 ms in all).
  /// With `threads` > 1 it runs on that many threads at once and records
  /// their mean: the speed of a pool rather than of one core.
  void sample(unsigned threads = 1) {
    std::vector<double> per_thread(threads);
    // A pool probe runs long enough for the cores' clocks to settle under
    // all-core load, as they are while a batch runs.
    const int iters = threads > 1 ? 8 * kIters : kIters;
    const auto run = [&](unsigned t) { per_thread[t] = time_kernel(iters) * kIters / iters; };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t) pool.emplace_back(run, t);
    run(0);
    for (auto& th : pool) th.join();
    const double us = mean(per_thread);
    recent_.push_back(us);
    if (recent_.size() > kWindow) recent_.pop_front();
    all_.push_back(us);
  }

  /// (reference / median of the latest samples)^exponent: multiply a time
  /// measured now by this to normalize it. 1 before the first sample.
  double factor() const {
    if (recent_.empty()) return 1.0;
    std::vector<double> v(recent_.begin(), recent_.end());
    return std::pow(kProbeReferenceUs / median(v), exponent_);
  }

  /// Replaces kProbeExponent for a workload whose figures were measured to
  /// respond to the kernel differently. Set before the workload's set-up.
  void set_exponent(double e) { exponent_ = e; }

  /// Every sample of the run (µs), for the detail line.
  const std::vector<double>& samples() const { return all_; }

 private:
  /// Median of three timed kernel runs, in µs.
  static double time_kernel(int iters) {
    double t[3];
    std::uint64_t sink = 0;
    for (double& x : t) {
      const auto a = Clock::now();
      sink ^= probe_kernel(sink + 1, iters);
      x = ms_between(a, Clock::now()) * 1000.0;
    }
    sink_ += sink;
    std::sort(t, t + 3);
    return t[1];
  }

  static constexpr int kIters = 1000;
  static constexpr std::size_t kWindow = 3;
  double exponent_ = kProbeExponent;
  std::deque<double> recent_;
  std::vector<double> all_;
  static inline std::atomic<std::uint64_t> sink_{0};  // keeps the kernel live
};

/// The process-wide probe every workload samples.
inline SpeedProbe& probe() {
  static SpeedProbe p;
  return p;
}

}  // namespace perfbench

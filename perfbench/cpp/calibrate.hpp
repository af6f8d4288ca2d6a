// In-run calibration: unit costs of the lower layers (math, curve, groupsig,
// crypto, common serde) timed through their public functions in the same
// process as the workload, plus the count x unit-cost model built on them.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "util.hpp"

namespace perfbench {

struct Calibration {
  MetricTable metrics;  // math.* / curve.*_us / groupsig.*_ms / crypto.* / common.*

  /// Predicted wall time (ms) of work whose registry counts are `counts`
  /// (per-op curve.* deltas): Miller loops, final exponentiations and
  /// G1/G2 scalar multiplications (one per GLV/GLS decomposition) priced
  /// at their calibrated unit costs. Everything else is what the model
  /// misses, and shows up as curve.model_residual_pct.
  double model_ms(const std::map<std::string, double>& counts) const;

  double miller_us = 0, final_exp_us = 0, g1_mul_us = 0, g2_mul_us = 0;
};

Calibration calibrate(std::uint64_t seed);

}  // namespace perfbench

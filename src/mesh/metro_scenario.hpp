// The metro_city scenario: one simulated day of a sharded metropolitan
// deployment — commute waves that roam users between segments, a stadium
// flash crowd that slams one shard, and rolling revocation waves from the
// operator.
//
// Every simulated user is a real proto::User (default 64, spread over the
// shards) running the full PEACE protocol: BN254 enrollment, anonymous
// access handshakes, roaming re-authentication across shards, revocation
// checks. Nothing is modeled as a head count, so every handshake the
// report counts was signed and verified (docs/ARCHITECTURE.md §7.4).
//
// Everything — user credentials, handshakes, wave timing — derives from
// MetroCityConfig::seed, so a run is bit-reproducible.
#pragma once

#include <string>

#include "mesh/metro.hpp"
#include "peace/entities.hpp"

namespace peace::obs {
class HealthMonitor;
}

namespace peace::mesh {

struct MetroCityConfig {
  std::size_t shards = 8;
  /// Real-crypto residents (full PEACE protocol), spread over the shards.
  std::size_t cohort_users = 64;
  SimTime day_ms = 86'400'000;  // one simulated day
  SimTime tick_ms = 500;        // metro barrier spacing
  std::uint64_t shard_event_budget = 10'000'000;
  std::string seed = "metro-city";
  /// Rolling revocation waves pushed by the operator across the day.
  unsigned revocation_waves = 4;
  /// Stadium flash crowd at midday (a quarter of the cohort roams there).
  bool flash_crowd = true;
  /// Radio loss for every segment.
  double loss_probability = 0.02;
  /// Online anomaly detection: when non-null, attached to the metro driver
  /// for the whole day (drained + ticked at every barrier). Observer only.
  obs::HealthMonitor* health = nullptr;
  /// Chaos injection: a midday burst of forged M.2s (valid-looking group
  /// signatures broken post-signing) slammed at the stadium shard's router
  /// in one batch — exercising batch bisection attribution and the
  /// forgery_spike detector.
  bool forgery_burst = false;
  std::size_t forgery_burst_size = 48;
  /// Chaos injection: a revoked credential ("the mole") replays valid
  /// handshakes at downtown after its key lands on the URL — exercising
  /// revocation scanning and the revocation_storm detector.
  bool revoked_burst = false;
  std::size_t revoked_burst_size = 24;
};

struct MetroCityReport {
  std::size_t shards = 0;
  std::size_t cohort_users = 0;
  std::size_t cohort_connected = 0;  // cohort uplinks live at day end
  std::uint64_t cohort_roams = 0;    // cross-shard roam_user calls issued
  SimTime sim_ms = 0;
  double wall_seconds = 0;
  std::uint64_t events = 0;          // summed over shard simulators
  std::uint64_t handshakes = 0;      // accepted M.2s (Σ RouterStats::accepted)
  unsigned revocation_waves = 0;
  std::uint64_t url_version = 0;     // max URL version any shard reached
  std::uint64_t health_alerts = 0;   // HealthMonitor firings (0 = detached)
  MetroStats metro;
  NetworkStats net;

  double handshakes_per_wall_second() const {
    return wall_seconds > 0 ? static_cast<double>(handshakes) / wall_seconds
                            : 0;
  }
  double wall_us_per_event() const {
    return events > 0 ? wall_seconds * 1e6 / static_cast<double>(events) : 0;
  }
};

/// Runs one full simulated day and returns the report. Throws Error if a
/// shard exhausts its event budget (the error names the shard).
MetroCityReport run_metro_city(const MetroCityConfig& config);

}  // namespace peace::mesh

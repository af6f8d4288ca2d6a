// Windowed shard health and online anomaly detection
// (docs/OBSERVABILITY.md §4.2–§4.3): WindowStats bucket/EWMA semantics and
// order-independent merging, HealthMonitor detector arms / cooldown /
// alert-log bounds, and the end-to-end regression: a seeded metro day with
// a forgery burst and a revoked mole must raise alerts naming the right
// shard and event kind.
#include "obs/health.hpp"

#include <gtest/gtest.h>

#include "mesh/metro_scenario.hpp"
#include "obs/trace.hpp"

namespace peace::obs {
namespace {

SecEvent ev(SecEventKind kind, std::uint32_t shard, std::uint64_t sim_ms) {
  SecEvent e;
  e.kind = kind;
  e.shard = shard;
  e.sim_ms = sim_ms;
  return e;
}

WindowOptions small_window() {
  WindowOptions w;
  w.bucket_ms = 1'000;
  w.buckets = 4;
  w.ewma_alpha = 0.5;
  return w;
}

TEST(WindowStatsTest, WindowCountAndRate) {
  WindowStats w(small_window());
  w.add(1, SecEventKind::kAuthReject, 100);
  w.add(1, SecEventKind::kAuthReject, 900, 2);
  w.add(1, SecEventKind::kAuthReject, 2'500);
  w.add(2, SecEventKind::kReplayDetected, 2'500);
  EXPECT_EQ(w.window_count(1, SecEventKind::kAuthReject), 4u);
  EXPECT_EQ(w.window_count(1, SecEventKind::kReplayDetected), 0u);
  EXPECT_EQ(w.window_count(2, SecEventKind::kReplayDetected), 1u);
  EXPECT_EQ(w.window_count(3, SecEventKind::kAuthReject), 0u);
  EXPECT_DOUBLE_EQ(w.rate_per_s(1, SecEventKind::kAuthReject), 1.0);
  EXPECT_EQ(w.shards(), (std::vector<std::uint32_t>{1, 2}));
  // The window slides: once the newest bucket is index 4, bucket 0 (the
  // three events before t=1000) falls off the 4-bucket window.
  w.add(1, SecEventKind::kAuthReject, 4'500);
  EXPECT_EQ(w.window_count(1, SecEventKind::kAuthReject), 2u);
}

TEST(WindowStatsTest, EwmaLagsTheOpenBucket) {
  WindowStats w(small_window());
  w.add(1, SecEventKind::kAuthReject, 500, 2);
  EXPECT_DOUBLE_EQ(w.ewma(1, SecEventKind::kAuthReject), 0.0);
  // roll_to(1000) closes bucket 0: ewma = 0.5 * 2.
  w.roll_to(1'000);
  EXPECT_DOUBLE_EQ(w.ewma(1, SecEventKind::kAuthReject), 1.0);
  // A spike in the open bucket is counted but NOT folded: a spike is
  // compared against the baseline that existed before it.
  w.add(1, SecEventKind::kAuthReject, 1'500, 10);
  EXPECT_EQ(w.window_count(1, SecEventKind::kAuthReject), 12u);
  EXPECT_DOUBLE_EQ(w.ewma(1, SecEventKind::kAuthReject), 1.0);
}

TEST(WindowStatsTest, IdleGapDecaysEwmaAndEmptiesWindow) {
  WindowStats w(small_window());
  w.add(1, SecEventKind::kAuthReject, 500, 8);
  w.roll_to(1'000);
  const double busy = w.ewma(1, SecEventKind::kAuthReject);
  ASSERT_GT(busy, 0.0);
  // A long idle stretch folds as zero-count buckets: the baseline decays
  // and the stale buckets drop out of the trailing window entirely.
  w.roll_to(60'000);
  EXPECT_LT(w.ewma(1, SecEventKind::kAuthReject), busy * 1e-6);
  EXPECT_EQ(w.window_count(1, SecEventKind::kAuthReject), 0u);
}

TEST(WindowStatsTest, MergeOrderIndependence) {
  // Per-shard windows merge at the barrier like the PR 7 stats merges:
  // bucket-wise sums over absolute indices, so any merge order agrees.
  const auto build = [](std::uint32_t shard_bias) {
    WindowStats w(small_window());
    w.add(shard_bias, SecEventKind::kAuthReject, 500, 3);
    w.add(7, SecEventKind::kRevocationHit, 1'500, 2);
    w.add(7, SecEventKind::kAuthReject, 2'200);
    return w;
  };
  const WindowStats a = build(1);
  const WindowStats b = build(2);
  WindowStats ab(small_window());
  ab.merge(a);
  ab.merge(b);
  WindowStats ba(small_window());
  ba.merge(b);
  ba.merge(a);
  for (const std::uint32_t shard : {1u, 2u, 7u}) {
    for (std::size_t k = 0; k < kSecEventKindCount; ++k) {
      const auto kind = static_cast<SecEventKind>(k);
      EXPECT_EQ(ab.window_count(shard, kind), ba.window_count(shard, kind))
          << "shard " << shard << " kind " << sec_event_name(kind);
    }
  }
  EXPECT_EQ(ab.window_count(7, SecEventKind::kRevocationHit), 4u);
  EXPECT_EQ(ab.window_count(7, SecEventKind::kAuthReject), 2u);
  EXPECT_EQ(ab.window_count(1, SecEventKind::kAuthReject), 3u);
}

HealthMonitorOptions tight_monitor(std::vector<HealthRule> rules,
                                   std::uint64_t cooldown_ms = 10'000,
                                   std::size_t log_cap = 1024) {
  HealthMonitorOptions o;
  o.window = small_window();
  o.eval_every_ms = 1'000;
  o.cooldown_ms = cooldown_ms;
  o.alert_log_cap = log_cap;
  o.rules = std::move(rules);
  return o;
}

TEST(HealthMonitorTest, ThresholdRuleNamesShardAndKind) {
  HealthMonitor m(tight_monitor(
      {{SecEventKind::kReplayDetected, "replay_storm", 5, 0, 0}}));
  for (int i = 0; i < 6; ++i)
    m.ingest(ev(SecEventKind::kReplayDetected, 2, 500));
  // A quieter shard stays below the bar and must not fire.
  m.ingest(ev(SecEventKind::kReplayDetected, 3, 500));
  m.tick(1'000);
  ASSERT_EQ(m.alerts_total(), 1u);
  ASSERT_EQ(m.alerts().size(), 1u);
  const HealthAlert& a = m.alerts().front();
  EXPECT_EQ(a.shard, 2u);
  EXPECT_EQ(a.kind, SecEventKind::kReplayDetected);
  EXPECT_STREQ(a.rule, "threshold");
  EXPECT_STREQ(a.label, "replay_storm");
  EXPECT_EQ(a.window_count, 6u);
  EXPECT_EQ(m.snapshot(2).alerts, 1u);
  EXPECT_EQ(m.snapshot(3).alerts, 0u);
  EXPECT_EQ(m.events_ingested(), 7u);
}

TEST(HealthMonitorTest, CooldownSuppressesSustainedStorm) {
  HealthMonitor m(tight_monitor(
      {{SecEventKind::kReplayDetected, "replay_storm", 5, 0, 0}}));
  for (int i = 0; i < 6; ++i)
    m.ingest(ev(SecEventKind::kReplayDetected, 2, 500));
  m.tick(1'000);
  EXPECT_EQ(m.alerts_total(), 1u);
  // The storm keeps raging through the 10 s cooldown: one alert, not ten.
  for (std::uint64_t t = 2'000; t <= 10'000; t += 1'000) {
    for (int i = 0; i < 6; ++i)
      m.ingest(ev(SecEventKind::kReplayDetected, 2, t - 500));
    m.tick(t);
  }
  EXPECT_EQ(m.alerts_total(), 1u);
  // Past the refractory period it may (and does) fire again.
  for (int i = 0; i < 6; ++i)
    m.ingest(ev(SecEventKind::kReplayDetected, 2, 11'500));
  m.tick(12'000);
  EXPECT_EQ(m.alerts_total(), 2u);
}

TEST(HealthMonitorTest, EwmaRuleFiresOnDeviationNotOnBaseline) {
  HealthMonitor m(tight_monitor(
      {{SecEventKind::kAuthReject, "auth_reject_burst", 0, 3.0, 4}}));
  // Steady 1 event/bucket baseline: window_count ≈ buckets × 1, EWMA → 1,
  // so the 3× deviation arm stays quiet.
  for (std::uint64_t t = 500; t < 10'000; t += 1'000) {
    m.ingest(ev(SecEventKind::kAuthReject, 1, t));
    m.tick(t + 500);
  }
  EXPECT_EQ(m.alerts_total(), 0u);
  // A 20-event spike runs far hotter than 3× the folded baseline. The
  // evaluation lands while the spike's bucket is still open, so the EWMA
  // it compares against is the pre-spike baseline.
  for (int i = 0; i < 20; ++i)
    m.ingest(ev(SecEventKind::kAuthReject, 1, 11'500));
  m.tick(11'900);
  ASSERT_EQ(m.alerts_total(), 1u);
  const HealthAlert& a = m.alerts().front();
  EXPECT_STREQ(a.rule, "ewma");
  EXPECT_EQ(a.shard, 1u);
  EXPECT_GT(a.ewma, 0.0);
}

TEST(HealthMonitorTest, AlertLogIsCappedButTotalsKeepCounting) {
  // cooldown 0 => the same storm re-fires every evaluation; a cap of 2
  // keeps the log bounded while alerts_total/alerts_dropped keep counting.
  HealthMonitor m(tight_monitor(
      {{SecEventKind::kInboxShed, "shed_saturation", 3, 0, 0}},
      /*cooldown_ms=*/0, /*log_cap=*/2));
  for (std::uint64_t t = 1'000; t <= 5'000; t += 1'000) {
    for (int i = 0; i < 4; ++i)
      m.ingest(ev(SecEventKind::kInboxShed, 0, t - 500));
    m.tick(t);
  }
  EXPECT_EQ(m.alerts_total(), 5u);
  EXPECT_EQ(m.alerts().size(), 2u);
  EXPECT_EQ(m.alerts_dropped(), 3u);
  // summary_json keeps the invariant health_report.py --validate checks:
  // len(alert_log) + alerts_dropped == alerts.
  const std::string json = m.summary_json();
  EXPECT_NE(json.find("\"schema\": \"peace.health.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"alerts\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"alerts_dropped\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"shed_saturation\""), std::string::npos);
}

TEST(HealthMonitorTest, AlertsRideTheEventStreamAndPublishGauges) {
  const std::uint64_t alerts_before =
      sec_event_count(SecEventKind::kHealthAlert);
  HealthMonitor m(tight_monitor(
      {{SecEventKind::kRevocationHit, "revocation_storm", 2, 0, 0}}));
  for (int i = 0; i < 3; ++i)
    m.ingest(ev(SecEventKind::kRevocationHit, 5, 500));
  m.tick(1'000);
  ASSERT_EQ(m.alerts_total(), 1u);
  // The firing emitted a health_alert onto the same stream the raw events
  // ride (the always-on per-kind counter sees it even under PEACE_OBS=OFF).
  EXPECT_EQ(sec_event_count(SecEventKind::kHealthAlert), alerts_before + 1);
  // A monitor never reacts to its own output.
  m.ingest(ev(SecEventKind::kHealthAlert, 5, 1'001));
  EXPECT_EQ(m.events_ingested(), 3u);
  Registry& reg = Registry::global();
  reg.reset();
  m.publish(reg);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"health.alerts\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"health.s5.alerts\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"health.s5.revocation_hit.window\": 3"),
            std::string::npos);
  reg.reset();
  obs::drain_sec_events();
  Tracer::global().clear();
}

#ifndef PEACE_OBS_DISABLED

class MetroHealthTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }
};

TEST_F(MetroHealthTest, ChaosBurstsRaiseAlertsNamingShardAndKind) {
  // The acceptance regression: a seeded metro day with a midday forged-M.2
  // burst at the stadium shard and a revoked mole replaying at downtown
  // must produce health_alert events attributing the right shard and the
  // right underlying kind.
  mesh::MetroCityConfig config;
  config.shards = 4;
  config.cohort_users = 8;
  config.day_ms = 8'640'000;  // a tenth of a day keeps the test quick
  config.revocation_waves = 2;
  config.seed = "health-regression";
  config.forgery_burst = true;
  config.revoked_burst = true;
  HealthMonitor monitor;
  config.health = &monitor;
  obs::enable(true);
  const mesh::MetroCityReport report = mesh::run_metro_city(config);
  obs::enable(false);
  obs::drain_sec_events();
  Tracer::global().clear();

  EXPECT_EQ(report.health_alerts, monitor.alerts_total());
  ASSERT_GT(monitor.alerts_total(), 0u);
  const auto stadium = static_cast<std::uint32_t>(config.shards - 1);
  bool forgery_at_stadium = false;
  bool revocation_at_downtown = false;
  for (const HealthAlert& a : monitor.alerts()) {
    if (a.kind == SecEventKind::kBatchForgeryAttributed && a.shard == stadium)
      forgery_at_stadium = true;
    if (a.kind == SecEventKind::kRevocationHit && a.shard == 0)
      revocation_at_downtown = true;
    // No detector may blame a shard that doesn't exist.
    EXPECT_LT(a.shard, config.shards);
  }
  EXPECT_TRUE(forgery_at_stadium)
      << "no forgery_spike alert attributed to the stadium shard";
  EXPECT_TRUE(revocation_at_downtown)
      << "no revocation_storm alert attributed to downtown";
}

#endif  // PEACE_OBS_DISABLED

}  // namespace
}  // namespace peace::obs

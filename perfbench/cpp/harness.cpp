#include "harness.hpp"

#include <algorithm>

namespace perfbench {

const std::vector<CatalogEntry>& e2e_catalog() {
  static const std::vector<CatalogEntry> kE2e = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"goodput_per_s", "1/s"},
  };
  return kE2e;
}

const std::vector<CatalogEntry>& layer_catalog() {
  static const std::vector<CatalogEntry> kLayer = [] {
    std::vector<CatalogEntry> v = {
        {"peace.make_beacon_ms", "ms"},
        {"peace.process_beacon_ms", "ms"},
        {"peace.handle_access_request_ms", "ms"},
        {"peace.process_access_confirm_ms", "ms"},
        {"peace.make_peer_hello_ms", "ms"},
        {"peace.process_peer_hello_ms", "ms"},
        {"peace.process_peer_reply_ms", "ms"},
        {"peace.process_peer_confirm_ms", "ms"},
        {"peace.handshake_residual_pct", "%"},
        {"peace.admit_batch_ms", "ms"},
        {"peace.admit_per_req_ms", "ms"},
        {"peace.admit_batch_size", "count"},
        {"peace.admit_queue_wait_ms", "ms"},
        {"peace.admit_queue_depth_max", "count"},
        {"peace.admit_busy_frac", "ratio"},
        {"peace.generator_late_ms", "ms"},
        {"peace.accept_ratio", "ratio"},
        {"peace.rejected_revoked", "1/req"},
        {"peace.rejected_bad_signature", "1/req"},
        {"peace.rejected_stale", "1/req"},
        {"peace.rejected_replay", "1/req"},
        {"peace.revoke_user_key_ms", "ms"},
        {"peace.announce_build_ms", "ms"},
        {"peace.handle_rl_announce_ms", "ms"},
        {"peace.rl_snapshots_published", "1/wave"},
        {"peace.rl_deltas_stale", "1/wave"},
        {"pool.jobs_per_req", "1/req"},
        {"pool.batches", "1/call"},
        {"pool.job_busy_ms", "ms/req"},
        {"pool.idle_frac", "ratio"},
        {"groupsig.verify_exp_per_req", "1/req"},
        {"groupsig.verify_pairings_per_req", "1/req"},
        {"groupsig.verifications_per_req", "1/req"},
        {"groupsig.batched_req_frac", "ratio"},
        {"groupsig.batch.prepare_ms", "ms"},
        {"groupsig.batch.fold_ms", "ms"},
        {"groupsig.batch.finalize_ms", "ms"},
        {"groupsig.batch.leaf_count", "1/batch"},
        {"groupsig.sign_ms", "ms"},
        {"groupsig.verify_prepared_ms", "ms"},
        {"groupsig.prepare_bases_ms", "ms"},
        {"groupsig.scan_ms_per_token", "ms"},
    };
    for (const char* c : kCurveCounters) v.push_back({c, "1/op"});
    for (const char* n :
         {"curve.miller_loop_us", "curve.final_exp_us", "curve.g1_mul_us",
          "curve.g2_mul_us", "curve.ecdsa_sign_us", "curve.ecdsa_verify_us",
          "curve.hash_to_g1_us", "curve.g1_decode_us"})
      v.push_back({n, "us"});
    v.push_back({"curve.model_residual_pct", "%"});
    v.push_back({"math.fp_mul_ns", "ns"});
    v.push_back({"math.fp_inv_ns", "ns"});
    v.push_back({"math.fp12_mul_ns", "ns"});
    for (const char* n :
         {"crypto.chacha20poly1305_seal_us.64",
          "crypto.chacha20poly1305_seal_us.1400", "crypto.aes128gcm_seal_us.64",
          "crypto.aes128gcm_seal_us.1400", "crypto.sha256_us.1k",
          "crypto.hkdf_us"})
      v.push_back({n, "us"});
    for (const char* n :
         {"peace.session_seal_us.chacha.64", "peace.session_seal_us.chacha.1400",
          "peace.session_seal_us.gcm.64", "peace.session_seal_us.gcm.1400",
          "peace.session_open_us.chacha.64", "peace.session_open_us.chacha.1400",
          "peace.session_open_us.gcm.64", "peace.session_open_us.gcm.1400"})
      v.push_back({n, "us"});
    static const char* const kKinds[] = {"m1",  "m2",  "m3",         "pm1",
                                         "pm2", "pm3", "rl_announce"};
    for (const std::string k : kKinds) {
      v.push_back({"common.encode_us." + k, "us"});
      v.push_back({"common.decode_us." + k, "us"});
      v.push_back({"common.wire_bytes." + k, "B"});
    }
    v.push_back({"obs.trace_overhead_pct", "%"});
    v.push_back({"failed_ops_ratio", "ratio"});
    return v;
  }();
  return kLayer;
}

std::map<std::string, SpanStats> traced(const std::function<void()>& fn) {
  auto& tracer = peace::obs::Tracer::global();
  tracer.clear();
  peace::obs::enable(true);
  fn();
  peace::obs::enable(false);
  auto spans = span_report(tracer.events());
  tracer.clear();
  return spans;
}

void put_latency(Report& r, const std::string& name,
                 const std::vector<double>& ms, double tail_cap) {
  const Tail t = tail_of(ms, tail_cap);
  r.named.obj(name + "_p50_ms", Json().num("value", median(ms)).str("unit", "ms"));
  r.named.obj(name + "_tail_ms",
              Json()
                  .num("value", t.value)
                  .str("unit", "ms")
                  .num("percentile", t.percentile)
                  .num("samples", static_cast<double>(t.samples)));
}

void AdmissionTally::add(const peace::proto::RouterStats& b,
                         const peace::proto::RouterStats& a,
                         const peace::groupsig::OpCounters& ob,
                         const peace::groupsig::OpCounters& oa) {
  received += a.requests_received - b.requests_received;
  accepted += a.accepted - b.accepted;
  rejected_revoked += a.rejected_revoked - b.rejected_revoked;
  rejected_bad_signature += a.rejected_bad_signature - b.rejected_bad_signature;
  rejected_stale += a.rejected_stale - b.rejected_stale;
  rejected_replay += a.rejected_replay - b.rejected_replay;
  signature_verifications +=
      a.signature_verifications - b.signature_verifications;
  batched_requests += a.batched_requests - b.batched_requests;
  ops.g1_exp += oa.g1_exp - ob.g1_exp;
  ops.g2_exp += oa.g2_exp - ob.g2_exp;
  ops.gt_exp += oa.gt_exp - ob.gt_exp;
  ops.pairings += oa.pairings - ob.pairings;
  ops.hash_to_group += oa.hash_to_group - ob.hash_to_group;
}

void admission_layer_metrics(const AdmissionTally& t,
                             const std::map<std::string, SpanStats>& spans,
                             double traced_requests, MetricTable& out) {
  const double n = std::max<double>(1.0, static_cast<double>(t.received));
  const auto leaf = spans.find("batch.leaf");
  const double leaf_rechecks =
      leaf == spans.end() ? 0.0
                          : static_cast<double>(leaf->second.count) * n /
                                std::max(1.0, traced_requests);
  out["peace.accept_ratio"] = {static_cast<double>(t.accepted) / n, "ratio"};
  out["peace.rejected_revoked"] = {static_cast<double>(t.rejected_revoked) / n,
                                   "1/req"};
  out["peace.rejected_bad_signature"] = {
      static_cast<double>(t.rejected_bad_signature) / n, "1/req"};
  out["peace.rejected_stale"] = {static_cast<double>(t.rejected_stale) / n,
                                 "1/req"};
  out["peace.rejected_replay"] = {static_cast<double>(t.rejected_replay) / n,
                                  "1/req"};
  out["groupsig.verify_exp_per_req"] = {
      static_cast<double>(t.ops.total_exp()) / n, "1/req"};
  out["groupsig.verify_pairings_per_req"] = {
      static_cast<double>(t.ops.pairings) / n, "1/req"};
  out["groupsig.verifications_per_req"] = {
      (static_cast<double>(t.signature_verifications) + leaf_rechecks) / n,
      "1/req"};
  out["groupsig.batched_req_frac"] = {
      static_cast<double>(t.batched_requests) / n, "ratio"};
}

void curve_layer_metrics(const std::map<std::string, double>& counts,
                         double ops, double measured_ms_per_op,
                         const Calibration& cal, MetricTable& out) {
  ops = std::max(ops, 1.0);
  std::map<std::string, double> per_op;
  for (const char* c : kCurveCounters) {
    const auto it = counts.find(c);
    per_op[c] = (it == counts.end() ? 0.0 : it->second) / ops;
    out[c] = {per_op[c], "1/op"};
  }
  const double model = cal.model_ms(per_op);
  out["curve.model_residual_pct"] = {
      measured_ms_per_op > 0
          ? 100.0 * (measured_ms_per_op - model) / measured_ms_per_op
          : 0.0,
      "%"};
}

void span_layer_metrics(const std::map<std::string, SpanStats>& spans,
                        double requests, unsigned threads, MetricTable& out) {
  const auto get = [&](const char* name) -> const SpanStats* {
    const auto it = spans.find(name);
    return it == spans.end() ? nullptr : &it->second;
  };
  requests = std::max(requests, 1.0);
  const SpanStats* job = get("pool.job");
  const SpanStats* batch = get("pool.batch");
  out["pool.job_busy_ms"] = {job ? job->total_ms / requests : 0.0, "ms/req"};
  out["pool.idle_frac"] = {
      job && batch && batch->total_ms > 0
          ? std::max(0.0, 1.0 - job->total_ms / (threads * batch->total_ms))
          : 0.0,
      "ratio"};
  const auto med = [&](const char* name) {
    const SpanStats* s = get(name);
    return s ? median(s->durations_ms) : 0.0;
  };
  out["groupsig.batch.prepare_ms"] = {med("batch.prepare"), "ms"};
  out["groupsig.batch.fold_ms"] = {med("batch.fold"), "ms"};
  out["groupsig.batch.finalize_ms"] = {med("batch.finalize"), "ms"};
  const SpanStats* fin = get("batch.finalize");
  const SpanStats* leaf = get("batch.leaf");
  out["groupsig.batch.leaf_count"] = {
      fin && leaf ? static_cast<double>(leaf->count) /
                        static_cast<double>(fin->count)
                  : 0.0,
      "1/batch"};
}

void check_roundtrip(peace::proto::Session& a, peace::proto::Session& b,
                     peace::BytesView payload, const char* what) {
  const auto ab = b.open(a.seal(payload));
  expect(ab.has_value() && std::equal(ab->begin(), ab->end(), payload.begin(),
                                      payload.end()),
         std::string(what) + ": session frame did not round-trip");
  const auto ba = a.open(b.seal(payload));
  expect(ba.has_value() && std::equal(ba->begin(), ba->end(), payload.begin(),
                                      payload.end()),
         std::string(what) + ": session frame did not round-trip");
}

void check_verdicts(
    peace::proto::MeshRouter& router, const peace::proto::RouterStats& before,
    const std::vector<Verdict>& expected,
    const std::vector<std::optional<peace::proto::MeshRouter::AccessOutcome>>&
        results,
    const char* what) {
  const std::string w = what;
  expect(results.size() == expected.size(), w + ": result count differs");
  std::uint64_t revoked = 0;
  for (std::size_t k = 0; k < expected.size(); ++k) {
    if (expected[k] == Verdict::kAccept) {
      expect(results[k].has_value(), w + ": honest M.2 rejected");
      expect(router.session(results[k]->session_id) != nullptr,
             w + ": accepted M.2 left no router session");
    } else {
      expect(!results[k].has_value(), w + ": revoked user's M.2 accepted");
      ++revoked;
    }
  }
  expect(router.stats().rejected_revoked - before.rejected_revoked == revoked,
         w + ": revoked M.2 not rejected as rejected_revoked");
}

}  // namespace perfbench

#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <unordered_map>

namespace peace::obs {

namespace {

/// The always-on op counters, resolved once. References stay valid across
/// Registry::reset(), so caching them here is safe for the process lifetime.
struct CoreCounters {
  Counter& pairings = Registry::global().counter("curve.pairings");
  Counter& miller_loops = Registry::global().counter("curve.miller_loops");
  Counter& inline_miller_loops =
      Registry::global().counter("curve.inline_miller_loops");
  Counter& final_exps = Registry::global().counter("curve.final_exps");
  Counter& g2_prepared =
      Registry::global().counter("curve.g2_prepared_builds");
  Counter& msm_calls = Registry::global().counter("curve.msm_calls");
  Counter& msm_terms = Registry::global().counter("curve.msm_terms");
  Counter& gt_pows = Registry::global().counter("curve.gt_pows");
  Counter& fp12_inverses = Registry::global().counter("curve.fp12_inverses");
  Counter& field_inversions =
      Registry::global().counter("curve.field_inversions");
  Counter& glv_decompositions =
      Registry::global().counter("curve.glv_decompositions");
  Counter& gls_decompositions =
      Registry::global().counter("curve.gls_decompositions");
};

CoreCounters& core() {
  static CoreCounters counters;
  return counters;
}

#ifndef PEACE_OBS_DISABLED
std::atomic<bool> g_enabled{false};
thread_local CryptoTally t_tally;
#endif

std::chrono::steady_clock::time_point process_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

#ifndef PEACE_OBS_DISABLED
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void enable(bool on) {
  (void)process_epoch();  // pin the epoch no later than first enable
  g_enabled.store(on, std::memory_order_relaxed);
}
const CryptoTally& thread_tally() { return t_tally; }
#endif

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - process_epoch())
          .count());
}

// The tally updates ride behind the runtime toggle: with tracing off the
// hooks are exactly the relaxed atomic add the pre-registry bare globals
// performed. With PEACE_OBS_DISABLED the branch itself folds away.
#ifdef PEACE_OBS_DISABLED
#define PEACE_OBS_TALLY(field, n)
#else
#define PEACE_OBS_TALLY(field, n) \
  if (enabled()) t_tally.field += (n)
#endif

void note_pairing(std::uint64_t n) {
  core().pairings.add(n);
  PEACE_OBS_TALLY(pairings, n);
}

void note_miller_loop(std::uint64_t n) {
  core().miller_loops.add(n);
  PEACE_OBS_TALLY(miller_loops, n);
}

void note_inline_miller_loop(std::uint64_t n) {
  core().inline_miller_loops.add(n);
  PEACE_OBS_TALLY(inline_miller_loops, n);
}

void note_final_exp(std::uint64_t n) {
  core().final_exps.add(n);
  PEACE_OBS_TALLY(final_exps, n);
}

void note_g2_prepared(std::uint64_t n) {
  core().g2_prepared.add(n);
  PEACE_OBS_TALLY(g2_prepared, n);
}

void note_msm(std::uint64_t terms) {
  core().msm_calls.add(1);
  core().msm_terms.add(terms);
#ifndef PEACE_OBS_DISABLED
  if (enabled()) {
    t_tally.msm_calls += 1;
    t_tally.msm_terms += terms;
  }
#endif
}

void note_gt_pow(std::uint64_t n) {
  core().gt_pows.add(n);
  PEACE_OBS_TALLY(gt_pows, n);
}

void note_fp12_inverse(std::uint64_t n) {
  core().fp12_inverses.add(n);
  PEACE_OBS_TALLY(fp12_inverses, n);
}

void note_field_inversion(std::uint64_t n) {
  core().field_inversions.add(n);
  PEACE_OBS_TALLY(field_inversions, n);
}

void note_glv_decomposition(std::uint64_t n) {
  core().glv_decompositions.add(n);
  PEACE_OBS_TALLY(glv_decompositions, n);
}

void note_gls_decomposition(std::uint64_t n) {
  core().gls_decompositions.add(n);
  PEACE_OBS_TALLY(gls_decompositions, n);
}

#undef PEACE_OBS_TALLY

std::uint64_t pairing_count() { return core().pairings.value(); }
std::uint64_t g2_prepared_build_count() { return core().g2_prepared.value(); }
std::uint64_t fp12_inverse_op_count() {
  return core().fp12_inverses.value();
}

// --- Tracer ---------------------------------------------------------------

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Tracer::tid_for_current_thread() {
  // Called with mutex_ held.
  static std::unordered_map<std::thread::id, std::uint32_t> ids;
  const auto [it, inserted] =
      ids.emplace(std::this_thread::get_id(), next_tid_);
  if (inserted) ++next_tid_;
  return it->second;
}

void Tracer::record(TraceEvent event) {
  if (!enabled()) return;
  std::lock_guard lock(mutex_);
  if (event.tid == 0) event.tid = tid_for_current_thread();
  if (sink_ != nullptr && sink_->is_open()) {
    // Streaming mode: write through, retain nothing (bounded memory).
    sink_->write(event);
    ++streamed_events_;
    return;
  }
  events_.push_back(event);
}

bool Tracer::stream_to(const std::string& path, StreamSinkOptions options) {
  std::lock_guard lock(mutex_);
  auto sink = std::make_unique<JsonlStreamSink>();
  if (!sink->open(path, options)) return false;
  sink_ = std::move(sink);
  streamed_events_ = 0;
  return true;
}

bool Tracer::stop_streaming() {
  std::lock_guard lock(mutex_);
  if (sink_ == nullptr) return true;
  const bool ok = sink_->close();
  sink_.reset();
  return ok;
}

bool Tracer::streaming() const {
  std::lock_guard lock(mutex_);
  return sink_ != nullptr && sink_->is_open();
}

std::uint64_t Tracer::streamed_event_count() const {
  std::lock_guard lock(mutex_);
  return streamed_events_;
}

void Tracer::instant(const char* name, const char* cat) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'i';
  e.ts_us = now_us();
  record(e);
}

void Tracer::instant_at(const char* name, const char* cat,
                        std::uint64_t sim_us,
                        std::initializer_list<TraceArg> args) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'i';
  e.pid = kSimPid;
  e.ts_us = sim_us;
  for (const TraceArg& a : args) e.add_arg(a.key, a.value);
  record(e);
}

void Tracer::async_begin(const char* name, const char* cat, std::uint64_t id,
                         std::uint64_t sim_us,
                         std::initializer_list<TraceArg> args) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'b';
  e.pid = kSimPid;
  e.id = id;
  e.ts_us = sim_us;
  for (const TraceArg& a : args) e.add_arg(a.key, a.value);
  record(e);
}

void Tracer::async_end(const char* name, const char* cat, std::uint64_t id,
                       std::uint64_t sim_us,
                       std::initializer_list<TraceArg> args) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'e';
  e.pid = kSimPid;
  e.id = id;
  e.ts_us = sim_us;
  for (const TraceArg& a : args) e.add_arg(a.key, a.value);
  record(e);
}

std::size_t Tracer::event_count() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard lock(mutex_);
  return events_;
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  events_.clear();
}

namespace {

void append(std::string& out, const char* fmt, auto... args) {
  char buf[192];
  const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
  if (n < static_cast<int>(sizeof(buf))) {
    out += buf;
    return;
  }
  std::string big(static_cast<std::size_t>(n) + 1, '\0');
  std::snprintf(big.data(), big.size(), fmt, args...);
  big.resize(static_cast<std::size_t>(n));
  out += big;
}

}  // namespace

void append_event_json(std::string& out, const TraceEvent& e) {
  append(out, "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\"", e.name,
         e.cat, e.ph);
  append(out, ", \"ts\": %llu", static_cast<unsigned long long>(e.ts_us));
  if (e.ph == 'X')
    append(out, ", \"dur\": %llu", static_cast<unsigned long long>(e.dur_us));
  if (e.ph == 'b' || e.ph == 'e')
    append(out, ", \"id\": %llu", static_cast<unsigned long long>(e.id));
  if (e.ph == 'i') out += ", \"s\": \"t\"";
  append(out, ", \"pid\": %u, \"tid\": %u", e.pid, e.tid);
  if (e.nargs > 0) {
    out += ", \"args\": {";
    for (std::size_t i = 0; i < e.nargs; ++i)
      append(out, "%s\"%s\": %llu", i == 0 ? "" : ", ", e.args[i].key,
             static_cast<unsigned long long>(e.args[i].value));
    out += "}";
  }
  out += "}";
}

std::string Tracer::chrome_json() const {
  std::lock_guard lock(mutex_);
  std::string out = "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  // Metadata: name the two clock tracks so the viewer labels them.
  out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
         "\"args\": {\"name\": \"wall-clock\"}},\n";
  out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \"tid\": 0, "
         "\"args\": {\"name\": \"sim-time\"}}";
  for (const TraceEvent& e : events_) {
    out += ",\n";
    append_event_json(out, e);
  }
  out += "\n]}\n";
  return out;
}

std::string Tracer::jsonl() const {
  std::lock_guard lock(mutex_);
  std::string out;
  for (const TraceEvent& e : events_) {
    append_event_json(out, e);
    out += "\n";
  }
  return out;
}

namespace {

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

bool Tracer::write_chrome(const std::string& path) const {
  return write_file(path, chrome_json());
}

bool Tracer::write_jsonl(const std::string& path) const {
  return write_file(path, jsonl());
}

// --- Span -----------------------------------------------------------------

#ifndef PEACE_OBS_DISABLED

Span::Span(const char* name, const char* cat, Histogram* hist) {
  if (!enabled()) return;
  active_ = true;
  hist_ = hist;
  event_.name = name;
  event_.cat = cat;
  start_tally_ = t_tally;
  start_us_ = now_us();
}

std::uint64_t Span::close() {
  if (!active_) return 0;
  active_ = false;
  const std::uint64_t end_us = now_us();
  const std::uint64_t dur = end_us - start_us_;
  event_.ph = 'X';
  event_.ts_us = start_us_;
  event_.dur_us = dur;
  const CryptoTally& t = t_tally;
  const auto attribute = [&](const char* key, std::uint64_t now,
                             std::uint64_t then) {
    if (now > then) event_.add_arg(key, now - then);
  };
  attribute("pairings", t.pairings, start_tally_.pairings);
  attribute("miller_loops", t.miller_loops, start_tally_.miller_loops);
  attribute("inline_miller_loops", t.inline_miller_loops,
            start_tally_.inline_miller_loops);
  attribute("final_exps", t.final_exps, start_tally_.final_exps);
  attribute("g2_prepared", t.g2_prepared, start_tally_.g2_prepared);
  attribute("msm_calls", t.msm_calls, start_tally_.msm_calls);
  attribute("msm_terms", t.msm_terms, start_tally_.msm_terms);
  attribute("gt_pows", t.gt_pows, start_tally_.gt_pows);
  attribute("fp12_inverses", t.fp12_inverses, start_tally_.fp12_inverses);
  attribute("field_inversions", t.field_inversions,
            start_tally_.field_inversions);
  attribute("glv_decompositions", t.glv_decompositions,
            start_tally_.glv_decompositions);
  attribute("gls_decompositions", t.gls_decompositions,
            start_tally_.gls_decompositions);
  Tracer::global().record(event_);
  if (hist_ != nullptr) hist_->record(dur);
  return dur;
}

#endif  // PEACE_OBS_DISABLED

}  // namespace peace::obs

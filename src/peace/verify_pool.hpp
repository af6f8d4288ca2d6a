// Fixed worker pool for pairing-heavy batch work, and verify_stage — the
// one pass-2 pipeline both receivers run on it: the router's M.2 batches
// and the user's peer-hello (M~.1) batches. Its batches are designed so
// pooled results stay bit-identical to sequential execution regardless of
// thread count.
//
// verify_stage composes the pool with randomized batch verification
// (groupsig::BatchVerifier): the embarrassingly-parallel
// BatchVerifier::prepare(i) calls fan out here, while the order-sensitive
// combined checks and bisection stay on the calling thread
// (BatchVerifier::finalize is sequential by contract). Threading model of
// both callers: a sequential precheck pass feeds verify_stage, and a
// sequential in-order apply pass consumes its verdicts — all rng draws and
// state mutation happen in the sequential passes, which is what keeps
// results independent of the worker count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "groupsig/groupsig.hpp"

namespace peace::proto {

/// A fixed pool of std::jthread workers that executes indexed batch jobs.
/// Index distribution is a single atomic fetch_add over [0, count) — no
/// per-job queue nodes or locks on the hot path; the mutex/condvar pair is
/// only used to park idle workers between batches and to signal completion.
/// The calling thread participates in the batch, so a pool built with
/// `threads` runs at most `threads` jobs concurrently.
class VerifyPool {
 public:
  /// `threads` <= 1 spawns no workers: run() then executes inline.
  explicit VerifyPool(unsigned threads);
  VerifyPool(const VerifyPool&) = delete;
  VerifyPool& operator=(const VerifyPool&) = delete;

  unsigned threads() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Invokes body(i) for every i in [0, count), distributing indices over
  /// the workers plus the calling thread; returns once all completed.
  /// `body` must tolerate concurrent invocation (distinct indices). If any
  /// invocation throws, every remaining index still runs and the first
  /// exception (in completion order) is rethrown here after the batch has
  /// fully drained — run() never returns or throws mid-batch.
  void run(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  /// Per-batch state, heap-allocated and shared with every worker that wakes
  /// for it. A worker that reads the batch for generation N but is
  /// descheduled until generation N+1 has been published only ever touches
  /// its own (kept-alive) Batch — never a newer batch's indices or a
  /// destroyed caller frame.
  struct Batch {
    std::function<void(std::size_t)> body;
    std::size_t count = 0;
    std::atomic<std::size_t> next_index{0};
    std::size_t completed = 0;          // guarded by the pool mutex
    std::exception_ptr error;           // first failure; guarded by mutex
  };

  void worker_loop(std::stop_token st);
  /// Claims and runs indices until the batch is exhausted; returns how many
  /// this thread completed. Catches per-index exceptions into `error`.
  std::size_t drain(Batch& batch, std::exception_ptr& error);
  /// Folds one participant's completions (and first error) into the batch
  /// under the pool mutex; signals cv_done_ when the batch fully drains.
  void finish(const std::shared_ptr<Batch>& batch, std::size_t done,
              std::exception_ptr error);

  std::mutex mutex_;
  std::condition_variable_any cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;  // bumps once per batch; wakes workers
  std::shared_ptr<Batch> current_batch_;  // guarded by mutex_
  std::vector<std::jthread> workers_;
};

/// One signature entering verify_stage. `ops` (nullable) receives the
/// item's own verification cost; `payload` and `sig` must outlive the call.
struct VerifyItem {
  BytesView payload;
  const groupsig::Signature* sig = nullptr;
  groupsig::OpCounters* ops = nullptr;
};

/// verify_stage's verdict for one item. `revoked` is only meaningful when
/// `sig_ok`; `batch_attributed` marks a proof the combined batch check
/// rejected and bisection pinpointed.
struct VerifyVerdict {
  bool sig_ok = false;
  bool revoked = false;
  bool batch_attributed = false;
};

/// The caller's revocation check for item `i`, run only on items whose
/// proof held; true means revoked. `scan_pool` is non-null only when the
/// check runs on the calling thread with the pool otherwise idle, so a
/// large URL scan may shard over it (pool batches do not nest). Invoked
/// concurrently for distinct `i` when verify_stage fans checks out.
using RevocationCheck =
    std::function<bool(std::size_t i, VerifyPool* scan_pool)>;

/// Pass 2 of both receive pipelines: proof verification plus revocation
/// check for every item, with verdicts bit-identical to running
/// groupsig::verify_proof and then `revoked` on each item alone. The path
/// depends on the batch size only:
///   * one item: per-signature verify_proof, then `revoked(0, pool)`;
///   * more: a groupsig::BatchVerifier — prepare fanned out over `pool`,
///     finalize (combined checks + bisection) on this thread with its
///     batch-global cost charged to `batch_ops`, then the survivors'
///     revocation checks fanned out over `pool`; a lone survivor is checked
///     on this thread and gets the pool for its scan.
/// `pool` and `batch_ops` may be null; `batch_salt` seeds the randomizers.
std::vector<VerifyVerdict> verify_stage(
    const groupsig::PreparedGroupPublicKey& pgpk,
    std::span<const VerifyItem> items, VerifyPool* pool, BytesView batch_salt,
    groupsig::OpCounters* batch_ops, const RevocationCheck& revoked);

}  // namespace peace::proto

// A small fixed-size worker pool for the exhaustive sweeps.
//
// The Lemma 3.1 enumeration splits into independent (graph, ports, ids)
// frames, so the parallel strategy is plain data parallelism over a dense
// item range [0, n). Work distribution is two-layered:
//
//  * A deterministic *chunk plan* splits the range into contiguous,
//    ascending [begin, end) ranges. adaptive_plan cuts by per-item cost
//    estimates, so cheap items batch into coarse chunks and expensive
//    items split finer (the dense/sparse decomposition of the frame
//    space). The plan depends only on its inputs, never on timing.
//  * A work-stealing scheduler executes the plan: each pool thread owns a
//    deque of plan indices (the plan is pre-partitioned contiguously
//    across threads), pops from its own front, and when empty steals the
//    back half of the most-loaded victim's deque. Which thread runs which
//    chunk is timing-dependent; *what* each chunk computes is not.
//
// The caller reduces per-chunk results *in plan-index order*. Chunks are
// contiguous in item order, so a plan-ordered reduce visits items in
// exactly the sequential order -- that is what makes the parallel
// neighborhood-graph build bit-identical to the sequential one (see
// NbhdGraph::merge), independent of chunk sizes and steal timing.
//
// Error handling is deterministic and fail-fast: once a chunk body
// throws, queued chunks *above* the lowest failing index are cancelled
// (already-running chunks finish, and chunks below it still run -- a
// sequential loop would have executed them before reaching the error),
// so the rethrown exception is exactly the one a sequential run of the
// same plan would have surfaced, regardless of steal timing.
//
// Cancellation: run_plan takes a CancelToken plus an optional stall
// watchdog. Workers stop claiming new chunks once the token trips; chunk
// bodies additionally poll the token at their own safe points and may
// abort mid-chunk (returning false). The run then reports
// the *completed chunk prefix* -- the largest p such that chunks [0, p)
// all ran to completion -- which is what lets a budgeted V(D, n) build
// keep a deterministic, resumable amount of work (nbhd/aviews.h). Chunks
// beyond the prefix may also have completed; the caller discards them,
// trading a bounded amount of redone work for exact sequential semantics.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/budget.h"

namespace shlcp {

/// Resolves a worker-thread count: `requested` if >= 1, else the
/// SHLCP_NUM_THREADS environment variable if set to an integer >= 1, else
/// std::thread::hardware_concurrency() (minimum 1).
int resolve_num_threads(int requested = 0);

/// A deterministic work-distribution plan: contiguous, ascending
/// [begin, end) item ranges exactly covering [0, num_items). Chunk i of a
/// run executes ranges[i]; reducing per-chunk results in index order
/// reproduces sequential item order.
struct ChunkPlan {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  /// True when the plan was cut by per-item costs (adaptive_plan); feeds
  /// the parallel.chunks_adaptive metric.
  bool adaptive = false;

  [[nodiscard]] std::size_t num_chunks() const { return ranges.size(); }
  [[nodiscard]] std::size_t num_items() const {
    return ranges.empty() ? 0 : ranges.back().second;
  }
};

/// Cost-adaptive chunks: greedily cuts [0, costs.size()) so every chunk
/// carries roughly total_cost / (threads * ranges_per_thread) worth of
/// work. Runs of cheap items batch into one coarse chunk; an expensive
/// item (>= the target by itself) gets a chunk of its own, so one dense
/// frame never drags a whole coarse chunk's tail. Deterministic in its
/// inputs. Zero costs are treated as 1 so empty-looking items still make
/// progress.
ChunkPlan adaptive_plan(const std::vector<std::uint64_t>& costs, int threads,
                        std::size_t ranges_per_thread = 8);

/// Body run once per chunk: `chunk_index` is dense and in item order
/// (chunk c covers the plan's ranges[c]). Returns true when the chunk ran
/// to completion, false when it aborted early (budget trip observed at a
/// safe point). An aborted chunk's side effects must be discardable by
/// the caller -- it is excluded from the completed prefix.
using ChunkBody =
    std::function<bool(std::size_t chunk_index, std::size_t begin,
                       std::size_t end)>;

/// Cancellation plumbing for one run_plan call.
struct ParallelRunControl {
  /// Stop flag polled before every chunk claim; chunk bodies should poll
  /// it too. May be null (no external cancellation).
  CancelToken* cancel = nullptr;
  /// When > 0, a watchdog thread watches the pool's progress counter
  /// (chunk claims, completions, and explicit heartbeat() calls); if no
  /// progress happens for this long, it requests a kStall stop on
  /// `cancel` so cooperative bodies fail fast instead of the run hanging
  /// forever. Requires `cancel` to be non-null. The watchdog cannot
  /// preempt a body that never reaches a safe point.
  std::uint64_t stall_timeout_ms = 0;
};

/// What a cancellable run did.
struct ParallelRunResult {
  /// Chunks [0, completed_prefix_chunks) all ran to completion; the
  /// caller may reduce exactly this prefix deterministically.
  std::size_t completed_prefix_chunks = 0;
  /// Total chunks of the plan.
  std::size_t num_chunks = 0;
  /// Chunks that actually started (claims; <= num_chunks when stopped).
  std::size_t chunks_claimed = 0;
  /// Work-stealing transfers during the run (0 on a 1-thread pool; also
  /// published as the parallel.steals counter). Timing-dependent --
  /// diagnostics, never part of the deterministic result.
  std::size_t steals = 0;
  /// True iff the run stopped before completing every chunk.
  [[nodiscard]] bool stopped() const {
    return completed_prefix_chunks < num_chunks;
  }
};

/// Fixed-size pool of worker threads. The calling thread participates in
/// every run, so a pool of size t uses t OS threads total (t - 1
/// background workers). A pool of size 1 runs everything inline.
class WorkerPool {
 public:
  /// Spawns num_threads - 1 background workers; requires num_threads >= 1.
  explicit WorkerPool(int num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total threads (background workers + the caller).
  [[nodiscard]] int num_threads() const {
    return static_cast<int>(threads_.size()) + 1;
  }

  /// Runs `body` once per chunk of `plan`, distributing chunks across
  /// the pool with work stealing, and blocks until the run winds down.
  /// Stops claiming chunks when ctrl.cancel trips or a body throws, and
  /// reports the completed chunk prefix. If bodies throw, queued chunks
  /// above the lowest failing index are cancelled and its exception is
  /// rethrown (see the error-handling contract above). `plan` must
  /// outlive the call. Not reentrant: must not be called from inside a
  /// chunk body.
  ParallelRunResult run_plan(const ChunkPlan& plan,
                             const ChunkBody& body,
                             const ParallelRunControl& ctrl);

  /// Progress heartbeat for the stall watchdog: long-running chunk
  /// bodies call this at their safe points (e.g. once per frame) so a
  /// legitimately slow chunk is not mistaken for a wedged one.
  void heartbeat() noexcept {
    progress_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  /// One thread's share of the plan: plan indices [head, tail), owner
  /// pops at head, thieves take the back half of [head, tail). Guarded
  /// by mu (leaf lock: never held while taking the pool mutex).
  struct alignas(64) Deque {
    std::mutex mu;
    std::size_t head = 0;
    std::size_t tail = 0;
  };

  /// Claim outcomes for one scheduler step of run_chunks.
  static constexpr std::size_t kNoChunk = static_cast<std::size_t>(-1);

  void worker_loop(std::size_t self);
  void run_chunks(std::size_t self);
  std::size_t claim_chunk(std::size_t self);

  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<Deque>> queues_;  // one per pool thread

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a new job or shutdown
  std::condition_variable done_cv_;  // caller: all claimers out
  bool shutdown_ = false;
  std::uint64_t generation_ = 0;

  // Current job; written under mu_ and published by the release store
  // that clears stop_claims_, read by claimers only after an acquire load
  // sees the latch clear (the caller waits on active_claimers_ before
  // resetting it).
  const ChunkBody* body_ = nullptr;
  const ChunkPlan* plan_ = nullptr;
  CancelToken* job_cancel_ = nullptr;  // may be null
  std::size_t num_chunks_ = 0;
  // Cancellation / teardown latch. Cleared last in a job's setup, after
  // the deques are seeded, so a claimer that sees it clear sees the job.
  std::atomic<bool> stop_claims_{true};
  // Lowest chunk index that has thrown this job (kNoChunk = none).
  // Claimed chunks at or above it are skipped, chunks below it still
  // run, so the surfaced exception is deterministically the one a
  // sequential loop would have hit -- regardless of steal timing.
  std::atomic<std::size_t> error_bound_{kNoChunk};
  std::atomic<std::uint64_t> progress_{0};  // watchdog heartbeat counter
  std::atomic<std::size_t> claims_{0};    // chunks started this job
  std::atomic<std::size_t> steals_{0};    // steal transfers this job
  std::vector<char> chunk_done_;     // guarded by mu_
  int active_claimers_ = 0;          // guarded by mu_
  std::size_t error_chunk_ = 0;      // guarded by mu_
  std::exception_ptr error_;         // guarded by mu_
};

}  // namespace shlcp

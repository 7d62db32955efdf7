#include "util/parallel.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "util/check.h"
#include "util/metrics.h"

namespace shlcp {

int resolve_num_threads(int requested) {
  if (requested >= 1) {
    return requested;
  }
  if (const char* env = std::getenv("SHLCP_NUM_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) {
      return parsed;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

ChunkPlan adaptive_plan(const std::vector<std::uint64_t>& costs, int threads,
                        std::size_t ranges_per_thread) {
  SHLCP_CHECK_MSG(threads >= 1, "adaptive_plan needs at least one thread");
  SHLCP_CHECK_MSG(ranges_per_thread >= 1,
                  "adaptive_plan needs ranges_per_thread >= 1");
  ChunkPlan plan;
  plan.adaptive = true;
  const std::size_t n = costs.size();
  if (n == 0) {
    return plan;
  }
  // Labeling-count costs can be astronomically large products; saturate
  // instead of wrapping so the target stays monotone in the inputs.
  const auto sat_add = [](std::uint64_t a, std::uint64_t b) {
    return a + b < a ? ~std::uint64_t{0} : a + b;
  };
  const auto item_cost = [&](std::size_t i) {
    return std::max<std::uint64_t>(1, costs[i]);
  };
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total = sat_add(total, item_cost(i));
  }
  const std::uint64_t divisor =
      static_cast<std::uint64_t>(threads) *
      static_cast<std::uint64_t>(ranges_per_thread);
  const std::uint64_t target = std::max<std::uint64_t>(1, total / divisor);
  std::size_t begin = 0;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t ci = item_cost(i);
    if (ci >= target) {
      // A dense item: close the pending cheap batch and give the item a
      // chunk of its own so it never pins a coarse chunk's tail.
      if (begin < i) {
        plan.ranges.emplace_back(begin, i);
      }
      plan.ranges.emplace_back(i, i + 1);
      begin = i + 1;
      acc = 0;
      continue;
    }
    acc = sat_add(acc, ci);
    if (acc >= target) {
      plan.ranges.emplace_back(begin, i + 1);
      begin = i + 1;
      acc = 0;
    }
  }
  if (begin < n) {
    plan.ranges.emplace_back(begin, n);
  }
  return plan;
}

WorkerPool::WorkerPool(int num_threads) {
  SHLCP_CHECK_MSG(num_threads >= 1, "WorkerPool needs at least one thread");
  queues_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<Deque>());
  }
  threads_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i) {
    // The caller is pool thread 0; background workers are 1..t-1.
    threads_.emplace_back(
        [this, self = static_cast<std::size_t>(i + 1)] { worker_loop(self); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void WorkerPool::worker_loop(std::size_t self) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) {
        return;
      }
      seen = generation_;
      ++active_claimers_;
    }
    run_chunks(self);
  }
}

std::size_t WorkerPool::claim_chunk(std::size_t self) {
  Deque& own = *queues_[self];
  {
    std::lock_guard<std::mutex> lk(own.mu);
    if (own.head < own.tail) {
      return own.head++;
    }
  }
  // Own deque drained: steal the back half of the most-loaded victim's
  // range. Ranges stay contiguous under steals (victim keeps its front,
  // thief takes the back), but contiguity is only a locality nicety --
  // correctness needs just "every plan index claimed exactly once".
  for (;;) {
    std::size_t victim = kNoChunk;
    std::size_t best = 0;
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      if (i == self) {
        continue;
      }
      Deque& q = *queues_[i];
      std::lock_guard<std::mutex> lk(q.mu);
      const std::size_t rem = q.tail - q.head;
      if (rem > best) {
        best = rem;
        victim = i;
      }
    }
    if (victim == kNoChunk) {
      // Every deque is empty. Chunks still running elsewhere never spawn
      // new deque entries, so there is nothing left to claim.
      return kNoChunk;
    }
    Deque& v = *queues_[victim];
    // Thieves write both their own deque and the victim's; scoped_lock's
    // deadlock-avoiding acquisition covers the thief/thief races.
    std::scoped_lock lk(v.mu, own.mu);
    const std::size_t rem = v.tail - v.head;
    if (rem == 0) {
      continue;  // lost the race to another thief; rescan
    }
    const std::size_t take = rem - rem / 2;  // ceil(rem / 2), >= 1
    own.head = v.tail - take;
    own.tail = v.tail;
    v.tail -= take;
    steals_.fetch_add(1, std::memory_order_relaxed);
    return own.head++;
  }
}

void WorkerPool::run_chunks(std::size_t self) {
  // Claim chunks until the deques drain or the stop latch trips (a
  // sibling chunk threw, or the job's CancelToken fired). Job state
  // (body_, plan_, ...) is stable for the whole claim loop: the caller
  // does not reset it until active_claimers_ drops to zero.
  for (;;) {
    if (stop_claims_.load(std::memory_order_acquire) ||
        (job_cancel_ != nullptr && job_cancel_->stop_requested())) {
      break;
    }
    const std::size_t c = claim_chunk(self);
    if (c == kNoChunk) {
      break;
    }
    claims_.fetch_add(1, std::memory_order_relaxed);
    if (c >= error_bound_.load(std::memory_order_acquire)) {
      // Fail fast: a lower-indexed chunk already threw, so a sequential
      // run would never have reached this chunk. Skip it (cheap) but
      // keep draining -- chunks *below* the error bound must still run
      // so the rethrown error is the sequential one.
      continue;
    }
    progress_.fetch_add(1, std::memory_order_relaxed);
    const auto [begin, end] = plan_->ranges[c];
    bool completed = false;
    try {
      completed = (*body_)(c, begin, end);
    } catch (...) {
      // Record the lowest-indexed exception and lower the claim bound;
      // all writers hold mu_, so error_bound_ only ever decreases.
      std::lock_guard<std::mutex> lk(mu_);
      if (error_ == nullptr || c < error_chunk_) {
        error_ = std::current_exception();
        error_chunk_ = c;
        error_bound_.store(c, std::memory_order_release);
      }
    }
    progress_.fetch_add(1, std::memory_order_relaxed);
    if (completed) {
      std::lock_guard<std::mutex> lk(mu_);
      chunk_done_[c] = 1;
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  --active_claimers_;
  if (active_claimers_ == 0) {
    done_cv_.notify_all();
  }
}

ParallelRunResult WorkerPool::run_plan(const ChunkPlan& plan,
                                       const ChunkBody& body,
                                       const ParallelRunControl& ctrl) {
  ParallelRunResult result;
  result.num_chunks = plan.num_chunks();
  if (plan.num_chunks() == 0) {
    return result;
  }
  // Plans must be contiguous and ascending from 0 (the deterministic
  // merge contract); catch malformed hand-built plans early.
  SHLCP_CHECK_MSG(plan.ranges.front().first == 0,
                  "ChunkPlan must start at item 0");
  for (std::size_t i = 0; i < plan.ranges.size(); ++i) {
    SHLCP_CHECK_MSG(plan.ranges[i].first < plan.ranges[i].second,
                    "ChunkPlan ranges must be non-empty");
    if (i > 0) {
      SHLCP_CHECK_MSG(plan.ranges[i].first == plan.ranges[i - 1].second,
                      "ChunkPlan ranges must be contiguous");
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    SHLCP_CHECK_MSG(body_ == nullptr, "WorkerPool::run_plan is not reentrant");
    body_ = &body;
    plan_ = &plan;
    job_cancel_ = ctrl.cancel;
    num_chunks_ = plan.num_chunks();
    claims_.store(0, std::memory_order_relaxed);
    steals_.store(0, std::memory_order_relaxed);
    chunk_done_.assign(num_chunks_, 0);
    error_ = nullptr;
    error_chunk_ = 0;
    error_bound_.store(kNoChunk, std::memory_order_relaxed);
    // Seed the deques: contiguous, evenly-counted shares of the plan.
    // The plan's ranges are already cost-balanced, so an even count split
    // is an even work split to first order; the steal path corrects the
    // rest at run time.
    const std::size_t nq = queues_.size();
    for (std::size_t i = 0; i < nq; ++i) {
      Deque& q = *queues_[i];
      std::lock_guard<std::mutex> qlk(q.mu);
      q.head = num_chunks_ * i / nq;
      q.tail = num_chunks_ * (i + 1) / nq;
    }
    // Open the latch last. A worker that woke late for an earlier job may
    // already sit in run_chunks outside mu_: until this store it claims
    // nothing (an earlier stopped job's deques may still hold stale
    // indices), and its acquire load of the cleared latch makes the job
    // state above visible before its first claim.
    stop_claims_.store(false, std::memory_order_release);
    ++generation_;
    ++active_claimers_;  // the caller claims too
  }

  // Optional stall watchdog: if the progress counter does not move for
  // stall_timeout_ms, request a cooperative kStall stop so polling chunk
  // bodies unwind instead of the run blocking forever. (A body that
  // never reaches a safe point cannot be preempted -- the watchdog makes
  // hangs *diagnosable and escapable* for cooperative bodies, it is not
  // thread cancellation.)
  std::thread watchdog;
  std::mutex wd_mu;
  std::condition_variable wd_cv;
  bool job_finished = false;
  if (ctrl.stall_timeout_ms > 0) {
    SHLCP_CHECK_MSG(ctrl.cancel != nullptr,
                    "stall watchdog requires a CancelToken");
    watchdog = std::thread([&] {
      const auto timeout = std::chrono::milliseconds(ctrl.stall_timeout_ms);
      const auto poll = std::max<std::chrono::milliseconds>(
          std::chrono::milliseconds(1), timeout / 8);
      std::uint64_t last = progress_.load(std::memory_order_relaxed);
      auto last_change = std::chrono::steady_clock::now();
      std::unique_lock<std::mutex> lk(wd_mu);
      for (;;) {
        if (wd_cv.wait_for(lk, poll, [&] { return job_finished; })) {
          return;
        }
        const std::uint64_t cur = progress_.load(std::memory_order_relaxed);
        const auto now = std::chrono::steady_clock::now();
        if (cur != last) {
          last = cur;
          last_change = now;
        } else if (now - last_change >= timeout) {
          ctrl.cancel->request_stop(StopReason::kStall);
          stop_claims_.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }

  work_cv_.notify_all();
  run_chunks(/*self=*/0);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return active_claimers_ == 0; });
    // All claimers are out, so chunk_done_ is final: the completed
    // prefix is deterministic given which chunks completed.
    std::size_t prefix = 0;
    while (prefix < num_chunks_ && chunk_done_[prefix] != 0) {
      ++prefix;
    }
    result.completed_prefix_chunks = prefix;
    result.chunks_claimed = claims_.load(std::memory_order_relaxed);
    result.steals = steals_.load(std::memory_order_relaxed);
    body_ = nullptr;
    plan_ = nullptr;
    job_cancel_ = nullptr;
    error = error_;
    error_ = nullptr;
    // Park the claim state. A job that stopped early (cooperative
    // cancel) leaves non-empty deques; a worker that only now wakes for
    // this generation would march straight into the claim loop and call
    // the dead job's body. The store happens before this lock is
    // released, so any such late waker (whose predicate check re-acquires
    // mu_) sees it at the top of the claim loop and claims nothing. The
    // next job's setup reseeds the deques.
    stop_claims_.store(true, std::memory_order_relaxed);
  }
  if (watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> lk(wd_mu);
      job_finished = true;
    }
    wd_cv.notify_all();
    watchdog.join();
  }
  // Scheduler diagnostics (timing-dependent; never part of the
  // deterministic build result, so publishing per run is safe).
  if (result.steals > 0) {
    metrics::counter("parallel.steals").add(result.steals);
  }
  if (plan.adaptive) {
    metrics::counter("parallel.chunks_adaptive").add(result.chunks_claimed);
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
  return result;
}

}  // namespace shlcp

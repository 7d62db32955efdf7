// Resource budgets and cooperative cancellation for the long sweeps.
//
// The Lemma 3.1 enumeration is the one genuinely long-running job in this
// repository: at n = 7-8 a V(D, n) sweep runs for minutes to hours. This
// header provides the primitives that make such runs interruptible
// instead of all-or-nothing:
//
//  * CancelToken -- a shared stop flag with a *reason*. The first
//    request_stop wins; the worker pool and chunk bodies poll it
//    cooperatively. request_stop is async-signal-safe, so a SIGINT
//    handler may call it.
//  * RunBudget -- declarative per-build caps: a wall-clock deadline and
//    a frame count, plus opt-in SIGINT arming.
//  * BudgetTracker -- the runtime enforcer: work loops poll
//    should_stop(), and the tracker converts a passed deadline into a
//    request_stop with the matching reason, so every early exit carries
//    an explicit cause. (The frame cap is enforced by the builder, by
//    frame index; see RunBudget::max_frames.)
//
// Cancellation here is *cooperative and chunk-granular*: a budget trip
// never tears down a thread mid-computation. Work units observe the stop
// flag at their own safe points (between frames, between labelings) and
// unwind; the enclosing builder then preserves the completed prefix
// deterministically (util/parallel.h) and reports the StopReason instead
// of a silently truncated result.

#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

namespace shlcp {

/// Why a run stopped early. kNone means "still running / ran to
/// completion"; every other value names the budget or signal that
/// tripped. Ordered so that lower values never mask a more specific
/// diagnosis (first request_stop wins regardless).
enum class StopReason : int {
  kNone = 0,
  /// Explicit CancelToken::request_stop by the embedding application.
  kCancelRequested,
  /// SIGINT observed while a SigintGuard was armed.
  kInterrupt,
  /// RunBudget::wall_ms deadline passed.
  kDeadline,
  /// RunBudget::max_frames reached.
  kFrameBudget,
};

/// Stable lowercase name ("frame_budget", "interrupt", ...) used in
/// manifests, metrics labels, and repro strings.
const char* to_string(StopReason reason) noexcept;

/// Classifies a stop: *hard* stops (time, signal, explicit
/// cancellation) abort work mid-chunk at the next safe point, while the
/// one *soft* stop (the frame budget) lets already-started chunks finish
/// so every run makes forward progress -- a resume loop under a tiny
/// frame budget terminates instead of re-discarding the same partial
/// chunk forever.
constexpr bool is_hard_stop(StopReason reason) noexcept {
  return reason == StopReason::kCancelRequested ||
         reason == StopReason::kInterrupt || reason == StopReason::kDeadline;
}

/// Shared cooperative stop flag. Cheap to poll (one relaxed load);
/// request_stop is lock-free and async-signal-safe. The first stop
/// reason sticks; later requests are ignored.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  [[nodiscard]] bool stop_requested() const noexcept {
    return reason_.load(std::memory_order_relaxed) !=
           static_cast<int>(StopReason::kNone);
  }

  [[nodiscard]] StopReason reason() const noexcept {
    return static_cast<StopReason>(reason_.load(std::memory_order_relaxed));
  }

  /// Requests a stop with `reason`; returns true iff this call set the
  /// flag (false when a stop was already pending). Safe from signal
  /// handlers and concurrent threads.
  bool request_stop(StopReason reason) noexcept {
    int expected = static_cast<int>(StopReason::kNone);
    return reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                           std::memory_order_relaxed);
  }

  /// Clears the flag (between independent runs sharing one token).
  void reset() noexcept {
    reason_.store(static_cast<int>(StopReason::kNone),
                  std::memory_order_relaxed);
  }

 private:
  std::atomic<int> reason_{static_cast<int>(StopReason::kNone)};
};

/// Declarative per-build resource caps. Zero means "unlimited" for every
/// numeric field, so a default RunBudget changes nothing.
struct RunBudget {
  /// Wall-clock deadline in milliseconds from tracker construction.
  std::uint64_t wall_ms = 0;
  /// Cap on (graph, ports, ids) frames *started* this run. The builders
  /// enforce it deterministically by frame index: a chunk is started iff
  /// its first frame lies below the cap, so overshoot is bounded by one
  /// chunk and every run under a tiny cap still makes progress.
  std::uint64_t max_frames = 0;
  /// Route SIGINT into the token for the tracker's lifetime, so ^C
  /// checkpoints and exits cleanly instead of killing the process.
  bool arm_sigint = false;

  /// True iff no cap is set and SIGINT is not armed -- the tracker (and
  /// budget-aware builders) can skip all bookkeeping.
  [[nodiscard]] bool unlimited() const noexcept {
    return wall_ms == 0 && max_frames == 0 && !arm_sigint;
  }
};

/// RAII: routes SIGINT into `token` (reason kInterrupt) while alive and
/// restores the previous handler on destruction. At most one guard may
/// be armed at a time; arming a second is a loud CheckError.
class SigintGuard {
 public:
  explicit SigintGuard(CancelToken& token);
  ~SigintGuard();
  SigintGuard(const SigintGuard&) = delete;
  SigintGuard& operator=(const SigintGuard&) = delete;

 private:
  void (*previous_)(int) = nullptr;
};

/// Runtime budget enforcer for one build. Work loops poll should_stop();
/// the tracker translates a passed deadline into
/// token().request_stop(kDeadline). All methods are thread-safe.
class BudgetTracker {
 public:
  /// Starts the wall clock now. `token` must outlive the tracker.
  BudgetTracker(const RunBudget& budget, CancelToken& token);

  /// Polls the token and the deadline. Returns true -- after requesting
  /// a kDeadline stop if the deadline just passed -- when the run must
  /// wind down.
  bool should_stop() noexcept;

  [[nodiscard]] CancelToken& token() noexcept { return token_; }

 private:
  CancelToken& token_;
  std::uint64_t deadline_ns_ = 0;  // steady-clock ns since epoch; 0 = none
  std::optional<SigintGuard> sigint_;
};

}  // namespace shlcp

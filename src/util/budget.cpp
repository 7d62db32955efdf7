#include "util/budget.h"

#include <csignal>

#include "util/check.h"
#include "util/clock.h"

namespace shlcp {

namespace {

/// The token a live SigintGuard routes SIGINT into. A plain atomic
/// pointer: the handler only calls the async-signal-safe request_stop.
std::atomic<CancelToken*> g_sigint_token{nullptr};

extern "C" void shlcp_sigint_handler(int) {
  CancelToken* token = g_sigint_token.load(std::memory_order_relaxed);
  if (token != nullptr) {
    token->request_stop(StopReason::kInterrupt);
  }
}

}  // namespace

const char* to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kNone:
      return "none";
    case StopReason::kCancelRequested:
      return "cancel_requested";
    case StopReason::kInterrupt:
      return "interrupt";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kFrameBudget:
      return "frame_budget";
  }
  return "unknown";
}

SigintGuard::SigintGuard(CancelToken& token) {
  CancelToken* expected = nullptr;
  SHLCP_CHECK_MSG(g_sigint_token.compare_exchange_strong(
                      expected, &token, std::memory_order_relaxed),
                  "only one SigintGuard may be armed at a time");
  previous_ = std::signal(SIGINT, shlcp_sigint_handler);
}

SigintGuard::~SigintGuard() {
  std::signal(SIGINT, previous_ == SIG_ERR ? SIG_DFL : previous_);
  g_sigint_token.store(nullptr, std::memory_order_relaxed);
}

BudgetTracker::BudgetTracker(const RunBudget& budget, CancelToken& token)
    : token_(token) {
  if (budget.wall_ms > 0) {
    deadline_ns_ = mono_ns() + budget.wall_ms * 1'000'000u;
  }
  if (budget.arm_sigint) {
    sigint_.emplace(token_);
  }
}

bool BudgetTracker::should_stop() noexcept {
  if (token_.stop_requested()) {
    return true;
  }
  if (deadline_ns_ != 0 && mono_ns() >= deadline_ns_) {
    token_.request_stop(StopReason::kDeadline);
    return true;
  }
  return false;
}

}  // namespace shlcp

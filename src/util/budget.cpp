#include "util/budget.h"

#include <csignal>
#include <cstdio>

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
    case StopReason::kInstanceBudget:
      return "instance_budget";
    case StopReason::kMemoryBudget:
      return "memory_budget";
    case StopReason::kStall:
      return "stall";
  }
  return "unknown";
}

std::uint64_t current_rss_bytes() noexcept {
#if defined(__linux__)
  // /proc/self/statm: "size resident shared ..." in pages.
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int parsed = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (parsed != 2) {
    return 0;
  }
  return static_cast<std::uint64_t>(resident) * 4096u;
#else
  return 0;
#endif
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
    : budget_(budget), token_(token) {
  if (budget_.wall_ms > 0) {
    deadline_ns_ = mono_ns() + budget_.wall_ms * 1'000'000u;
  }
  if (budget_.arm_sigint) {
    sigint_.emplace(token_);
  }
}

void BudgetTracker::add_frames(std::uint64_t frames) noexcept {
  frames_.fetch_add(frames, std::memory_order_relaxed);
}

void BudgetTracker::add_instances(std::uint64_t count) noexcept {
  const std::uint64_t total =
      instances_.fetch_add(count, std::memory_order_relaxed) + count;
  if (budget_.max_instances != 0 && total >= budget_.max_instances) {
    token_.request_stop(StopReason::kInstanceBudget);
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
  if (budget_.max_instances != 0 &&
      instances_.load(std::memory_order_relaxed) >= budget_.max_instances) {
    token_.request_stop(StopReason::kInstanceBudget);
    return true;
  }
  if (budget_.max_memory_bytes != 0 &&
      polls_.fetch_add(1, std::memory_order_relaxed) % 32 == 0 &&
      current_rss_bytes() >= budget_.max_memory_bytes) {
    token_.request_stop(StopReason::kMemoryBudget);
    return true;
  }
  return false;
}

}  // namespace shlcp

// The repo's one monotonic clock.
//
// Deadlines, TTLs, backoff timers and latency histograms all read the
// steady clock through these functions. The epoch is arbitrary;
// only differences mean anything. trace::now_ns() subtracts its own
// per-process epoch from mono_ns() so trace timestamps start near 0.

#pragma once

#include <chrono>
#include <cstdint>

namespace shlcp {

/// Nanoseconds on the steady clock.
inline std::uint64_t mono_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Microseconds on the steady clock (mono_ns() truncated).
inline std::uint64_t mono_us() noexcept { return mono_ns() / 1'000; }

/// Milliseconds on the steady clock (mono_ns() truncated).
inline std::uint64_t mono_ms() noexcept { return mono_ns() / 1'000'000; }

}  // namespace shlcp

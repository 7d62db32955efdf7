// Deterministic pseudo-random number generation.
//
// Every randomized component of the library (random graph generation,
// randomized adversarial provers, shuffles) draws from this splitmix64
// generator so that all experiments are reproducible from a single seed.
// We deliberately do not use std::mt19937 so the bit streams are identical
// across standard-library implementations.

#pragma once

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace shlcp {

/// splitmix64 finalizer: bijective avalanche mix. This is the one mixing
/// primitive every seed-derivation scheme in the repo builds on (fault
/// plans, chaos plans, retry backoff, vnode placement, interactive
/// commitments); having it here keeps the derivations auditable in one
/// place instead of re-implemented per subsystem.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64: tiny, fast, high-quality 64-bit PRNG. Passes BigCrush when
/// used as a stream; more than enough for randomized testing.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  /// Current internal state. Rng(state()) reproduces the remaining
  /// stream exactly -- failure messages embed it so any randomized
  /// counterexample can be replayed from the report alone.
  [[nodiscard]] std::uint64_t state() const { return state_; }

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    return mix64(state_ += 0x9e3779b97f4a7c15ULL);
  }

  /// Uniform integer in [0, bound). Requires bound > 0.
  /// Uses rejection sampling, so the distribution is exactly uniform.
  std::uint64_t next_below(std::uint64_t bound) {
    SHLCP_CHECK(bound > 0);
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int next_int(int lo, int hi) {
    SHLCP_CHECK(lo <= hi);
    return lo + static_cast<int>(next_below(
                    static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli draw with probability num/den. Requires 0 <= num <= den.
  bool next_bool(std::uint64_t num, std::uint64_t den) {
    SHLCP_CHECK(den > 0 && num <= den);
    return next_below(den) < num;
  }

  /// Fair coin.
  bool next_coin() { return (next_u64() & 1) != 0; }

  /// Fisher-Yates shuffle of `v` in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = next_below(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator; useful to give each
  /// experiment repetition its own stream.
  Rng fork() { return Rng(next_u64() ^ 0xd1b54a32d192ed03ULL); }

  /// Derives an independent named sub-stream of a master seed.
  /// `domain` is a per-subsystem tag (spelled as a constant at the call
  /// site), `index` the repetition within it -- e.g. the round number of
  /// an interactive session or the attempt number of a retry loop. Each
  /// argument is avalanche-mixed before combining, so adjacent indices,
  /// adjacent domains, and adjacent seeds all yield unrelated streams
  /// (tests/interactive_test.cpp checks pairwise prefix independence
  /// across the derivation schemes actually used in the repo).
  static Rng stream(std::uint64_t seed, std::uint64_t domain,
                    std::uint64_t index) {
    std::uint64_t s = mix64(seed + 0x9e3779b97f4a7c15ULL);
    s = mix64(s ^ mix64(domain + 0xbf58476d1ce4e5b9ULL));
    s = mix64(s ^ mix64(index + 0x94d049bb133111ebULL));
    return Rng(s);
  }

 private:
  std::uint64_t state_;
};

/// Returns a uniformly random permutation of [0, n).
std::vector<int> random_permutation(int n, Rng& rng);

}  // namespace shlcp

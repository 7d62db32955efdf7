// Byte-wise 64-bit FNV-1a: the repo's one non-cryptographic string hash.
//
// Two offset bases are in use, and both must stay as they are:
//
//   kFnvOffsetBasis     the standard basis. Interactive commitments
//                       (interactive/commit.h) and the audit's per-name
//                       seeds (lcp/audit.cpp) use it.
//   kFnvTruncatedBasis  the standard basis with its last decimal digit
//                       dropped. Checkpoint digests and options hashes,
//                       disk-cache file names and the wire "check" /
//                       "digest" members (nbhd/checkpoint.h fnv1a_hex),
//                       and the router's ring points use it.
//
// The truncated basis is kept because its values leave the process:
// checkpoint manifests and cache file names are stored on disk,
// tools/check_bench_json.py re-derives checkpoint digests, and ring
// points decide which backend owns which cache shard.
// tests/hash_test.cpp pins one value per call site.
//
// Neither basis makes FNV collision-resistant; it guards against
// accidental corruption only.

#pragma once

#include <cstdint>
#include <string_view>

namespace shlcp {

/// The standard FNV-1a 64 offset basis, 14695981039346656037.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/// 1469598103934665603: kFnvOffsetBasis in decimal with the last digit
/// dropped. See the header comment for why it stays.
inline constexpr std::uint64_t kFnvTruncatedBasis = 1469598103934665603ULL;

/// The FNV-1a 64 prime, 1099511628211.
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// 64-bit FNV-1a of `bytes`, starting from `basis`.
constexpr std::uint64_t fnv1a64(std::string_view bytes,
                                std::uint64_t basis = kFnvOffsetBasis) {
  std::uint64_t h = basis;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace shlcp

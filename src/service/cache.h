// Content-addressed artifact cache for the certification service.
//
// Keying: an artifact is the serialized result of one cacheable service
// operation, addressed by the full canonical payload
//
//   "shlcp.svc.v1" '\n' <op> '\n' canonical_dump(params)
//
// used *verbatim* as the key -- lookups are exact string matches, so
// two distinct requests can never alias (a 64-bit hash alone would let
// a collision replay another request's result bytes as ok/cached=true,
// silently breaking the bit-identity guarantee bench_service gates
// on). Canonicalization (recursive key sort, compact dump) makes the
// key independent of the member order the client happened to send, so
// {"k":2,"instance":"path5"} and {"instance":"path5","k":2} hit the
// same entry. The schema prefix makes keys self-invalidating: any wire
// format change bumps the schema string and orphans old entries.
//
// Storage: values are the *dumped* result strings (not Json trees), and
// the service splices a hit's bytes into its response unparsed
// (ok_response_text), so a hit is returned byte-identical to the miss
// that populated it -- bench_service verifies cached == direct
// bit-for-bit. A disk entry is returned only after its digest matches,
// so a torn or rotted file is never spliced into a response. In-memory the
// cache is a classic LRU (intrusive list + map) under a byte budget;
// inserting a value larger than the whole budget is accepted and simply
// evicts everything else.
//
// Persistence (optional): with CacheConfig::directory set, every insert
// also writes <dir>/<16 hex>.json (the hex is nbhd/checkpoint's FNV-1a
// of the key -- the hash only names the file, it never authenticates a
// hit) via the checkpoint layer's temp+rename discipline, and an
// in-memory miss falls back to disk. A disk entry stores the full key
// and its own FNV-1a digest of the payload; a corrupt, truncated,
// wrong-schema, or wrong-key (filename collision) file is treated as a
// miss (never an error), so a stale cache directory can always be
// pointed at safely. The directory is created on construction if
// missing, and a failed store (unwritable or vanished directory) is
// counted in CacheStats::store_failures but never surfaced to the
// caller: persistence is an optimization, and a request whose result
// was computed successfully must not fail because the disk copy did.

#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/json.h"

namespace shlcp::svc {

/// Schema id of the on-disk cache entry files.
inline constexpr const char* kCacheFileSchema = "shlcp.svc.cache.v1";

/// Cache key for `op` with canonicalized `params`: the full canonical
/// payload "<schema>\n<op>\n<canonical params>", matched exactly.
std::string artifact_key(std::string_view op, const Json& params);

struct CacheConfig {
  /// In-memory byte budget (sum of stored key + value sizes).
  std::size_t max_bytes = 64u << 20;
  /// On-disk persistence directory; empty disables persistence.
  std::string directory;
};

struct CacheStats {
  std::uint64_t hits = 0;       // in-memory hits
  std::uint64_t disk_hits = 0;  // misses served from the directory
  std::uint64_t misses = 0;     // true misses (caller must compute)
  std::uint64_t evictions = 0;
  std::uint64_t store_failures = 0;  // disk stores that did not land
  std::uint64_t bytes = 0;           // current resident bytes
  std::uint64_t entries = 0;         // current resident entries

  /// Fraction of lookups served without recomputation.
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + disk_hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits + disk_hits) /
                            static_cast<double>(total);
  }
};

/// Thread-safe LRU artifact cache. Values are opaque byte strings (the
/// service stores dumped result JSON).
class ArtifactCache {
 public:
  explicit ArtifactCache(CacheConfig config = {});

  /// Looks `key` up, refreshing recency. Falls back to the persistence
  /// directory on an in-memory miss (loading the entry back into
  /// memory). nullopt = miss; the caller computes and insert()s.
  std::optional<std::string> get(const std::string& key);

  /// Inserts (or refreshes) `key` -> `value`, evicting LRU entries
  /// until the byte budget holds, and persists to disk if configured.
  void insert(const std::string& key, const std::string& value);

  [[nodiscard]] CacheStats stats() const;

  [[nodiscard]] const CacheConfig& config() const { return config_; }

 private:
  struct Entry {
    std::string key;
    std::string value;
  };

  // All private helpers require mu_ held.
  void touch(std::list<Entry>::iterator it);
  void evict_to_fit();
  std::optional<std::string> load_from_disk(const std::string& key);
  void store_to_disk(const std::string& key, const std::string& value);
  [[nodiscard]] std::string disk_path(const std::string& key) const;

  CacheConfig config_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  CacheStats stats_;
};

}  // namespace shlcp::svc

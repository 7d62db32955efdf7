// Golden values of every FNV-1a call site.
//
// The repo hashes bytes with one FNV-1a loop (util/hash.h) under two
// offset bases. Several of the derived values leave the process: the
// checkpoint manifests and the disk-cache file names are stored on
// disk, tools/check_bench_json.py re-derives checkpoint digests, and
// ring points decide which backend owns which cache shard. The values
// below were recorded before the call sites shared one implementation;
// any drift is a format break, not a refactor.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "certify/degree_one.h"
#include "interactive/commit.h"
#include "lcp/audit.h"
#include "nbhd/checkpoint.h"
#include "service/cache.h"
#include "service/router.h"
#include "service/service.h"
#include "util/rng.h"

namespace shlcp {
namespace {

namespace fs = std::filesystem;

Json coloring_params() {
  Json params = Json::object();
  params["instance"] = "cycle6";
  params["k"] = 2;
  return params;
}

TEST(HashGolden, CheckpointDigests) {
  EXPECT_EQ(fnv1a_hex(""), "fnv:14650fb0739d0383");
  EXPECT_EQ(fnv1a_hex("shlcp"), "fnv:cf36041495de73b7");
  EXPECT_EQ(enum_options_hash("degree-one", "proved", 2, EnumOptions{}),
            "fnv:88a6d19ae605970d");
}

TEST(HashGolden, WireCheckAndDigest) {
  const Json params = coloring_params();
  EXPECT_EQ(fnv1a_hex(svc::artifact_key("check_coloring", params)),
            "fnv:35cbdd42ace4eec6");
  Json req = Json::object();
  req["id"] = 1;
  req["op"] = "check_coloring";
  req["params"] = params;
  svc::Service service;
  EXPECT_EQ(service.handle(req).at("digest").as_string(),
            "fnv:5cd30a299f14d135");
}

TEST(HashGolden, CacheEntryName) {
  const fs::path dir = fs::path(::testing::TempDir()) / "shlcp_hash_golden";
  fs::remove_all(dir);
  svc::CacheConfig config;
  config.directory = dir.string();
  svc::ArtifactCache cache(config);
  cache.insert(svc::artifact_key("check_coloring", coloring_params()), "{}");
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"35cbdd42ace4eec6.json"});
  fs::remove_all(dir);
}

TEST(HashGolden, RingPoints) {
  EXPECT_EQ(svc::HashRing::point_of("shlcp"), 8646296462625684207u);
  EXPECT_EQ(svc::HashRing::point_of(
                svc::artifact_key("check_coloring", coloring_params())),
            11750391090721684176u);
  // Vnode placement: the owner order of a few points on a 3-backend ring.
  const svc::HashRing ring({"b0", "b1", "b2"}, 8);
  std::vector<int> owners;
  for (std::uint64_t i = 0; i < 8; ++i) {
    owners.push_back(ring.preference(i << 61).front());
  }
  EXPECT_EQ(owners, (std::vector<int>{1, 2, 2, 2, 1, 0, 0, 0}));
}

TEST(HashGolden, Commitments) {
  EXPECT_EQ(ia::fnv1a64(""), 14695981039346656037u);
  EXPECT_EQ(ia::fnv1a64("s-1"), 9330572330461544228u);
  EXPECT_EQ(ia::commitment("s-1", 3, 4, 1, 0x1234), 7653423092017620032u);
}

TEST(HashGolden, SplitmixStream) {
  Rng rng(42);
  EXPECT_EQ(rng.next_u64(), 13679457532755275413u);
  EXPECT_EQ(rng.next_u64(), 2949826092126892291u);
}

TEST(HashGolden, AuditSeeds) {
  // The audit derives each instance's fault plans and labeling seeds
  // from FNV-1a of the instance and lcp names; the fault counts below
  // move with any change to those seeds.
  const DegreeOneLcp lcp;
  AuditOptions options;
  options.adversarial_labelings = 4;
  const AuditReport report = audit_sweep(lcp, audit_yes_instances(lcp, 1),
                                         audit_no_instances(lcp.k(), 1),
                                         options);
  EXPECT_EQ(report.summary(),
            "OK: 50 runs (10 completeness, 40 soundness), 69 degraded "
            "verdicts, 14 attributed rejections, 0 finding(s)");
}

}  // namespace
}  // namespace shlcp

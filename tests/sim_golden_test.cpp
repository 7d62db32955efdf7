// Golden pin of the LOCAL simulator's observable output.
//
// sim_faults_test compares the engine with itself (pass-through against
// the ideal engine, replay against replay), so a change that alters the
// traffic, the reconstruction or a fault decision the same way on every
// path would pass it. This test fixes an absolute answer instead: every
// shipped LCP's honest instances on several graph families, under every
// plan of FaultPlan::standard_family (plus one plan that mixes every
// channel fault, so duplicated copies also get corrupted), both as a
// whole distributed decoder run and as bare engine runs at r = 1..3.
// One FNV-1a digest
// covers, in a fixed order, the verdicts, the degraded flags, each
// reconstructed view's canonical key (or its absence), SimStats and
// FaultStats. The digest was generated before the simulator stopped
// copying knowledge between nodes and must not change with it.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/revealing.h"
#include "certify/shatter.h"
#include "certify/spanning_bfs.h"
#include "certify/watermelon.h"
#include "graph/generators.h"
#include "lcp/audit.h"
#include "sim/engine.h"
#include "util/hash.h"
#include "util/rng.h"
#include "views/canonical.h"

namespace shlcp {
namespace {

constexpr std::uint64_t kGoldenDigest = 0x7190196e2ba10d78ULL;

/// Streams fields into one running FNV-1a digest.
class Digest {
 public:
  void add(std::string_view bytes) {
    h_ = fnv1a64(bytes, h_);
    h_ = fnv1a64("|", h_);
  }
  void add(std::uint64_t x) { add(std::to_string(x)); }
  void add(const std::optional<View>& view) {
    add(view.has_value() ? canonical_key(*view) : std::string("<none>"));
  }
  void add(const SimStats& s) {
    add(static_cast<std::uint64_t>(s.rounds));
    add(s.messages);
    add(s.bytes);
  }
  void add(const FaultStats& f) {
    add(f.dropped);
    add(f.duplicated);
    add(f.corrupted_fields);
    add(f.tampered_messages);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffsetBasis;
};

std::vector<std::unique_ptr<Lcp>> shipped_lcps() {
  std::vector<std::unique_ptr<Lcp>> lcps;
  lcps.push_back(std::make_unique<SpanningBfsLcp>());
  lcps.push_back(std::make_unique<DegreeOneLcp>());
  lcps.push_back(std::make_unique<EvenCycleLcp>());
  lcps.push_back(std::make_unique<ShatterLcp>(ShatterVariant::kVectorOnPoint));
  lcps.push_back(std::make_unique<WatermelonLcp>(WatermelonVariant::kStandard));
  lcps.push_back(std::make_unique<RevealingLcp>(2));
  return lcps;
}

/// The audit pool's canonical instances plus seeded random ports and ids
/// on random trees, bipartite graphs and grids.
std::vector<NamedInstance> families() {
  std::vector<NamedInstance> out = audit_instance_pool();
  Rng rng(0x601D);
  const auto add = [&](const char* name, Graph g) {
    out.push_back(NamedInstance{
        name, Instance::randomized(std::move(g), 3 * 14, rng)});
  };
  add("tree9", make_random_tree(9, rng));
  add("tree12", make_random_tree(12, rng));
  add("bipartite10", make_random_bipartite(10, 3, rng));
  add("grid34", make_grid(3, 4));
  add("cycle10", make_cycle(10));
  return out;
}

std::vector<FaultPlan> plans(int num_nodes) {
  std::vector<FaultPlan> out = FaultPlan::standard_family(0x60D, num_nodes);
  FaultPlan mixed;
  mixed.label = "mixed";
  mixed.seed = 0x3A11;
  mixed.drop_permille = 150;
  mixed.duplicate_permille = 400;
  mixed.corrupt_permille = 400;
  mixed.byzantine_nodes = {1};
  out.push_back(mixed);
  return out;
}

TEST(SimGoldenTest, HonestRunsUnderStandardFaultFamily) {
  Digest digest;
  int cases = 0;
  for (const auto& lcp : shipped_lcps()) {
    for (const NamedInstance& cand : families()) {
      if (!lcp->in_promise(cand.inst.g)) {
        continue;
      }
      const auto honest =
          lcp->prove(cand.inst.g, cand.inst.ports, cand.inst.ids);
      if (!honest.has_value()) {
        continue;
      }
      const Instance inst = cand.inst.with_labels(*honest);
      digest.add(lcp->name());
      digest.add(cand.name);
      for (const FaultPlan& plan : plans(inst.num_nodes())) {
        digest.add(plan.describe());
        const FaultyRunResult res =
            run_decoder_distributed_faulty(lcp->decoder(), inst, plan);
        for (std::size_t i = 0; i < res.verdicts.size(); ++i) {
          digest.add(static_cast<std::uint64_t>(res.verdicts[i]));
          digest.add(static_cast<std::uint64_t>(res.degraded[i]));
          digest.add(res.views[i]);
        }
        digest.add(res.stats);
        digest.add(res.faults);
        for (int r = 1; r <= 3; ++r) {
          FaultyChannel channel(plan);
          SyncEngine engine(inst, &channel);
          engine.run(r);
          for (Node v = 0; v < inst.num_nodes(); ++v) {
            digest.add(engine.try_view_of(v, r));
          }
          digest.add(engine.stats());
          digest.add(channel.stats());
        }
        ++cases;
      }
    }
  }
  std::printf("golden: %d (lcp, instance, plan) cases, digest 0x%016llx\n",
              cases, static_cast<unsigned long long>(digest.value()));
  EXPECT_GT(cases, 100);
  EXPECT_EQ(digest.value(), kGoldenDigest);
}

}  // namespace
}  // namespace shlcp

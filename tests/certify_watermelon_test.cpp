// Theorem 1.4 (watermelon LCP): completeness over watermelon families,
// strong soundness (randomized plus targeted shapes), the far-port
// reality check the brief announcement leaves implicit (kNoPortCheck is
// mechanically defeated by an all-type-2 odd cycle with self-referential
// certificates), O(log n) certificate sizes, and the Section 7.2 hiding
// witness.

#include <gtest/gtest.h>

#include "certify/watermelon.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "lcp/checker.h"
#include "nbhd/aviews.h"
#include "nbhd/witness.h"
#include "util/rng.h"

namespace shlcp {
namespace {

TEST(WatermelonTest, PromisePredicate) {
  const WatermelonLcp lcp;
  EXPECT_TRUE(lcp.in_promise(make_path(8)));
  EXPECT_TRUE(lcp.in_promise(make_cycle(6)));
  EXPECT_TRUE(lcp.in_promise(make_watermelon({2, 4})));
  EXPECT_TRUE(lcp.in_promise(make_watermelon({3, 3, 5})));
  EXPECT_FALSE(lcp.in_promise(make_watermelon({2, 3})));  // odd cycle
  EXPECT_FALSE(lcp.in_promise(make_star(4)));
  EXPECT_FALSE(lcp.in_promise(make_grid(3, 3)));
}

TEST(WatermelonTest, CompletenessOnFamilies) {
  const WatermelonLcp lcp;
  Rng rng(10);
  std::vector<Graph> graphs{make_path(5),  make_path(8),
                            make_cycle(6), make_cycle(8),
                            make_watermelon({2, 2}),
                            make_watermelon({2, 4, 2}),
                            make_watermelon({3, 3, 3, 5})};
  for (const Graph& g : graphs) {
    ASSERT_TRUE(lcp.in_promise(g));
    // Canonical and random frames.
    {
      const auto report = check_completeness(lcp, Instance::canonical(g));
      EXPECT_TRUE(report.ok) << report.failure;
    }
    for (int rep = 0; rep < 3; ++rep) {
      Instance inst;
      inst.g = g;
      inst.ports = PortAssignment::random(g, rng);
      inst.ids = IdAssignment::random(g, 3 * g.num_nodes(), rng);
      inst.labels = Labeling(g.num_nodes());
      const auto report = check_completeness(lcp, inst);
      EXPECT_TRUE(report.ok) << report.failure;
    }
  }
}

TEST(WatermelonTest, NoPortCheckVariantAcceptsOddCycleUniformCerts) {
  // The exploit: oriented ports, one identical certificate everywhere.
  // Claimed far ports route each check back into the same entry of the
  // identical neighbor certificate, so consistency never meets reality.
  const auto witnesses = no_port_check_witnesses();
  // Reuse the generator's construction on an odd cycle.
  Graph g = make_cycle(5);
  std::vector<std::vector<Port>> lists(5);
  for (Node v = 0; v < 5; ++v) {
    const Node next = (v + 1) % 5;
    const auto nb = g.neighbors(v);
    lists[static_cast<std::size_t>(v)] = {nb[0] == next ? 1 : 2,
                                          nb[1] == next ? 1 : 2};
  }
  Instance inst;
  inst.g = g;
  inst.ports = PortAssignment::from_lists(g, std::move(lists));
  inst.ids = IdAssignment::consecutive(g);
  Labeling labels(5);
  for (Node v = 0; v < 5; ++v) {
    labels.at(v) = make_watermelon_type2(1, 99, 1, 1, 0, 2, 1, 99, 2);
  }
  inst.labels = std::move(labels);

  const WatermelonLcp cheat(WatermelonVariant::kNoPortCheck);
  EXPECT_TRUE(cheat.decoder().accepts_all(inst))
      << "the literal condition 3(c) reading should accept everywhere";

  const WatermelonLcp standard(WatermelonVariant::kStandard);
  EXPECT_FALSE(standard.decoder().accepts_all(inst))
      << "the far-port reality check must kill the self-referential certs";
  // And in fact every node rejects under the standard rules.
  for (const bool verdict : standard.decoder().run(inst)) {
    EXPECT_FALSE(verdict);
  }

  // The same uniform certificates on EVEN cycles are accepted by the
  // cheat -- those instances are bipartite, which is what pushes the
  // exploitable views into V(D, n).
  for (const Instance& w : witnesses) {
    EXPECT_TRUE(cheat.decoder().accepts_all(w));
    EXPECT_TRUE(is_bipartite(w.g));
  }
}

TEST(WatermelonTest, StandardStrongSoundnessRandomized) {
  const WatermelonLcp lcp(WatermelonVariant::kStandard);
  Rng rng(2024);
  std::vector<Graph> graphs{make_cycle(5), make_cycle(7),
                            make_watermelon({2, 3}),     // odd theta
                            make_watermelon({2, 2, 3}),  // odd, degree 3
                            make_theta(3, 3, 4)};
  for (int rep = 0; rep < 4; ++rep) {
    graphs.push_back(make_random_graph(7, 1, 3, rng));
  }
  for (const Graph& g : graphs) {
    if (g.num_nodes() == 0) {
      continue;
    }
    const auto report = check_strong_soundness_random(
        lcp, Instance::canonical(g), 500, rng);
    EXPECT_TRUE(report.ok) << report.failure;
  }
}

TEST(WatermelonTest, StandardStrongSoundnessExhaustiveTriangle) {
  // Full sweep on the triangle: every node ranges over the whole
  // adversarial space.
  const WatermelonLcp lcp(WatermelonVariant::kStandard, /*max_paths=*/1);
  const auto report = check_strong_soundness_exhaustive(
      lcp, Instance::canonical(make_cycle(3)), 30'000'000);
  EXPECT_TRUE(report.ok) << report.failure;
}

TEST(WatermelonTest, EndpointStarMustBeMonochromatic) {
  // Two paths of different parity between the endpoints: the honest
  // prover declines (non-bipartite), and hand-built certificates where
  // the endpoint sees two different edge colors must be rejected there.
  const Graph g = make_watermelon({2, 3});
  Instance inst = Instance::canonical(g);
  const Ident bound = inst.ids.bound();
  const int pb = g.max_degree();
  // Endpoints are nodes 0, 1 (ids 1, 2). Path A interior: node 2;
  // path B interior: nodes 3, 4.
  Labeling labels(5);
  labels.at(0) = make_watermelon_type1(1, 2, bound);
  labels.at(1) = make_watermelon_type1(1, 2, bound);
  auto port_of = [&](Node u, Node w) { return inst.ports.port(g, u, w); };
  // Path A colored 0 at v1-side; path B colored 0 at v1 then alternating.
  labels.at(2) = make_watermelon_type2(
      1, 2, 1, port_of(0, 2), 0, port_of(1, 2), 1, bound, pb);
  labels.at(3) = make_watermelon_type2(
      1, 2, 2, port_of(0, 3), 0, port_of(4, 3), 1, bound, pb);
  labels.at(4) = make_watermelon_type2(
      1, 2, 2, port_of(1, 4), 0, port_of(3, 4), 1, bound, pb);
  inst.labels = std::move(labels);
  const WatermelonLcp lcp;
  // v2 = node 1 sees path A's last edge colored 1 and path B's last edge
  // colored 0: the monochromaticity check 2(d) fires.
  const auto verdicts = lcp.decoder().run(inst);
  EXPECT_FALSE(verdicts[1]);
  // And the accepting set stays bipartite.
  const auto acc = lcp.decoder().accepting_set(inst);
  EXPECT_TRUE(is_bipartite(inst.g.induced_subgraph(acc)));
}

TEST(WatermelonTest, HidingViaSection72Witness) {
  const WatermelonLcp lcp;
  const auto instances = watermelon_witnesses();
  for (const Instance& inst : instances) {
    ASSERT_TRUE(lcp.decoder().accepts_all(inst));
  }
  const auto nbhd =
      build(BuildSource::instances(lcp.decoder(), instances, 2), one_thread())
          .take();
  const auto cycle = nbhd.odd_cycle();
  ASSERT_TRUE(cycle.has_value())
      << "Section 7.2 witness family yields no odd cycle";
  EXPECT_FALSE(nbhd.k_colorable(2));
}

TEST(WatermelonTest, CertificateSizeLogarithmic) {
  const WatermelonLcp lcp;
  int prev_bits = 0;
  for (int n : {8, 16, 32, 64, 128}) {
    const Graph g = make_path(n);
    Instance inst = Instance::canonical(g);
    const auto labels = lcp.prove(g, inst.ports, inst.ids);
    ASSERT_TRUE(labels.has_value());
    const int bits = labels->max_bits();
    int log_n = 1;
    while ((1 << log_n) < n + 1) {
      ++log_n;
    }
    EXPECT_LE(bits, 1 + 3 * log_n + 2 * 2 + 2);
    EXPECT_GE(bits, prev_bits);  // monotone in n
    prev_bits = bits;
  }
}

TEST(WatermelonTest, IdentifierMattersToDecoder) {
  // The decoder is genuinely id-using: endpoint acceptance depends on the
  // actual identifier matching the claim.
  const WatermelonLcp lcp;
  const Graph g = make_path(5);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  EXPECT_TRUE(lcp.decoder().accepts_all(inst));
  // Swap the endpoint identifiers with interior ones: claims break.
  Instance swapped = inst;
  swapped.ids = IdAssignment::from_vector({3, 2, 1, 4, 5}, 5);
  EXPECT_FALSE(lcp.decoder().accepts_all(swapped));
}

}  // namespace
}  // namespace shlcp

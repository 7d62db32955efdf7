// Theorem 1.3 (shatter-point LCP): completeness, strong soundness of the
// repaired (vector-on-point) decoder -- exhaustive on tiny graphs,
// randomized beyond -- the REPRODUCTION FINDING that the literal decoder
// of the brief announcement is not strongly sound (C5 plus two pendant
// type-0 claimants), certificate-size accounting, and the Section 7.1
// P1/P2 hiding witness.

#include <gtest/gtest.h>

#include "certify/shatter.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "lcp/checker.h"
#include "nbhd/aviews.h"
#include "nbhd/witness.h"
#include "util/rng.h"

namespace shlcp {
namespace {

TEST(ShatterTest, PromisePredicate) {
  const ShatterLcp lcp;
  EXPECT_TRUE(lcp.in_promise(make_path(7)));
  EXPECT_TRUE(lcp.in_promise(make_grid(3, 5)));
  EXPECT_FALSE(lcp.in_promise(make_path(4)));     // no shatter point
  EXPECT_FALSE(lcp.in_promise(make_cycle(5)));    // not bipartite
  EXPECT_FALSE(lcp.in_promise(make_complete(4)));
}

class ShatterVariantTest
    : public ::testing::TestWithParam<ShatterVariant> {};

TEST_P(ShatterVariantTest, CompletenessOnPromiseFamilies) {
  const ShatterLcp lcp(GetParam());
  std::vector<Graph> graphs{make_path(7), make_path(8), make_grid(3, 5),
                            make_double_broom(5, 2, 2)};
  // A spider with three legs of length 2.
  Graph spider(7);
  spider.add_edge(0, 1);
  spider.add_edge(1, 2);
  spider.add_edge(0, 3);
  spider.add_edge(3, 4);
  spider.add_edge(0, 5);
  spider.add_edge(5, 6);
  graphs.push_back(std::move(spider));
  for (const Graph& g : graphs) {
    ASSERT_TRUE(lcp.in_promise(g));
    const auto report = check_completeness(lcp, Instance::canonical(g));
    EXPECT_TRUE(report.ok) << lcp.decoder().name() << ": " << report.failure;
  }
}

TEST_P(ShatterVariantTest, CompletenessOnAllSmallPromiseGraphs) {
  const ShatterLcp lcp(GetParam());
  int count = 0;
  for (int n = 5; n <= 6; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      if (!lcp.in_promise(g)) {
        return true;
      }
      ++count;
      const auto report = check_completeness(lcp, Instance::canonical(g));
      EXPECT_TRUE(report.ok) << report.failure;
      return true;
    });
  }
  EXPECT_GT(count, 0);
}

INSTANTIATE_TEST_SUITE_P(Variants, ShatterVariantTest,
                         ::testing::Values(ShatterVariant::kLiteral,
                                           ShatterVariant::kVectorOnPoint));

// THE REPRODUCTION FINDING: the literal decoder accepts an odd cycle.
TEST(ShatterTest, LiteralDecoderViolatesStrongSoundness) {
  // C5 with nodes a(0) - t1(1) - b(2) - c(3) - t2(4) - a(0); pendants
  // w1(5) on t1 and w2(6) on t2. t1 and t2 are NOT adjacent. Components:
  // {a} is component 1 (adjacent to both), {b, c} is component 2.
  Graph g(7);
  g.add_edge(0, 1);  // a - t1
  g.add_edge(1, 2);  // t1 - b
  g.add_edge(2, 3);  // b - c
  g.add_edge(3, 4);  // c - t2
  g.add_edge(4, 0);  // t2 - a
  g.add_edge(1, 5);  // t1 - w1
  g.add_edge(4, 6);  // t2 - w2
  Instance inst = Instance::canonical(g);
  const Ident claimed = inst.ids.id_of(5);  // w1's identifier (= 6)
  const Ident bound = inst.ids.bound();

  Labeling labels(7);
  labels.at(1) = make_shatter_type1(claimed, {0, 1}, bound);  // t1
  labels.at(4) = make_shatter_type1(claimed, {0, 0}, bound);  // t2
  labels.at(0) = make_shatter_type2(claimed, 1, 0, bound, 2);  // a
  labels.at(2) = make_shatter_type2(claimed, 2, 1, bound, 2);  // b
  labels.at(3) = make_shatter_type2(claimed, 2, 0, bound, 2);  // c
  labels.at(5) = make_shatter_type0(claimed, {}, bound);        // w1
  labels.at(6) = make_shatter_type0(claimed, {}, bound);        // w2
  inst.labels = std::move(labels);

  const ShatterLcp literal(ShatterVariant::kLiteral);
  const auto acc = literal.decoder().accepting_set(inst);
  // The entire odd cycle accepts (w2 rejects: its claimed id is not its
  // own, so plain soundness survives -- only STRONG soundness breaks).
  for (Node v : {0, 1, 2, 3, 4}) {
    EXPECT_TRUE(std::find(acc.begin(), acc.end(), v) != acc.end())
        << "node " << v << " unexpectedly rejected";
  }
  const Graph induced = inst.g.induced_subgraph(acc);
  EXPECT_FALSE(is_bipartite(induced))
      << "expected the literal decoder to accept an odd cycle";

  // The repaired decoder kills the same labeling (certificates parse
  // differently, so build the equivalent vector-on-point labeling).
  Labeling repaired(7);
  repaired.at(1) = make_shatter_type1(claimed, {}, bound);
  repaired.at(4) = make_shatter_type1(claimed, {}, bound);
  repaired.at(0) = make_shatter_type2(claimed, 1, 0, bound, 2);
  repaired.at(2) = make_shatter_type2(claimed, 2, 1, bound, 2);
  repaired.at(3) = make_shatter_type2(claimed, 2, 0, bound, 2);
  repaired.at(5) = make_shatter_type0(claimed, {0, 1}, bound);
  repaired.at(6) = make_shatter_type0(claimed, {0, 0}, bound);
  Instance inst2 = inst.with_labels(std::move(repaired));
  const ShatterLcp fixed(ShatterVariant::kVectorOnPoint);
  const auto acc2 = fixed.decoder().accepting_set(inst2);
  EXPECT_TRUE(is_bipartite(inst2.g.induced_subgraph(acc2)));
}

TEST(ShatterTest, RepairedStrongSoundnessExhaustiveTiny) {
  // Full labeling sweep on all connected graphs with 3 nodes (the
  // triangle included).
  const ShatterLcp lcp(ShatterVariant::kVectorOnPoint);
  for_each_connected_graph(3, [&](const Graph& g) {
    const auto report =
        check_strong_soundness_exhaustive(lcp, Instance::canonical(g));
    EXPECT_TRUE(report.ok) << report.failure;
    return true;
  });
}

TEST(ShatterTest, RepairedStrongSoundnessExhaustiveFourNodes) {
  // The decisive small no-instances at n = 4, swept over the FULL
  // adversarial space (44 certificates per node, ~3.7M labelings each):
  // the triangle-with-pendant (an accepting odd cycle would need exactly
  // the literal decoder's loophole) and C4 plus a chord.
  const ShatterLcp lcp(ShatterVariant::kVectorOnPoint);
  Graph tri_pendant = make_cycle(3);
  const Node leaf = tri_pendant.add_node();
  tri_pendant.add_edge(0, leaf);
  Graph diamond = make_cycle(4);
  diamond.add_edge(0, 2);
  for (const Graph& g : {tri_pendant, diamond}) {
    const auto report =
        check_strong_soundness_exhaustive(lcp, Instance::canonical(g));
    EXPECT_TRUE(report.ok) << report.failure;
    EXPECT_GT(report.cases, 3'000'000u);
  }
}

TEST(ShatterTest, RepairedStrongSoundnessRandomized) {
  const ShatterLcp lcp(ShatterVariant::kVectorOnPoint, 3);
  Rng rng(1234);
  std::vector<Graph> graphs{make_cycle(5),  make_cycle(7),
                            make_path(7),   make_theta(2, 2, 3),
                            make_grid(3, 3)};
  for (int rep = 0; rep < 6; ++rep) {
    graphs.push_back(make_random_graph(7, 1, 3, rng));
  }
  for (const Graph& g : graphs) {
    if (g.num_nodes() == 0) {
      continue;
    }
    const auto report = check_strong_soundness_random(
        lcp, Instance::canonical(g), 400, rng);
    EXPECT_TRUE(report.ok) << report.failure;
  }
}

TEST(ShatterTest, RepairedStrongSoundnessTargetedCounterexampleShapes) {
  // The exact shapes that defeat the literal decoder, under a randomized
  // sweep with the repaired one: C5/C7 with pendant claimants.
  const ShatterLcp lcp(ShatterVariant::kVectorOnPoint);
  Rng rng(777);
  for (int cycle_len : {5, 7}) {
    Graph g = make_cycle(cycle_len);
    const Node w1 = g.add_node();
    const Node w2 = g.add_node();
    g.add_edge(1, w1);
    g.add_edge((cycle_len + 1) / 2, w2);
    const auto report = check_strong_soundness_random(
        lcp, Instance::canonical(g), 2000, rng);
    EXPECT_TRUE(report.ok) << report.failure;
  }
}

TEST(ShatterTest, HidingViaP1P2Witness) {
  // Section 7.1's construction, for both certificate layouts.
  for (const bool on_point : {false, true}) {
    const ShatterLcp lcp(on_point ? ShatterVariant::kVectorOnPoint
                                  : ShatterVariant::kLiteral);
    const auto instances = shatter_witnesses(on_point);
    // Sanity: the witnesses are honestly accepted.
    for (const Instance& inst : instances) {
      EXPECT_TRUE(lcp.decoder().accepts_all(inst));
    }
    const auto nbhd =
        build(BuildSource::instances(lcp.decoder(), instances, 2), one_thread())
            .take();
    EXPECT_TRUE(nbhd.odd_cycle().has_value())
        << "layout " << (on_point ? "vector-on-point" : "literal")
        << ": hiding witness missing";
  }
}

TEST(ShatterTest, CertificateSizeBound) {
  // O(min{Delta^2, n} + log n): on stars-of-paths the vector has as many
  // entries as components; verify the bit count tracks k + log N.
  const ShatterLcp lcp;
  for (int legs : {2, 4, 8}) {
    Graph g(1);
    for (int i = 0; i < legs; ++i) {
      const Node mid = g.add_node();
      const Node end = g.add_node();
      g.add_edge(0, mid);
      g.add_edge(mid, end);
    }
    Instance inst = Instance::canonical(g);
    const auto labels = lcp.prove(g, inst.ports, inst.ids);
    ASSERT_TRUE(labels.has_value());
    const int n = g.num_nodes();
    int log_n = 1;
    while ((1 << log_n) < n + 1) {
      ++log_n;
    }
    EXPECT_LE(labels->max_bits(), 2 + log_n + 2 * (log_n + 1) + legs);
    EXPECT_GE(labels->max_bits(), legs);  // the vector dominates
  }
}

TEST(ShatterTest, ProverPicksAValidShatterPoint) {
  const ShatterLcp lcp;
  const Graph g = make_path(9);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  EXPECT_TRUE(lcp.decoder().accepts_all(inst));
  // The type-0 certificate sits on a genuine shatter point.
  Node point = -1;
  for (Node v = 0; v < g.num_nodes(); ++v) {
    if (inst.labels.at(v).fields[0] == 0) {
      point = v;
    }
  }
  ASSERT_NE(point, -1);
  const auto pts = shatter_points(g);
  EXPECT_TRUE(std::find(pts.begin(), pts.end(), point) != pts.end());
}

}  // namespace
}  // namespace shlcp

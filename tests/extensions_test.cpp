// Tests for the step-5 extensions:
//  - quantified hiding / chromatic thresholds (nbhd/quantified.h),
//  - the spanning-BFS bipartiteness baseline (certify/spanning_bfs.h),
//  - the erasure-resilience contrast checker (lcp/checker.h).

#include <gtest/gtest.h>

#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/revealing.h"
#include "certify/spanning_bfs.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "lcp/checker.h"
#include "nbhd/aviews.h"
#include "nbhd/quantified.h"
#include "nbhd/witness.h"
#include "util/rng.h"

namespace shlcp {
namespace {

std::vector<Graph> promise_family(const Lcp& lcp, int max_n) {
  std::vector<Graph> graphs;
  for (int n = 2; n <= max_n; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      if (lcp.in_promise(g)) {
        graphs.push_back(g);
      }
      return true;
    });
  }
  return graphs;
}

TEST(QuantifiedTest, ComponentAnalysisBasics) {
  const RevealingLcp lcp(2);
  const auto nbhd =
      build(BuildSource::exhaustive(lcp, promise_family(lcp, 3)), one_thread())
          .take();
  const auto analysis = analyze_components(nbhd);
  EXPECT_EQ(static_cast<int>(analysis.component_of_view.size()),
            nbhd.num_views());
  EXPECT_GE(analysis.num_components, 1);
  for (const bool b : analysis.component_bipartite) {
    EXPECT_TRUE(b);  // revealing LCP: everything extractable
  }
}

TEST(QuantifiedTest, RevealingLcpHidesNothing) {
  const RevealingLcp lcp(2);
  const auto nbhd =
      build(BuildSource::exhaustive(lcp, promise_family(lcp, 4)), one_thread())
          .take();
  const Graph g = make_path(4);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  EXPECT_EQ(hidden_fraction(nbhd, lcp.decoder(), inst), 0.0);
}

TEST(QuantifiedTest, EvenCycleHidesEverywhereOnMatchedPorts) {
  // The matched-port C4 instance whose views all coincide (a loop in V):
  // every node is obstructed -- "hiding everywhere", quantified.
  const EvenCycleLcp lcp;
  const Graph g = make_cycle(4);
  std::vector<std::vector<Port>> lists(4);
  lists[0] = {1, 2};
  lists[1] = {1, 2};
  lists[2] = {2, 1};
  lists[3] = {2, 1};
  Instance inst;
  inst.g = g;
  inst.ports = PortAssignment::from_lists(g, std::move(lists));
  inst.ids = IdAssignment::consecutive(g);
  Labeling labels(4);
  for (Node v = 0; v < 4; ++v) {
    labels.at(v) = make_even_cycle_certificate(1, 0, 2, 1);
  }
  inst.labels = std::move(labels);

  auto nbhd =
      build(BuildSource::instances(lcp.decoder(), {inst}, 2), one_thread())
          .take();
  EXPECT_EQ(hidden_fraction(nbhd, lcp.decoder(), inst), 1.0);
  // The sharp measure: every node's view is self-conflicting (the loop).
  EXPECT_EQ(self_conflicting_fraction(nbhd, lcp.decoder(), inst), 1.0);
  // A loop defeats every K: no chromatic threshold at all.
  EXPECT_FALSE(chromatic_threshold(nbhd, 10).has_value());
}

TEST(QuantifiedTest, DegreeOneHidesAtFewNodesNotEverywhere) {
  // The degree-one LCP hides "at a single node": its witness view graph
  // is one odd component (so the coarse component measure saturates at 1)
  // but has NO self-conflicting views -- unlike the even-cycle LCP, no
  // two adjacent nodes ever share a view, which is exactly the paper's
  // distinction between hiding somewhere and hiding everywhere.
  const DegreeOneLcp lcp;
  const auto nbhd =
      build(BuildSource::instances(lcp.decoder(), degree_one_witnesses(4), 2),
            one_thread())
          .take();
  ASSERT_TRUE(nbhd.odd_cycle().has_value());

  const Graph g = make_path(4);
  Instance inst = Instance::canonical(g);
  inst.labels = degree_one_labeling(g, 0);
  EXPECT_GT(hidden_fraction(nbhd, lcp.decoder(), inst), 0.0);
  EXPECT_EQ(self_conflicting_fraction(nbhd, lcp.decoder(), inst), 0.0);
}

TEST(QuantifiedTest, ChromaticThresholds) {
  // Revealing: threshold 2 (V is bipartite, never 1-colorable once an
  // edge exists). Degree-one: threshold 3 on the witness graph (odd
  // cycles but 3-colorable), meaning 3-colorings are NOT hidden -- the
  // Section 1.3 contrapositive in numbers.
  const RevealingLcp revealing(2);
  const auto nr =
      build(BuildSource::exhaustive(revealing, promise_family(revealing, 4)),
            one_thread())
          .take();
  EXPECT_EQ(chromatic_threshold(nr, 5), 2);

  const DegreeOneLcp degree_one;
  const auto witnesses = degree_one_witnesses(4);
  const auto nd =
      build(BuildSource::instances(degree_one.decoder(), witnesses, 2),
            one_thread())
          .take();
  const auto threshold = chromatic_threshold(nd, 6);
  ASSERT_TRUE(threshold.has_value());
  EXPECT_GE(*threshold, 3);
}

TEST(SpanningBfsTest, Promise) {
  const SpanningBfsLcp lcp;
  EXPECT_TRUE(lcp.in_promise(make_path(6)));
  EXPECT_TRUE(lcp.in_promise(make_grid(3, 4)));
  EXPECT_FALSE(lcp.in_promise(make_cycle(5)));
  Graph two(4);
  two.add_edge(0, 1);
  two.add_edge(2, 3);
  EXPECT_FALSE(lcp.in_promise(two));  // disconnected
}

TEST(SpanningBfsTest, CompletenessOnAllSmallPromiseGraphs) {
  const SpanningBfsLcp lcp;
  for (const Graph& g : promise_family(lcp, 5)) {
    const auto report = check_completeness(lcp, Instance::canonical(g));
    EXPECT_TRUE(report.ok) << report.failure;
  }
}

TEST(SpanningBfsTest, StrongSoundnessExhaustiveTiny) {
  const SpanningBfsLcp lcp;
  // Space is n^2 per node: full sweep on all connected graphs <= 4 nodes.
  for (int n = 2; n <= 4; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      const auto report =
          check_strong_soundness_exhaustive(lcp, Instance::canonical(g));
      EXPECT_TRUE(report.ok) << report.failure;
      return true;
    });
  }
}

TEST(SpanningBfsTest, StrongSoundnessRandomized) {
  const SpanningBfsLcp lcp;
  Rng rng(4242);
  for (const Graph& g : {make_cycle(5), make_cycle(7), make_grid(3, 3)}) {
    const auto report = check_strong_soundness_random(
        lcp, Instance::canonical(g), 500, rng);
    EXPECT_TRUE(report.ok) << report.failure;
  }
}

TEST(SpanningBfsTest, NotHiding) {
  // The whole point of the baseline: V(D, n) is 2-colorable -- the
  // distance parity IS the coloring. Exhaustive at n <= 3 (the space is
  // n^2 certificates per node, so n = 4 exhaustive costs minutes) and
  // honest-labelings-only at n = 4.
  const SpanningBfsLcp lcp;
  {
    const auto nbhd =
        build(BuildSource::exhaustive(lcp, promise_family(lcp, 3)),
              one_thread())
            .take();
    EXPECT_TRUE(nbhd.k_colorable(2));
    EXPECT_EQ(chromatic_threshold(nbhd, 4), 2);
  }
  {
    EnumOptions options;
    options.all_ports = true;
    options.all_id_orders = true;
    const auto nbhd =
        build(BuildSource::proved(lcp, promise_family(lcp, 4)),
              one_thread(options))
            .take();
    EXPECT_TRUE(nbhd.k_colorable(2));
    EXPECT_FALSE(nbhd.odd_cycle().has_value());
  }
}

TEST(SpanningBfsTest, DistParityIsAProperColoring) {
  const SpanningBfsLcp lcp;
  const Graph g = make_grid(3, 4);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  ASSERT_TRUE(lcp.decoder().accepts_all(inst));
  for (const Edge& e : g.edges()) {
    EXPECT_NE(inst.labels.at(e.u).fields[1] % 2,
              inst.labels.at(e.v).fields[1] % 2);
  }
}

TEST(SpanningBfsTest, FakeRootRejected) {
  const SpanningBfsLcp lcp;
  const Graph g = make_path(4);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  // Claim a root id that belongs to node 2 while node 0 holds dist 0.
  for (Node v = 0; v < 4; ++v) {
    inst.labels.at(v).fields[0] = inst.ids.id_of(2);
  }
  const auto verdicts = lcp.decoder().run(inst);
  EXPECT_FALSE(verdicts[0]);  // the dist-0 node's actual id mismatches
}

TEST(ErasureTest, SingleErasureAlwaysDetected) {
  // None of the LCPs tolerates even one erased certificate: the erased
  // node itself (empty certificate, malformed) rejects.
  const DegreeOneLcp degree_one;
  const EvenCycleLcp even_cycle;
  const SpanningBfsLcp spanning;
  struct Case {
    const Lcp* lcp;
    Graph g;
  };
  for (const Case& c :
       {Case{&degree_one, make_path(6)}, Case{&even_cycle, make_cycle(6)},
        Case{&spanning, make_grid(2, 3)}}) {
    const auto report =
        check_erasure_completeness(*c.lcp, Instance::canonical(c.g), 1);
    EXPECT_EQ(report.patterns, static_cast<std::uint64_t>(c.g.num_nodes()));
    EXPECT_EQ(report.still_accepted, 0u);
    EXPECT_GE(report.mean_rejections, 1.0);
  }
}

TEST(ErasureTest, ZeroErasuresAccepted) {
  const DegreeOneLcp lcp;
  const auto report =
      check_erasure_completeness(lcp, Instance::canonical(make_path(5)), 0);
  EXPECT_EQ(report.patterns, 1u);
  EXPECT_EQ(report.still_accepted, 1u);
  EXPECT_EQ(report.mean_rejections, 0.0);
}

TEST(ErasureTest, RejectionCountGrowsWithF) {
  const EvenCycleLcp lcp;
  const Instance inst = Instance::canonical(make_cycle(8));
  const auto r1 = check_erasure_completeness(lcp, inst, 1);
  const auto r2 = check_erasure_completeness(lcp, inst, 2);
  EXPECT_GT(r2.mean_rejections, r1.mean_rejections);
}

}  // namespace
}  // namespace shlcp

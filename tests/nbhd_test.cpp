// Tests for the accepting neighborhood graph (Section 3) and the
// Lemma 3.2 extractor: the revealing LCP's V(D, n) is 2-colorable and the
// compiled extractor recovers a proper coloring on every accepted
// instance (experiment E9's positive control); hiding LCPs defeat the
// extractor construction.

#include <gtest/gtest.h>

#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/revealing.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "lcp/enumerate.h"
#include "nbhd/aviews.h"
#include "nbhd/extractor.h"
#include "nbhd/witness.h"

namespace shlcp {
namespace {

std::vector<Graph> small_bipartite_connected(int max_n) {
  std::vector<Graph> graphs;
  for (int n = 2; n <= max_n; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      if (is_bipartite(g)) {
        graphs.push_back(g);
      }
      return true;
    });
  }
  return graphs;
}

TEST(NbhdTest, AbsorbRegistersAcceptingViewsOnly) {
  const RevealingLcp lcp(2);
  const Graph g = make_path(4);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  inst.labels.at(0) = Certificate{{2}, 1};  // out-of-range: 0 rejects
  NbhdGraph nbhd;
  nbhd.absorb(lcp.decoder(), inst, 2);
  // Node 1 also rejects (cannot verify the malformed neighbor).
  EXPECT_EQ(nbhd.num_views(), 2);
  EXPECT_EQ(nbhd.num_edges(), 1);
}

TEST(NbhdTest, AbsorbRejectsNoInstances) {
  const RevealingLcp lcp(2);
  NbhdGraph nbhd;
  const Instance inst = Instance::canonical(make_cycle(5));
  EXPECT_THROW(nbhd.absorb(lcp.decoder(), inst, 2), CheckError);
}

TEST(NbhdTest, DedupAcrossInstances) {
  const RevealingLcp lcp(2);
  const Graph g = make_path(3);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  NbhdGraph nbhd;
  nbhd.absorb(lcp.decoder(), inst, 2);
  const int before = nbhd.num_views();
  nbhd.absorb(lcp.decoder(), inst, 2);  // identical instance: no growth
  EXPECT_EQ(nbhd.num_views(), before);
}

TEST(NbhdTest, IndexOfRoundTrips) {
  const RevealingLcp lcp(2);
  const Graph g = make_cycle(4);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  NbhdGraph nbhd;
  nbhd.absorb(lcp.decoder(), inst, 2);
  for (int i = 0; i < nbhd.num_views(); ++i) {
    EXPECT_EQ(nbhd.index_of(nbhd.view(i)), i);
  }
  // A foreign view is unknown.
  const Instance other = Instance::canonical(make_star(5));
  EXPECT_EQ(nbhd.index_of(other.view_of(0, 1, true)), -1);
}

TEST(NbhdTest, RevealingNeighborhoodGraphIs2Colorable) {
  // Lemma 3.2, "not hiding" direction: the revealing LCP's exhaustive
  // V(D, n) over all bipartite graphs on <= 4 nodes is 2-colorable.
  const RevealingLcp lcp(2);
  const auto nbhd =
      build(BuildSource::exhaustive(lcp, small_bipartite_connected(4)),
            one_thread())
          .take();
  EXPECT_GT(nbhd.num_views(), 10);
  EXPECT_TRUE(nbhd.k_colorable(2));
  EXPECT_FALSE(nbhd.odd_cycle().has_value());
}

TEST(NbhdTest, ExtractorRecoversColoringEverywhere) {
  const RevealingLcp lcp(2);
  const auto graphs = small_bipartite_connected(4);
  auto nbhd = build(BuildSource::exhaustive(lcp, graphs), one_thread()).take();
  auto extractor = Extractor::build(lcp.decoder(), std::move(nbhd), 2);
  ASSERT_TRUE(extractor.has_value());

  // On every honestly-labeled instance of the same size range, the
  // extractor outputs a PROPER 2-coloring.
  int tested = 0;
  for (const Graph& g : graphs) {
    Instance inst = Instance::canonical(g);
    inst.labels = *lcp.prove(g, inst.ports, inst.ids);
    const auto colors = extractor->run(inst);
    ASSERT_TRUE(colors.has_value());
    for (const Edge& e : g.edges()) {
      EXPECT_NE((*colors)[static_cast<std::size_t>(e.u)],
                (*colors)[static_cast<std::size_t>(e.v)]);
    }
    ++tested;
  }
  EXPECT_GT(tested, 5);
}

TEST(NbhdTest, ExtractorWorksOnAdversarialAcceptedLabelings) {
  // Lemma 3.2's statement quantifies over every accepted certificate
  // assignment, not just honest ones: sweep all accepted labelings of P3.
  const RevealingLcp lcp(2);
  EnumOptions options;
  auto nbhd =
      build(BuildSource::exhaustive(lcp, small_bipartite_connected(4)),
            one_thread(options))
          .take();
  auto extractor = Extractor::build(lcp.decoder(), std::move(nbhd), 2);
  ASSERT_TRUE(extractor.has_value());

  const Graph g = make_path(3);
  int accepted = 0;
  for_each_labeled_instance(lcp, {g}, options, [&](const Instance& inst) {
    if (!lcp.decoder().accepts_all(inst)) {
      return true;
    }
    ++accepted;
    const auto colors = extractor->run(inst);
    EXPECT_TRUE(colors.has_value());
    if (colors.has_value()) {
      for (const Edge& e : g.edges()) {
        EXPECT_NE((*colors)[static_cast<std::size_t>(e.u)],
                  (*colors)[static_cast<std::size_t>(e.v)]);
      }
    }
    return true;
  });
  EXPECT_EQ(accepted, 2);  // exactly the two proper colorings of P3
}

TEST(NbhdTest, ExtractorUnknownViewReported) {
  const RevealingLcp lcp(2);
  auto nbhd =
      build(BuildSource::exhaustive(lcp, {make_path(2)}), one_thread()).take();
  auto extractor = Extractor::build(lcp.decoder(), std::move(nbhd), 2);
  ASSERT_TRUE(extractor.has_value());
  // A star's center view was never absorbed.
  const Graph g = make_star(3);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  EXPECT_FALSE(extractor->run(inst).has_value());
}

TEST(NbhdTest, ExtractorConstructionFailsForHidingLcps) {
  // Lemma 3.2, hiding direction: a non-2-colorable neighborhood graph
  // defeats the construction.
  {
    const DegreeOneLcp lcp;
    auto nbhd =
        build(BuildSource::instances(lcp.decoder(), degree_one_witnesses(4), 2),
              one_thread())
            .take();
    EXPECT_FALSE(Extractor::build(lcp.decoder(), std::move(nbhd), 2)
                     .has_value());
  }
  {
    const EvenCycleLcp lcp;
    auto nbhd =
        build(BuildSource::instances(lcp.decoder(), even_cycle_witnesses(6), 2),
              one_thread())
            .take();
    EXPECT_FALSE(Extractor::build(lcp.decoder(), std::move(nbhd), 2)
                     .has_value());
  }
}

TEST(NbhdTest, KColoringOfViewsMatchesChromaticNeeds) {
  // For k = 3 the degree-one witness graph becomes colorable (its odd
  // cycles defeat only k = 2)... unless a loop is present. Verify both.
  const DegreeOneLcp lcp;
  auto nbhd =
      build(BuildSource::instances(lcp.decoder(), degree_one_witnesses(4), 2),
            one_thread())
          .take();
  const bool has_loop = [&] {
    for (int i = 0; i < nbhd.num_views(); ++i) {
      if (nbhd.graph().has_edge(i, i)) {
        return true;
      }
    }
    return false;
  }();
  if (!has_loop) {
    // Loop-free: some finite palette suffices (here already k = 5).
    EXPECT_TRUE(nbhd.k_colorable(5));
  } else {
    EXPECT_FALSE(nbhd.k_colorable(5));
  }
}

TEST(NbhdTest, BuildProvedIsSubgraphOfExhaustive) {
  const RevealingLcp lcp(2);
  const std::vector<Graph> graphs{make_path(3), make_cycle(4)};
  const auto proved =
      build(BuildSource::proved(lcp, graphs), one_thread()).take();
  const auto full =
      build(BuildSource::exhaustive(lcp, graphs), one_thread()).take();
  EXPECT_LE(proved.num_views(), full.num_views());
  // Every proved view appears in the full graph.
  for (int i = 0; i < proved.num_views(); ++i) {
    EXPECT_NE(full.index_of(proved.view(i)), -1);
  }
}

}  // namespace
}  // namespace shlcp

// General-k tests: the library's machinery at k = 3 (the paper states
// Lemma 3.2 and the hiding definitions for arbitrary k), and the
// Section 1.3 remark made constructive: because the degree-one LCP's
// neighborhood graph is 3-colorable, a 3-coloring extractor EXISTS for
// its certificates even though the 2-coloring is hidden -- "an LCP that
// hides a K-coloring must hide every k <= K", contrapositively.

#include <gtest/gtest.h>

#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/revealing.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "lcp/checker.h"
#include "nbhd/aviews.h"
#include "nbhd/extractor.h"
#include "nbhd/quantified.h"
#include "nbhd/witness.h"
#include "util/rng.h"

namespace shlcp {
namespace {

TEST(KColTest, Revealing3Completeness) {
  const RevealingLcp lcp(3);
  EXPECT_EQ(lcp.k(), 3);
  for (const Graph& g : {make_cycle(5), make_cycle(7), make_path(6),
                         make_grid(3, 3), make_theta(2, 2, 3)}) {
    ASSERT_TRUE(lcp.in_promise(g));
    const auto report = check_completeness(lcp, Instance::canonical(g));
    EXPECT_TRUE(report.ok) << report.failure;
  }
  EXPECT_FALSE(lcp.in_promise(make_complete(4)));
}

TEST(KColTest, Revealing3StrongSoundnessExhaustive) {
  // Accepting sets are self-colored: 3-colorable under every labeling of
  // every connected graph on up to 4 nodes (4 certificates per node).
  const RevealingLcp lcp(3);
  for_each_connected_graph(4, [&](const Graph& g) {
    const auto report =
        check_strong_soundness_exhaustive(lcp, Instance::canonical(g));
    EXPECT_TRUE(report.ok) << report.failure;
    return true;
  });
}

TEST(KColTest, Revealing3SoundnessOnK4) {
  const RevealingLcp lcp(3);
  const auto report =
      check_soundness_exhaustive(lcp, Instance::canonical(make_complete(4)));
  EXPECT_TRUE(report.ok) << report.failure;
}

TEST(KColTest, Revealing3NeighborhoodGraphIs3Colorable) {
  const RevealingLcp lcp(3);
  std::vector<Graph> graphs;
  for (int n = 2; n <= 4; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      if (lcp.in_promise(g)) {
        graphs.push_back(g);
      }
      return true;
    });
  }
  auto nbhd = build(BuildSource::exhaustive(lcp, graphs), one_thread()).take();
  EXPECT_TRUE(nbhd.k_colorable(3));
  // And the 3-coloring extractor works on every promise instance.
  auto extractor = Extractor::build(lcp.decoder(), std::move(nbhd), 3);
  ASSERT_TRUE(extractor.has_value());
  for (const Graph& g : graphs) {
    Instance inst = Instance::canonical(g);
    inst.labels = *lcp.prove(g, inst.ports, inst.ids);
    const auto colors = extractor->run(inst);
    ASSERT_TRUE(colors.has_value());
    for (const Edge& e : g.edges()) {
      EXPECT_NE((*colors)[static_cast<std::size_t>(e.u)],
                (*colors)[static_cast<std::size_t>(e.v)]);
    }
  }
}

TEST(KColTest, Section13ContrapositiveConstructive) {
  // The degree-one LCP hides 2-colorings (odd cycle in V) but its view
  // graph is 3-colorable -- so a THREE-coloring extractor exists and
  // works on every accepted instance of the witness family, exactly the
  // K > k side of the Section 1.3 discussion.
  const DegreeOneLcp lcp;
  const auto witnesses = degree_one_witnesses(4);
  auto nbhd =
      build(BuildSource::instances(lcp.decoder(), witnesses, 2), one_thread())
          .take();
  ASSERT_TRUE(nbhd.odd_cycle().has_value());          // hides 2-colorings
  ASSERT_TRUE(nbhd.k_colorable(3));                   // but not 3-colorings
  auto extractor = Extractor::build(lcp.decoder(), std::move(nbhd), 3);
  ASSERT_TRUE(extractor.has_value());
  int tested = 0;
  for (const Instance& inst : witnesses) {
    if (!lcp.decoder().accepts_all(inst)) {
      continue;
    }
    const auto colors = extractor->run(inst);
    ASSERT_TRUE(colors.has_value());
    for (const Edge& e : inst.g.edges()) {
      EXPECT_NE((*colors)[static_cast<std::size_t>(e.u)],
                (*colors)[static_cast<std::size_t>(e.v)]);
    }
    ++tested;
  }
  EXPECT_GT(tested, 50);
}

TEST(KColTest, EvenCycleLoopHidesEveryK) {
  // The other side: the even-cycle LCP's self-loop witness defeats
  // K-extraction for EVERY K -- the strongest possible form of the
  // Section 1.3 ordering.
  const EvenCycleLcp lcp;
  // (Rebuild the matched-port loop instance.)
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
  for (int k = 2; k <= 7; ++k) {
    EXPECT_FALSE(nbhd.k_colorable(k)) << "k = " << k;
  }
}

TEST(KColTest, CertificateBitsGrowWithK) {
  EXPECT_EQ(make_color_certificate(0, 2).bits, 1);
  EXPECT_EQ(make_color_certificate(2, 3).bits, 2);
  EXPECT_EQ(make_color_certificate(4, 5).bits, 3);
  EXPECT_EQ(make_color_certificate(7, 8).bits, 3);
  EXPECT_EQ(make_color_certificate(8, 9).bits, 4);
}

TEST(KColTest, RandomizedStrongSoundnessAcrossK) {
  Rng rng(808);
  for (int k = 2; k <= 4; ++k) {
    const RevealingLcp lcp(k);
    for (int rep = 0; rep < 5; ++rep) {
      const Graph g = make_random_graph(7, 1, 2, rng);
      const auto report = check_strong_soundness_random(
          lcp, Instance::canonical(g), 200, rng);
      EXPECT_TRUE(report.ok) << "k = " << k << ": " << report.failure;
    }
  }
}

}  // namespace
}  // namespace shlcp

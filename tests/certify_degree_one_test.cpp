// Lemma 4.1 (degree-one LCP): completeness and strong soundness checked
// EXHAUSTIVELY on all small graphs (the 4-symbol alphabet makes full
// labeling sweeps exact), anonymity, and the hiding property via the
// Figs. 3/4 odd-cycle witness and Lemma 3.2.

#include <gtest/gtest.h>

#include "certify/degree_one.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "lcp/checker.h"
#include "nbhd/aviews.h"
#include "nbhd/witness.h"
#include "util/rng.h"

namespace shlcp {
namespace {

TEST(DegreeOneTest, PromisePredicate) {
  const DegreeOneLcp lcp;
  EXPECT_TRUE(lcp.in_promise(make_path(5)));
  EXPECT_TRUE(lcp.in_promise(make_star(4)));
  EXPECT_TRUE(lcp.in_promise(make_double_broom(3, 2, 2)));
  EXPECT_FALSE(lcp.in_promise(make_cycle(6)));   // min degree 2
  EXPECT_FALSE(lcp.in_promise(make_cycle(5)));   // not bipartite either
  // Odd cycle with a pendant: min degree 1 but not bipartite.
  Graph g = make_cycle(5);
  const Node leaf = g.add_node();
  g.add_edge(0, leaf);
  EXPECT_FALSE(lcp.in_promise(g));
}

TEST(DegreeOneTest, CompletenessOnAllSmallPromiseGraphs) {
  const DegreeOneLcp lcp;
  int graphs_checked = 0;
  for (int n = 2; n <= 6; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      if (!lcp.in_promise(g)) {
        return true;
      }
      ++graphs_checked;
      const auto report = check_completeness(lcp, Instance::canonical(g));
      EXPECT_TRUE(report.ok) << report.failure;
      return true;
    });
  }
  EXPECT_GT(graphs_checked, 100);
}

TEST(DegreeOneTest, CompletenessUnderAllPortsAndIdOrders) {
  // Anonymity means ports are the only relevant dimension, but sweep ids
  // anyway to be sure.
  const DegreeOneLcp lcp;
  const Graph g = make_double_broom(2, 1, 2);  // 5 nodes, min degree 1
  for_each_port_assignment(g, [&](const PortAssignment& ports) {
    return for_each_id_order(g, [&](const IdAssignment& ids) {
      Instance inst;
      inst.g = g;
      inst.ports = ports;
      inst.ids = ids;
      inst.labels = Labeling(g.num_nodes());
      const auto report = check_completeness(lcp, inst);
      EXPECT_TRUE(report.ok) << report.failure;
      return report.ok;
    });
  });
}

TEST(DegreeOneTest, StrongSoundnessExhaustiveAllGraphsUpTo5) {
  // The theorem-level guarantee: for EVERY graph (promise or not), EVERY
  // certificate assignment leaves a bipartite accepting set. 4^n labelings
  // per graph; all connected graphs on up to 5 nodes.
  const DegreeOneLcp lcp;
  std::uint64_t total_labelings = 0;
  for (int n = 2; n <= 5; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      const auto report =
          check_strong_soundness_exhaustive(lcp, Instance::canonical(g));
      EXPECT_TRUE(report.ok) << report.failure;
      total_labelings += report.cases;
      return true;
    });
  }
  EXPECT_GT(total_labelings, 500'000u);
}

TEST(DegreeOneTest, StrongSoundnessExhaustiveWithPortVariation) {
  const DegreeOneLcp lcp;
  const Graph g = make_cycle(5);  // the critical odd cycle
  for_each_port_assignment(g, [&](const PortAssignment& ports) {
    Instance inst;
    inst.g = g;
    inst.ports = ports;
    inst.ids = IdAssignment::consecutive(g);
    inst.labels = Labeling(g.num_nodes());
    const auto report = check_strong_soundness_exhaustive(lcp, inst);
    EXPECT_TRUE(report.ok) << report.failure;
    return report.ok;
  });
}

TEST(DegreeOneTest, StrongSoundnessRandomizedLarger) {
  const DegreeOneLcp lcp;
  Rng rng(99);
  for (int rep = 0; rep < 10; ++rep) {
    const Graph g = make_random_graph(9, 1, 3, rng);
    if (g.num_nodes() == 0) {
      continue;
    }
    const auto report = check_strong_soundness_random(
        lcp, Instance::canonical(g), 300, rng);
    EXPECT_TRUE(report.ok) << report.failure;
  }
}

TEST(DegreeOneTest, DecoderIsAnonymous) {
  const DegreeOneLcp lcp;
  Rng rng(3);
  const Graph g = make_double_broom(3, 1, 1);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  EXPECT_TRUE(lcp.decoder().anonymous());
  EXPECT_TRUE(check_anonymous(lcp.decoder(), inst, 25, rng).ok);
}

/// Runs the decoder at one node of a hand-labeled instance.
bool lcp_accepts_at(const Instance& inst, Node v) {
  const DegreeOneLcp lcp;
  return lcp.decoder().accept(lcp.decoder().input_view(inst, v));
}

TEST(DegreeOneTest, TopRequiresCommonBeta) {
  // The strong-soundness linchpin: a TOP node whose colored neighbors
  // disagree must reject (see the file comment in degree_one.h).
  const Graph g = make_star(3);
  Instance inst = Instance::canonical(g);
  Labeling labels(4);
  labels.at(0) = make_degree_one_certificate(DegreeOneSymbol::kTop);
  labels.at(1) = make_degree_one_certificate(DegreeOneSymbol::kBot);
  labels.at(2) = make_degree_one_certificate(DegreeOneSymbol::kColor0);
  labels.at(3) = make_degree_one_certificate(DegreeOneSymbol::kColor1);
  inst.labels = labels;
  EXPECT_FALSE(lcp_accepts_at(inst, 0));
}

TEST(DegreeOneTest, BotRequiresDegreeOne) {
  const Graph g = make_cycle(4);
  Instance inst = Instance::canonical(g);
  Labeling labels(4);
  labels.at(0) = make_degree_one_certificate(DegreeOneSymbol::kBot);
  labels.at(1) = make_degree_one_certificate(DegreeOneSymbol::kTop);
  labels.at(2) = make_degree_one_certificate(DegreeOneSymbol::kColor0);
  labels.at(3) = make_degree_one_certificate(DegreeOneSymbol::kTop);
  inst.labels = labels;
  EXPECT_FALSE(lcp_accepts_at(inst, 0));
}

TEST(DegreeOneTest, HonestK2Accepted) {
  const DegreeOneLcp lcp;
  const Graph g = make_path(2);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  EXPECT_TRUE(lcp.decoder().accepts_all(inst));
}

TEST(DegreeOneTest, HidingViaFig34Witness) {
  // Figs. 3/4: the witness family yields a non-2-colorable neighborhood
  // graph; by Lemma 3.2 the LCP hides the 2-coloring.
  const DegreeOneLcp lcp;
  const auto instances = degree_one_witnesses(4);
  ASSERT_FALSE(instances.empty());
  const auto nbhd =
      build(BuildSource::instances(lcp.decoder(), instances, 2), one_thread())
          .take();
  EXPECT_GT(nbhd.num_views(), 3);
  const auto cycle = nbhd.odd_cycle();
  ASSERT_TRUE(cycle.has_value()) << "no odd cycle: decoder would be extractable";
  EXPECT_EQ((cycle->size() - 1) % 2, 1u);
  EXPECT_FALSE(nbhd.k_colorable(2));
}

TEST(DegreeOneTest, HidingWitnessSurvivesExhaustiveConstruction) {
  // The full V(D, 4) over all min-degree-1 bipartite graphs on <= 4 nodes
  // (Lemma 3.1's enumeration, exact) is not 2-colorable either.
  const DegreeOneLcp lcp;
  std::vector<Graph> graphs;
  for (int n = 2; n <= 4; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      if (lcp.in_promise(g)) {
        graphs.push_back(g);
      }
      return true;
    });
  }
  EnumOptions options;
  options.all_ports = true;
  const auto nbhd =
      build(BuildSource::exhaustive(lcp, graphs), one_thread(options)).take();
  EXPECT_FALSE(nbhd.k_colorable(2));
}

TEST(DegreeOneTest, NoCommonBetaAblation) {
  // Dropping the common-beta requirement at TOP loses strong soundness.
  // The exhaustive adversarial checker finds the violation automatically
  // on C5 with a pendant BOT (the shape predicted by the parity
  // argument); the standard decoder survives the same sweep.
  Graph g = make_cycle(5);
  const Node pendant = g.add_node();
  g.add_edge(0, pendant);
  const Instance inst = Instance::canonical(g);

  const DegreeOneLcp weakened(DegreeOneVariant::kNoCommonBeta);
  const auto broken = check_strong_soundness_exhaustive(weakened, inst);
  EXPECT_FALSE(broken.ok)
      << "the ablated decoder should accept an odd cycle somewhere in 4^6 "
         "labelings";

  const DegreeOneLcp standard;
  const auto fine = check_strong_soundness_exhaustive(standard, inst);
  EXPECT_TRUE(fine.ok) << fine.failure;

  // The ablation does not affect completeness (the honest prover already
  // makes TOP's colored neighbors agree).
  const Graph promise_graph = make_double_broom(3, 1, 1);
  EXPECT_TRUE(
      check_completeness(weakened, Instance::canonical(promise_graph)).ok);
}

TEST(DegreeOneTest, CertificateSizeIsConstant) {
  const DegreeOneLcp lcp;
  for (int n : {3, 10, 40}) {
    const Graph g = make_path(n);
    Instance inst = Instance::canonical(g);
    const auto labels = lcp.prove(g, inst.ports, inst.ids);
    ASSERT_TRUE(labels.has_value());
    EXPECT_EQ(labels->max_bits(), 2);
  }
}

}  // namespace
}  // namespace shlcp

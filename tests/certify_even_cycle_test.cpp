// Lemma 4.2 (even-cycle LCP): completeness over all even cycles / ports /
// phases, exhaustive strong soundness (16 certificates per node) on all
// graphs up to 4 nodes and on the critical odd cycles, anonymity, and the
// hiding property via the Figs. 5/6 witness family.

#include <gtest/gtest.h>

#include "certify/even_cycle.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "lcp/checker.h"
#include "nbhd/aviews.h"
#include "nbhd/witness.h"
#include "util/rng.h"

namespace shlcp {
namespace {

TEST(EvenCycleTest, PromisePredicate) {
  const EvenCycleLcp lcp;
  EXPECT_TRUE(lcp.in_promise(make_cycle(4)));
  EXPECT_TRUE(lcp.in_promise(make_cycle(10)));
  EXPECT_FALSE(lcp.in_promise(make_cycle(5)));
  EXPECT_FALSE(lcp.in_promise(make_path(6)));
  EXPECT_FALSE(lcp.in_promise(make_theta(2, 2, 2)));
}

class EvenCycleCompletenessTest : public ::testing::TestWithParam<int> {};

TEST_P(EvenCycleCompletenessTest, AllPortsAccept) {
  const EvenCycleLcp lcp;
  const Graph g = make_cycle(GetParam());
  for_each_port_assignment(g, [&](const PortAssignment& ports) {
    Instance inst;
    inst.g = g;
    inst.ports = ports;
    inst.ids = IdAssignment::consecutive(g);
    inst.labels = Labeling(g.num_nodes());
    const auto report = check_completeness(lcp, inst);
    EXPECT_TRUE(report.ok) << report.failure;
    return report.ok;
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, EvenCycleCompletenessTest,
                         ::testing::Values(4, 6, 8));

TEST(EvenCycleTest, BothPhasesAccepted) {
  const Graph g = make_cycle(6);
  const auto ports = PortAssignment::canonical(g);
  const EvenCycleLcp lcp;
  for (int phase = 0; phase <= 1; ++phase) {
    Instance inst;
    inst.g = g;
    inst.ports = ports;
    inst.ids = IdAssignment::consecutive(g);
    inst.labels = even_cycle_labeling(g, ports, phase);
    EXPECT_TRUE(lcp.decoder().accepts_all(inst));
  }
}

TEST(EvenCycleTest, StrongSoundnessExhaustiveTinyGraphs) {
  // 16^n labelings; all connected graphs on up to 4 nodes (16^4 = 65536
  // per graph) -- exact sweep including the triangle.
  const EvenCycleLcp lcp;
  for (int n = 2; n <= 4; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      const auto report =
          check_strong_soundness_exhaustive(lcp, Instance::canonical(g));
      EXPECT_TRUE(report.ok) << report.failure;
      return true;
    });
  }
}

TEST(EvenCycleTest, StrongSoundnessExhaustiveOddCycle5) {
  // The decisive no-instance: C5 with the full 16^5 labeling sweep.
  const EvenCycleLcp lcp;
  const auto report =
      check_strong_soundness_exhaustive(lcp, Instance::canonical(make_cycle(5)));
  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.cases, 1048576u);
}

TEST(EvenCycleTest, SoundnessExhaustiveOddCycle5) {
  const EvenCycleLcp lcp;
  const auto report =
      check_soundness_exhaustive(lcp, Instance::canonical(make_cycle(5)));
  EXPECT_TRUE(report.ok) << report.failure;
}

TEST(EvenCycleTest, StrongSoundnessRandomizedLarger) {
  const EvenCycleLcp lcp;
  Rng rng(55);
  for (const Graph& g : {make_cycle(7), make_cycle(9), make_theta(2, 3, 3),
                         make_grid(3, 3)}) {
    Instance inst;
    inst.g = g;
    inst.ports = PortAssignment::random(g, rng);
    inst.ids = IdAssignment::consecutive(g);
    inst.labels = Labeling(g.num_nodes());
    const auto report = check_strong_soundness_random(lcp, inst, 400, rng);
    EXPECT_TRUE(report.ok) << report.failure;
  }
}

TEST(EvenCycleTest, NonDegree2NodesReject) {
  const EvenCycleLcp lcp;
  // Path endpoints have degree 1: no certificate can make them accept.
  const Graph g = make_path(4);
  Instance inst = Instance::canonical(g);
  for (const Certificate& c :
       lcp.certificate_space(g, inst.ids, 0)) {
    inst.labels.at(0) = c;
    EXPECT_FALSE(
        lcp.decoder().accept(lcp.decoder().input_view(inst, 0)));
  }
}

TEST(EvenCycleTest, ColorAgreementAcrossEdgeRequired) {
  const EvenCycleLcp lcp;
  const Graph g = make_cycle(4);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  // Flip one color in node 2's certificate: both 2 and a neighbor reject.
  Certificate c = inst.labels.at(2);
  c.fields[2] ^= 1;
  c.fields[5] ^= 1;  // keep cA != cB
  inst.labels.at(2) = c;
  const auto verdicts = lcp.decoder().run(inst);
  EXPECT_FALSE(verdicts[2]);
}

TEST(EvenCycleTest, DecoderIsAnonymous) {
  const EvenCycleLcp lcp;
  Rng rng(21);
  const Graph g = make_cycle(6);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  EXPECT_TRUE(check_anonymous(lcp.decoder(), inst, 25, rng).ok);
}

TEST(EvenCycleTest, HidingViaFig56Witness) {
  const EvenCycleLcp lcp;
  const auto instances = even_cycle_witnesses(6);
  ASSERT_FALSE(instances.empty());
  const auto nbhd =
      build(BuildSource::instances(lcp.decoder(), instances, 2), one_thread())
          .take();
  const auto cycle = nbhd.odd_cycle();
  ASSERT_TRUE(cycle.has_value())
      << "no odd cycle among the witness views: hiding would fail";
  EXPECT_FALSE(nbhd.k_colorable(2));
}

TEST(EvenCycleTest, MatchedPortsGiveSelfLoopWitness) {
  // C4 with "matched" ports (each edge has equal port numbers at both
  // ends) and alternating colors makes every anonymized view identical:
  // V(D, n) then has a self-loop -- two adjacent indistinguishable nodes,
  // the strongest possible hiding witness.
  const Graph g = make_cycle(4);
  // Edges 0-1, 1-2, 2-3, 3-0. Matched ports: 0-1 and 2-3 via port pair
  // (1,1); 1-2 and 3-0 via (2,2).
  std::vector<std::vector<Port>> lists(4);
  // neighbors: 0:{1,3} 1:{0,2} 2:{1,3} 3:{0,2}
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

  const EvenCycleLcp lcp;
  ASSERT_TRUE(lcp.decoder().accepts_all(inst));
  const auto nbhd =
      build(BuildSource::instances(lcp.decoder(), {inst}, 2), one_thread())
          .take();
  EXPECT_EQ(nbhd.num_views(), 1);
  EXPECT_TRUE(nbhd.graph().has_edge(0, 0));  // the self-loop
  EXPECT_FALSE(nbhd.k_colorable(2));
  EXPECT_FALSE(nbhd.k_colorable(5));  // a loop defeats every k
}

TEST(EvenCycleTest, CertificateSizeIsConstant) {
  const EvenCycleLcp lcp;
  for (int n : {4, 12, 30}) {
    const Graph g = make_cycle(n);
    Instance inst = Instance::canonical(g);
    const auto labels = lcp.prove(g, inst.ports, inst.ids);
    ASSERT_TRUE(labels.has_value());
    EXPECT_EQ(labels->max_bits(), 6);
  }
}

}  // namespace
}  // namespace shlcp

// Theorem 1.1: the union of the degree-one LCP (class H1) and the
// even-cycle LCP (class H2) is a single anonymous, strong and hiding LCP
// for 2-col over H1 union H2 with constant-size certificates.

#include <gtest/gtest.h>

#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/revealing.h"
#include "certify/union_lcp.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "lcp/checker.h"
#include "nbhd/aviews.h"
#include "nbhd/witness.h"
#include "util/rng.h"

namespace shlcp {
namespace {

class Theorem11Fixture : public ::testing::Test {
 protected:
  DegreeOneLcp degree_one_;
  EvenCycleLcp even_cycle_;
  UnionLcp lcp_{{&degree_one_, &even_cycle_}};
};

TEST_F(Theorem11Fixture, TaggingRoundTrips) {
  const Certificate inner{{3, 4}, 5};
  const Certificate tagged = tag_certificate(1, inner, 2);
  EXPECT_EQ(tagged.bits, 6);
  const auto split = untag_certificate(tagged, 2);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->first, 1);
  EXPECT_EQ(split->second, inner);
  EXPECT_FALSE(untag_certificate(Certificate{{5, 0}, 3}, 2).has_value());
  EXPECT_FALSE(untag_certificate(Certificate{}, 2).has_value());
}

TEST_F(Theorem11Fixture, PromiseIsTheUnion) {
  EXPECT_TRUE(lcp_.in_promise(make_path(5)));     // H1
  EXPECT_TRUE(lcp_.in_promise(make_cycle(6)));    // H2
  EXPECT_FALSE(lcp_.in_promise(make_cycle(5)));   // odd cycle
  EXPECT_FALSE(lcp_.in_promise(make_grid(3, 3))); // neither class
}

TEST_F(Theorem11Fixture, CompletenessAcrossBothClasses) {
  for (const Graph& g : {make_path(6), make_star(4), make_double_broom(3, 2, 1),
                         make_cycle(4), make_cycle(8)}) {
    const auto report = check_completeness(lcp_, Instance::canonical(g));
    EXPECT_TRUE(report.ok) << report.failure;
  }
}

TEST_F(Theorem11Fixture, DecoderIsAnonymous) {
  EXPECT_TRUE(lcp_.decoder().anonymous());
  Rng rng(8);
  const Graph g = make_cycle(6);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp_.prove(g, inst.ports, inst.ids);
  EXPECT_TRUE(check_anonymous(lcp_.decoder(), inst, 20, rng).ok);
}

TEST_F(Theorem11Fixture, ConstantSizeCertificates) {
  for (const Graph& g : {make_path(30), make_cycle(24)}) {
    Instance inst = Instance::canonical(g);
    const auto labels = lcp_.prove(g, inst.ports, inst.ids);
    ASSERT_TRUE(labels.has_value());
    EXPECT_LE(labels->max_bits(), 7);  // max(2, 6) + 1 tag bit
  }
}

TEST_F(Theorem11Fixture, MixedTagsNeverAcceptTogether) {
  // A path labeled with degree-one certificates except one node carrying
  // an (honestly-shaped) even-cycle certificate: that node and its
  // neighbors reject.
  const Graph g = make_path(5);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp_.prove(g, inst.ports, inst.ids);
  inst.labels.at(2) =
      tag_certificate(1, make_even_cycle_certificate(1, 0, 2, 1), 2);
  const auto verdicts = lcp_.decoder().run(inst);
  EXPECT_FALSE(verdicts[1]);
  EXPECT_FALSE(verdicts[2]);
  EXPECT_FALSE(verdicts[3]);
}

TEST_F(Theorem11Fixture, StrongSoundnessExhaustiveTiny) {
  // Certificate space: 4 + 16 = 20 per node; all connected graphs on up
  // to 3 nodes plus the two 4-node extremes.
  for (int n = 2; n <= 3; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      const auto report =
          check_strong_soundness_exhaustive(lcp_, Instance::canonical(g));
      EXPECT_TRUE(report.ok) << report.failure;
      return true;
    });
  }
  for (const Graph& g : {make_cycle(4), make_complete(4)}) {
    const auto report =
        check_strong_soundness_exhaustive(lcp_, Instance::canonical(g));
    EXPECT_TRUE(report.ok) << report.failure;
  }
}

TEST_F(Theorem11Fixture, StrongSoundnessExhaustiveC5) {
  const auto report = check_strong_soundness_exhaustive(
      lcp_, Instance::canonical(make_cycle(5)), 5'000'000);
  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.cases, 3'200'000u);  // 20^5
}

TEST_F(Theorem11Fixture, StrongSoundnessRandomized) {
  Rng rng(606);
  for (int rep = 0; rep < 8; ++rep) {
    const Graph g = make_random_graph(8, 1, 3, rng);
    const auto report = check_strong_soundness_random(
        lcp_, Instance::canonical(g), 300, rng);
    EXPECT_TRUE(report.ok) << report.failure;
  }
}

TEST_F(Theorem11Fixture, ThreeWayUnion) {
  // The combinator generalizes past the theorem's two classes: add the
  // revealing LCP as a third branch (promise: all bipartite graphs).
  // The tag then costs 2 bits; completeness covers all three classes and
  // strong soundness survives a randomized sweep.
  const RevealingLcp revealing(2);
  const UnionLcp three({&degree_one_, &even_cycle_, &revealing});
  for (const Graph& g : {make_path(5), make_cycle(6), make_grid(3, 3)}) {
    EXPECT_TRUE(three.in_promise(g));
    const auto report = check_completeness(three, Instance::canonical(g));
    EXPECT_TRUE(report.ok) << report.failure;
  }
  Rng rng(51);
  const auto report = check_strong_soundness_random(
      three, Instance::canonical(make_cycle(5)), 800, rng);
  EXPECT_TRUE(report.ok) << report.failure;
  // Tag accounting: 2 bits on top of the widest component.
  const Graph g = make_grid(3, 3);
  Instance inst = Instance::canonical(g);
  const auto labels = three.prove(g, inst.ports, inst.ids);
  ASSERT_TRUE(labels.has_value());
  EXPECT_LE(labels->max_bits(), 8);
}

TEST_F(Theorem11Fixture, HidingInheritedFromBothComponents) {
  // Tag the witness instances of either component and find odd cycles in
  // the union's neighborhood graph -- the hiding witness lifts.
  auto tag_instances = [](std::vector<Instance> instances, int tag) {
    for (Instance& inst : instances) {
      Labeling tagged(inst.num_nodes());
      for (Node v = 0; v < inst.num_nodes(); ++v) {
        tagged.at(v) = tag_certificate(tag, inst.labels.at(v), 2);
      }
      inst.labels = std::move(tagged);
    }
    return instances;
  };
  {
    const auto instances = tag_instances(degree_one_witnesses(4), 0);
    const auto nbhd =
        build(BuildSource::instances(lcp_.decoder(), instances, 2),
              one_thread())
            .take();
    EXPECT_TRUE(nbhd.odd_cycle().has_value());
  }
  {
    const auto instances = tag_instances(even_cycle_witnesses(6), 1);
    const auto nbhd =
        build(BuildSource::instances(lcp_.decoder(), instances, 2),
              one_thread())
            .take();
    EXPECT_TRUE(nbhd.odd_cycle().has_value());
  }
}

}  // namespace
}  // namespace shlcp

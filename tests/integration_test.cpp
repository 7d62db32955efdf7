// Cross-module integration tests: every LCP run through the distributed
// engine, extractor-vs-hiding per decoder, Theorem 1.2's consistency with
// the upper bounds (no promise class of Theorems 1.1/1.3/1.4 contains an
// r-forgetful graph that is neither an even cycle nor min-degree-1), and
// certificate-size accounting across the whole suite.

#include <gtest/gtest.h>

#include <cassert>

#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/revealing.h"
#include "certify/shatter.h"
#include "certify/union_lcp.h"
#include "certify/watermelon.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "lcp/checker.h"
#include "nbhd/aviews.h"
#include "nbhd/extractor.h"
#include "nbhd/witness.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace shlcp {
namespace {

/// One promise instance per LCP for smoke-level cross checks.
struct Case {
  const Lcp* lcp;
  Graph graph;
};

class AllLcpsFixture : public ::testing::Test {
 protected:
  RevealingLcp revealing_{2};
  DegreeOneLcp degree_one_;
  EvenCycleLcp even_cycle_;
  ShatterLcp shatter_;
  WatermelonLcp watermelon_;
  UnionLcp union_{{&degree_one_, &even_cycle_}};

  std::vector<Case> cases() {
    return {
        {&revealing_, make_grid(3, 3)},
        {&degree_one_, make_double_broom(3, 2, 1)},
        {&even_cycle_, make_cycle(8)},
        {&shatter_, make_path(8)},
        {&watermelon_, make_watermelon({2, 4, 2})},
        {&union_, make_cycle(6)},
    };
  }
};

TEST_F(AllLcpsFixture, HonestCertificatesAcceptedDistributedly) {
  for (const Case& c : cases()) {
    ASSERT_TRUE(c.lcp->in_promise(c.graph)) << c.lcp->name();
    Instance inst = Instance::canonical(c.graph);
    const auto labels = c.lcp->prove(c.graph, inst.ports, inst.ids);
    ASSERT_TRUE(labels.has_value()) << c.lcp->name();
    inst.labels = *labels;
    SimStats stats;
    const auto verdicts =
        run_decoder_distributed(c.lcp->decoder(), inst, &stats);
    for (const bool v : verdicts) {
      EXPECT_TRUE(v) << c.lcp->name();
    }
    EXPECT_EQ(stats.rounds, c.lcp->decoder().radius());
    // Distributed and direct execution agree.
    EXPECT_EQ(verdicts, c.lcp->decoder().run(inst)) << c.lcp->name();
  }
}

TEST_F(AllLcpsFixture, CorruptionIsCaughtByEveryLcp) {
  Rng rng(99);
  for (const Case& c : cases()) {
    Instance inst = Instance::canonical(c.graph);
    inst.labels = *c.lcp->prove(c.graph, inst.ports, inst.ids);
    // Swap two distinct nodes' certificates; if that happens to stay
    // accepted (possible for symmetric labelings), force a foreign
    // certificate instead.
    bool caught = false;
    for (int tries = 0; tries < 20 && !caught; ++tries) {
      Instance corrupted = inst;
      const Node a = static_cast<Node>(
          rng.next_below(static_cast<std::uint64_t>(inst.num_nodes())));
      const auto space = c.lcp->certificate_space(inst.g, inst.ids, a);
      corrupted.labels.at(a) = space[rng.next_below(space.size())];
      if (corrupted.labels.at(a) == inst.labels.at(a)) {
        continue;
      }
      caught = !c.lcp->decoder().accepts_all(corrupted);
    }
    EXPECT_TRUE(caught) << c.lcp->name()
                        << ": no corruption detected in 20 tries";
  }
}

TEST_F(AllLcpsFixture, HidingStatusMatchesTheory) {
  // Revealing: extractor exists. Hiding four: witness odd cycle exists.
  {
    std::vector<Graph> graphs;
    for (int n = 2; n <= 4; ++n) {
      for_each_connected_graph(n, [&](const Graph& g) {
        if (is_bipartite(g)) {
          graphs.push_back(g);
        }
        return true;
      });
    }
    auto nbhd =
        build(BuildSource::exhaustive(revealing_, graphs), one_thread()).take();
    EXPECT_TRUE(
        Extractor::build(revealing_.decoder(), std::move(nbhd), 2).has_value());
  }
  const auto has_odd_cycle = [](const Lcp& lcp,
                                 const std::vector<Instance>& witnesses) {
    return build(BuildSource::instances(lcp.decoder(), witnesses, 2),
                 one_thread())
        .take()
        .odd_cycle()
        .has_value();
  };
  EXPECT_TRUE(has_odd_cycle(degree_one_, degree_one_witnesses(4)));
  EXPECT_TRUE(has_odd_cycle(even_cycle_, even_cycle_witnesses(6)));
  EXPECT_TRUE(has_odd_cycle(shatter_, shatter_witnesses(true)));
  EXPECT_TRUE(has_odd_cycle(watermelon_, watermelon_witnesses()));
}

TEST(ReadmeTest, QuickTasteOfTheApiCompilesAndHolds) {
  // The body of README.md's "Quick taste of the API", verbatim. Its
  // assert()s vanish under NDEBUG, so the EXPECTs below restate them.
  shlcp::DegreeOneLcp lcp;                       // Lemma 4.1's scheme
  auto g = shlcp::make_double_broom(4, 2, 1);    // a min-degree-1 bipartite graph
  auto inst = shlcp::Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);   // honest certificates
  assert(lcp.decoder().accepts_all(inst));             // 1-round verification

  // Lemma 3.2 in one call: is the coloring extractable?
  auto nbhd = shlcp::build(shlcp::BuildSource::exhaustive(lcp, {g}),
                           shlcp::one_thread())
                  .take();
  assert(!nbhd.k_colorable(2));                  // odd cycle => hiding

  EXPECT_TRUE(lcp.decoder().accepts_all(inst));
  EXPECT_FALSE(nbhd.k_colorable(2));
  EXPECT_EQ(nbhd.num_views(), 46);
  EXPECT_EQ(nbhd.num_edges(), 73);
}

TEST_F(AllLcpsFixture, PromiseClassesEscapeTheorem12) {
  // Theorem 1.2 forbids strong+hiding LCPs on classes containing an
  // r-forgetful connected graph that is neither an even cycle nor has
  // minimum degree 1. Consistency: sweep small graphs; whenever such a
  // graph exists, it must lie OUTSIDE the hiding LCPs' promise classes.
  int checked = 0;
  for (int n = 4; n <= 6; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      if (!is_r_forgetful(g, 1) || is_even_cycle(g) ||
          g.min_degree() == 1) {
        return true;
      }
      ++checked;
      EXPECT_FALSE(degree_one_.in_promise(g));
      EXPECT_FALSE(even_cycle_.in_promise(g));
      EXPECT_FALSE(union_.in_promise(g));
      return true;
    });
  }
  // Larger witnesses: odd cycles C7+ are 1-forgetful, min degree 2, not
  // even cycles -- and sit outside every promise class here except as
  // no-instances.
  for (int n : {7, 9}) {
    const Graph g = make_cycle(n);
    EXPECT_TRUE(is_r_forgetful(g, 1));
    EXPECT_FALSE(degree_one_.in_promise(g));
    EXPECT_FALSE(even_cycle_.in_promise(g));
    EXPECT_FALSE(shatter_.in_promise(g));
    EXPECT_FALSE(watermelon_.in_promise(g));
  }
  SUCCEED() << checked << " forgetful graphs checked";
}

TEST_F(AllLcpsFixture, ShatterAndWatermelonPromisesContainForgetfulGraphs) {
  // The flip side (why Theorems 1.3/1.4 do NOT contradict Theorem 1.2):
  // both promise classes contain 1-forgetful, minimum-degree-2,
  // non-cycle members, so Theorem 1.2 WOULD apply -- were the
  // certificates constant-size. The LCPs escape through their
  // Theta(log n)-and-larger certificates, exactly the non-constant regime
  // Section 6's Ramsey argument (which needs a constant bound on the
  // number of decoder types) cannot reach.
  {
    // Watermelon member: three even paths of length 4.
    const Graph g = make_watermelon({4, 4, 4});
    EXPECT_TRUE(watermelon_.in_promise(g));
    EXPECT_TRUE(is_r_forgetful(g, 1));
    EXPECT_EQ(g.min_degree(), 2);
    EXPECT_FALSE(is_even_cycle(g));
    Instance inst = Instance::canonical(g);
    const auto labels = watermelon_.prove(g, inst.ports, inst.ids);
    ASSERT_TRUE(labels.has_value());
    EXPECT_GT(labels->max_bits(), 6);  // genuinely non-constant
  }
  {
    // Shatter member: two C8 blocks joined through a degree-2 cut node.
    Graph g = make_cycle(8);
    const int base = g.num_nodes();
    for (int i = 0; i < 8; ++i) {
      g.add_node();
    }
    for (int i = 0; i < 8; ++i) {
      g.add_edge(base + i, base + (i + 1) % 8);
    }
    const Node bridge = g.add_node();
    g.add_edge(0, bridge);
    g.add_edge(bridge, base);
    EXPECT_TRUE(shatter_.in_promise(g));
    EXPECT_EQ(g.min_degree(), 2);
    EXPECT_FALSE(is_even_cycle(g));
    EXPECT_TRUE(is_r_forgetful(g, 1));
    Instance inst = Instance::canonical(g);
    const auto labels = shatter_.prove(g, inst.ports, inst.ids);
    ASSERT_TRUE(labels.has_value());
    EXPECT_GT(labels->max_bits(), 2);
  }
}

TEST_F(AllLcpsFixture, IdCarryingCertificatesDefeatOrderInvariance) {
  // Why Theorems 1.3/1.4 escape the Section 6 reduction: their
  // certificates CONTAIN identifier values, so an order-preserving remap
  // of the actual identifiers (labels held fixed) breaks the
  // claimed-vs-actual matches and flips verdicts -- the decoders are not
  // order-invariant in the Lemma 6.2 sense, and the Ramsey argument
  // (which also needs constantly many decoder types, i.e. constant-size
  // certificates) does not apply. The anonymous constant-size decoders,
  // by contrast, are trivially order-invariant.
  Rng rng(2718);
  {
    const Graph g = make_path(8);
    Instance inst = Instance::canonical(g);
    inst.labels = *shatter_.prove(g, inst.ports, inst.ids);
    EXPECT_FALSE(check_order_invariant(shatter_.decoder(), inst, 60, rng).ok);
    EXPECT_FALSE(check_anonymous(shatter_.decoder(), inst, 60, rng).ok);
  }
  {
    const Graph g = make_watermelon({2, 4});
    Instance inst = Instance::canonical(g);
    inst.labels = *watermelon_.prove(g, inst.ports, inst.ids);
    EXPECT_FALSE(
        check_order_invariant(watermelon_.decoder(), inst, 60, rng).ok);
    EXPECT_FALSE(check_anonymous(watermelon_.decoder(), inst, 60, rng).ok);
  }
  {
    const Graph g = make_cycle(6);
    Instance inst = Instance::canonical(g);
    inst.labels = *even_cycle_.prove(g, inst.ports, inst.ids);
    EXPECT_TRUE(
        check_order_invariant(even_cycle_.decoder(), inst, 30, rng).ok);
    EXPECT_TRUE(check_anonymous(even_cycle_.decoder(), inst, 30, rng).ok);
  }
}

TEST_F(AllLcpsFixture, CertificateSizesOrdered) {
  // Size accounting across the suite at n = 16: constant-size anonymous
  // LCPs < O(log n) watermelon < O(k + log n) shatter (on a graph whose
  // shatter components are many).
  const Graph path = make_path(16);
  Instance pinst = Instance::canonical(path);
  const int deg1_bits =
      degree_one_.prove(path, pinst.ports, pinst.ids)->max_bits();
  const int melon_bits =
      watermelon_.prove(path, pinst.ports, pinst.ids)->max_bits();
  EXPECT_LT(deg1_bits, melon_bits);

  Graph spider(1);
  for (int i = 0; i < 8; ++i) {
    const Node mid = spider.add_node();
    const Node end = spider.add_node();
    spider.add_edge(0, mid);
    spider.add_edge(mid, end);
  }
  Instance sinst = Instance::canonical(spider);
  const int shatter_bits =
      shatter_.prove(spider, sinst.ports, sinst.ids)->max_bits();
  EXPECT_GT(shatter_bits, deg1_bits);
}

TEST_F(AllLcpsFixture, StrongSoundnessRandomizedAcrossAllLcps) {
  // One shared adversarial sweep: every LCP, on bipartite and
  // non-bipartite hosts.
  Rng rng(31337);
  std::vector<Graph> hosts{make_cycle(5), make_path(6), make_theta(2, 2, 3),
                           make_grid(3, 3)};
  for (const Case& c : cases()) {
    for (const Graph& host : hosts) {
      const auto report = check_strong_soundness_random(
          *c.lcp, Instance::canonical(host), 150, rng);
      EXPECT_TRUE(report.ok) << c.lcp->name() << ": " << report.failure;
    }
  }
}

}  // namespace
}  // namespace shlcp

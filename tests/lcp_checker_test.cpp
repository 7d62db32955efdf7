// Tests for the LCP framework and its property checkers, exercised
// against the revealing baseline LCP (whose behavior is fully understood:
// complete, strongly sound, anonymous, NOT hiding).

#include <gtest/gtest.h>

#include "certify/revealing.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "lcp/checker.h"
#include "lcp/enumerate.h"
#include "util/rng.h"

namespace shlcp {
namespace {

TEST(DecoderTest, RunAndAcceptingSet) {
  const RevealingLcp lcp(2);
  const Graph g = make_path(4);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  EXPECT_TRUE(lcp.decoder().accepts_all(inst));
  EXPECT_EQ(lcp.decoder().accepting_set(inst).size(), 4u);

  // Duplicating node 0's color onto node 1 (both color 0 on the path
  // 0-1-2-3 colored 0,1,0,1) breaks nodes 0 and 1 directly and node 2
  // transitively (its neighbor 1 now carries its own color).
  inst.labels.at(1) = inst.labels.at(0);
  const auto acc = lcp.decoder().accepting_set(inst);
  EXPECT_EQ(acc, (std::vector<Node>{3}));
}

TEST(DecoderTest, ProveInstanceThrowsOutsidePromise) {
  const RevealingLcp lcp(2);
  const Instance inst = Instance::canonical(make_cycle(5));
  EXPECT_THROW(prove_instance(lcp, inst), CheckError);
}

TEST(LambdaDecoderTest, Basics) {
  const LambdaDecoder d(1, true, "always-yes",
                        [](const View&) { return true; });
  EXPECT_EQ(d.radius(), 1);
  EXPECT_TRUE(d.anonymous());
  EXPECT_EQ(d.name(), "always-yes");
  const Instance inst = Instance::canonical(make_path(3));
  EXPECT_TRUE(d.accepts_all(inst));
}

TEST(CheckerTest, CompletenessHoldsOnBipartite) {
  const RevealingLcp lcp(2);
  for (const Graph& g : {make_path(5), make_cycle(6), make_grid(3, 3),
                         make_star(4), make_complete_bipartite(2, 3)}) {
    const auto report = check_completeness(lcp, Instance::canonical(g));
    EXPECT_TRUE(report.ok) << report.failure;
  }
}

TEST(CheckerTest, CompletenessFailureDetected) {
  // A broken prover: certificates all color 0.
  class BrokenLcp final : public Lcp {
   public:
    [[nodiscard]] const Decoder& decoder() const override { return decoder_; }
    [[nodiscard]] std::optional<Labeling> prove(
        const Graph& g, const PortAssignment&,
        const IdAssignment&) const override {
      Labeling labels(g.num_nodes());
      for (Node v = 0; v < g.num_nodes(); ++v) {
        labels.at(v) = make_color_certificate(0, 2);
      }
      return labels;
    }
    [[nodiscard]] bool in_promise(const Graph& g) const override {
      return is_bipartite(g);
    }
    [[nodiscard]] std::vector<Certificate> certificate_space(
        const Graph&, const IdAssignment&, Node) const override {
      return {make_color_certificate(0, 2), make_color_certificate(1, 2)};
    }
   private:
    RevealingDecoder decoder_{2};
  };
  const BrokenLcp broken;
  const auto report = check_completeness(broken, Instance::canonical(make_path(3)));
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.failure.empty());
}

TEST(CheckerTest, LabelingSpaceSize) {
  const RevealingLcp lcp(2);
  const Instance inst = Instance::canonical(make_path(4));
  // 3 certificates per node (two colors + sentinel), 4 nodes.
  EXPECT_EQ(labeling_space_size(lcp, inst), 81u);
}

TEST(CheckerTest, StrongSoundnessExhaustiveRevealing) {
  const RevealingLcp lcp(2);
  // Over every connected graph on 4 nodes (including non-bipartite ones):
  // the accepting set is always properly colored by its own certificates.
  for_each_connected_graph(4, [&](const Graph& g) {
    const auto report =
        check_strong_soundness_exhaustive(lcp, Instance::canonical(g));
    EXPECT_TRUE(report.ok) << report.failure;
    EXPECT_EQ(report.cases, 81u);
    return true;
  });
}

TEST(CheckerTest, SoundnessExhaustiveOnOddCycle) {
  const RevealingLcp lcp(2);
  const auto report =
      check_soundness_exhaustive(lcp, Instance::canonical(make_cycle(5)));
  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.cases, 243u);
}

TEST(CheckerTest, SoundnessCheckRejectsYesInstance) {
  const RevealingLcp lcp(2);
  EXPECT_THROW(
      check_soundness_exhaustive(lcp, Instance::canonical(make_cycle(4))),
      CheckError);
}

TEST(CheckerTest, StrongSoundnessCatchesViolations) {
  // The always-accepting "LCP" is not strongly sound on a triangle.
  class GullibleLcp final : public Lcp {
   public:
    [[nodiscard]] const Decoder& decoder() const override { return decoder_; }
    [[nodiscard]] std::optional<Labeling> prove(
        const Graph& g, const PortAssignment&,
        const IdAssignment&) const override {
      return Labeling(g.num_nodes());
    }
    [[nodiscard]] bool in_promise(const Graph&) const override { return true; }
    [[nodiscard]] std::vector<Certificate> certificate_space(
        const Graph&, const IdAssignment&, Node) const override {
      return {Certificate{}};
    }
   private:
    LambdaDecoder decoder_{1, true, "gullible",
                           [](const View&) { return true; }};
  };
  const GullibleLcp gullible;
  const auto report = check_strong_soundness_exhaustive(
      gullible, Instance::canonical(make_cycle(3)));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.failure.find("strong soundness violated"),
            std::string::npos);
}

TEST(CheckerTest, RandomizedStrongSoundness) {
  const RevealingLcp lcp(2);
  Rng rng(404);
  const auto report = check_strong_soundness_random(
      lcp, Instance::canonical(make_grid(3, 3)), 500, rng);
  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.cases, 500u);
}

TEST(CheckerTest, AnonymityOfRevealingDecoder) {
  const RevealingLcp lcp(2);
  Rng rng(5);
  const Graph g = make_cycle(6);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  const auto report = check_anonymous(lcp.decoder(), inst, 20, rng);
  EXPECT_TRUE(report.ok) << report.failure;
}

TEST(CheckerTest, IdSensitiveDecoderFailsAnonymityCheck) {
  // Accept iff own identifier is even: blatantly id-sensitive.
  const LambdaDecoder d(1, false, "id-parity", [](const View& v) {
    return v.center_id() % 2 == 0;
  });
  Rng rng(6);
  const Instance inst = Instance::canonical(make_path(5));
  const auto report = check_anonymous(d, inst, 50, rng);
  EXPECT_FALSE(report.ok);
}

TEST(CheckerTest, OrderInvarianceChecks) {
  // Order-invariant but not anonymous: accept iff own id is the local max.
  const LambdaDecoder d(1, false, "local-max", [](const View& v) {
    for (const Ident id : v.ids) {
      if (id > v.center_id()) {
        return false;
      }
    }
    return true;
  });
  Rng rng(7);
  const Instance inst = Instance::canonical(make_path(6));
  EXPECT_TRUE(check_order_invariant(d, inst, 30, rng).ok);
  EXPECT_FALSE(check_anonymous(d, inst, 50, rng).ok);

  // Id-parity is not even order-invariant.
  const LambdaDecoder parity(1, false, "id-parity", [](const View& v) {
    return v.center_id() % 2 == 0;
  });
  EXPECT_FALSE(check_order_invariant(parity, inst, 50, rng).ok);
}

TEST(EnumerateTest, FilterYesGraphs) {
  std::vector<Graph> graphs{make_cycle(4), make_cycle(5), make_path(3),
                            make_complete(3)};
  const auto yes = filter_yes_graphs(graphs, 2);
  EXPECT_EQ(yes.size(), 2u);
}

TEST(EnumerateTest, LabeledInstanceStreamCount) {
  const RevealingLcp lcp(2);
  EnumOptions options;
  int count = 0;
  for_each_labeled_instance(lcp, {make_path(2)}, options,
                            [&](const Instance& inst) {
                              EXPECT_EQ(inst.num_nodes(), 2);
                              ++count;
                              return true;
                            });
  EXPECT_EQ(count, 9);  // 3 certificates per node
}

TEST(EnumerateTest, AllDimensionsMultiply) {
  const RevealingLcp lcp(2);
  EnumOptions options;
  options.all_ports = true;      // path(3): 1 * 2 * 1 = 2 assignments
  options.all_id_orders = true;  // 3! = 6
  int count = 0;
  for_each_labeled_instance(lcp, {make_path(3)}, options,
                            [&](const Instance&) {
                              ++count;
                              return true;
                            });
  EXPECT_EQ(count, 2 * 6 * 27);
}

TEST(EnumerateTest, ProvedStreamSkipsDeclined) {
  const RevealingLcp lcp(2);
  EnumOptions options;
  const std::vector<Graph> graphs{make_path(3), make_cycle(4)};
  int count = 0;
  for (const EnumFrame& frame : enumerate_frames(graphs, options)) {
    const auto inst = proved_instance_in_frame(lcp, graphs, frame);
    if (inst.has_value()) {
      EXPECT_TRUE(lcp.decoder().accepts_all(*inst));
      ++count;
    }
  }
  EXPECT_EQ(count, 2);
}

}  // namespace
}  // namespace shlcp

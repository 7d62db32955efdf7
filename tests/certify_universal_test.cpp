// Tests for the universal O(n^2) LCP (Section 1.1): completeness on
// every small yes-instance of the predicate, strong soundness under the
// full matrix-space sweep, full extraction (the anti-hiding pole), and
// the codec round-trip.

#include <gtest/gtest.h>

#include "certify/universal.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "lcp/checker.h"
#include "nbhd/aviews.h"
#include "nbhd/extractor.h"
#include "util/rng.h"

namespace shlcp {
namespace {

TEST(UniversalTest, CodecRoundTrip) {
  Rng rng(1);
  for (int rep = 0; rep < 20; ++rep) {
    const int n = rng.next_int(1, 8);
    Graph g = make_random_graph(n, 1, 2, rng);
    const IdAssignment ids = IdAssignment::random(g, 2 * n + 3, rng);
    const Certificate c = make_universal_certificate(g, ids);
    const auto decoded = decode_universal_certificate(c);
    ASSERT_TRUE(decoded.has_value());
    // Same graph up to the sorted-id reindexing.
    EXPECT_EQ(decoded->first.num_nodes(), n);
    EXPECT_EQ(decoded->first.num_edges(), g.num_edges());
    for (const Edge& e : g.edges()) {
      const auto& dids = decoded->second;
      const int i = static_cast<int>(
          std::lower_bound(dids.begin(), dids.end(), ids.id_of(e.u)) -
          dids.begin());
      const int j = static_cast<int>(
          std::lower_bound(dids.begin(), dids.end(), ids.id_of(e.v)) -
          dids.begin());
      EXPECT_TRUE(decoded->first.has_edge(i, j));
    }
  }
}

TEST(UniversalTest, CodecRejectsMalformed) {
  EXPECT_FALSE(decode_universal_certificate(Certificate{}).has_value());
  // Non-symmetric matrix.
  EXPECT_FALSE(
      decode_universal_certificate(Certificate{{2, 1, 2, 0b10, 0b00}, 10})
          .has_value());
  // Loop.
  EXPECT_FALSE(
      decode_universal_certificate(Certificate{{2, 1, 2, 0b01, 0b10}, 10})
          .has_value());
  // Unsorted ids.
  EXPECT_FALSE(
      decode_universal_certificate(Certificate{{2, 5, 3, 0b10, 0b01}, 10})
          .has_value());
  // Well-formed K2.
  EXPECT_TRUE(
      decode_universal_certificate(Certificate{{2, 3, 5, 0b10, 0b01}, 10})
          .has_value());
}

TEST(UniversalTest, CompletenessOnAllSmallBipartiteGraphs) {
  const UniversalLcp lcp = make_universal_bipartiteness_lcp();
  for (int n = 1; n <= 5; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      if (!lcp.in_promise(g)) {
        return true;
      }
      const auto report = check_completeness(lcp, Instance::canonical(g));
      EXPECT_TRUE(report.ok) << report.failure;
      return true;
    });
  }
}

TEST(UniversalTest, StrongSoundnessExhaustiveTiny) {
  // Space = all 2^C(n,2) matrices over the instance's ids; full sweep on
  // all connected graphs with <= 3 nodes (8^n labelings each).
  const UniversalLcp lcp = make_universal_bipartiteness_lcp();
  for_each_connected_graph(3, [&](const Graph& g) {
    const auto report =
        check_strong_soundness_exhaustive(lcp, Instance::canonical(g));
    EXPECT_TRUE(report.ok) << report.failure;
    return true;
  });
}

TEST(UniversalTest, StrongSoundnessRandomizedOddCycles) {
  const UniversalLcp lcp = make_universal_bipartiteness_lcp();
  Rng rng(5150);
  for (const Graph& g : {make_cycle(5), make_complete(4)}) {
    const auto report = check_strong_soundness_random(
        lcp, Instance::canonical(g), 400, rng);
    EXPECT_TRUE(report.ok) << report.failure;
  }
}

TEST(UniversalTest, WrongTopologyClaimRejected) {
  // Certify P4 but hand out C4's matrix: the endpoint nodes' real degree
  // (1) mismatches the claimed row degree (2).
  const Graph path = make_path(4);
  const Graph cycle = make_cycle(4);
  Instance inst = Instance::canonical(path);
  const Certificate wrong = make_universal_certificate(cycle, inst.ids);
  Labeling labels(4);
  for (Node v = 0; v < 4; ++v) {
    labels.at(v) = wrong;
  }
  inst.labels = std::move(labels);
  const UniversalLcp lcp = make_universal_bipartiteness_lcp();
  const auto verdicts = lcp.decoder().run(inst);
  EXPECT_FALSE(verdicts[0]);
  EXPECT_FALSE(verdicts[3]);
}

TEST(UniversalTest, NotHidingExtractorExists) {
  // The anti-hiding pole: the exhaustive neighborhood graph is
  // 2-colorable and the extractor succeeds -- certificates of size
  // O(n^2) certify bipartiteness and reveal everything.
  const UniversalLcp lcp = make_universal_bipartiteness_lcp();
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
  options.all_id_orders = true;
  auto nbhd =
      build(BuildSource::proved(lcp, graphs), one_thread(options)).take();
  EXPECT_TRUE(nbhd.k_colorable(2));
  auto extractor = Extractor::build(lcp.decoder(), std::move(nbhd), 2);
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

TEST(UniversalTest, QuadraticCertificateSize) {
  const UniversalLcp lcp = make_universal_bipartiteness_lcp();
  int prev = 0;
  for (int n : {4, 8, 16}) {
    const Graph g = make_path(n);
    Instance inst = Instance::canonical(g);
    const int bits = lcp.prove(g, inst.ports, inst.ids)->max_bits();
    EXPECT_GE(bits, n * n);
    EXPECT_GT(bits, prev);
    prev = bits;
  }
}

TEST(UniversalTest, OtherPredicates) {
  // The scheme is generic: certify "is a tree" and "has a triangle".
  const UniversalLcp tree_lcp(
      [](const Graph& g) {
        return is_connected(g) && g.num_edges() == g.num_nodes() - 1;
      },
      "tree");
  const Graph t = make_star(4);
  Instance inst = Instance::canonical(t);
  inst.labels = *tree_lcp.prove(t, inst.ports, inst.ids);
  EXPECT_TRUE(tree_lcp.decoder().accepts_all(inst));
  EXPECT_FALSE(tree_lcp.in_promise(make_cycle(4)));
}

}  // namespace
}  // namespace shlcp

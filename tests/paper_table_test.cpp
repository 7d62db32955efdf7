// Pins the exhaustive V(D, n) of the paper's three 2-coloring LCPs at
// n <= 5 to fixed numbers (the table of ROADMAP item 4). The builders
// are gated against each other elsewhere (seq == par, resume, shard
// merge); this test gates them against an absolute answer, so a change
// to the enumeration or to the view representation that is wrong the
// same way on every path still fails here.
//
// Columns, per (LCP, port mode):
//   stream-invariant -- views, edges, the k_colorable(2) verdict, and
//     digests of the canonical view set and the canonical edge set;
//   stream-specific  -- graphs and instances, which an isomorph-free or
//     otherwise pruned stream changes on purpose.
// The values were generated by the per-instance absorb path before the
// builders moved to per-frame absorption, and match ROADMAP item 4.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/revealing.h"
#include "graph/generators.h"
#include "nbhd/aviews.h"
#include "util/hash.h"

namespace shlcp {
namespace {

constexpr int kMaxN = 5;

std::vector<Graph> promise_graphs(const Lcp& lcp) {
  std::vector<Graph> graphs;
  for (int n = 2; n <= kMaxN; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      if (lcp.in_promise(g)) {
        graphs.push_back(g);
      }
      return true;
    });
  }
  return graphs;
}

/// FNV-1a over the sorted strings, each preceded by its length.
std::string digest_of(std::vector<std::string> parts) {
  std::sort(parts.begin(), parts.end());
  std::uint64_t h = kFnvOffsetBasis;
  for (const std::string& part : parts) {
    h = fnv1a64(std::to_string(part.size()) + ":", h);
    h = fnv1a64(part, h);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

/// Digest of the view set: the sorted canonical keys.
std::string view_digest(const NbhdGraph& nbhd) {
  std::vector<std::string> keys;
  for (int i = 0; i < nbhd.num_views(); ++i) {
    keys.push_back(canonical_key(nbhd.view(i)));
  }
  return digest_of(std::move(keys));
}

/// Digest of the edge set: each edge as its two endpoint keys in sorted
/// order, so the digest does not depend on registration order.
std::string edge_digest(const NbhdGraph& nbhd) {
  std::vector<std::string> edges;
  for (const Edge& e : nbhd.graph().edges()) {
    std::string a = canonical_key(nbhd.view(e.u));
    std::string b = canonical_key(nbhd.view(e.v));
    if (b < a) {
      std::swap(a, b);
    }
    edges.push_back(std::to_string(a.size()) + ":" + a + b);
  }
  return digest_of(std::move(edges));
}

struct Row {
  std::size_t graphs;
  int instances;
  int views;
  int edges;
  bool two_colorable;
  const char* view_digest;
  const char* edge_digest;
};

void expect_row(const Lcp& lcp, bool all_ports, const Row& want) {
  const std::vector<Graph> graphs = promise_graphs(lcp);
  EnumOptions enums;
  enums.all_ports = all_ports;
  const NbhdGraph nbhd =
      build(BuildSource::exhaustive(lcp, graphs), one_thread(enums)).take();
  EXPECT_EQ(graphs.size(), want.graphs);
  EXPECT_EQ(nbhd.num_instances_absorbed(), want.instances);
  EXPECT_EQ(nbhd.num_views(), want.views);
  EXPECT_EQ(nbhd.num_edges(), want.edges);
  EXPECT_EQ(nbhd.k_colorable(2), want.two_colorable);
  EXPECT_EQ(view_digest(nbhd), want.view_digest);
  EXPECT_EQ(edge_digest(nbhd), want.edge_digest);
}

TEST(PaperTableTest, DegreeOneCanonicalPorts) {
  expect_row(DegreeOneLcp(), false,
             Row{205, 193'744, 220, 623, false, "185607129e77475d",
                 "0cfbc8f77e7e3013"});
}

TEST(PaperTableTest, DegreeOneAllPorts) {
  expect_row(DegreeOneLcp(), true,
             Row{205, 4'319'632, 220, 1088, false, "185607129e77475d",
                 "c4fe7ab3a49bdf21"});
}

TEST(PaperTableTest, EvenCycleCanonicalPorts) {
  expect_row(EvenCycleLcp(), false,
             Row{3, 196'608, 64, 72, false, "a082d10a5ca7aa65",
                 "a3d6549da7ad06c5"});
}

TEST(PaperTableTest, EvenCycleAllPorts) {
  expect_row(EvenCycleLcp(), true,
             Row{3, 3'145'728, 128, 269, false, "14a3f69e96e41125",
                 "1f325b47c0ae172a"});
}

TEST(PaperTableTest, Revealing2ColCanonicalPorts) {
  expect_row(RevealingLcp(2), false,
             Row{218, 49'014, 44, 99, true, "ed2e55f3793cb521",
                 "1b6512a298399991"});
}

TEST(PaperTableTest, Revealing2ColAllPorts) {
  expect_row(RevealingLcp(2), true,
             Row{218, 1'730'331, 44, 195, true, "ed2e55f3793cb521",
                 "76f62d3c37703149"});
}

}  // namespace
}  // namespace shlcp

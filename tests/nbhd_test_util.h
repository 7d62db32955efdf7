// Helpers shared by the V(D, n) builder tests (parallel_enum_test,
// checkpoint_test, frame_absorb_test).

#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "nbhd/nbhd_graph.h"

namespace shlcp {

/// Full structural comparison: views in registration order, adjacency,
/// odd-cycle verdict, per-view and per-edge provenance, and the
/// deterministic half of the stats.
inline void expect_identical(const NbhdGraph& seq, const NbhdGraph& par) {
  ASSERT_EQ(seq.num_views(), par.num_views());
  for (int i = 0; i < seq.num_views(); ++i) {
    EXPECT_TRUE(seq.view(i) == par.view(i)) << "view " << i;
    EXPECT_EQ(seq.view_provenance(i).instance, par.view_provenance(i).instance)
        << "view " << i;
    EXPECT_EQ(seq.view_provenance(i).node, par.view_provenance(i).node)
        << "view " << i;
  }
  EXPECT_TRUE(seq.graph() == par.graph());
  const auto seq_cycle = seq.odd_cycle();
  const auto par_cycle = par.odd_cycle();
  ASSERT_EQ(seq_cycle.has_value(), par_cycle.has_value());
  if (seq_cycle.has_value()) {
    EXPECT_EQ(*seq_cycle, *par_cycle);
  }
  for (const Edge& e : seq.graph().edges()) {
    const Provenance* ps = seq.edge_provenance(e.u, e.v);
    const Provenance* pp = par.edge_provenance(e.u, e.v);
    ASSERT_NE(ps, nullptr) << "edge " << e.u << "," << e.v;
    ASSERT_NE(pp, nullptr) << "edge " << e.u << "," << e.v;
    EXPECT_EQ(ps->instance, pp->instance) << "edge " << e.u << "," << e.v;
    EXPECT_EQ(ps->node, pp->node) << "edge " << e.u << "," << e.v;
    EXPECT_EQ(ps->other, pp->other) << "edge " << e.u << "," << e.v;
  }
  EXPECT_EQ(seq.num_instances_absorbed(), par.num_instances_absorbed());
  EXPECT_EQ(seq.stats().views_deduped, par.stats().views_deduped);
}

/// Every connected bipartite graph on 2..max_n nodes.
inline std::vector<Graph> connected_bipartite(int max_n) {
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

}  // namespace shlcp

// Helpers shared by the V(D, n) builder tests (parallel_enum_test,
// checkpoint_test, frame_absorb_test).

#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "lcp/enumerate.h"
#include "nbhd/nbhd_graph.h"
#include "util/json.h"

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

/// The graph's complete serialized state minus its one timing field
/// (stats.absorb_ns): equal strings mean byte-identical builds.
inline std::string state_bytes(const NbhdGraph& nbhd) {
  Json state = nbhd.to_json();
  state["stats"]["absorb_ns"] = std::uint64_t{0};
  return state.dump();
}

/// The finest sharding a build can have: every frame of the exhaustive
/// sweep absorbed into its own NbhdGraph with absorb_frame, and the
/// shards folded in frame order with merge. Equal to the sequential build
/// iff merge reproduces it at every possible chunk boundary.
inline NbhdGraph per_frame_shards(const Lcp& lcp,
                                  const std::vector<Graph>& graphs,
                                  const EnumOptions& enums) {
  const std::vector<Graph> yes_graphs = filter_yes_graphs(graphs, lcp.k());
  NbhdGraph out;
  for (const EnumFrame& frame : enumerate_frames(yes_graphs, enums)) {
    NbhdGraph shard;
    shard.absorb_frame(lcp.decoder(),
                       frame_labelings(lcp, yes_graphs, frame, enums),
                       lcp.k());
    out.merge(std::move(shard));
  }
  return out;
}

/// The same for an instance list: one shard per instance.
inline NbhdGraph per_instance_shards(const Decoder& decoder,
                                     const std::vector<Instance>& instances,
                                     int k) {
  NbhdGraph out;
  for (const Instance& inst : instances) {
    NbhdGraph shard;
    shard.absorb(decoder, inst, k);
    out.merge(std::move(shard));
  }
  return out;
}

/// The honest prover's instances over the yes-graphs among `graphs`, in
/// frame order: the items of a proved build.
inline std::vector<Instance> proved_instances(const Lcp& lcp,
                                              const std::vector<Graph>& graphs,
                                              const EnumOptions& enums) {
  const std::vector<Graph> yes_graphs = filter_yes_graphs(graphs, lcp.k());
  std::vector<Instance> out;
  for (const EnumFrame& frame : enumerate_frames(yes_graphs, enums)) {
    if (auto inst = proved_instance_in_frame(lcp, yes_graphs, frame)) {
      out.push_back(std::move(*inst));
    }
  }
  return out;
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

#include "lower/pipeline.h"

#include <algorithm>
#include <deque>

#include "graph/algorithms.h"
#include "nbhd/aviews.h"

namespace shlcp {

namespace {

/// Shortest even-length walk from `a` to `b` in `g` via the bipartite
/// double cover; appending the edge b-a then yields an odd closed walk
/// through that edge. Returns the a..b node sequence, or nullopt.
std::optional<std::vector<int>> shortest_even_walk(const Graph& g, int a,
                                                   int b) {
  const int n = g.num_nodes();
  if (a == b) {
    return std::vector<int>{a};
  }
  // BFS over the bipartite double cover: states are (node, parity).
  std::vector<int> parent(2 * static_cast<std::size_t>(n), -2);
  auto key = [n](int v, int p) { return v + p * n; };
  parent[static_cast<std::size_t>(key(a, 0))] = -1;
  std::deque<std::pair<int, int>> queue{{a, 0}};
  while (!queue.empty()) {
    const auto [v, p] = queue.front();
    queue.pop_front();
    for (const int w : g.neighbors(v)) {
      const int q = 1 - p;
      if (parent[static_cast<std::size_t>(key(w, q))] == -2) {
        parent[static_cast<std::size_t>(key(w, q))] = key(v, p);
        queue.push_back({w, q});
      }
    }
  }
  if (parent[static_cast<std::size_t>(key(b, 0))] == -2) {
    return std::nullopt;
  }
  std::vector<int> walk;
  int state = key(b, 0);
  while (state != -1) {
    walk.push_back(state % n);
    state = parent[static_cast<std::size_t>(state)];
  }
  std::reverse(walk.begin(), walk.end());
  return walk;
}

}  // namespace

PipelineResult run_theorem15_pipeline(const Decoder& decoder,
                                      const std::vector<Instance>& instances,
                                      Ident id_bound) {
  PipelineResult result;
  result.nbhd =
      build(BuildSource::instances(decoder, instances, /*k=*/2), one_thread())
          .take();

  const auto first_cycle = result.nbhd.odd_cycle();
  if (!first_cycle.has_value()) {
    return result;  // no hiding witness in this subgraph
  }
  result.hiding_witness_found = true;
  result.odd_cycle = *first_cycle;

  const Graph& vg = result.nbhd.graph();

  // Candidate odd closed walks: for every edge {a, b}, the shortest even
  // walk a..b closed by the edge b-a. Attempt to realize each; keep the
  // first conflict for reporting if none succeeds.
  std::string first_conflict;
  auto attempt = [&](const std::vector<int>& closed_walk) -> bool {
    std::vector<View> h_views;
    for (std::size_t i = 0; i + 1 < closed_walk.size(); ++i) {
      h_views.push_back(result.nbhd.view(closed_walk[i]));
    }
    for (const View& v : h_views) {
      if (v.anonymous()) {
        if (first_conflict.empty()) {
          first_conflict = "anonymous views cannot be merged by id";
        }
        return false;
      }
    }
    MergeResult merged = merge_views_by_id(h_views, id_bound);
    if (!merged.ok) {
      if (first_conflict.empty()) {
        first_conflict = merged.conflict;
      }
      return false;
    }
    const CheckReport verify =
        verify_realization(decoder, merged.instance, h_views);
    if (!verify.ok) {
      if (first_conflict.empty()) {
        first_conflict = verify.failure;
      }
      return false;
    }
    const auto accepting = decoder.accepting_set(merged.instance);
    const Graph induced = merged.instance.g.induced_subgraph(accepting);
    if (is_bipartite(induced)) {
      if (first_conflict.empty()) {
        first_conflict = "realized instance's accepting set stayed bipartite";
      }
      return false;
    }
    result.realized = true;
    result.realization_verified = true;
    result.strong_soundness_violated = true;
    result.g_bad = std::move(merged.instance);
    result.odd_cycle = closed_walk;
    return true;
  };

  // The cycle reported by the bipartiteness check first.
  if (attempt(*first_cycle)) {
    return result;
  }
  for (const Edge& e : vg.edges()) {
    if (e.u == e.v) {
      continue;  // loops only arise for anonymous decoders
    }
    const auto even_walk = shortest_even_walk(vg, e.u, e.v);
    if (!even_walk.has_value() || even_walk->size() % 2 == 0) {
      continue;  // need an even number of edges = odd number of nodes
    }
    std::vector<int> closed = *even_walk;
    closed.push_back(e.u);  // close with the edge b-a (odd total)
    if (closed.size() < 3) {
      continue;
    }
    if (attempt(closed)) {
      return result;
    }
  }
  result.realize_conflict = first_conflict;
  return result;
}

}  // namespace shlcp

#include "sim/gather.h"

#include <algorithm>
#include <vector>

#include "util/check.h"

namespace shlcp {

View reconstruct_view(const Knowledge& kb, Ident center_id, int r,
                      Ident id_bound) {
  SHLCP_CHECK(r >= 1);
  const std::span<const NodeRecord> records = kb.records();
  const int center = kb.index_of(center_id);
  SHLCP_CHECK_MSG(center >= 0 && records[static_cast<std::size_t>(center)]
                                     .complete,
                  "center record must be complete");

  // BFS over record positions, collecting everything reachable within
  // distance r. Edges are only expanded out of complete records (interior
  // nodes); this reproduces the view's visibility rule. Flat vectors
  // indexed by record position replace per-identifier maps: `slot[p]` is
  // record p's distance during the BFS and its local index afterwards.
  const auto at = [&](int p) -> const NodeRecord& {
    return records[static_cast<std::size_t>(p)];
  };
  std::vector<int> slot(records.size(), -1);
  std::vector<int> ball;  // record positions in BFS order
  ball.reserve(records.size());
  slot[static_cast<std::size_t>(center)] = 0;
  ball.push_back(center);
  for (std::size_t head = 0; head < ball.size(); ++head) {
    const int p = ball[head];
    const int d = slot[static_cast<std::size_t>(p)];
    if (d >= r) {
      continue;
    }
    SHLCP_CHECK_MSG(at(p).complete, "interior record missing from knowledge");
    for (const EdgeInfo& e : at(p).edges) {
      const int q = kb.index_of(e.far_id);
      SHLCP_CHECK_MSG(q >= 0, "interior record missing from knowledge");
      if (slot[static_cast<std::size_t>(q)] < 0) {
        slot[static_cast<std::size_t>(q)] = d + 1;
        ball.push_back(q);
      }
    }
  }

  // Local indices in increasing identifier order, i.e. increasing record
  // position (any deterministic order works; View equality is
  // structural).
  std::sort(ball.begin(), ball.end());
  const auto k = ball.size();
  View view;
  view.radius = r;
  view.id_bound = id_bound;
  view.g = Graph(static_cast<int>(k));
  view.dist.resize(k);
  view.ids.resize(k);
  view.labels.resize(k);
  view.ports.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const NodeRecord& rec = at(ball[i]);
    int& s = slot[static_cast<std::size_t>(ball[i])];
    view.dist[i] = s;
    s = static_cast<int>(i);
    view.ids[i] = rec.id;
    view.labels[i] = rec.cert;
  }
  view.center = slot[static_cast<std::size_t>(center)];

  // The visible edges are those listed by complete interior records;
  // a boundary node's own edge list is not part of the view. Ports are
  // written per (local node, local neighbour) in record order, so where
  // records disagree the last listing wins.
  const auto for_each_visible_edge = [&](const auto& fn) {
    for (std::size_t i = 0; i < k; ++i) {
      const NodeRecord& rec = at(ball[i]);
      if (!rec.complete || view.dist[i] >= r) {
        continue;
      }
      for (const EdgeInfo& e : rec.edges) {
        const int b = slot[static_cast<std::size_t>(kb.index_of(e.far_id))];
        SHLCP_CHECK_MSG(b >= 0, "edge endpoint missing from the collected ball");
        fn(static_cast<int>(i), b, e);
      }
    }
  };
  for_each_visible_edge([&](int a, int b, const EdgeInfo&) {
    view.g.add_edge_if_absent(a, b);
  });
  for (std::size_t x = 0; x < k; ++x) {
    view.ports[x].resize(
        static_cast<std::size_t>(view.g.degree(static_cast<Node>(x))));
  }
  const auto port_slot = [&](int x, int y) -> Port& {
    const auto nb = view.g.neighbors(x);
    const auto t = std::lower_bound(nb.begin(), nb.end(), y) - nb.begin();
    return view.ports[static_cast<std::size_t>(x)][static_cast<std::size_t>(t)];
  };
  for_each_visible_edge([&](int a, int b, const EdgeInfo& e) {
    port_slot(a, b) = e.self_port;
    port_slot(b, a) = e.far_port;
  });
  return view;
}

}  // namespace shlcp

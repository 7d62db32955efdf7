#include "views/extract.h"

#include <algorithm>
#include <vector>

namespace shlcp {

namespace {

/// Per-thread scratch of extract_view, indexed by global node: the BFS
/// distance from the view center and the node's local index (-1 = not
/// in the ball), plus the ball itself.
struct BallScratch {
  std::vector<int> dist;
  std::vector<int> local;
  std::vector<Node> ball;

  /// Unmarks the ball's nodes, also when extraction throws.
  struct Reset {
    BallScratch& s;
    ~Reset() {
      for (const Node u : s.ball) {
        s.dist[static_cast<std::size_t>(u)] = -1;
        s.local[static_cast<std::size_t>(u)] = -1;
      }
      s.ball.clear();
    }
  };
};

BallScratch& ball_scratch(int num_nodes) {
  thread_local BallScratch scratch;
  const auto n = static_cast<std::size_t>(num_nodes);
  if (scratch.dist.size() < n) {
    scratch.dist.resize(n, -1);
    scratch.local.resize(n, -1);
  }
  return scratch;
}

}  // namespace

View extract_view(const Graph& g, const PortAssignment& ports,
                  const IdAssignment* ids, const Labeling& labels, int r,
                  Node v) {
  SHLCP_CHECK(r >= 0);
  g.check_node(v);
  SHLCP_CHECK(labels.num_nodes() == g.num_nodes());
  SHLCP_CHECK(ports.num_nodes() == g.num_nodes());
  if (ids != nullptr) {
    SHLCP_CHECK(ids->num_nodes() == g.num_nodes());
  }

  // The ball N^r(v), by a BFS that stops at radius r. Only the ball is
  // visited, and the scratch entries it marks are reset on return, so
  // one extraction costs O(ball), not O(n).
  BallScratch& scratch = ball_scratch(g.num_nodes());
  const BallScratch::Reset reset{scratch};
  std::vector<int>& dist = scratch.dist;
  std::vector<Node>& locals = scratch.ball;
  dist[static_cast<std::size_t>(v)] = 0;
  locals.push_back(v);
  for (std::size_t head = 0; head < locals.size(); ++head) {
    const Node x = locals[head];
    const int dx = dist[static_cast<std::size_t>(x)];
    if (dx == r) {
      continue;
    }
    for (const Node y : g.neighbors(x)) {
      if (dist[static_cast<std::size_t>(y)] == -1) {
        dist[static_cast<std::size_t>(y)] = dx + 1;
        locals.push_back(y);
      }
    }
  }
  // Local index map: nodes of N^r(v) in increasing global order.
  std::sort(locals.begin(), locals.end());
  std::vector<int>& local_of = scratch.local;
  for (std::size_t i = 0; i < locals.size(); ++i) {
    local_of[static_cast<std::size_t>(locals[i])] = static_cast<int>(i);
  }

  View view;
  view.radius = r;
  view.center = local_of[static_cast<std::size_t>(v)];
  view.id_bound = (ids != nullptr) ? ids->bound() : 0;
  view.g = Graph(static_cast<int>(locals.size()));
  view.dist.resize(locals.size());
  view.ids.resize(locals.size());
  view.labels.resize(locals.size());
  view.ports.resize(locals.size());

  for (std::size_t i = 0; i < locals.size(); ++i) {
    const Node u = locals[i];
    view.dist[i] = dist[static_cast<std::size_t>(u)];
    view.ids[i] = (ids != nullptr) ? ids->id_of(u) : -1;
    view.labels[i] = labels.at(u);
  }

  // Visibility rule: edge {x, y} visible iff min(dist) <= r - 1.
  for (std::size_t i = 0; i < locals.size(); ++i) {
    const Node x = locals[i];
    for (const Node y : g.neighbors(x)) {
      if (x >= y) {
        continue;  // handle each global edge once (loops: x == y skipped;
                   // the paper's constructions never use loops in views)
      }
      const int j = local_of[static_cast<std::size_t>(y)];
      if (j == -1) {
        continue;
      }
      const int dx = dist[static_cast<std::size_t>(x)];
      const int dy = dist[static_cast<std::size_t>(y)];
      if (std::min(dx, dy) <= r - 1) {
        view.g.add_edge(static_cast<Node>(i), j);
      }
    }
  }

  // Ports parallel to the *view* adjacency lists, holding original port
  // numbers.
  for (std::size_t i = 0; i < locals.size(); ++i) {
    const Node x = locals[i];
    const auto local_nb = view.g.neighbors(static_cast<Node>(i));
    auto& px = view.ports[i];
    px.resize(local_nb.size());
    for (std::size_t t = 0; t < local_nb.size(); ++t) {
      const Node y_global = locals[static_cast<std::size_t>(local_nb[t])];
      px[t] = ports.port(g, x, y_global);
    }
  }
  return view;
}

std::vector<View> extract_all_views(const Graph& g, const PortAssignment& ports,
                                    const IdAssignment* ids,
                                    const Labeling& labels, int r) {
  std::vector<View> out;
  out.reserve(static_cast<std::size_t>(g.num_nodes()));
  for (Node v = 0; v < g.num_nodes(); ++v) {
    out.push_back(extract_view(g, ports, ids, labels, r, v));
  }
  return out;
}

View subview_radius1(const View& view, Node x) {
  view.g.check_node(x);
  SHLCP_CHECK_MSG(view.dist[static_cast<std::size_t>(x)] < view.radius,
                  "subview_radius1 requires an interior node");
  // All of x's original edges are visible in `view` (its distance from the
  // view center is < r), so extracting at radius 1 inside the view graph
  // is exactly x's radius-1 view in the original instance.
  const auto nb = view.g.neighbors(x);

  View sub;
  sub.radius = 1;
  sub.id_bound = view.id_bound;
  // Local nodes: x then its neighbors in increasing local index order.
  std::vector<Node> locals{x};
  for (const Node y : nb) {
    locals.push_back(y);
  }
  std::vector<int> local_of(static_cast<std::size_t>(view.num_nodes()), -1);
  for (std::size_t i = 0; i < locals.size(); ++i) {
    local_of[static_cast<std::size_t>(locals[i])] = static_cast<int>(i);
  }
  sub.center = 0;
  sub.g = Graph(static_cast<int>(locals.size()));
  sub.dist.resize(locals.size());
  sub.ids.resize(locals.size());
  sub.labels.resize(locals.size());
  sub.ports.resize(locals.size());
  for (std::size_t i = 0; i < locals.size(); ++i) {
    const Node u = locals[i];
    sub.dist[i] = (i == 0) ? 0 : 1;
    sub.ids[i] = view.ids[static_cast<std::size_t>(u)];
    sub.labels[i] = view.labels[static_cast<std::size_t>(u)];
  }
  // Radius-1 visibility: only edges incident to the center.
  for (std::size_t t = 0; t < nb.size(); ++t) {
    sub.g.add_edge(0, static_cast<Node>(t + 1));
  }
  // Ports: center's ports to each neighbor, and each neighbor's port back.
  auto& pc = sub.ports[0];
  pc.resize(nb.size());
  const auto sub_nb = sub.g.neighbors(0);
  for (std::size_t t = 0; t < sub_nb.size(); ++t) {
    const Node y_local_sub = sub_nb[t];
    const Node y_view = locals[static_cast<std::size_t>(y_local_sub)];
    pc[t] = view.port(x, y_view);
    auto& py = sub.ports[static_cast<std::size_t>(y_local_sub)];
    py.resize(1);
    py[0] = view.port(y_view, x);
  }
  return sub;
}

}  // namespace shlcp

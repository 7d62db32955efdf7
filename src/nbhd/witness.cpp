#include "nbhd/witness.h"

#include <algorithm>

#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/shatter.h"
#include "certify/watermelon.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "util/check.h"

namespace shlcp {

Labeling degree_one_labeling(const Graph& g, Node hidden) {
  SHLCP_CHECK(g.degree(hidden) == 1);
  const auto res = check_bipartite(g);
  SHLCP_CHECK(res.bipartite());
  const Node anchor = g.neighbors(hidden)[0];
  Labeling labels(g.num_nodes());
  for (Node v = 0; v < g.num_nodes(); ++v) {
    if (v == hidden) {
      labels.at(v) = make_degree_one_certificate(DegreeOneSymbol::kBot);
    } else if (v == anchor) {
      labels.at(v) = make_degree_one_certificate(DegreeOneSymbol::kTop);
    } else {
      labels.at(v) = make_degree_one_certificate(
          res.coloring[static_cast<std::size_t>(v)] == 0
              ? DegreeOneSymbol::kColor0
              : DegreeOneSymbol::kColor1);
    }
  }
  return labels;
}

Labeling even_cycle_labeling(const Graph& g, const PortAssignment& ports,
                             int first_color) {
  SHLCP_CHECK(is_even_cycle(g));
  SHLCP_CHECK(first_color == 0 || first_color == 1);
  const int n = g.num_nodes();
  // Walk the cycle from node 0 towards its smaller neighbor, coloring
  // edges alternately starting with first_color.
  std::vector<Node> walk{0};
  std::vector<int> edge_color;
  Node prev = -1;
  Node cur = 0;
  for (int i = 0; i < n; ++i) {
    const auto nb = g.neighbors(cur);
    const Node next = (nb[0] == prev) ? nb[1] : nb[0];
    edge_color.push_back((i % 2) ^ first_color);
    walk.push_back(next);
    prev = cur;
    cur = next;
  }
  auto color_of_edge = [&](Node a, Node b) {
    for (int i = 0; i < n; ++i) {
      const Node x = walk[static_cast<std::size_t>(i)];
      const Node y = walk[static_cast<std::size_t>(i + 1)];
      if ((x == a && y == b) || (x == b && y == a)) {
        return edge_color[static_cast<std::size_t>(i)];
      }
    }
    SHLCP_CHECK_MSG(false, "edge not on cycle");
    return -1;
  };
  Labeling labels(n);
  for (Node v = 0; v < n; ++v) {
    const Node w1 = ports.neighbor_at(g, v, 1);
    const Node w2 = ports.neighbor_at(g, v, 2);
    labels.at(v) = make_even_cycle_certificate(
        ports.port(g, w1, v), color_of_edge(v, w1), ports.port(g, w2, v),
        color_of_edge(v, w2));
  }
  return labels;
}

Labeling shatter_labeling(const Graph& g, const IdAssignment& ids, Node point,
                          unsigned flip_mask, bool vector_on_point) {
  SHLCP_CHECK(is_bipartite(g));
  const Ident vid = ids.id_of(point);
  const Ident bound = ids.bound();
  std::vector<Node> rest;
  const auto nv = g.neighbors(point);
  for (Node u = 0; u < g.num_nodes(); ++u) {
    if (u != point && !std::binary_search(nv.begin(), nv.end(), u)) {
      rest.push_back(u);
    }
  }
  std::vector<Node> old_of_new;
  const Graph sub = g.induced_subgraph(rest, &old_of_new);
  const auto comp_of_local = connected_components(sub);
  const int k =
      sub.num_nodes() == 0
          ? 0
          : 1 + *std::max_element(comp_of_local.begin(), comp_of_local.end());
  SHLCP_CHECK_MSG(k >= 2, "chosen node is not a shatter point");
  const auto sub_col = check_bipartite(sub);
  SHLCP_CHECK(sub_col.bipartite());

  std::vector<int> component(static_cast<std::size_t>(g.num_nodes()), -1);
  std::vector<int> color(static_cast<std::size_t>(g.num_nodes()), -1);
  for (std::size_t i = 0; i < old_of_new.size(); ++i) {
    const int comp = comp_of_local[i] + 1;
    const int flip = static_cast<int>((flip_mask >> (comp - 1)) & 1u);
    component[static_cast<std::size_t>(old_of_new[i])] = comp;
    color[static_cast<std::size_t>(old_of_new[i])] = sub_col.coloring[i] ^ flip;
  }

  std::vector<int> facing(static_cast<std::size_t>(k), 0);
  std::vector<bool> have(static_cast<std::size_t>(k), false);
  for (const Node u : nv) {
    for (const Node w : g.neighbors(u)) {
      const int comp = component[static_cast<std::size_t>(w)];
      if (comp == -1) {
        continue;
      }
      if (!have[static_cast<std::size_t>(comp - 1)]) {
        have[static_cast<std::size_t>(comp - 1)] = true;
        facing[static_cast<std::size_t>(comp - 1)] =
            color[static_cast<std::size_t>(w)];
      }
    }
  }

  Labeling labels(g.num_nodes());
  labels.at(point) = make_shatter_type0(
      vid, vector_on_point ? facing : std::vector<int>{}, bound);
  for (const Node u : nv) {
    labels.at(u) = make_shatter_type1(
        vid, vector_on_point ? std::vector<int>{} : facing, bound);
  }
  for (Node u = 0; u < g.num_nodes(); ++u) {
    if (component[static_cast<std::size_t>(u)] != -1) {
      labels.at(u) = make_shatter_type2(vid, component[static_cast<std::size_t>(u)],
                                        color[static_cast<std::size_t>(u)],
                                        bound, k);
    }
  }
  return labels;
}

Labeling watermelon_labeling(const Graph& g, const PortAssignment& ports,
                             const IdAssignment& ids, int first_color) {
  const auto dec = watermelon_decomposition(g);
  SHLCP_CHECK(dec.has_value());
  SHLCP_CHECK(is_bipartite(g));
  const Ident e1 = ids.id_of(dec->v1);
  const Ident e2 = ids.id_of(dec->v2);
  const Ident id1 = std::min(e1, e2);
  const Ident id2 = std::max(e1, e2);
  const Ident bound = ids.bound();
  const int port_bound = g.max_degree();

  std::vector<std::pair<Edge, int>> colored;
  for (const auto& path : dec->paths) {
    for (std::size_t j = 0; j + 1 < path.size(); ++j) {
      colored.emplace_back(make_edge(path[j], path[j + 1]),
                           static_cast<int>(j % 2) ^ first_color);
    }
  }
  auto color_of = [&](Node a, Node b) {
    const Edge e = make_edge(a, b);
    for (const auto& [edge, col] : colored) {
      if (edge == e) {
        return col;
      }
    }
    SHLCP_CHECK_MSG(false, "edge not on any path");
    return -1;
  };

  Labeling labels(g.num_nodes());
  labels.at(dec->v1) = make_watermelon_type1(id1, id2, bound);
  labels.at(dec->v2) = make_watermelon_type1(id1, id2, bound);
  for (std::size_t path_idx = 0; path_idx < dec->paths.size(); ++path_idx) {
    const auto& path = dec->paths[path_idx];
    for (std::size_t j = 1; j + 1 < path.size(); ++j) {
      const Node u = path[j];
      const Node w1 = ports.neighbor_at(g, u, 1);
      const Node w2 = ports.neighbor_at(g, u, 2);
      labels.at(u) = make_watermelon_type2(
          id1, id2, static_cast<int>(path_idx) + 1, ports.port(g, w1, u),
          color_of(u, w1), ports.port(g, w2, u), color_of(u, w2), bound,
          port_bound);
    }
  }
  return labels;
}

std::vector<Instance> degree_one_witnesses(int max_n) {
  SHLCP_CHECK(2 <= max_n && max_n <= 6);
  std::vector<Instance> out;
  for (int n = 2; n <= max_n; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      if (!is_bipartite(g) || g.min_degree() != 1) {
        return true;
      }
      for (Node leaf = 0; leaf < g.num_nodes(); ++leaf) {
        if (g.degree(leaf) != 1) {
          continue;
        }
        // Both 2-coloring phases matter (the hidden node breaks the
        // coloring's symmetry), and port assignments distinguish
        // otherwise-equal anonymous views. Beyond the honest BOT/TOP
        // labelings, FULLY-COLORED labelings are also unanimously
        // accepted (every node just checks proper coloring locally), and
        // the paper's Figs. 3/4 odd cycle hinges on mixing the two kinds:
        // a colored leaf view is reachable both from instances that hide
        // a node and from instances that reveal everything.
        auto flip_colors = [&g](Labeling labels) {
          for (Node v = 0; v < g.num_nodes(); ++v) {
            const int s = labels.at(v).fields[0];
            if (s == 0 || s == 1) {
              labels.at(v) = make_degree_one_certificate(
                  s == 0 ? DegreeOneSymbol::kColor1
                         : DegreeOneSymbol::kColor0);
            }
          }
          return labels;
        };
        const Labeling honest = degree_one_labeling(g, leaf);
        const auto coloring = check_bipartite(g).coloring;
        Labeling revealed(g.num_nodes());
        for (Node v = 0; v < g.num_nodes(); ++v) {
          revealed.at(v) = make_degree_one_certificate(
              coloring[static_cast<std::size_t>(v)] == 0
                  ? DegreeOneSymbol::kColor0
                  : DegreeOneSymbol::kColor1);
        }
        for_each_port_assignment(g, [&](const PortAssignment& ports) {
          for (const Labeling& labels :
               {honest, flip_colors(honest), revealed, flip_colors(revealed)}) {
            Instance inst;
            inst.g = g;
            inst.ports = ports;
            inst.ids = IdAssignment::consecutive(g);
            inst.labels = labels;
            out.push_back(std::move(inst));
          }
          return true;
        });
      }
      return true;
    });
  }
  return out;
}

std::vector<Instance> even_cycle_witnesses(int max_n) {
  SHLCP_CHECK(4 <= max_n && max_n <= 8);
  std::vector<Instance> out;
  for (int n = 4; n <= max_n; n += 2) {
    const Graph g = make_cycle(n);
    for_each_port_assignment(g, [&](const PortAssignment& ports) {
      for (int phase = 0; phase <= 1; ++phase) {
        Instance inst;
        inst.g = g;
        inst.ports = ports;
        inst.ids = IdAssignment::consecutive(g);
        inst.labels = even_cycle_labeling(g, ports, phase);
        out.push_back(std::move(inst));
      }
      return true;
    });
  }
  return out;
}

std::vector<Instance> shatter_witnesses(bool vector_on_point) {
  std::vector<Instance> out;
  // P1 = (w3, w2, w1, u1, v, u2, z1, z2): the 8-node path, shatter point
  // at index 4; P2 drops w1 (ids keep their P1 values, bound stays 8).
  const Graph p1 = make_path(8);
  const Graph p2 = make_path(7);
  const IdAssignment ids1 =
      IdAssignment::from_vector({1, 2, 3, 4, 5, 6, 7, 8}, 8);
  const IdAssignment ids2 = IdAssignment::from_vector({1, 2, 4, 5, 6, 7, 8}, 8);
  for (unsigned flip = 0; flip < 4; ++flip) {
    {
      Instance inst;
      inst.g = p1;
      inst.ports = PortAssignment::canonical(p1);
      inst.ids = ids1;
      inst.labels = shatter_labeling(p1, ids1, 4, flip, vector_on_point);
      out.push_back(std::move(inst));
    }
    {
      Instance inst;
      inst.g = p2;
      inst.ports = PortAssignment::canonical(p2);
      inst.ids = ids2;
      inst.labels = shatter_labeling(p2, ids2, 3, flip, vector_on_point);
      out.push_back(std::move(inst));
    }
  }
  return out;
}

std::vector<Instance> watermelon_witnesses() {
  std::vector<Instance> out;
  const Graph g = make_path(8);
  const std::vector<std::vector<Ident>> id_variants = {
      {1, 2, 3, 4, 5, 6, 7, 8},  // identity
      {1, 2, 6, 5, 4, 3, 7, 8},  // the paper's middle-block reversal
      {8, 7, 6, 5, 4, 3, 2, 1},  // full reversal
  };
  for (const auto& ids_raw : id_variants) {
    const IdAssignment ids = IdAssignment::from_vector(ids_raw, 8);
    for_each_port_assignment(g, [&](const PortAssignment& ports) {
      for (int phase = 0; phase <= 1; ++phase) {
        Instance inst;
        inst.g = g;
        inst.ports = ports;
        inst.ids = ids;
        inst.labels = watermelon_labeling(g, ports, ids, phase);
        out.push_back(std::move(inst));
      }
      return true;
    });
  }
  return out;
}

Instance uniform_cheat_cycle_instance(const std::vector<Ident>& ids_around) {
  // A cycle instance from an explicit cyclic identifier sequence: ports
  // are oriented (port 1 to the successor, port 2 to the predecessor) and
  // every node carries the same self-referential type-2 certificate
  // (2, 1, 99, 1, far=1, col=0, far=2, col=1): the claimed far ports
  // route each consistency check back into the identical neighbor
  // certificate, so kNoPortCheck accepts everywhere even though the
  // actual far ports are (2, 1).
  const int n = static_cast<int>(ids_around.size());
  const Graph g = make_cycle(n);
  std::vector<std::vector<Port>> port_lists(static_cast<std::size_t>(n));
  for (Node v = 0; v < n; ++v) {
    const Node next = (v + 1) % n;
    const auto nb = g.neighbors(v);
    std::vector<Port> pl(2);
    pl[0] = (nb[0] == next) ? 1 : 2;
    pl[1] = (nb[1] == next) ? 1 : 2;
    port_lists[static_cast<std::size_t>(v)] = std::move(pl);
  }
  Instance inst;
  inst.g = g;
  inst.ports = PortAssignment::from_lists(g, std::move(port_lists));
  inst.ids = IdAssignment::from_vector(std::vector<Ident>(ids_around), 99);
  Labeling labels(n);
  for (Node v = 0; v < n; ++v) {
    labels.at(v) = make_watermelon_type2(1, 99, 1, /*p1=*/1, /*c1=*/0,
                                         /*p2=*/2, /*c2=*/1, 99, 2);
  }
  inst.labels = std::move(labels);
  return inst;
}

std::vector<Instance> no_port_check_witnesses() {
  return {
      // Realizes windows A = (4,1,2) and B = (1,2,3).
      uniform_cheat_cycle_instance({1, 2, 3, 4}),
      // B -> (2,3,7) -> (3,7,4).
      uniform_cheat_cycle_instance({1, 2, 3, 7, 4, 9}),
      // (3,7,4) -> (7,4,1) -> A.
      uniform_cheat_cycle_instance({3, 7, 4, 1, 2, 8}),
  };
}

std::vector<Instance> no_port_check_c8_witnesses() {
  // Same identifier windows, realized on 1-forgetful C8 hosts; the fresh
  // filler identifiers are pairwise distinct across instances so the
  // surgery's per-identifier components stay within one instance.
  return {
      uniform_cheat_cycle_instance({4, 1, 2, 3, 21, 22, 23, 24}),
      uniform_cheat_cycle_instance({1, 2, 3, 7, 4, 9, 31, 32}),
      uniform_cheat_cycle_instance({3, 7, 4, 1, 2, 8, 41, 42}),
  };
}

}  // namespace shlcp

#include "nbhd/nbhd_graph.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "lcp/enumerate.h"
#include "util/format.h"
#include "util/metrics.h"
#include "views/extract.h"

namespace shlcp {

namespace {

/// Scope timer accumulating into a NbhdStats::absorb_ns counter.
class AbsorbTimer {
 public:
  explicit AbsorbTimer(std::uint64_t* sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~AbsorbTimer() {
    *sink_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  std::uint64_t* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

template <typename V>
std::pair<int, bool> NbhdGraph::find_or_register(V&& view,
                                                const Provenance& prov) {
  const std::uint64_t fp = view.fingerprint();
  auto [it, opened] = fp_head_.try_emplace(fp, -1);
  int* slot = &it->second;
  while (*slot != -1) {
    const int idx = *slot;
    if (views_structurally_equal(views_[static_cast<std::size_t>(idx)],
                                 view)) {
      return {idx, false};
    }
    slot = &fp_next_[static_cast<std::size_t>(idx)];
  }
  const int idx = num_views();
  *slot = idx;  // before the push_backs: slot may point into fp_next_
  views_.push_back(std::forward<V>(view));
  fp_next_.push_back(-1);
  view_prov_.push_back(prov);
  adj_.add_node();
  return {idx, true};
}

void NbhdGraph::register_edge(int a, int b, const Provenance& prov) {
  if (a == b) {
    if (!adj_.has_edge(a, a)) {
      adj_.add_loop(a);
    }
  } else if (!adj_.has_edge(a, b)) {
    adj_.add_edge(a, b);
  }
  const int lo = std::min(a, b);
  const int hi = std::max(a, b);
  const auto [it, fresh] = edge_index_.try_emplace(
      pack_edge(lo, hi), static_cast<int>(edge_records_.size()));
  if (fresh) {
    edge_records_.push_back(EdgeProv{lo, hi, prov});
  }
}

int NbhdGraph::absorb(const Decoder& decoder, const Instance& inst, int k,
                      bool require_yes) {
  const AbsorbTimer timer(&stats_.absorb_ns);
  if (require_yes) {
    SHLCP_CHECK_MSG(is_k_colorable(inst.g, k),
                    "V(D, n) is built from yes-instances only");
  }
  const int instance_index = next_instance_++;
  const int r = decoder.radius();
  const bool anon = decoder.anonymous();

  // Register the accepting views and remember each node's index (or -1).
  std::vector<int> node_view(static_cast<std::size_t>(inst.num_nodes()), -1);
  for (Node v = 0; v < inst.num_nodes(); ++v) {
    View view = inst.view_of(v, r, anon);
    ++stats_.view_extractions;
    if (!decoder.accept(view)) {
      continue;
    }
    const auto [idx, fresh] =
        find_or_register(std::move(view), Provenance{instance_index, v, -1});
    if (!fresh) {
      ++stats_.views_deduped;
    }
    node_view[static_cast<std::size_t>(v)] = idx;
  }

  // Yes-instance-compatibility edges between accepting views.
  for (const Edge& e : inst.g.edges()) {
    const int a = node_view[static_cast<std::size_t>(e.u)];
    const int b = node_view[static_cast<std::size_t>(e.v)];
    if (a == -1 || b == -1) {
      continue;
    }
    // Store endpoints so that `node` realizes view min(a, b).
    const bool swap = a > b;
    register_edge(
        a, b, Provenance{instance_index, swap ? e.v : e.u, swap ? e.u : e.v});
  }
  return instance_index;
}

namespace {

/// One node's view inside a frame, built once per frame: the view
/// skeleton (graph, distances, ports, ids) whose labels are refilled in
/// place per ball labeling, and the memo of ball labelings already
/// judged.
struct BallMemo {
  View skeleton;
  /// The ball N^r[v] in the view's local order (increasing node index).
  std::vector<Node> members;
  /// Mixed-radix stride of each member's digit in the memo index.
  std::vector<std::uint64_t> strides;
  /// Registered view index per ball labeling, kRejected, or kUnseen.
  /// Empty when the ball holds every node with more than one
  /// certificate: then no ball labeling repeats within the frame.
  std::vector<int> memo;
};

constexpr int kUnseen = -2;
constexpr int kRejected = -1;

}  // namespace

std::uint64_t NbhdGraph::absorb_frame(
    const Decoder& decoder, const FrameLabelings& frame, int k,
    const std::function<bool(std::uint64_t)>& keep_going) {
  const AbsorbTimer timer(&stats_.absorb_ns);
  const Graph& g = *frame.graph;
  SHLCP_CHECK_MSG(is_k_colorable(g, k),
                  "V(D, n) is built from yes-instances only");
  const int n = g.num_nodes();
  const int r = decoder.radius();
  const IdAssignment* ids = decoder.anonymous() ? nullptr : frame.ids;

  std::vector<BallMemo> balls(static_cast<std::size_t>(n));
  {
    Labeling first(n);
    for (Node v = 0; v < n; ++v) {
      first.at(v) = frame.spaces[static_cast<std::size_t>(v)].front();
    }
    for (Node v = 0; v < n; ++v) {
      BallMemo& ball = balls[static_cast<std::size_t>(v)];
      ball.skeleton = extract_view(g, *frame.ports, ids, first, r, v);
      const std::vector<int> dist = bfs_distances(g, v);
      std::uint64_t size = 1;
      std::uint64_t outside = 1;
      for (Node u = 0; u < n; ++u) {
        const int du = dist[static_cast<std::size_t>(u)];
        const auto radix = static_cast<std::uint64_t>(
            frame.spaces[static_cast<std::size_t>(u)].size());
        if (du != -1 && du <= r) {
          ball.members.push_back(u);
          ball.strides.push_back(size);
          size *= radix;
        } else {
          outside *= radix;
        }
      }
      SHLCP_CHECK(static_cast<int>(ball.members.size()) ==
                  ball.skeleton.num_nodes());
      if (outside > 1) {
        ball.memo.assign(static_cast<std::size_t>(size), kUnseen);
      }
    }
  }

  // The miss path: absorb()'s per-node step on the skeleton, labeled in
  // place with the current ball labeling.
  const auto judge = [&](BallMemo& ball, const std::vector<int>& digits,
                         const Provenance& prov) {
    View& view = ball.skeleton;
    for (std::size_t j = 0; j < ball.members.size(); ++j) {
      const auto u = static_cast<std::size_t>(ball.members[j]);
      view.labels[j] = frame.spaces[u][static_cast<std::size_t>(digits[u])];
    }
    view.invalidate_canonical_cache();
    ++stats_.view_extractions;
    if (!decoder.accept(view)) {
      return kRejected;
    }
    const auto [idx, fresh] = find_or_register(std::as_const(view), prov);
    if (!fresh) {
      ++stats_.views_deduped;
    }
    return idx;
  };

  const std::vector<Edge> edges = g.edges();
  std::vector<int> node_view(static_cast<std::size_t>(n), kRejected);
  std::uint64_t absorbed = 0;
  for_each_frame_labeling(frame, [&](const std::vector<int>& digits) {
    const int instance_index = next_instance_++;
    for (Node v = 0; v < n; ++v) {
      BallMemo& ball = balls[static_cast<std::size_t>(v)];
      int& out = node_view[static_cast<std::size_t>(v)];
      if (ball.memo.empty()) {
        out = judge(ball, digits, Provenance{instance_index, v, -1});
        continue;
      }
      std::uint64_t key = 0;
      for (std::size_t j = 0; j < ball.members.size(); ++j) {
        key += static_cast<std::uint64_t>(
                   digits[static_cast<std::size_t>(ball.members[j])]) *
               ball.strides[j];
      }
      int& slot = ball.memo[static_cast<std::size_t>(key)];
      if (slot == kUnseen) {
        slot = judge(ball, digits, Provenance{instance_index, v, -1});
      } else if (slot != kRejected) {
        ++stats_.views_deduped;
      }
      out = slot;
    }
    for (const Edge& e : edges) {
      const int a = node_view[static_cast<std::size_t>(e.u)];
      const int b = node_view[static_cast<std::size_t>(e.v)];
      if (a == kRejected || b == kRejected) {
        continue;
      }
      const bool swap = a > b;
      register_edge(
          a, b, Provenance{instance_index, swap ? e.v : e.u, swap ? e.u : e.v});
    }
    ++absorbed;
    return (absorbed & 2047u) != 0 || !keep_going || keep_going(absorbed);
  });
  return absorbed;
}

void NbhdGraph::merge(NbhdGraph&& other) {
  const AbsorbTimer timer(&stats_.absorb_ns);
  const int offset = next_instance_;

  // Re-register other's views in other's registration order: that is the
  // order a sequential build would have first seen them in, given that
  // this graph's instances all precede other's. The fingerprint is
  // cached on the moved-in views, so the re-registration pays hash-map
  // lookups and (on chain hits) direct comparisons, never a fresh
  // canonical encode.
  std::vector<int> remap(other.views_.size(), -1);
  for (std::size_t i = 0; i < other.views_.size(); ++i) {
    Provenance prov = other.view_prov_[i];
    prov.instance += offset;
    const auto [idx, fresh] =
        find_or_register(std::move(other.views_[i]), prov);
    if (!fresh) {
      // First seen on both sides; ours has the lower instance index.
      ++stats_.views_deduped;
    }
    remap[i] = idx;
  }

  // Compatibility edges (adjacency lists are sorted, so insertion order
  // does not affect the representation).
  for (const Edge& e : other.adj_.edges()) {
    const int a = remap[static_cast<std::size_t>(e.u)];
    const int b = remap[static_cast<std::size_t>(e.v)];
    if (a == b) {
      if (!adj_.has_edge(a, a)) {
        adj_.add_loop(a);
      }
    } else if (!adj_.has_edge(a, b)) {
      adj_.add_edge(a, b);
    }
  }

  // Edge provenance: keep ours where both sides saw the edge (lower
  // instance index), import other's otherwise. Other's provenance is
  // oriented by other's local view order; re-orient when the remap flips
  // which endpoint carries the smaller index. Records are visited in
  // other's insertion order (deterministic; distinct records land on
  // distinct merged keys because the view remap is injective).
  for (const EdgeProv& rec : other.edge_records_) {
    const int a = remap[static_cast<std::size_t>(rec.a)];
    const int b = remap[static_cast<std::size_t>(rec.b)];
    const int lo = std::min(a, b);
    const int hi = std::max(a, b);
    const auto [it, fresh] = edge_index_.try_emplace(
        pack_edge(lo, hi), static_cast<int>(edge_records_.size()));
    if (!fresh) {
      continue;
    }
    Provenance adjusted = rec.prov;
    adjusted.instance += offset;
    if (a > b) {
      std::swap(adjusted.node, adjusted.other);
    }
    edge_records_.push_back(EdgeProv{lo, hi, adjusted});
  }

  next_instance_ += other.next_instance_;
  stats_.views_deduped += other.stats_.views_deduped;
  stats_.view_extractions += other.stats_.view_extractions;
  stats_.absorb_ns += other.stats_.absorb_ns;
  other = NbhdGraph{};
}

const View& NbhdGraph::view(int i) const {
  SHLCP_CHECK(0 <= i && i < num_views());
  return views_[static_cast<std::size_t>(i)];
}

const Provenance& NbhdGraph::view_provenance(int i) const {
  SHLCP_CHECK(0 <= i && i < num_views());
  return view_prov_[static_cast<std::size_t>(i)];
}

const Provenance* NbhdGraph::edge_provenance(int a, int b) const {
  const auto it = edge_index_.find(pack_edge(std::min(a, b), std::max(a, b)));
  if (it == edge_index_.end()) {
    return nullptr;
  }
  return &edge_records_[static_cast<std::size_t>(it->second)].prov;
}

int NbhdGraph::index_of(const View& v) const {
  // Fingerprint gate, then the exact chain walk -- no canonical code and
  // no key string is materialized for a lookup.
  const auto it = fp_head_.find(v.fingerprint());
  if (it == fp_head_.end()) {
    return -1;
  }
  for (int idx = it->second; idx != -1;
       idx = fp_next_[static_cast<std::size_t>(idx)]) {
    if (views_structurally_equal(views_[static_cast<std::size_t>(idx)], v)) {
      return idx;
    }
  }
  return -1;
}

std::optional<std::vector<int>> NbhdGraph::odd_cycle() const {
  auto res = check_bipartite(adj_);
  if (res.bipartite()) {
    return std::nullopt;
  }
  return res.odd_cycle;
}

std::optional<std::vector<int>> NbhdGraph::k_coloring_of_views(int k) const {
  return k_coloring(adj_, k);
}

namespace {

Json certificate_to_json(const Certificate& c) {
  Json out = Json::array();
  Json fields = Json::array();
  for (const int f : c.fields) {
    fields.push_back(Json(f));
  }
  out.push_back(std::move(fields));
  out.push_back(Json(c.bits));
  return out;
}

Certificate certificate_from_json(const Json& j) {
  SHLCP_CHECK_MSG(j.is_array() && j.size() == 2,
                  "certificate must be [[fields...], bits]");
  Certificate c;
  for (const Json& f : j.at(std::size_t{0}).items()) {
    c.fields.push_back(static_cast<int>(f.as_int()));
  }
  c.bits = static_cast<int>(j.at(std::size_t{1}).as_int());
  return c;
}

Json graph_to_json(const Graph& g) {
  Json out = Json::object();
  out["n"] = g.num_nodes();
  Json edges = Json::array();
  for (const Edge& e : g.edges()) {
    Json pair = Json::array();
    pair.push_back(Json(e.u));
    pair.push_back(Json(e.v));
    edges.push_back(std::move(pair));
  }
  out["edges"] = std::move(edges);
  return out;
}

Graph graph_from_json(const Json& j) {
  Graph g(static_cast<int>(j.at("n").as_int()));
  for (const Json& pair : j.at("edges").items()) {
    const Node u = static_cast<Node>(pair.at(std::size_t{0}).as_int());
    const Node v = static_cast<Node>(pair.at(std::size_t{1}).as_int());
    if (u == v) {
      g.add_loop(u);
    } else {
      g.add_edge(u, v);
    }
  }
  return g;
}

Json view_to_json(const View& v) {
  Json out = Json::object();
  out["g"] = graph_to_json(v.g);
  out["center"] = v.center;
  out["radius"] = v.radius;
  Json dist = Json::array();
  for (const int d : v.dist) {
    dist.push_back(Json(d));
  }
  out["dist"] = std::move(dist);
  Json ports = Json::array();
  for (const std::vector<Port>& node_ports : v.ports) {
    Json list = Json::array();
    for (const Port p : node_ports) {
      list.push_back(Json(p));
    }
    ports.push_back(std::move(list));
  }
  out["ports"] = std::move(ports);
  Json ids = Json::array();
  for (const Ident id : v.ids) {
    ids.push_back(Json(id));
  }
  out["ids"] = std::move(ids);
  Json labels = Json::array();
  for (const Certificate& c : v.labels) {
    labels.push_back(certificate_to_json(c));
  }
  out["labels"] = std::move(labels);
  out["id_bound"] = v.id_bound;
  return out;
}

View view_from_json(const Json& j) {
  View v;
  v.g = graph_from_json(j.at("g"));
  v.center = static_cast<Node>(j.at("center").as_int());
  v.radius = static_cast<int>(j.at("radius").as_int());
  for (const Json& d : j.at("dist").items()) {
    v.dist.push_back(static_cast<int>(d.as_int()));
  }
  for (const Json& list : j.at("ports").items()) {
    std::vector<Port> node_ports;
    for (const Json& p : list.items()) {
      node_ports.push_back(static_cast<Port>(p.as_int()));
    }
    v.ports.push_back(std::move(node_ports));
  }
  for (const Json& id : j.at("ids").items()) {
    v.ids.push_back(static_cast<Ident>(id.as_int()));
  }
  for (const Json& c : j.at("labels").items()) {
    v.labels.push_back(certificate_from_json(c));
  }
  v.id_bound = static_cast<Ident>(j.at("id_bound").as_int());
  const auto n = static_cast<std::size_t>(v.g.num_nodes());
  SHLCP_CHECK_MSG(v.dist.size() == n && v.ports.size() == n &&
                      v.ids.size() == n && v.labels.size() == n,
                  "view record: parallel vectors disagree with the graph");
  return v;
}

Json provenance_to_json(const Provenance& p) {
  Json out = Json::array();
  out.push_back(Json(p.instance));
  out.push_back(Json(p.node));
  out.push_back(Json(p.other));
  return out;
}

Provenance provenance_from_json(const Json& j) {
  SHLCP_CHECK_MSG(j.is_array() && j.size() == 3,
                  "provenance must be [instance, node, other]");
  Provenance p;
  p.instance = static_cast<int>(j.at(std::size_t{0}).as_int());
  p.node = static_cast<Node>(j.at(std::size_t{1}).as_int());
  p.other = static_cast<Node>(j.at(std::size_t{2}).as_int());
  return p;
}

}  // namespace

Json NbhdGraph::to_json() const {
  Json out = Json::object();
  Json views = Json::array();
  Json view_prov = Json::array();
  for (std::size_t i = 0; i < views_.size(); ++i) {
    views.push_back(view_to_json(views_[i]));
    view_prov.push_back(provenance_to_json(view_prov_[i]));
  }
  out["views"] = std::move(views);
  out["view_prov"] = std::move(view_prov);
  out["adj"] = graph_to_json(adj_);
  // Edge provenance in sorted key order, so the document (and therefore
  // the checkpoint digest) is deterministic regardless of record
  // insertion order.
  std::vector<int> handles(edge_records_.size());
  for (std::size_t i = 0; i < handles.size(); ++i) {
    handles[i] = static_cast<int>(i);
  }
  std::sort(handles.begin(), handles.end(), [&](int x, int y) {
    const EdgeProv& rx = edge_records_[static_cast<std::size_t>(x)];
    const EdgeProv& ry = edge_records_[static_cast<std::size_t>(y)];
    return std::make_pair(rx.a, rx.b) < std::make_pair(ry.a, ry.b);
  });
  Json edge_prov = Json::array();
  for (const int h : handles) {
    const EdgeProv& rec = edge_records_[static_cast<std::size_t>(h)];
    Json entry = Json::array();
    entry.push_back(Json(rec.a));
    entry.push_back(Json(rec.b));
    entry.push_back(Json(rec.prov.instance));
    entry.push_back(Json(rec.prov.node));
    entry.push_back(Json(rec.prov.other));
    edge_prov.push_back(std::move(entry));
  }
  out["edge_prov"] = std::move(edge_prov);
  out["next_instance"] = next_instance_;
  Json stats = Json::object();
  stats["views_deduped"] = stats_.views_deduped;
  stats["view_extractions"] = stats_.view_extractions;
  stats["absorb_ns"] = stats_.absorb_ns;
  out["stats"] = std::move(stats);
  return out;
}

NbhdGraph NbhdGraph::from_json(const Json& j) {
  NbhdGraph out;
  const Json& views = j.at("views");
  const Json& view_prov = j.at("view_prov");
  SHLCP_CHECK_MSG(views.size() == view_prov.size(),
                  "NbhdGraph record: views / view_prov size mismatch");
  for (std::size_t i = 0; i < views.size(); ++i) {
    View view = view_from_json(views.at(i));
    const auto [idx, fresh] = out.find_or_register(
        std::move(view), provenance_from_json(view_prov.at(i)));
    SHLCP_CHECK_MSG(fresh && idx == static_cast<int>(i),
                    format("NbhdGraph record: duplicate view #%d",
                           static_cast<int>(i)));
  }
  // find_or_register grew a node-only adjacency; replace it with the
  // recorded one (validated against the view count below).
  out.adj_ = graph_from_json(j.at("adj"));
  SHLCP_CHECK_MSG(out.adj_.num_nodes() == out.num_views(),
                  "NbhdGraph record: adjacency size disagrees with views");
  for (const Json& entry : j.at("edge_prov").items()) {
    SHLCP_CHECK_MSG(entry.is_array() && entry.size() == 5,
                    "edge_prov entry must be [a, b, instance, node, other]");
    const int a = static_cast<int>(entry.at(std::size_t{0}).as_int());
    const int b = static_cast<int>(entry.at(std::size_t{1}).as_int());
    SHLCP_CHECK_MSG(0 <= a && a <= b && b < out.num_views() &&
                        out.adj_.has_edge(a, b),
                    "edge_prov entry does not match an adjacency edge");
    Provenance prov;
    prov.instance = static_cast<int>(entry.at(std::size_t{2}).as_int());
    prov.node = static_cast<Node>(entry.at(std::size_t{3}).as_int());
    prov.other = static_cast<Node>(entry.at(std::size_t{4}).as_int());
    const auto [it, fresh] = out.edge_index_.try_emplace(
        pack_edge(a, b), static_cast<int>(out.edge_records_.size()));
    SHLCP_CHECK_MSG(fresh, "edge_prov entry duplicated");
    out.edge_records_.push_back(EdgeProv{a, b, prov});
  }
  out.next_instance_ = static_cast<int>(j.at("next_instance").as_int());
  out.stats_.views_deduped = j.at("stats").at("views_deduped").as_uint();
  // Absent from states written before the count existed.
  out.stats_.view_extractions =
      j.at("stats").contains("view_extractions")
          ? j.at("stats").at("view_extractions").as_uint()
          : 0;
  out.stats_.absorb_ns = j.at("stats").at("absorb_ns").as_uint();
  return out;
}

void publish_build_metrics(const NbhdGraph& nbhd) {
  metrics::counter("nbhd.build.builds").inc();
  metrics::counter("nbhd.build.instances")
      .add(static_cast<std::uint64_t>(nbhd.num_instances_absorbed()));
  metrics::counter("nbhd.build.views")
      .add(static_cast<std::uint64_t>(nbhd.num_views()));
  metrics::counter("nbhd.build.views_deduped").add(nbhd.stats().views_deduped);
  metrics::counter("nbhd.build.view_extractions")
      .add(nbhd.stats().view_extractions);
  metrics::counter("nbhd.build.edges")
      .add(static_cast<std::uint64_t>(nbhd.num_edges()));
  metrics::histogram("nbhd.build.absorb_ns").record(nbhd.stats().absorb_ns);
  // Fingerprint-gate accounting, derived from the final graph so
  // sequential and parallel builds publish identical values: a miss is a
  // registration whose fingerprint proved it fresh with no exact
  // comparison (one per distinct fingerprint); everything else -- dedup
  // confirmations and the rare true collisions -- walked a chain.
  const std::uint64_t registrations =
      static_cast<std::uint64_t>(nbhd.num_views()) +
      nbhd.stats().views_deduped;
  const std::uint64_t misses = nbhd.num_fingerprint_chains();
  metrics::counter("enum.fingerprint_misses").add(misses);
  metrics::counter("enum.fingerprint_hits")
      .add(registrations >= misses ? registrations - misses : 0);
}

}  // namespace shlcp

// The accepting neighborhood graph V(D, n) (Section 3 of the paper).
//
// Nodes are the accepting views of the decoder D over labeled
// yes-instances; edges join yes-instance-compatible views (views realized
// at two adjacent nodes of one labeled yes-instance). Lemma 3.2 is the
// punchline: D hides a k-coloring iff V(D, n) is NOT k-colorable for some
// n -- an odd cycle in V(D, n) is a hiding certificate for k = 2, and a
// proper k-coloring of V(D, n) compiles into the extractor decoder D'
// (see nbhd/extractor.h).
//
// Views of adjacent nodes with the *same* canonical form produce a
// self-loop here; a loop is a 1-cycle and correctly counts as
// non-k-colorable for every k (two adjacent nodes that look identical can
// never be consistently split by any local decoder).
//
// The graph is shard-mergeable for the parallel sweep: absorb into
// per-chunk shards, then merge shards in chunk order. Because chunks
// partition the instance stream contiguously and merge re-registers the
// shard's views in the shard's own registration order, the merged result
// is bit-identical to a sequential absorb of the whole stream -- same
// view indices, same edges, and the same first-seen provenance (lowest
// instance index wins).

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/algorithms.h"
#include "lcp/decoder.h"
#include "util/json.h"
#include "views/canonical.h"

namespace shlcp {

struct FrameLabelings;

/// Where a view / compatibility edge was first seen: an instance index
/// (assigned by absorption order) and the node(s) realizing it. The
/// Section 5 surgery uses this to go back from V(D, n) into concrete
/// yes-instances (the graphs G_e of Lemma 5.4).
struct Provenance {
  int instance = -1;
  Node node = -1;       // center realizing the view
  Node other = -1;      // for edges: the adjacent center
};

/// Accounting for the builders: dedupe pressure and time spent absorbing,
/// so benches report dedupe ratios and time-in-absorb without external
/// instrumentation. Deterministic except absorb_ns.
///
/// This is the *mergeable per-build accumulator*; the process-wide
/// reporting surface is the metrics registry (util/metrics.h), fed once
/// per completed build by publish_build_metrics(). Publishing from the
/// final merged graph -- never per absorb/merge event, which would
/// double-count shard re-registrations -- extends the bit-identical
/// sequential == parallel guarantee to the registry counters.
struct NbhdStats {
  /// Accepting-view registrations that hit an already-registered view.
  /// Total registrations = num_views() + views_deduped.
  std::uint64_t views_deduped = 0;
  /// View extractions run through the decoder (extract + accept): one
  /// per node per instance in absorb(), one per distinct (node, ball
  /// labeling) in absorb_frame().
  std::uint64_t view_extractions = 0;
  /// Wall time spent inside absorb() (and merge()), nanoseconds.
  std::uint64_t absorb_ns = 0;
};

/// An incrementally-built accepting neighborhood graph.
class NbhdGraph {
 public:
  /// Absorbs one labeled instance: registers the accepting views of
  /// `decoder` (anonymized when the decoder is anonymous) and the edges
  /// between accepting views of adjacent nodes. V(D, n) is defined over
  /// yes-instances only, so the graph must be k-colorable (CheckError
  /// otherwise); pass the language's k. Returns the instance index
  /// assigned for provenance.
  int absorb(const Decoder& decoder, const Instance& inst, int k);

  /// Absorbs every labeling of one frame in product order, with exactly
  /// the result of calling absorb(decoder, inst, k) on each labeled
  /// instance in turn: the same views in the same registration order, the
  /// same edges and first-seen provenance, the same views_deduped. A
  /// radius-r view depends only on the certificates in its ball N^r[v],
  /// so each node's view is extracted and judged once per ball labeling
  /// and later visits of that ball labeling reuse the verdict (see
  /// DESIGN.md §13). `keep_going(absorbed)`, when set, is asked after
  /// every 2,048th labeling (a sampled poll, so a hard stop lands inside
  /// a huge labeling product at the cost of one branch per labeling);
  /// returning false stops the frame there. Returns the number of
  /// labelings absorbed, frame.num_labelings iff not stopped.
  std::uint64_t absorb_frame(
      const Decoder& decoder, const FrameLabelings& frame, int k,
      const std::function<bool(std::uint64_t)>& keep_going = {});

  /// Folds `other` into this graph as if other's instances had been
  /// absorbed here, in order, right after this graph's own: other's views
  /// are re-registered in other's registration order, its edges re-keyed
  /// through the combined view indices, its instance indices shifted by
  /// num_instances_absorbed(), and first-seen provenance kept from the
  /// earlier (lower instance index) side. Merging contiguous shards in
  /// stream order therefore reproduces the sequential build exactly.
  void merge(NbhdGraph&& other);

  /// Number of distinct accepting views registered.
  [[nodiscard]] int num_views() const { return static_cast<int>(views_.size()); }

  /// The i-th registered view (registration order).
  [[nodiscard]] const View& view(int i) const;

  /// Index of `v` in the registry, or -1.
  [[nodiscard]] int index_of(const View& v) const;

  /// The view-adjacency graph (indices parallel to view()).
  [[nodiscard]] const Graph& graph() const { return adj_; }

  /// Number of yes-instance-compatibility edges.
  [[nodiscard]] int num_edges() const { return adj_.num_edges(); }

  /// Lemma 3.2 for k = 2: the decoder hides a 2-coloring iff this returns
  /// a non-bipartite witness. Returns the odd cycle over view indices if
  /// one exists.
  [[nodiscard]] std::optional<std::vector<int>> odd_cycle() const;

  /// Proper k-coloring of the view graph in registration order
  /// (deterministic; the "lexicographically first" coloring Lemma 3.2
  /// uses), or nullopt if none exists.
  [[nodiscard]] std::optional<std::vector<int>> k_coloring_of_views(int k) const;

  /// True iff the view graph is k-colorable (no hiding witness found).
  [[nodiscard]] bool k_colorable(int k) const {
    return k_coloring_of_views(k).has_value();
  }

  /// First-seen provenance of view i.
  [[nodiscard]] const Provenance& view_provenance(int i) const;

  /// First-seen provenance of the edge {a, b}, or nullptr if absent.
  [[nodiscard]] const Provenance* edge_provenance(int a, int b) const;

  /// Number of instances absorbed so far.
  [[nodiscard]] int num_instances_absorbed() const { return next_instance_; }

  /// Number of distinct view fingerprints seen (= registrations that the
  /// fingerprint gate proved fresh without any exact comparison). The
  /// derived split published to the metrics registry is
  /// fingerprint_misses = this, fingerprint_hits = registrations - this;
  /// deriving from the final graph keeps sequential and parallel builds
  /// publishing identical values (a shard-local tally would not merge).
  [[nodiscard]] std::uint64_t num_fingerprint_chains() const {
    return fp_head_.size();
  }

  /// Builder accounting (dedupe hits, time in absorb). Merge sums shard
  /// stats, so parallel and sequential builds agree on views_deduped.
  [[nodiscard]] const NbhdStats& stats() const { return stats_; }

  /// Serializes the complete builder state -- views in registration
  /// order, adjacency (loops included), both provenance maps, the
  /// instance counter, and stats -- so a checkpointed build can resume
  /// bit-identically (nbhd/checkpoint.h). Deterministic except for the
  /// absorb_ns stat: edge provenance is emitted in sorted key order.
  [[nodiscard]] Json to_json() const;

  /// Inverse of to_json: reconstructs the graph, re-deriving the
  /// canonical-code index from the stored views. Throws CheckError on a
  /// structurally inconsistent document (duplicate views, bad indices).
  static NbhdGraph from_json(const Json& j);

 private:
  /// Edge endpoints are small dense view indices: pack into one word
  /// (a <= b) for the edge-record index.
  static std::uint64_t pack_edge(int a, int b) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b);
  }

  /// One first-seen edge-provenance record. Records live in a contiguous
  /// vector (insertion order) addressed by integer handles; the hash map
  /// only stores packed-key -> handle.
  struct EdgeProv {
    int a = 0;  // a <= b
    int b = 0;
    Provenance prov;
  };

  /// Fingerprint-gated registration: looks `view` up via its cached
  /// 64-bit fingerprint and the per-fingerprint chain, comparing
  /// candidates with views_structurally_equal (exact; no canonical code
  /// materialized). Registers the view with `prov` when absent, moving or
  /// copying it per `V`. Returns (view index, freshly-registered).
  template <typename V>
  std::pair<int, bool> find_or_register(V&& view, const Provenance& prov);

  /// Registers the compatibility edge {a, b} (or the loop when a == b)
  /// and its first-seen provenance, preserving an existing record.
  void register_edge(int a, int b, const Provenance& prov);

  // Dedup index: fingerprint -> first view index of the chain, with
  // per-view chain links in registration order. No per-view key string
  // is ever materialized; exact dedup is fingerprint gate + direct
  // structural comparison against the (usually single-entry) chain.
  std::unordered_map<std::uint64_t, int> fp_head_;
  std::vector<int> fp_next_;  // parallel to views_; -1 terminates a chain
  std::vector<View> views_;
  std::vector<Provenance> view_prov_;
  // Edge provenance as flat records + packed-key handle index.
  std::vector<EdgeProv> edge_records_;
  std::unordered_map<std::uint64_t, int> edge_index_;
  Graph adj_;
  int next_instance_ = 0;
  NbhdStats stats_;
};

/// Publishes a completed build's totals to the metrics registry:
/// counters nbhd.build.{builds,instances,views,views_deduped,
/// view_extractions,edges} and
/// histogram nbhd.build.absorb_ns. The aviews.h builders call this once
/// per build on the final (merged) graph, so sequential and parallel
/// builds of the same sweep publish identical counter values.
void publish_build_metrics(const NbhdGraph& nbhd);

}  // namespace shlcp

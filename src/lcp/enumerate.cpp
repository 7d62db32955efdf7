#include "lcp/enumerate.h"

#include "graph/algorithms.h"
#include "util/combinatorics.h"
#include "util/format.h"
#include "util/metrics.h"

namespace shlcp {

namespace {

// Counter placement is chosen so the sequential drivers and the
// frame-sharded parallel path tally identical totals (the parity test
// in tests/metrics_test.cpp pins this): frames are counted once per
// frame in enumerate_frames / the sequential frame loops (never in
// frame_labelings, which the parallel workers call per already-counted
// frame), and instances are counted in the shared for_each_frame_labeling
// product, which the Instance stream and NbhdGraph::absorb_frame both
// walk.
metrics::Counter& frames_counter() {
  static metrics::Counter& c = metrics::counter("lcp.enumerate.frames");
  return c;
}

metrics::Counter& instances_counter() {
  static metrics::Counter& c = metrics::counter("lcp.enumerate.instances");
  return c;
}

metrics::Counter& proved_counter() {
  static metrics::Counter& c =
      metrics::counter("lcp.enumerate.proved_instances");
  return c;
}

/// Runs `body` for every (ports, ids) frame of `g` selected by `options`.
bool for_each_frame(const Graph& g, const EnumOptions& options,
                    const std::function<bool(const PortAssignment&,
                                             const IdAssignment&)>& body) {
  const auto with_ports = [&](const PortAssignment& ports) {
    if (options.all_id_orders) {
      return for_each_id_order(
          g, [&](const IdAssignment& ids) { return body(ports, ids); });
    }
    return body(ports, IdAssignment::consecutive(g));
  };
  if (options.all_ports) {
    return for_each_port_assignment(g, with_ports);
  }
  return with_ports(PortAssignment::canonical(g));
}

/// Identifies a frame in error messages: which graph of the family, its
/// size, and the port/id assignments, so a blown labeling bound points at
/// the offending frame instead of leaving the caller to bisect the sweep.
std::string describe_frame(int graph_index, const Graph& g,
                           const PortAssignment& ports,
                           const IdAssignment& ids) {
  std::string port_lists;
  for (Node v = 0; v < g.num_nodes(); ++v) {
    if (v > 0) {
      port_lists += " ";
    }
    port_lists += show_vec(ports.ports_of(v));
  }
  return format("graph #%d (%d nodes, %d edges), ids=%s (N=%d), ports=[%s]",
                graph_index, g.num_nodes(), g.num_edges(),
                show_vec(ids.raw()).c_str(), ids.bound(), port_lists.c_str());
}

/// The one description of a frame's labeling product: builds the
/// certificate spaces and enforces max_labelings_per_frame.
FrameLabelings describe_labelings(const Lcp& lcp, const Graph& g,
                                  int graph_index, const PortAssignment& ports,
                                  const IdAssignment& ids,
                                  const EnumOptions& options) {
  FrameLabelings frame;
  frame.graph = &g;
  frame.ports = &ports;
  frame.ids = &ids;
  for (Node v = 0; v < g.num_nodes(); ++v) {
    frame.spaces.push_back(lcp.certificate_space(g, ids, v));
    SHLCP_CHECK(!frame.spaces.back().empty());
    frame.num_labelings *=
        static_cast<std::uint64_t>(frame.spaces.back().size());
    SHLCP_CHECK_MSG(
        frame.num_labelings <= options.max_labelings_per_frame,
        format("labeling space exceeds max_labelings_per_frame (%llu) "
               "after node %d of frame: ",
               static_cast<unsigned long long>(options.max_labelings_per_frame),
               v) +
            describe_frame(graph_index, g, ports, ids));
  }
  return frame;
}

/// Streams every labeling of the frame through `visit` as an Instance.
bool visit_frame_labelings(const Lcp& lcp, const Graph& g, int graph_index,
                           const PortAssignment& ports,
                           const IdAssignment& ids,
                           const EnumOptions& options,
                           const std::function<bool(const Instance&)>& visit) {
  const FrameLabelings frame =
      describe_labelings(lcp, g, graph_index, ports, ids, options);
  Instance inst;
  inst.g = g;
  inst.ports = ports;
  inst.ids = ids;
  inst.labels = Labeling(g.num_nodes());
  return for_each_frame_labeling(frame, [&](const std::vector<int>& digits) {
    for (Node v = 0; v < g.num_nodes(); ++v) {
      const auto i = static_cast<std::size_t>(v);
      inst.labels.at(v) =
          frame.spaces[i][static_cast<std::size_t>(digits[i])];
    }
    return visit(inst);
  });
}

}  // namespace

ParallelEnumOptions one_thread(const EnumOptions& enums) {
  ParallelEnumOptions options;
  options.enums = enums;
  options.num_threads = 1;
  return options;
}

std::vector<EnumFrame> enumerate_frames(const std::vector<Graph>& graphs,
                                        const EnumOptions& options) {
  std::vector<EnumFrame> frames;
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    for_each_frame(graphs[gi], options,
                   [&](const PortAssignment& ports, const IdAssignment& ids) {
                     frames_counter().inc();
                     EnumFrame frame;
                     frame.graph_index = static_cast<int>(gi);
                     frame.ports = ports;
                     frame.ids = ids;
                     frames.push_back(std::move(frame));
                     return true;
                   });
  }
  return frames;
}

std::vector<std::uint64_t> frame_costs(const Lcp& lcp,
                                       const std::vector<Graph>& graphs,
                                       const std::vector<EnumFrame>& frames) {
  std::vector<std::uint64_t> costs;
  costs.reserve(frames.size());
  for (const EnumFrame& frame : frames) {
    const auto gi = static_cast<std::size_t>(frame.graph_index);
    SHLCP_CHECK(gi < graphs.size());
    const Graph& g = graphs[gi];
    std::uint64_t total = 1;
    for (Node v = 0; v < g.num_nodes(); ++v) {
      const auto space = lcp.certificate_space(g, frame.ids, v);
      SHLCP_CHECK(!space.empty());
      const auto size = static_cast<std::uint64_t>(space.size());
      // Saturating product: cost estimation must not throw on a frame
      // the enumeration itself would reject via max_labelings_per_frame.
      total = (total > ~std::uint64_t{0} / size) ? ~std::uint64_t{0}
                                                 : total * size;
    }
    costs.push_back(total);
  }
  return costs;
}

FrameLabelings frame_labelings(const Lcp& lcp, const std::vector<Graph>& graphs,
                               const EnumFrame& frame,
                               const EnumOptions& options) {
  const auto gi = static_cast<std::size_t>(frame.graph_index);
  SHLCP_CHECK(gi < graphs.size());
  return describe_labelings(lcp, graphs[gi], frame.graph_index, frame.ports,
                            frame.ids, options);
}

bool for_each_frame_labeling(
    const FrameLabelings& frame,
    const std::function<bool(const std::vector<int>&)>& visit) {
  std::vector<int> radix;
  for (const std::vector<Certificate>& space : frame.spaces) {
    radix.push_back(static_cast<int>(space.size()));
  }
  // Counted once per frame: a per-labeling increment would be the only
  // shared write in the parallel sweep's inner loop.
  std::uint64_t visited = 0;
  const bool finished =
      for_each_product(radix, [&](const std::vector<int>& digits) {
        ++visited;
        return visit(digits);
      });
  instances_counter().add(visited);
  return finished;
}

std::optional<Instance> proved_instance_in_frame(
    const Lcp& lcp, const std::vector<Graph>& graphs, const EnumFrame& frame) {
  const auto gi = static_cast<std::size_t>(frame.graph_index);
  SHLCP_CHECK(gi < graphs.size());
  auto labels = lcp.prove(graphs[gi], frame.ports, frame.ids);
  if (!labels.has_value()) {
    return std::nullopt;
  }
  proved_counter().inc();
  Instance inst;
  inst.g = graphs[gi];
  inst.ports = frame.ports;
  inst.ids = frame.ids;
  inst.labels = std::move(*labels);
  return inst;
}

bool for_each_labeled_instance(
    const Lcp& lcp, const std::vector<Graph>& graphs, const EnumOptions& options,
    const std::function<bool(const Instance&)>& visit) {
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    const bool keep_going = for_each_frame(
        g, options, [&](const PortAssignment& ports, const IdAssignment& ids) {
          frames_counter().inc();
          return visit_frame_labelings(lcp, g, static_cast<int>(gi), ports,
                                       ids, options, visit);
        });
    if (!keep_going) {
      return false;
    }
  }
  return true;
}

std::vector<Graph> filter_yes_graphs(const std::vector<Graph>& candidates,
                                     int k) {
  std::vector<Graph> out;
  for (const Graph& g : candidates) {
    if (is_k_colorable(g, k)) {
      out.push_back(g);
    }
  }
  return out;
}

}  // namespace shlcp

// Streams of labeled instances for the exhaustive engines.
//
// Lemma 3.1's algorithm "iterates over all possible labeled yes-instances
// (G, prt, Id, ell) such that G is of size at most n". This header
// provides that iteration, factored so each dimension (graphs, ports,
// identifier orders, labelings) can be toggled between exhaustive and
// canonical-only -- e.g. anonymous decoders do not need the id dimension,
// and vertex-transitive experiments can fix ports.
//
// The sweep also comes in a frame-partitioned form for build()
// (nbhd/aviews.h): a *frame* is one (graph, ports, ids) triple,
// frames are independent (each carries its own labeling product), and
// enumerate_frames materializes them in the exact order the sequential
// stream visits them, so chunking frames across workers and reducing in
// chunk order reproduces the sequential result bit for bit.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "lcp/decoder.h"
#include "util/budget.h"

namespace shlcp {

/// Options controlling which dimensions are enumerated exhaustively.
struct EnumOptions {
  /// Enumerate every port assignment (else canonical ports only).
  bool all_ports = false;
  /// Enumerate every identifier order type (else consecutive ids only).
  bool all_id_orders = false;
  /// Upper bound on labelings per (graph, ports, ids) frame; the stream
  /// throws (naming the offending frame) if the LCP's certificate space
  /// exceeds it.
  std::uint64_t max_labelings_per_frame = 20'000'000;
};

/// Frame-granular checkpointing for the sharded builders
/// (nbhd/aviews.h): the build periodically persists a manifest of the
/// completed frame prefix plus the merged NbhdGraph state, and can
/// resume from it after a crash, budget trip, or SIGINT.
struct CheckpointOptions {
  /// Checkpoint directory (created on demand); empty disables
  /// checkpointing entirely.
  std::string directory;
  /// Checkpoint cadence: a manifest is written every this many completed
  /// frames.
  std::uint64_t every_frames = 64;
  /// Resume from an existing manifest in `directory` when one is
  /// present (a mismatching manifest is a loud CheckError, never a
  /// silent restart). When false an existing manifest is overwritten.
  bool resume = true;

  [[nodiscard]] bool enabled() const { return !directory.empty(); }
};

/// Options for the multithreaded sweep: the sequential dimension toggles
/// plus worker-pool shape, resource budgets, and checkpointing. Used by
/// build() in nbhd/aviews.h.
struct ParallelEnumOptions {
  /// Dimension toggles, shared with the sequential stream.
  EnumOptions enums;
  /// Worker threads; 0 resolves via SHLCP_NUM_THREADS, then the hardware
  /// (util/parallel.h). The sweep is cut into chunks by a cost-adaptive
  /// plan (frame_costs + adaptive_plan in util/parallel.h): cheap frames
  /// batch into coarse chunks, dense frames get chunks of their own.
  int num_threads = 0;
  /// Per-build resource caps (util/budget.h). Default: unlimited. A
  /// build that trips one returns its completed prefix, marked
  /// incomplete; ResumableBuildResult::take() fails loudly on it rather
  /// than return a silently truncated graph.
  RunBudget budget;
  /// Frame-granular checkpoint/resume. Default: disabled.
  CheckpointOptions checkpoint;
  /// Optional external stop flag (not owned; must outlive the build).
  /// Shared with the budget enforcement: budget trips request a stop on
  /// this token when provided.
  CancelToken* cancel = nullptr;
  /// Watchdog for wedged workers: when > 0, a run whose progress
  /// counter stalls for this long is cancelled with StopReason::kStall
  /// (util/parallel.h). 0 disables the watchdog.
  std::uint64_t stall_timeout_ms = 0;
};

/// The options of a sequential build over `enums`: one worker thread and
/// nothing that can interrupt it.
ParallelEnumOptions one_thread(const EnumOptions& enums = {});

/// One (graph, ports, ids) frame of the sweep. `graph_index` indexes the
/// graph family the frame was enumerated from.
struct EnumFrame {
  int graph_index = 0;
  PortAssignment ports;
  IdAssignment ids;
};

/// Materializes every frame of the sweep over `graphs` x EnumOptions, in
/// exactly the order for_each_labeled_instance visits them.
std::vector<EnumFrame> enumerate_frames(const std::vector<Graph>& graphs,
                                        const EnumOptions& options);

/// Per-frame work estimates for adaptive_plan (util/parallel.h): the
/// frame's labeling count, i.e. the product of `lcp.certificate_space`
/// sizes over its nodes (saturated at 2^64 - 1 instead of enforcing
/// max_labelings_per_frame -- the enumeration itself still enforces the
/// bound). Deterministic in its inputs; costs[i] belongs to frames[i].
std::vector<std::uint64_t> frame_costs(const Lcp& lcp,
                                       const std::vector<Graph>& graphs,
                                       const std::vector<EnumFrame>& frames);

/// One frame's labeling product, described once for every consumer: the
/// Instance stream below and NbhdGraph::absorb_frame. A labeling is a
/// digit vector with digits[v] indexing spaces[v]; labelings run in
/// mixed-radix product order with node 0 the fastest digit. The pointers
/// borrow from the caller's graph family and frame.
struct FrameLabelings {
  const Graph* graph = nullptr;
  const PortAssignment* ports = nullptr;
  const IdAssignment* ids = nullptr;
  /// spaces[v] = lcp.certificate_space(*graph, *ids, v); never empty.
  std::vector<std::vector<Certificate>> spaces;
  /// Product of the space sizes, at most max_labelings_per_frame.
  std::uint64_t num_labelings = 1;
};

/// Describes one frame of the sweep over `graphs`. Throws CheckError,
/// naming the frame, when its labeling product exceeds
/// options.max_labelings_per_frame.
FrameLabelings frame_labelings(const Lcp& lcp, const std::vector<Graph>& graphs,
                               const EnumFrame& frame,
                               const EnumOptions& options);

/// Walks every labeling of `frame` in product order with one digit vector
/// updated in place, and adds the labelings visited to
/// lcp.enumerate.instances. Return false from `visit` to stop early;
/// returns false iff stopped.
bool for_each_frame_labeling(
    const FrameLabelings& frame,
    const std::function<bool(const std::vector<int>&)>& visit);

/// The honestly-labeled instance of one frame: the prover's certificates,
/// or nullopt when the prover declines the frame.
std::optional<Instance> proved_instance_in_frame(
    const Lcp& lcp, const std::vector<Graph>& graphs, const EnumFrame& frame);

/// Visits labeled instances built from each graph in `graphs` crossed with
/// the enabled dimensions and every labeling from `lcp.certificate_space`.
/// Return false from `visit` to stop early; returns false iff stopped.
bool for_each_labeled_instance(
    const Lcp& lcp, const std::vector<Graph>& graphs, const EnumOptions& options,
    const std::function<bool(const Instance&)>& visit);

/// Collects all k-colorable graphs among `candidates` (utility for
/// assembling yes-instance families).
std::vector<Graph> filter_yes_graphs(const std::vector<Graph>& candidates,
                                     int k);

}  // namespace shlcp

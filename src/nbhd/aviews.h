// The builder of the accepting neighborhood graph (Lemma 3.1).
//
// One call builds V(D, n): build(source, options). The source says what
// the sweep absorbs:
//
//  - BuildSource::exhaustive reproduces Lemma 3.1's sequential algorithm
//    verbatim: every labeled yes-instance over a supplied graph family
//    and the LCP's certificate space. Exact but exponential.
//  - BuildSource::proved absorbs only honestly-labeled instances. The
//    result is a *subgraph* of V(D, n): odd cycles found in it are valid
//    hiding witnesses (Lemma 3.2's "only if" direction needs just one),
//    but k-colorability of the subgraph does NOT prove non-hiding.
//  - BuildSource::instances absorbs an explicit witness list -- used to
//    replay the paper's figures (see nbhd/witness.h).
//
// Every source runs on one engine. With one thread and no budget or
// checkpoint, it absorbs every frame (or instance) straight into the
// result. Otherwise it cuts the sweep into contiguous chunks of
// (graph, ports, ids) frames (or instances) by a deterministic,
// cost-adaptive plan -- cheap frames batch into coarse chunks, labeling-
// dense frames get chunks of their own -- and runs them on a
// work-stealing pool (util/parallel.h). Each chunk is absorbed into a
// thread-local shard and the shards merged in plan order. The result is
// bit-identical to the sequential build -- same view registration order,
// same edges, same provenance (see NbhdGraph::merge) -- regardless of
// chunk boundaries or steal timing; tests/parallel_enum_test.cpp asserts
// it.
//
// Interrupt safety: a frame sweep runs under a RunBudget and
// (optionally) frame-granular checkpointing (nbhd/checkpoint.h). An
// early exit -- a passed deadline, the frame budget, SIGINT -- returns
// the graph built from the completed frame prefix plus an explicit
// StopReason; with a checkpoint directory configured the prefix
// is persisted and a later call resumes from it, producing a final graph
// bit-identical to an uninterrupted build (tests/checkpoint_test.cpp).
// The manifest records the source, and resuming under another source is
// a loud CheckError. ResumableBuildResult::take() is the "complete or
// throw" form: a truncated V(D, n) is never returned silently.

#pragma once

#include <cstdint>
#include <string>

#include "lcp/enumerate.h"
#include "nbhd/nbhd_graph.h"

namespace shlcp {

/// Result of a build. A budget (deadline, frame cap, SIGINT) can stop a
/// frame sweep early; `complete` says whether it ran to the end.
struct ResumableBuildResult {
  /// The graph built from frames [0, frames_done). Equal to the full
  /// build iff `complete`.
  NbhdGraph nbhd;
  /// True iff every frame of the sweep was absorbed.
  bool complete = false;
  /// Why the build stopped early; kNone iff `complete`.
  StopReason stop_reason = StopReason::kNone;
  /// Total frames of the sweep.
  std::uint64_t num_frames = 0;
  /// Completed frame prefix absorbed into `nbhd`.
  std::uint64_t frames_done = 0;
  /// Frames restored from a checkpoint rather than recomputed (0 on a
  /// fresh run).
  std::uint64_t resumed_frames = 0;
  /// Path of the manifest this run wrote/updated; empty when
  /// checkpointing is disabled.
  std::string manifest_path;

  /// The graph of a complete build. Throws CheckError when the build
  /// stopped early.
  NbhdGraph take() &&;
};

/// What a build sweeps. A source refers to its arguments without copying
/// them and must not outlive them; with a temporary argument, make it
/// inside the call: build(BuildSource::proved(lcp, {g}), options).
class BuildSource {
 public:
  /// Exact V(D, n) restricted to the yes-graphs among `graphs`: every
  /// (ports, ids, labeling) per options.enums. Cost: the product of the
  /// per-node certificate-space sizes per frame.
  static BuildSource exhaustive(const Lcp& lcp,
                                const std::vector<Graph>& graphs);
  /// The subgraph of V(D, n) generated by the honest prover over the
  /// yes-graphs among `graphs` (frames the prover declines are skipped).
  static BuildSource proved(const Lcp& lcp, const std::vector<Graph>& graphs);
  /// The subgraph of V(D, n) generated by explicit labeled instances,
  /// each of whose graphs must be k-colorable. Ignores options.enums;
  /// budgets and checkpoints are a CheckError (witness lists are small).
  static BuildSource instances(const Decoder& decoder,
                               const std::vector<Instance>& instances, int k);

 private:
  friend ResumableBuildResult build(const BuildSource& source,
                                    const ParallelEnumOptions& options);

  enum class Kind { kExhaustive, kProved, kInstances };
  BuildSource() = default;

  Kind kind_ = Kind::kExhaustive;
  const Lcp* lcp_ = nullptr;                          // frame sources
  const std::vector<Graph>* graphs_ = nullptr;        // frame sources
  const std::vector<Instance>* instances_ = nullptr;  // instance source
  const Decoder* decoder_ = nullptr;                  // instance source
  int k_ = 0;                                         // instance source
};

/// Builds V(D, n), or the subgraph `source` generates, on
/// options.num_threads workers; bit-identical at every thread count.
ResumableBuildResult build(const BuildSource& source,
                           const ParallelEnumOptions& options);

/// build(BuildSource::exhaustive(lcp, graphs), options).take(). bench/e2e
/// compiles against this signature; the benchmark change that moves
/// bench/e2e onto build() deletes it.
NbhdGraph build_exhaustive(const Lcp& lcp, const std::vector<Graph>& graphs,
                           const ParallelEnumOptions& options);

/// build(BuildSource::proved(lcp, graphs), one_thread(options)).take().
/// bench/e2e compiles against this signature; the benchmark change that
/// moves bench/e2e onto build() deletes it.
NbhdGraph build_proved(const Lcp& lcp, const std::vector<Graph>& graphs,
                       const EnumOptions& options);

}  // namespace shlcp

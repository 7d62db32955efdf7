// Synchronous LOCAL execution engine.
//
// Runs the full-information protocol of sim/message.h on an Instance for
// r rounds and reconstructs each node's radius-r view from its gathered
// knowledge. The module's correctness claim -- asserted by
// tests/sim_test.cpp on many graph families -- is that the reconstructed
// view equals views/extract.h's direct extraction at every node, i.e. the
// paper's "the verifier sees everything up to r hops" abstraction and an
// actual r-round message-passing execution coincide.
//
// Anonymous decoders are handled exactly as in Decoder::run: the engine
// simulates on the identified network (identifiers are what makes
// knowledge merging well-defined) and strips identifiers from the view
// before handing it to an anonymous decoder.
//
// Fault injection: the engine accepts an optional ChannelModel hook
// (sim/faults.h) through which every send and delivery is routed. A null
// channel -- and, by the pass-through contract, a FaultyChannel with no
// fault enabled -- leaves the execution bit-identical to the ideal
// engine. Under faults, a node's gathered knowledge may no longer
// support a full radius-r reconstruction; try_view_of detects that
// (degraded views are never silently passed off as valid ones).
//
// Sharing, not copying: in round 1 a receiver adds the announced edge to
// its own record in place. From round 2 on each node's knowledge is
// snapshotted once per round, and that one snapshot is the message sent
// to every neighbour; only a channel that changes a message copies it.
// SimStats bytes are the snapshots' sizes, so the traffic accounting is
// the same as if every neighbour had been sent its own copy.

#pragma once

#include <cstdint>
#include <optional>

#include "lcp/decoder.h"
#include "sim/faults.h"
#include "sim/message.h"
#include "util/budget.h"

namespace shlcp {

/// Traffic accounting for one execution. Counts messages actually
/// delivered: drops reduce the totals, duplications increase them.
struct SimStats {
  int rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Synchronous engine over a fixed instance. `channel` (not owned, may be
/// null) intercepts liveness, sends, and deliveries; see sim/faults.h.
class SyncEngine {
 public:
  explicit SyncEngine(const Instance& inst, ChannelModel* channel = nullptr);

  /// Runs `rounds` >= 1 rounds of the full-information protocol,
  /// extending the current state (call once; repeated calls continue).
  /// Polls the cancel token (if one is set) between rounds and throws
  /// CancelledError when it trips; rounds already run stay valid.
  void run(int rounds);

  /// Installs a cooperative stop flag (not owned, may be null; must
  /// outlive the engine). A tripped token makes run() throw
  /// CancelledError at the next round boundary -- an execution is never
  /// silently cut short mid-round.
  void set_cancel(const CancelToken* cancel) { cancel_ = cancel; }

  /// Rounds executed so far.
  [[nodiscard]] int rounds_run() const { return stats_.rounds; }

  [[nodiscard]] const SimStats& stats() const { return stats_; }

  /// Node v's knowledge base.
  [[nodiscard]] const Knowledge& knowledge(Node v) const;

  /// Reconstructs node v's radius-r view from its knowledge; requires
  /// r == rounds_run(). Throws CheckError when the knowledge is too
  /// degraded to support the reconstruction (possible only under faults).
  [[nodiscard]] View view_of(Node v, int r) const;

  /// Like view_of, but reports degraded knowledge as nullopt instead of
  /// throwing. A faulty execution must route through this: a degraded
  /// view is detected and reported, never silently accepted as valid.
  [[nodiscard]] std::optional<View> try_view_of(Node v, int r) const;

 private:
  class Receiver;

  /// Runs one round (sends from the round-start state, then receives).
  void run_round(int global_round);

  /// Adds the traffic and rounds of this run() call to the sim.*
  /// counters, once.
  void publish_counters(const SimStats& before) const;

  const Instance& inst_;
  ChannelModel* channel_ = nullptr;  // not owned; nullptr = ideal channels
  const CancelToken* cancel_ = nullptr;  // not owned; nullptr = no polling
  std::vector<Knowledge> kb_;
  /// Round r >= 2: each node's knowledge at the start of the round, the
  /// one message it sends to every neighbour. Reused across rounds.
  std::vector<Message> snapshots_;
  /// Round 1: the announce being sent, rewritten per edge.
  Message announce_;
  SimStats stats_;
};

/// Runs `decoder` distributedly on `inst` (decoder.radius() rounds of
/// message passing, then local verdicts); fills `stats` if non-null.
std::vector<bool> run_decoder_distributed(const Decoder& decoder,
                                          const Instance& inst,
                                          SimStats* stats = nullptr);

/// Outcome of one faulty distributed execution. `degraded[v]` is true
/// when v's gathered knowledge did not reconstruct into a valid radius-r
/// view (or the decoder could not evaluate the reconstruction); degraded
/// nodes always reject -- the audit subsystem relies on that monotonicity.
/// `views[v]` holds the reconstructed identified view when one exists,
/// for attribution of verdict flips to specific faults (built once and
/// moved in, never copied).
struct FaultyRunResult {
  std::vector<bool> verdicts;
  std::vector<bool> degraded;
  std::vector<std::optional<View>> views;
  SimStats stats;
  FaultStats faults;
};

/// Runs `decoder` distributedly on `inst` under `plan` (deterministic:
/// same plan, same result). The fault-free plan reproduces
/// run_decoder_distributed bit-for-bit.
FaultyRunResult run_decoder_distributed_faulty(const Decoder& decoder,
                                               const Instance& inst,
                                               const FaultPlan& plan);

}  // namespace shlcp

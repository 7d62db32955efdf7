// Fault injection for the LOCAL simulator.
//
// The honest engine of sim/engine.h executes the fault-free
// full-information protocol. This module makes adversarial and faulty
// executions first-class: a FaultPlan is a deterministic, seed-driven
// description of what may go wrong -- per-round message drops and
// duplications, NodeRecord field corruption (identifiers, certificates,
// edge lists), crash-stop nodes, and byzantine nodes that forward
// tampered knowledge -- and a FaultyChannel realizes it behind the
// engine's ChannelModel hook.
//
// Determinism contract: every fault decision is drawn from an Rng keyed
// by (plan.seed, round, sender, receiver, event kind), never from global
// state or iteration order. Two executions of the same (instance, plan)
// are bit-identical, so any audit failure is replayable from the plan
// descriptor alone (FaultPlan::describe / FaultPlan::parse round-trip).
//
// Pass-through contract: a FaultyChannel whose plan has no fault enabled
// behaves exactly like no channel at all -- same messages, same bytes,
// same knowledge -- which tests/sim_faults_test.cpp pins down so the
// hook can stay installed permanently without perturbing experiment E13.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/message.h"
#include "util/rng.h"

namespace shlcp {

/// A deterministic description of one faulty execution environment.
/// Rates are per-mille (0 = never, 1000 = always) and are evaluated
/// independently per (round, sender, receiver) channel event.
struct FaultPlan {
  /// Display name for reports ("drop-heavy", "byzantine-1", ...). Carried
  /// through describe()/parse() but has no behavioral effect.
  std::string label = "fault-free";
  /// Seed of every fault decision (see determinism contract above).
  std::uint64_t seed = 0;
  /// Per-delivery probability that a message is lost.
  int drop_permille = 0;
  /// Per-delivery probability that a message is delivered twice.
  int duplicate_permille = 0;
  /// Per-delivered-copy probability that one NodeRecord field of the
  /// message is corrupted (id, certificate field, edge entry, or -- from
  /// round 2 on -- a structural mutation of the record/edge lists).
  int corrupt_permille = 0;
  /// Crash-stop nodes: from `crash_round` on they neither send nor
  /// process received messages.
  std::vector<Node> crash_nodes;
  int crash_round = 1;
  /// Byzantine nodes: every message they send is tampered (one field
  /// mutation per outgoing copy, on top of any channel corruption).
  std::vector<Node> byzantine_nodes;

  /// True iff the plan can alter an execution at all.
  [[nodiscard]] bool enabled() const;

  /// Compact single-line descriptor, e.g.
  /// "drop-light;seed=0xc0ffee;drop=100;dup=0;corrupt=0;crash=-@1;byz=-".
  /// parse(describe()) reconstructs the plan exactly.
  [[nodiscard]] std::string describe() const;

  /// Inverse of describe(). Throws CheckError on malformed input.
  static FaultPlan parse(const std::string& descriptor);

  /// The standard audit family for an n-node instance: fault-free,
  /// drop-light/heavy, duplicate, corrupt-light/heavy, one- and two-node
  /// crashes, one byzantine node, and a byzantine+drop mix. All derived
  /// deterministically from `seed`.
  static std::vector<FaultPlan> standard_family(std::uint64_t seed,
                                                int num_nodes);

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Counters of the faults a channel actually injected (an execution with
/// a nonzero plan may still inject nothing -- the draws are random).
struct FaultStats {
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted_fields = 0;
  std::uint64_t tampered_messages = 0;
};

/// Where a channel delivers the messages of one transmission, in order.
/// The engine implements it: each receive() is one delivered message.
class MessageSink {
 public:
  virtual void receive(const Message& message) = 0;

 protected:
  ~MessageSink() = default;
};

/// The engine's channel hook. The default implementation is the ideal
/// channel: every node is always alive, sends are untouched, and every
/// message is delivered exactly once. SyncEngine treats a null channel
/// and the default ChannelModel identically.
///
/// The engine calls transmit() once per (round, sender, neighbour). The
/// sent message is shared: in round r >= 2 it is the sender's one
/// knowledge snapshot for the round, the same object for every
/// neighbour. The default transmit() runs on_send and deliver on a
/// private copy, so a channel written against those two hooks sees
/// every message. A channel that overrides transmit() should copy only
/// the messages it changes and pass the shared one through otherwise.
class ChannelModel {
 public:
  virtual ~ChannelModel() = default;

  /// True iff node `v` participates in `round` (sends, and processes
  /// what it receives). Crash-stop faults return false here.
  [[nodiscard]] virtual bool alive(int round, Node v) const {
    (void)round;
    (void)v;
    return true;
  }

  /// Carries `sent` from `from` to `to`: hands every delivered copy to
  /// `sink` (none = drop, two = duplication), skipping delivery when the
  /// receiver is not alive. `sent` must not be changed. Round-1
  /// messages must keep their single-record/single-stub shape -- the
  /// engine's handshake depends on it -- so structural mutations are
  /// only legal from round 2 on.
  virtual void transmit(int round, Node from, Node to, const Message& sent,
                        MessageSink& sink);

  /// Called by the default transmit() on every outgoing message before
  /// it enters the channel; byzantine senders tamper here.
  virtual void on_send(int round, Node from, Node to, Message& message) {
    (void)round;
    (void)from;
    (void)to;
    (void)message;
  }

  /// Called by the default transmit() for a live receiver: append zero
  /// or more copies of `message` to `out` (empty = drop, two =
  /// duplication; copies may be corrupted).
  virtual void deliver(int round, Node from, Node to, Message&& message,
                       std::vector<Message>& out) {
    (void)round;
    (void)from;
    (void)to;
    out.push_back(std::move(message));
  }
};

/// The deterministic realization of a FaultPlan. Copies a message only
/// to change it: a byzantine sender's tampered copy, or a corrupted
/// delivery. Drops and duplicates pass the shared message on as it is.
class FaultyChannel final : public ChannelModel {
 public:
  explicit FaultyChannel(FaultPlan plan);

  [[nodiscard]] bool alive(int round, Node v) const override;
  void transmit(int round, Node from, Node to, const Message& sent,
                MessageSink& sink) override;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }

 private:
  /// Independent generator for one channel event; see determinism
  /// contract in the file comment.
  [[nodiscard]] Rng event_rng(int round, Node from, Node to,
                              std::uint64_t salt) const;

  FaultPlan plan_;
  FaultStats stats_;
};

/// Applies one pseudo-random field mutation to `message`: perturb a
/// record id, a certificate field, or an edge entry's far id/ports;
/// `allow_structural` additionally permits erasing an edge entry or a
/// whole record and flipping a completeness flag (legal from round 2 on
/// only). Increments `stats.corrupted_fields` iff a mutation was applied.
void corrupt_message(Message& message, Rng& rng, bool allow_structural,
                     FaultStats& stats);

}  // namespace shlcp

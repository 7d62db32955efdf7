#include "sim/engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/gather.h"
#include "util/check.h"
#include "util/format.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace shlcp {

/// The synchronous receive step: applies each delivered message of one
/// (round, sender, receiver) transmission to the receiver's knowledge
/// and to the traffic stats.
class SyncEngine::Receiver final : public MessageSink {
 public:
  Receiver(SyncEngine& engine, int round) : engine_(engine), round_(round) {}

  /// The next transmission: `sent` is what the sender sent, of
  /// `sent_bytes` encoded bytes.
  void start(Node from, Node to, const Message& sent, std::size_t sent_bytes) {
    from_ = from;
    to_ = to;
    sent_ = &sent;
    sent_bytes_ = sent_bytes;
  }

  void receive(const Message& m) override {
    SimStats& stats = engine_.stats_;
    stats.messages += 1;
    // A message the channel passed through is the shared one, whose size
    // is already known; a changed copy is measured.
    const std::size_t size = &m == sent_ ? sent_bytes_ : m.byte_size();
    SHLCP_CHECK_MSG(
        stats.bytes <= std::numeric_limits<std::uint64_t>::max() - size,
        "SimStats byte total overflow");
    stats.bytes += size;
    if (round_ == 1) {
      hear_announce(m);
    } else {
      engine_.kb_[static_cast<std::size_t>(to_)].merge(m);
    }
  }

 private:
  /// Round 1: the receiver learns the sender's partial record and, from
  /// the edge stub, one entry of its own record, which it extends in
  /// place; the record is complete once every incident edge has been
  /// heard (synchronously: end of round 1).
  void hear_announce(const Message& m) {
    // The handshake depends on the announce shape; a channel that
    // violates it (structural corruption is only legal from round 2 on)
    // is a contract violation, not a modeled fault.
    SHLCP_CHECK_MSG(!m.records.empty() && !m.records[0].edges.empty() &&
                        !m.records[0].complete,
                    "round-1 message lost its announce shape");
    const Instance& inst = engine_.inst_;
    const NodeRecord& sender = m.records[0];
    Knowledge& kb = engine_.kb_[static_cast<std::size_t>(to_)];
    kb.find_or_insert(sender.id, sender.cert);
    NodeRecord& self = kb.find_or_insert(inst.ids.id_of(to_),
                                         inst.labels.at(to_));
    // The arrival port is local knowledge of the receiver; the stub
    // carries the sender's port; together they describe the shared edge
    // from the receiver's perspective. A duplicated round-1 message
    // arrives on a port already recorded -- the receiver deduplicates by
    // arrival port, so duplication stays idempotent (no-op in fault-free
    // runs: each port is heard exactly once).
    const int degree = inst.g.degree(to_);
    const Port arrival = inst.ports.port(inst.g, to_, from_);
    const bool seen = std::any_of(
        self.edges.begin(), self.edges.end(),
        [&](const EdgeInfo& e) { return e.self_port == arrival; });
    if (!seen) {
      self.edges.reserve(static_cast<std::size_t>(degree));
      self.edges.push_back(
          EdgeInfo{arrival, sender.id, sender.edges[0].self_port});
    }
    self.complete = static_cast<int>(self.edges.size()) == degree;
  }

  SyncEngine& engine_;
  const int round_;
  Node from_ = 0;
  Node to_ = 0;
  const Message* sent_ = nullptr;
  std::size_t sent_bytes_ = 0;
};

SyncEngine::SyncEngine(const Instance& inst, ChannelModel* channel)
    : inst_(inst), channel_(channel) {
  kb_.resize(static_cast<std::size_t>(inst.num_nodes()));
  for (Node v = 0; v < inst.num_nodes(); ++v) {
    // Round 1 leaves a node its own record plus one per neighbour.
    kb_[static_cast<std::size_t>(v)].reserve(
        static_cast<std::size_t>(inst.g.degree(v)) + 1);
  }
}

void SyncEngine::run_round(int global_round) {
  const Graph& g = inst_.g;
  const auto alive = [&](Node v) {
    return channel_ == nullptr || channel_->alive(global_round, v);
  };
  // Synchronous semantics: every message is computed from the state at
  // the start of the round. Round-1 announces depend on the instance
  // only; later rounds send the round-start snapshot, taken for every
  // node before any message is received.
  if (global_round >= 2) {
    snapshots_.resize(static_cast<std::size_t>(g.num_nodes()));
    for (Node v = 0; v < g.num_nodes(); ++v) {
      if (alive(v)) {
        kb_[static_cast<std::size_t>(v)].snapshot_into(
            snapshots_[static_cast<std::size_t>(v)]);
      }
    }
  }
  Receiver receiver(*this, global_round);
  for (Node v = 0; v < g.num_nodes(); ++v) {
    if (!alive(v)) {
      continue;  // crash-stop: a dead node sends nothing
    }
    const auto neighbors = g.neighbors(v);
    const Message* sent = nullptr;
    std::size_t sent_bytes = 0;
    if (global_round == 1) {
      // Round 1: announce (id, certificate, own port) over each edge.
      // The receiver combines the port stub with the port the message
      // arrives on.
      announce_.records.resize(1);
      NodeRecord& r = announce_.records[0];
      r.id = inst_.ids.id_of(v);
      r.cert = inst_.labels.at(v);
      r.complete = false;
      r.edges.resize(1);
      r.edges[0] = EdgeInfo{0, -1, 0};
      sent = &announce_;
      sent_bytes = announce_.byte_size();
    } else {
      sent = &snapshots_[static_cast<std::size_t>(v)];
      sent_bytes = sent->byte_size();
    }
    const std::vector<Port>& ports = inst_.ports.ports_of(v);
    for (std::size_t t = 0; t < neighbors.size(); ++t) {
      const Node w = neighbors[t];
      if (global_round == 1) {
        announce_.records[0].edges[0].self_port = ports[t];
      }
      receiver.start(v, w, *sent, sent_bytes);
      if (channel_ == nullptr) {
        receiver.receive(*sent);
      } else {
        channel_->transmit(global_round, v, w, *sent, receiver);
      }
    }
  }
  if (global_round == 1) {
    // Isolated nodes and degree-0 corner cases: ensure every node holds
    // its own (complete) record after round 1. Crashed nodes stay
    // knowledge-free -- their degraded state must remain detectable.
    for (Node v = 0; v < g.num_nodes(); ++v) {
      if (g.degree(v) != 0 || !alive(v)) {
        continue;
      }
      Knowledge& kb = kb_[static_cast<std::size_t>(v)];
      const NodeRecord* self = kb.find(inst_.ids.id_of(v));
      if (self == nullptr || !self->complete) {
        NodeRecord r;
        r.id = inst_.ids.id_of(v);
        r.cert = inst_.labels.at(v);
        r.complete = true;
        kb.merge_record(r);
      }
    }
  }
}

void SyncEngine::publish_counters(const SimStats& before) const {
  static metrics::Counter& messages = metrics::counter("sim.messages.delivered");
  static metrics::Counter& bytes = metrics::counter("sim.bytes.delivered");
  static metrics::Counter& rounds = metrics::counter("sim.rounds");
  messages.add(stats_.messages - before.messages);
  bytes.add(stats_.bytes - before.bytes);
  rounds.add(static_cast<std::uint64_t>(stats_.rounds - before.rounds));
}

void SyncEngine::run(int rounds) {
  SHLCP_CHECK(rounds >= 0);
  const SimStats before = stats_;
  for (int round = 0; round < rounds; ++round) {
    if (cancel_ != nullptr && cancel_->stop_requested()) {
      metrics::counter("sim.cancelled").inc();
      trace::event("sim.cancelled",
                   {{"reason", Json(std::string(to_string(cancel_->reason())))},
                    {"rounds_run", static_cast<std::uint64_t>(stats_.rounds)}});
      stats_.rounds += round;  // rounds completed so far stay valid
      publish_counters(before);
      throw CancelledError(
          cancel_->reason(),
          format("simulation cancelled (%s) after %d of %d rounds",
                 to_string(cancel_->reason()), stats_.rounds,
                 stats_.rounds + rounds - round));
    }
    const int global_round = stats_.rounds + round + 1;
    trace::Span round_span("sim.round");
    const std::uint64_t messages_before = stats_.messages;
    const std::uint64_t bytes_before = stats_.bytes;
    run_round(global_round);
    if (round_span.active()) {
      round_span.note("round", static_cast<std::uint64_t>(global_round));
      round_span.note("messages", stats_.messages - messages_before);
      round_span.note("bytes", stats_.bytes - bytes_before);
    }
  }
  stats_.rounds += rounds;
  publish_counters(before);
}

const Knowledge& SyncEngine::knowledge(Node v) const {
  inst_.g.check_node(v);
  return kb_[static_cast<std::size_t>(v)];
}

View SyncEngine::view_of(Node v, int r) const {
  SHLCP_CHECK_MSG(r == stats_.rounds, "run exactly r rounds first");
  return reconstruct_view(kb_[static_cast<std::size_t>(v)],
                          inst_.ids.id_of(v), r, inst_.ids.bound());
}

std::optional<View> SyncEngine::try_view_of(Node v, int r) const {
  SHLCP_CHECK_MSG(r == stats_.rounds, "run exactly r rounds first");
  try {
    return view_of(v, r);
  } catch (const CheckError&) {
    // Degraded knowledge (dropped/corrupted/crashed inputs): the
    // reconstruction's internal invariants reject it. Reported, never
    // passed off as a valid radius-r view.
    trace::event("sim.view.degraded",
                 {{"node", static_cast<std::uint64_t>(v)},
                  {"id", static_cast<std::int64_t>(inst_.ids.id_of(v))}});
    return std::nullopt;
  }
}

namespace {

/// decoder.accept(view), with the identifiers hidden from an anonymous
/// decoder exactly as View::anonymized() would -- but in place, and
/// restored afterwards (also when the decoder throws), instead of
/// copying the whole view. `saved` is scratch reused across views.
bool accept_view(const Decoder& decoder, View& view,
                 std::vector<Ident>& saved) {
  if (!decoder.anonymous()) {
    return decoder.accept(view);
  }
  struct HiddenIds {
    View& view;
    std::vector<Ident>& saved;
    Ident bound;
    HiddenIds(View& v, std::vector<Ident>& s)
        : view(v), saved(s), bound(std::exchange(v.id_bound, 0)) {
      saved.assign(view.ids.begin(), view.ids.end());
      std::fill(view.ids.begin(), view.ids.end(), -1);
      view.invalidate_canonical_cache();
    }
    ~HiddenIds() {
      std::copy(saved.begin(), saved.end(), view.ids.begin());
      view.id_bound = bound;
      view.invalidate_canonical_cache();
    }
    HiddenIds(const HiddenIds&) = delete;
    HiddenIds& operator=(const HiddenIds&) = delete;
  } hidden(view, saved);
  return decoder.accept(view);
}

}  // namespace

std::vector<bool> run_decoder_distributed(const Decoder& decoder,
                                          const Instance& inst,
                                          SimStats* stats) {
  trace::Span span("sim.run");
  if (span.active()) {
    span.note("nodes", static_cast<std::uint64_t>(inst.num_nodes()));
    span.note("radius", static_cast<std::uint64_t>(decoder.radius()));
  }
  SyncEngine engine(inst);
  engine.run(decoder.radius());
  std::vector<bool> verdicts(static_cast<std::size_t>(inst.num_nodes()));
  std::vector<Ident> saved_ids;
  for (Node v = 0; v < inst.num_nodes(); ++v) {
    View view = engine.view_of(v, decoder.radius());
    verdicts[static_cast<std::size_t>(v)] =
        accept_view(decoder, view, saved_ids);
  }
  if (stats != nullptr) {
    *stats = engine.stats();
  }
  return verdicts;
}

FaultyRunResult run_decoder_distributed_faulty(const Decoder& decoder,
                                               const Instance& inst,
                                               const FaultPlan& plan) {
  trace::Span span("sim.run.faulty");
  if (span.active()) {
    span.note("nodes", static_cast<std::uint64_t>(inst.num_nodes()));
    span.note("radius", static_cast<std::uint64_t>(decoder.radius()));
    span.note("plan", plan.label);
  }
  FaultyChannel channel(plan);
  SyncEngine engine(inst, &channel);
  engine.run(decoder.radius());
  const auto n = static_cast<std::size_t>(inst.num_nodes());
  FaultyRunResult res;
  res.verdicts.assign(n, false);
  res.degraded.assign(n, false);
  res.views.resize(n);
  std::uint64_t reconstructed = 0;
  std::uint64_t degraded = 0;
  std::vector<Ident> saved_ids;
  for (Node v = 0; v < inst.num_nodes(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    std::optional<View>& view = res.views[i];
    view = engine.try_view_of(v, decoder.radius());
    if (!view.has_value()) {
      ++degraded;
      res.degraded[i] = true;
      continue;  // degraded nodes reject
    }
    ++reconstructed;
    try {
      res.verdicts[i] = accept_view(decoder, *view, saved_ids);
    } catch (const CheckError&) {
      // The reconstruction was consistent but the decoder could not
      // evaluate it (corrupted content outside its input contract).
      ++degraded;
      res.degraded[i] = true;
      res.verdicts[i] = false;
    }
  }
  res.stats = engine.stats();
  res.faults = channel.stats();
  // Views and fault events by class, added once per run.
  static metrics::Counter& views_reconstructed =
      metrics::counter("sim.views.reconstructed");
  static metrics::Counter& views_degraded =
      metrics::counter("sim.views.degraded");
  static metrics::Counter& dropped = metrics::counter("sim.faults.dropped");
  static metrics::Counter& duplicated =
      metrics::counter("sim.faults.duplicated");
  static metrics::Counter& corrupted_fields =
      metrics::counter("sim.faults.corrupted_fields");
  static metrics::Counter& tampered_messages =
      metrics::counter("sim.faults.tampered_messages");
  views_reconstructed.add(reconstructed);
  views_degraded.add(degraded);
  dropped.add(res.faults.dropped);
  duplicated.add(res.faults.duplicated);
  corrupted_fields.add(res.faults.corrupted_fields);
  tampered_messages.add(res.faults.tampered_messages);
  return res;
}

}  // namespace shlcp

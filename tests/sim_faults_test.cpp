// Tests for the fault-injection layer (sim/faults.h).
//
// The two load-bearing claims: (1) the pass-through contract -- an
// installed FaultyChannel with no fault enabled leaves the execution
// bit-identical to the channel-free engine, so the hook costs nothing on
// the honest path; (2) determinism -- the same (instance, plan) always
// yields the same execution, which is what makes repro strings work.
// Around those: per-fault-class behavior (drops degrade, duplication is
// idempotent, crash-stop degrades exactly the crashed neighborhood,
// degraded nodes never accept) and the describe/parse round-trip.

#include <gtest/gtest.h>

#include "certify/degree_one.h"
#include "certify/revealing.h"
#include "graph/generators.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "util/check.h"

namespace shlcp {
namespace {

Instance honest_revealing_instance(Graph g) {
  const RevealingLcp lcp(2);
  Instance inst = Instance::canonical(std::move(g));
  inst.labels = *lcp.prove(inst.g, inst.ports, inst.ids);
  return inst;
}

TEST(FaultPlanTest, DescribeParseRoundTrip) {
  for (const FaultPlan& plan : FaultPlan::standard_family(0xABCDEF, 7)) {
    EXPECT_EQ(FaultPlan::parse(plan.describe()), plan) << plan.describe();
  }
  FaultPlan custom;
  custom.label = "custom";
  custom.seed = 0xDEADBEEFCAFEULL;
  custom.drop_permille = 42;
  custom.duplicate_permille = 7;
  custom.corrupt_permille = 993;
  custom.crash_nodes = {1, 3, 4};
  custom.crash_round = 2;
  custom.byzantine_nodes = {0, 5};
  EXPECT_EQ(FaultPlan::parse(custom.describe()), custom);
}

TEST(FaultPlanTest, ParseRejectsMalformedDescriptors) {
  EXPECT_THROW(FaultPlan::parse("garbage"), CheckError);
  EXPECT_THROW(FaultPlan::parse("x;seed=1;drop=0;dup=0;corrupt=0"), CheckError);
  EXPECT_THROW(
      FaultPlan::parse("x;seed=1;drop=0;dup=0;corrupt=0;crash=-;byz=-"),
      CheckError);  // crash field missing '@round'
  // Numbers must be consumed completely: none of these reads as 0.
  for (const char* bad : {
           "x;seed=0x1;drop=abc;dup=0;corrupt=0;crash=-@0;byz=-",
           "x;seed=0x1;drop=;dup=0;corrupt=0;crash=-@0;byz=-",
           "x;seed=0x1g;drop=0;dup=0;corrupt=0;crash=-@0;byz=-",
           "x;seed=0x1;drop=0;dup=5%;corrupt=0;crash=-@0;byz=-",
           "x;seed=0x1;drop=0;dup=0;corrupt=0;crash=1@;byz=-",
       }) {
    EXPECT_THROW(FaultPlan::parse(bad), CheckError) << bad;
  }
}

TEST(FaultPlanTest, EnabledDetectsEveryFaultClass) {
  EXPECT_FALSE(FaultPlan{}.enabled());
  const auto family = FaultPlan::standard_family(1, 5);
  EXPECT_FALSE(family[0].enabled());  // the fault-free member
  for (std::size_t i = 1; i < family.size(); ++i) {
    EXPECT_TRUE(family[i].enabled()) << family[i].label;
  }
}

// Acceptance criterion: the channel hook, when installed with an empty
// plan, is bit-identical to no hook at all -- same traffic totals, same
// reconstructed view at every node, same verdicts.
TEST(PassThroughTest, EmptyPlanIsBitIdentical) {
  Rng rng(404);
  std::vector<Graph> graphs;
  graphs.push_back(make_path(7));
  graphs.push_back(make_cycle(8));
  graphs.push_back(make_grid(3, 3));
  graphs.push_back(make_theta(2, 3, 4));
  for (Graph& g : graphs) {
    const Instance inst = Instance::canonical(std::move(g));
    for (const int radius : {1, 2}) {
      SyncEngine ideal(inst);
      ideal.run(radius);
      FaultPlan none;
      none.seed = rng.next_u64();  // seed must not matter when disabled
      FaultyChannel channel(none);
      SyncEngine hooked(inst, &channel);
      hooked.run(radius);
      EXPECT_EQ(ideal.stats().messages, hooked.stats().messages);
      EXPECT_EQ(ideal.stats().bytes, hooked.stats().bytes);
      EXPECT_EQ(ideal.stats().rounds, hooked.stats().rounds);
      for (Node v = 0; v < inst.num_nodes(); ++v) {
        EXPECT_TRUE(ideal.view_of(v, radius) == hooked.view_of(v, radius))
            << "view mismatch at node " << v << " radius " << radius;
      }
      EXPECT_EQ(channel.stats().dropped, 0u);
      EXPECT_EQ(channel.stats().corrupted_fields, 0u);
    }
  }
}

TEST(PassThroughTest, FaultFreePlanReproducesDistributedRun) {
  const RevealingLcp lcp(2);
  const Instance inst = honest_revealing_instance(make_grid(3, 4));
  SimStats stats;
  const auto ideal = run_decoder_distributed(lcp.decoder(), inst, &stats);
  const FaultyRunResult res =
      run_decoder_distributed_faulty(lcp.decoder(), inst, FaultPlan{});
  EXPECT_EQ(res.verdicts, ideal);
  EXPECT_EQ(res.stats.messages, stats.messages);
  EXPECT_EQ(res.stats.bytes, stats.bytes);
  for (const bool d : res.degraded) {
    EXPECT_FALSE(d);
  }
}

TEST(FaultyRunTest, DropAllDegradesEveryConnectedNode) {
  const RevealingLcp lcp(2);
  const Instance inst = honest_revealing_instance(make_path(5));
  FaultPlan plan;
  plan.label = "drop-all";
  plan.seed = 7;
  plan.drop_permille = 1000;
  const FaultyRunResult res =
      run_decoder_distributed_faulty(lcp.decoder(), inst, plan);
  for (Node v = 0; v < inst.num_nodes(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    EXPECT_TRUE(res.degraded[i]) << "node " << v;
    EXPECT_FALSE(res.verdicts[i]) << "node " << v;
  }
  EXPECT_EQ(res.stats.messages, 0u);
  EXPECT_EQ(res.stats.bytes, 0u);
  EXPECT_EQ(res.faults.dropped, 8u);  // one per directed edge per round
}

TEST(FaultyRunTest, DuplicationIsIdempotent) {
  const RevealingLcp lcp(2);
  const Instance inst = honest_revealing_instance(make_cycle(6));
  FaultPlan plan;
  plan.label = "dup-all";
  plan.seed = 11;
  plan.duplicate_permille = 1000;
  const FaultyRunResult res =
      run_decoder_distributed_faulty(lcp.decoder(), inst, plan);
  // Twice the traffic, identical outcome: knowledge merging and the
  // round-1 arrival-port dedup make redelivery a no-op.
  EXPECT_EQ(res.stats.messages, 24u);
  EXPECT_EQ(res.faults.duplicated, 12u);
  for (Node v = 0; v < inst.num_nodes(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    EXPECT_FALSE(res.degraded[i]);
    EXPECT_TRUE(res.verdicts[i]) << "node " << v;
  }
}

TEST(FaultyRunTest, DuplicationPreservesViewsAtRadiusTwo) {
  const Instance inst = Instance::canonical(make_theta(2, 2, 3));
  FaultPlan plan;
  plan.seed = 13;
  plan.duplicate_permille = 1000;
  FaultyChannel channel(plan);
  SyncEngine engine(inst, &channel);
  engine.run(2);
  for (Node v = 0; v < inst.num_nodes(); ++v) {
    EXPECT_TRUE(engine.view_of(v, 2) == inst.view_of(v, 2, false))
        << "node " << v;
  }
}

TEST(FaultyRunTest, CrashStopDegradesExactlyTheNeighborhood) {
  const RevealingLcp lcp(2);  // radius 1
  const Instance inst = honest_revealing_instance(make_path(5));
  FaultPlan plan;
  plan.label = "crash-mid";
  plan.seed = 17;
  plan.crash_nodes = {2};
  plan.crash_round = 1;
  const FaultyRunResult res =
      run_decoder_distributed_faulty(lcp.decoder(), inst, plan);
  // The crashed node gathers nothing; its neighbors never complete their
  // own record. Nodes at distance >= 2 are untouched at radius 1.
  for (const Node v : {1, 2, 3}) {
    EXPECT_TRUE(res.degraded[static_cast<std::size_t>(v)]) << "node " << v;
    EXPECT_FALSE(res.verdicts[static_cast<std::size_t>(v)]) << "node " << v;
  }
  for (const Node v : {0, 4}) {
    EXPECT_FALSE(res.degraded[static_cast<std::size_t>(v)]) << "node " << v;
    EXPECT_TRUE(res.verdicts[static_cast<std::size_t>(v)]) << "node " << v;
  }
}

TEST(FaultyRunTest, CorruptionNeverYieldsDegradedAcceptance) {
  const RevealingLcp lcp(2);
  const Instance inst = honest_revealing_instance(make_cycle(6));
  FaultPlan plan;
  plan.label = "corrupt-all";
  plan.seed = 23;
  plan.corrupt_permille = 1000;
  const FaultyRunResult res =
      run_decoder_distributed_faulty(lcp.decoder(), inst, plan);
  EXPECT_EQ(res.faults.corrupted_fields, res.stats.messages);
  for (std::size_t i = 0; i < res.verdicts.size(); ++i) {
    if (res.degraded[i]) {
      EXPECT_FALSE(res.verdicts[i]) << "degraded node " << i << " accepted";
    }
  }
}

TEST(FaultyRunTest, ByzantineSenderTampersEveryOutgoingMessage) {
  const Instance inst = Instance::canonical(make_cycle(5));
  FaultPlan plan;
  plan.seed = 29;
  plan.byzantine_nodes = {2};
  FaultyChannel channel(plan);
  SyncEngine engine(inst, &channel);
  engine.run(2);
  // Node 2 has two neighbors and sends for two rounds.
  EXPECT_EQ(channel.stats().tampered_messages, 4u);
  EXPECT_GE(channel.stats().corrupted_fields, 4u);
}

TEST(FaultyRunTest, DeterministicReplay) {
  const DegreeOneLcp lcp;
  const Graph g = make_double_broom(3, 2, 2);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  FaultPlan plan;
  plan.label = "mixed";
  plan.seed = 0x5EED;
  plan.drop_permille = 300;
  plan.duplicate_permille = 300;
  plan.corrupt_permille = 400;
  plan.byzantine_nodes = {0};
  const FaultyRunResult a =
      run_decoder_distributed_faulty(lcp.decoder(), inst, plan);
  const FaultyRunResult b =
      run_decoder_distributed_faulty(lcp.decoder(), inst, plan);
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.bytes, b.stats.bytes);
  EXPECT_EQ(a.faults.dropped, b.faults.dropped);
  EXPECT_EQ(a.faults.duplicated, b.faults.duplicated);
  EXPECT_EQ(a.faults.corrupted_fields, b.faults.corrupted_fields);
  EXPECT_EQ(a.faults.tampered_messages, b.faults.tampered_messages);
}

// Satellite: SimStats byte totals equal the independently summed encoded
// sizes of every delivered message (a recording channel observes each
// delivery before the engine accounts for it).
class RecordingChannel final : public ChannelModel {
 public:
  void deliver(int round, Node from, Node to, Message&& message,
               std::vector<Message>& out) override {
    (void)round;
    (void)from;
    (void)to;
    count_ += 1;
    total_bytes_ += message.byte_size();
    out.push_back(std::move(message));
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t total_bytes_ = 0;
};

TEST(SimStatsTest, ByteTotalsMatchPerMessageEncodedSizes) {
  const Instance inst = honest_revealing_instance(make_grid(3, 3));
  RecordingChannel recorder;
  SyncEngine engine(inst, &recorder);
  engine.run(3);
  EXPECT_EQ(engine.stats().messages, recorder.count());
  EXPECT_EQ(engine.stats().bytes, recorder.total_bytes());
  EXPECT_GT(engine.stats().bytes, 4u * engine.stats().messages);
}

}  // namespace
}  // namespace shlcp

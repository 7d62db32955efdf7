// NbhdGraph::absorb_frame against the per-instance reference.
//
// The exhaustive source absorbs one frame at a time: each node's view is
// extracted and judged once per labeling of its ball and reused for every
// labeling of the nodes outside it. The bar is bit-identity with absorbing
// the same instance stream one instance at a time (NbhdGraph::absorb, the
// loop of the instance source): same views in the same order, same edges,
// same provenance, same views_deduped -- for anonymous, port-sensitive and
// id-reading decoders, every enumeration mode, 1 and 2 threads, one shard
// per frame folded with merge, and a resumable build stopped mid-frame.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/revealing.h"
#include "certify/spanning_bfs.h"
#include "graph/generators.h"
#include "nbhd/aviews.h"
#include "nbhd_test_util.h"
#include "util/format.h"
#include "util/metrics.h"

namespace shlcp {
namespace {

/// The reference: the instance source's per-instance absorb over the
/// for_each_labeled_instance stream, fed one instance at a time instead
/// of from a materialized list (the larger families hold ~200k
/// instances).
NbhdGraph per_instance(const Lcp& lcp, const std::vector<Graph>& graphs,
                       const EnumOptions& enums) {
  NbhdGraph ref;
  for_each_labeled_instance(lcp, filter_yes_graphs(graphs, lcp.k()), enums,
                            [&](const Instance& inst) {
                              ref.absorb(lcp.decoder(), inst, lcp.k());
                              return true;
                            });
  return ref;
}

std::vector<Graph> promise_graphs(const Lcp& lcp, int max_n) {
  std::vector<Graph> graphs;
  for (int n = 2; n <= max_n; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      if (lcp.in_promise(g)) {
        graphs.push_back(g);
      }
      return true;
    });
  }
  return graphs;
}

EnumOptions canonical() { return EnumOptions{}; }

EnumOptions all_ports() {
  EnumOptions enums;
  enums.all_ports = true;
  return enums;
}

EnumOptions all_id_orders() {
  EnumOptions enums;
  enums.all_id_orders = true;
  return enums;
}

/// Every exhaustive builder configuration against the reference, which
/// it returns.
NbhdGraph expect_frames_match_instances(const Lcp& lcp,
                                        const std::vector<Graph>& graphs,
                                        const EnumOptions& enums) {
  NbhdGraph ref = per_instance(lcp, graphs, enums);
  EXPECT_GT(ref.num_views(), 0);
  {
    SCOPED_TRACE("one thread");
    const NbhdGraph seq =
        build(BuildSource::exhaustive(lcp, graphs), one_thread(enums)).take();
    expect_identical(ref, seq);
    EXPECT_LE(seq.stats().view_extractions, ref.stats().view_extractions);
  }
  for (const int threads : {1, 2}) {
    SCOPED_TRACE(format("%d threads", threads));
    ParallelEnumOptions options;
    options.enums = enums;
    options.num_threads = threads;
    expect_identical(
        ref, build(BuildSource::exhaustive(lcp, graphs), options).take());
  }
  {
    SCOPED_TRACE("one shard per frame");
    expect_identical(ref, per_frame_shards(lcp, graphs, enums));
  }
  return ref;
}

TEST(FrameAbsorbTest, DegreeOneMatchesPerInstance) {
  const DegreeOneLcp lcp;
  {
    // The bench's sweep family: 193,744 instances of 964,192 nodes in
    // all, one extract + accept each on the per-instance path.
    SCOPED_TRACE("canonical ports, n <= 5");
    const NbhdGraph ref = expect_frames_match_instances(
        lcp, promise_graphs(lcp, 5), canonical());
    EXPECT_EQ(ref.stats().view_extractions, 964'192u);
  }
  {
    SCOPED_TRACE("all ports, n <= 4");
    expect_frames_match_instances(lcp, promise_graphs(lcp, 4), all_ports());
  }
  {
    SCOPED_TRACE("all id orders, n <= 4");
    expect_frames_match_instances(lcp, promise_graphs(lcp, 4),
                                  all_id_orders());
  }
}

TEST(FrameAbsorbTest, EvenCycleMatchesPerInstance) {
  // Every node of C4 holds one of 16 certificates, so a frame has 65,536
  // labelings; all ports or all id orders would multiply that by 16 or 24.
  const EvenCycleLcp lcp;
  SCOPED_TRACE("canonical ports, n <= 5");
  expect_frames_match_instances(lcp, promise_graphs(lcp, 5), canonical());
}

TEST(FrameAbsorbTest, Revealing2ColMatchesPerInstance) {
  const RevealingLcp lcp(2);
  {
    SCOPED_TRACE("canonical ports, n <= 5");
    expect_frames_match_instances(lcp, promise_graphs(lcp, 5), canonical());
  }
  {
    SCOPED_TRACE("all ports, n <= 4");
    expect_frames_match_instances(lcp, promise_graphs(lcp, 4), all_ports());
  }
  {
    SCOPED_TRACE("all id orders, n <= 4");
    expect_frames_match_instances(lcp, promise_graphs(lcp, 4),
                                  all_id_orders());
  }
}

TEST(FrameAbsorbTest, SpanningBfsMatchesPerInstance) {
  // Reads identifiers, so views are not anonymized and the id-order
  // dimension changes them. Its certificates name ids and ports, so the
  // bipartite graphs on 4 nodes would take 1.25 M instances; P4 stands in
  // for them.
  const SpanningBfsLcp lcp;
  {
    SCOPED_TRACE("canonical ports, n <= 3 and P4");
    std::vector<Graph> graphs = connected_bipartite(3);
    graphs.push_back(make_path(4));
    expect_frames_match_instances(lcp, graphs, canonical());
  }
  {
    SCOPED_TRACE("all ports, n <= 3");
    expect_frames_match_instances(lcp, connected_bipartite(3), all_ports());
  }
  {
    SCOPED_TRACE("all id orders, n <= 3");
    expect_frames_match_instances(lcp, connected_bipartite(3),
                                  all_id_orders());
  }
}

TEST(FrameAbsorbTest, SweepFamilyExtractsOncePerBallLabeling) {
  // The bench's sweep family: degree-one, n <= 5, canonical ports. Its
  // 193,744 instances hold 964,192 nodes (DegreeOneMatchesPerInstance),
  // but only 72,256 distinct (frame, node, ball labeling) triples.
  const DegreeOneLcp lcp;
  const std::vector<Graph> graphs = promise_graphs(lcp, 5);
  for (const int threads : {1, 2}) {
    ParallelEnumOptions options;
    options.num_threads = threads;
    metrics::reset_values();
    const NbhdGraph nbhd =
        build(BuildSource::exhaustive(lcp, graphs), options).take();
    EXPECT_EQ(nbhd.num_instances_absorbed(), 193'744);
    EXPECT_EQ(nbhd.stats().view_extractions, 72'256u) << threads;
    EXPECT_EQ(metrics::counter("nbhd.build.view_extractions").value(),
              72'256u)
        << threads;
    EXPECT_EQ(metrics::counter("lcp.enumerate.instances").value(), 193'744u)
        << threads;
  }
}

TEST(FrameAbsorbTest, ResumeAfterADeadlineMidFrameMatches) {
  // Even-cycle frames hold 65,536 labelings each and the build polls for
  // a hard stop every 2,048, so a short deadline lands inside a frame.
  // The aborted frame is discarded with its chunk and redone on resume;
  // the adaptive plan gives each of these dense frames a chunk of its
  // own. The three frames form one checkpoint segment, so the deadline cannot
  // land in a checkpoint write between frames instead. The uninterrupted
  // build is the reference here;
  // EvenCycleMatchesPerInstance shows it equal to the per-instance stream.
  const EvenCycleLcp lcp;
  const std::vector<Graph> graphs = promise_graphs(lcp, 5);
  ParallelEnumOptions uninterrupted;
  uninterrupted.num_threads = 1;
  const NbhdGraph ref =
      build(BuildSource::exhaustive(lcp, graphs), uninterrupted).take();
  const std::uint64_t frame_labelings = 65'536;

  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "shlcp_frame_deadline")
          .string();
  ParallelEnumOptions options;
  options.num_threads = 1;
  options.checkpoint.directory = dir;
  bool mid_frame = false;
  std::string attempts;
  // The deadline counts from the tracker's start, before the setup (a
  // `git describe` for the manifest) whose length varies with host load,
  // so the deadline grows in small steps until one lands inside a frame.
  for (std::uint64_t wall_ms = 1; wall_ms <= 2000 && !mid_frame;
       wall_ms += 1 + wall_ms / 4) {
    std::filesystem::remove_all(dir);
    options.budget.wall_ms = wall_ms;
    metrics::reset_values();
    const ResumableBuildResult stopped =
        build(BuildSource::exhaustive(lcp, graphs), options);
    const std::uint64_t visited =
        metrics::counter("lcp.enumerate.instances").value();
    attempts += format(" [%llu ms: %llu labelings, %s]",
                       static_cast<unsigned long long>(wall_ms),
                       static_cast<unsigned long long>(visited),
                       to_string(stopped.stop_reason));
    if (stopped.complete) {
      break;
    }
    EXPECT_EQ(stopped.stop_reason, StopReason::kDeadline);
    mid_frame = visited % frame_labelings != 0;
  }
  ASSERT_TRUE(mid_frame) << "no deadline stopped the build inside a frame:"
                         << attempts;

  options.budget = RunBudget{};
  const ResumableBuildResult resumed =
      build(BuildSource::exhaustive(lcp, graphs), options);
  ASSERT_TRUE(resumed.complete);
  expect_identical(ref, resumed.nbhd);
  EXPECT_EQ(resumed.nbhd.stats().view_extractions,
            ref.stats().view_extractions);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace shlcp

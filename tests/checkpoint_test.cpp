// Interrupt safety of the V(D, n) builds (util/budget.h,
// nbhd/checkpoint.h and the resumable builds of nbhd/aviews.h).
//
// The acceptance bar is the one stated in DESIGN.md §11: an
// interrupted-then-resumed build is BIT-IDENTICAL to an uninterrupted
// one -- for an id-using decoder (spanning-BFS) and an anonymous
// port-sensitive decoder (degree-one), across thread counts {1, 2, 4} --
// and no early exit is ever silent: every truncated result carries an
// explicit StopReason, a tampered or mismatched checkpoint is a loud
// CheckError with a repro string, and the plain builders throw rather
// than return a partial graph.

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/revealing.h"
#include "certify/spanning_bfs.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "nbhd/aviews.h"
#include "nbhd_test_util.h"
#include "nbhd/checkpoint.h"
#include "util/budget.h"
#include "util/check.h"
#include "util/format.h"
#include "util/json.h"

namespace shlcp {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Helpers (expect_identical and connected_bipartite are in
// nbhd_test_util.h).

/// A fresh (empty) checkpoint directory under the test temp dir.
std::string fresh_ckpt_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("shlcp_" + name);
  fs::remove_all(dir);
  return dir.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

// ---------------------------------------------------------------------------
// Budget primitives.

TEST(BudgetTest, TokenFirstStopReasonWins) {
  CancelToken token;
  EXPECT_FALSE(token.stop_requested());
  EXPECT_EQ(token.reason(), StopReason::kNone);
  EXPECT_TRUE(token.request_stop(StopReason::kDeadline));
  EXPECT_FALSE(token.request_stop(StopReason::kInterrupt));
  EXPECT_EQ(token.reason(), StopReason::kDeadline);
  token.reset();
  EXPECT_FALSE(token.stop_requested());
}

TEST(BudgetTest, StopReasonNamesAreStable) {
  EXPECT_STREQ(to_string(StopReason::kNone), "none");
  EXPECT_STREQ(to_string(StopReason::kCancelRequested), "cancel_requested");
  EXPECT_STREQ(to_string(StopReason::kInterrupt), "interrupt");
  EXPECT_STREQ(to_string(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(to_string(StopReason::kFrameBudget), "frame_budget");
  EXPECT_FALSE(is_hard_stop(StopReason::kFrameBudget));
  EXPECT_TRUE(is_hard_stop(StopReason::kDeadline));
  EXPECT_TRUE(is_hard_stop(StopReason::kInterrupt));
}

TEST(BudgetTest, DeadlineTripsShouldStop) {
  CancelToken token;
  RunBudget budget;
  budget.wall_ms = 1;
  BudgetTracker tracker(budget, token);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(tracker.should_stop());
  EXPECT_EQ(token.reason(), StopReason::kDeadline);
}

TEST(BudgetTest, SigintGuardRoutesSignalIntoToken) {
  CancelToken token;
  {
    RunBudget budget;
    budget.arm_sigint = true;
    BudgetTracker tracker(budget, token);
    ASSERT_EQ(std::raise(SIGINT), 0);
    EXPECT_TRUE(token.stop_requested());
    EXPECT_EQ(token.reason(), StopReason::kInterrupt);
    EXPECT_TRUE(tracker.should_stop());
  }
  // Guard destroyed: a second tracker may arm again.
  CancelToken token2;
  RunBudget budget2;
  budget2.arm_sigint = true;
  BudgetTracker tracker2(budget2, token2);
  ASSERT_EQ(std::raise(SIGINT), 0);
  EXPECT_EQ(token2.reason(), StopReason::kInterrupt);
}

TEST(BudgetTest, UnlimitedBudgetNeverStops) {
  CancelToken token;
  BudgetTracker tracker(RunBudget{}, token);
  EXPECT_FALSE(tracker.should_stop());
  EXPECT_TRUE(RunBudget{}.unlimited());
  RunBudget capped;
  capped.max_frames = 1;
  EXPECT_FALSE(capped.unlimited());
}

// ---------------------------------------------------------------------------
// NbhdGraph serialization.

TEST(CheckpointTest, NbhdGraphJsonRoundTrip) {
  const SpanningBfsLcp lcp;
  const auto graphs = connected_bipartite(3);
  EnumOptions enums;
  enums.all_id_orders = true;
  const NbhdGraph built =
      build(BuildSource::exhaustive(lcp, graphs), one_thread(enums)).take();
  ASSERT_GT(built.num_views(), 0);
  const NbhdGraph back = NbhdGraph::from_json(built.to_json());
  expect_identical(built, back);
  // The rendering itself is deterministic (digest stability).
  EXPECT_EQ(built.to_json().dump(), back.to_json().dump());
  EXPECT_EQ(fnv1a_hex(built.to_json().dump()),
            fnv1a_hex(back.to_json().dump()));
}

TEST(CheckpointTest, EmptyNbhdGraphRoundTrips) {
  const NbhdGraph empty;
  const NbhdGraph back = NbhdGraph::from_json(empty.to_json());
  EXPECT_EQ(back.num_views(), 0);
  EXPECT_EQ(back.num_instances_absorbed(), 0);
}

// ---------------------------------------------------------------------------
// Kill-and-resume: the pinned bit-identity claim.

struct ResumeCase {
  const char* name;
  const Lcp& lcp;
  std::vector<Graph> graphs;
  EnumOptions enums;
};

TEST(CheckpointTest, InterruptedThenResumedIsBitIdentical) {
  const SpanningBfsLcp spanning_bfs;  // id-using: id-order dimension live
  const DegreeOneLcp degree_one;      // anonymous: port dimension live
  std::vector<Graph> deg1_graphs;
  for (const Graph& g : connected_bipartite(4)) {
    if (g.min_degree() == 1) {
      deg1_graphs.push_back(g);
    }
  }
  EnumOptions id_enums;
  id_enums.all_id_orders = true;
  EnumOptions port_enums;
  port_enums.all_ports = true;

  std::vector<ResumeCase> cases;
  cases.push_back(
      ResumeCase{"sbfs", spanning_bfs, connected_bipartite(3), id_enums});
  cases.push_back(ResumeCase{"deg1", degree_one, deg1_graphs, port_enums});

  for (const ResumeCase& c : cases) {
    const NbhdGraph seq =
        build(BuildSource::exhaustive(c.lcp, c.graphs), one_thread(c.enums))
            .take();
    ASSERT_GT(seq.num_views(), 0) << c.name;
    // The finest sharding the merge can see: one shard per frame.
    expect_identical(seq, per_frame_shards(c.lcp, c.graphs, c.enums));
    // Each segment re-cuts its own cost-adaptive plan, so a resumed run
    // may cut different chunks than the interrupted one. A cadence of 3
    // against a budget of 3 frames also puts the kill and the checkpoint
    // on the same frame.
    for (const auto& [threads, every] :
         {std::pair{1, 2}, std::pair{2, 2}, std::pair{4, 2}, std::pair{1, 3},
          std::pair{2, 3}}) {
      SCOPED_TRACE(format("%s, %d threads, every %d frames", c.name, threads,
                          every));
      ParallelEnumOptions options;
      options.enums = c.enums;
      options.num_threads = threads;
      options.checkpoint.directory = fresh_ckpt_dir(
          format("resume_%s_t%d_e%d", c.name, threads, every));
      options.checkpoint.every_frames = static_cast<std::uint64_t>(every);
      options.budget.max_frames = 3;  // the "kill": a few frames per run

      ResumableBuildResult res;
      std::uint64_t prev_done = 0;
      int runs = 0;
      for (;;) {
        res = build(BuildSource::exhaustive(c.lcp, c.graphs), options);
        ++runs;
        ASSERT_LT(runs, 100) << c.name << ": resume loop did not converge";
        if (res.complete) {
          break;
        }
        // Every truncated run is explicit about why it stopped...
        EXPECT_EQ(res.stop_reason, StopReason::kFrameBudget)
            << c.name << " t" << threads;
        // ...and makes forward progress, so the loop terminates.
        EXPECT_GT(res.frames_done, prev_done) << c.name << " t" << threads;
        prev_done = res.frames_done;
      }
      EXPECT_GT(runs, 1) << c.name
                         << ": the budget was supposed to interrupt the build";
      EXPECT_GT(res.resumed_frames, 0u) << c.name << " t" << threads;
      EXPECT_EQ(res.stop_reason, StopReason::kNone);
      EXPECT_EQ(res.frames_done, res.num_frames);
      expect_identical(seq, res.nbhd);

      // The completed manifest is well-formed and marked complete.
      const Json manifest = Json::parse(read_file(res.manifest_path));
      EXPECT_EQ(manifest.at("schema").as_string(), "shlcp.ckpt.v1");
      EXPECT_EQ(manifest.at("status").as_string(), "complete");
      EXPECT_EQ(manifest.at("stop_reason").as_string(), "none");
      EXPECT_EQ(manifest.at("frames_done").as_uint(), res.num_frames);

      // Resuming a complete checkpoint is a no-op that returns the same
      // bit-identical graph.
      const ResumableBuildResult again =
          build(BuildSource::exhaustive(c.lcp, c.graphs), options);
      EXPECT_TRUE(again.complete);
      EXPECT_EQ(again.resumed_frames, again.num_frames);
      expect_identical(seq, again.nbhd);
    }
  }
}

TEST(CheckpointTest, ProvedBuilderResumesBitIdentically) {
  const EvenCycleLcp lcp;
  const std::vector<Graph> graphs{make_cycle(4), make_cycle(6)};
  EnumOptions enums;
  enums.all_ports = true;
  const NbhdGraph seq =
      build(BuildSource::proved(lcp, graphs), one_thread(enums)).take();
  ASSERT_GT(seq.num_views(), 0);
  ParallelEnumOptions options;
  options.enums = enums;
  options.num_threads = 2;
  options.checkpoint.directory = fresh_ckpt_dir("resume_proved");
  options.checkpoint.every_frames = 2;
  options.budget.max_frames = 2;
  ResumableBuildResult res;
  int runs = 0;
  do {
    res = build(BuildSource::proved(lcp, graphs), options);
    ASSERT_LT(++runs, 100) << "resume loop did not converge";
  } while (!res.complete);
  EXPECT_GT(runs, 1);
  expect_identical(seq, res.nbhd);
}

// ---------------------------------------------------------------------------
// No silent truncation.

TEST(CheckpointTest, TakeFailsLoudlyOnBudgetTrip) {
  const SpanningBfsLcp lcp;
  const auto graphs = connected_bipartite(3);
  ParallelEnumOptions options;
  options.enums.all_id_orders = true;
  options.budget.max_frames = 1;
  try {
    build(BuildSource::exhaustive(lcp, graphs), options).take();
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("stopped early"), std::string::npos) << msg;
    EXPECT_NE(msg.find("frame_budget"), std::string::npos) << msg;
    EXPECT_NE(msg.find("resumable"), std::string::npos) << msg;
  }
}

TEST(CheckpointTest, InstanceSourceRejectsBudgetOptions) {
  const DegreeOneLcp lcp;
  ParallelEnumOptions options;
  options.budget.max_frames = 5;
  EXPECT_THROW(build(BuildSource::instances(lcp.decoder(), {}, 2), options),
               CheckError);
}

// ---------------------------------------------------------------------------
// Tampered or mismatched checkpoints fail loudly.

/// Runs one budget-limited sweep so `dir` holds an in_progress manifest.
ParallelEnumOptions seed_partial_checkpoint(const Lcp& lcp,
                                            const std::vector<Graph>& graphs,
                                            const std::string& dir) {
  ParallelEnumOptions options;
  options.enums.all_id_orders = true;
  options.checkpoint.directory = dir;
  options.checkpoint.every_frames = 2;
  options.budget.max_frames = 3;
  const ResumableBuildResult res =
      build(BuildSource::exhaustive(lcp, graphs), options);
  EXPECT_FALSE(res.complete);
  EXPECT_GT(res.frames_done, 0u);
  return options;
}

TEST(CheckpointTest, MismatchedManifestIsRejectedWithRepro) {
  const SpanningBfsLcp lcp;
  const auto graphs = connected_bipartite(3);
  const std::string dir = fresh_ckpt_dir("mismatch");
  ParallelEnumOptions options = seed_partial_checkpoint(lcp, graphs, dir);
  const std::string mpath = (fs::path(dir) / "manifest.json").string();
  Json manifest = Json::parse(read_file(mpath));
  manifest["options_hash"] = Json(std::string("fnv:0000000000000000"));
  write_file(mpath, manifest.dump(2) + "\n");
  try {
    build(BuildSource::exhaustive(lcp, graphs), options);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("checkpoint resume rejected"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("options_hash mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find(mpath), std::string::npos) << msg;
  }
}

TEST(CheckpointTest, DifferentSweepCannotConsumeTheCheckpoint) {
  const SpanningBfsLcp lcp;
  const auto graphs = connected_bipartite(3);
  const std::string dir = fresh_ckpt_dir("different_sweep");
  ParallelEnumOptions options = seed_partial_checkpoint(lcp, graphs, dir);
  options.enums.all_id_orders = false;  // a semantically different sweep
  try {
    build(BuildSource::exhaustive(lcp, graphs), options);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint resume rejected"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointTest, ResumeUnderAnotherSourceIsRejected) {
  // The manifest records the source: an exhaustive prefix must not seed a
  // proved build over the very same frames.
  const SpanningBfsLcp lcp;
  const auto graphs = connected_bipartite(3);
  const std::string dir = fresh_ckpt_dir("other_source");
  const ParallelEnumOptions options =
      seed_partial_checkpoint(lcp, graphs, dir);
  const std::string mpath = (fs::path(dir) / "manifest.json").string();
  try {
    build(BuildSource::proved(lcp, graphs), options);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("checkpoint resume rejected"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("build mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find(mpath), std::string::npos) << msg;
  }
}

TEST(CheckpointTest, TornStateIsRejected) {
  const SpanningBfsLcp lcp;
  const auto graphs = connected_bipartite(3);
  const std::string dir = fresh_ckpt_dir("torn_state");
  const ParallelEnumOptions options =
      seed_partial_checkpoint(lcp, graphs, dir);
  const std::string spath = (fs::path(dir) / "state.json").string();
  write_file(spath, read_file(spath) + "x");
  try {
    build(BuildSource::exhaustive(lcp, graphs), options);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("state digest mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("torn or tampered"), std::string::npos) << msg;
  }
}

TEST(CheckpointTest, ResumeFalseRestartsFromScratch) {
  const SpanningBfsLcp lcp;
  const auto graphs = connected_bipartite(3);
  const std::string dir = fresh_ckpt_dir("no_resume");
  ParallelEnumOptions options = seed_partial_checkpoint(lcp, graphs, dir);
  options.checkpoint.resume = false;
  options.budget = RunBudget{};  // unlimited this time
  const ResumableBuildResult res =
      build(BuildSource::exhaustive(lcp, graphs), options);
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.resumed_frames, 0u);
  expect_identical(
      build(BuildSource::exhaustive(lcp, graphs), one_thread(options.enums))
          .take(),
      res.nbhd);
}

}  // namespace
}  // namespace shlcp

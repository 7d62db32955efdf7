// Tests for the parallel V(D, n) construction (util/parallel.h, the
// frame-partitioned sweep of lcp/enumerate.h, and NbhdGraph::merge): the
// acceptance bar is that the parallel build is BIT-IDENTICAL to the
// sequential one -- same views in the same registration order, same
// edges, same odd_cycle() verdict, same first-seen provenance -- for
// id-using (spanning-BFS), anonymous (degree-one), and port-sensitive
// (even-cycle) decoders across thread counts {1, 2, 4}.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/revealing.h"
#include "certify/spanning_bfs.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "nbhd/aviews.h"
#include "nbhd_test_util.h"
#include "nbhd/witness.h"
#include "util/format.h"
#include "util/parallel.h"

namespace shlcp {
namespace {

// ---------------------------------------------------------------------------
// Worker pool.

/// One chunk per item: chunk c covers item c.
ChunkPlan single_item_plan(std::size_t n) {
  ChunkPlan plan;
  for (std::size_t i = 0; i < n; ++i) {
    plan.ranges.emplace_back(i, i + 1);
  }
  return plan;
}

/// `n` unit-cost items, cut the way the build engine cuts a sweep with no
/// cost model.
ChunkPlan unit_cost_plan(std::size_t n, int threads) {
  return adaptive_plan(std::vector<std::uint64_t>(n, 1), threads);
}

TEST(WorkerPoolTest, CoversEveryItemExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    WorkerPool pool(threads);
    const std::size_t n = 103;
    std::vector<std::atomic<int>> hits(n);
    const ParallelRunResult res = pool.run_plan(
        unit_cost_plan(n, threads),
        [&](std::size_t, std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) {
            hits[i].fetch_add(1);
          }
          return true;
        },
        nullptr);
    EXPECT_FALSE(res.stopped());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "item " << i << ", " << threads
                                   << " threads";
    }
  }
}

TEST(WorkerPoolTest, ReusableAcrossJobs) {
  WorkerPool pool(3);
  const ChunkPlan plan = unit_cost_plan(20, 3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> sum{0};
    pool.run_plan(
        plan,
        [&](std::size_t, std::size_t b, std::size_t e) {
          sum.fetch_add(static_cast<int>(e - b));
          return true;
        },
        nullptr);
    EXPECT_EQ(sum.load(), 20);
  }
}

TEST(WorkerPoolTest, RethrowsLowestChunkError) {
  WorkerPool pool(4);
  try {
    pool.run_plan(
        single_item_plan(20),
        [&](std::size_t ci, std::size_t, std::size_t) -> bool {
          if (ci == 7 || ci == 3 || ci == 12) {
            throw std::runtime_error("chunk " + std::to_string(ci));
          }
          return true;
        },
        nullptr);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 3");
  }
}

TEST(WorkerPoolTest, FailFastCancelsQueuedChunks) {
  // Regression for the fail-fast contract: once a chunk throws, chunks
  // that are still queued must never start. With a single-thread pool the
  // claim order is sequential, so exactly chunks 0..2 run.
  WorkerPool pool(1);
  std::vector<int> ran(10, 0);
  try {
    pool.run_plan(
        single_item_plan(10),
        [&](std::size_t ci, std::size_t, std::size_t) -> bool {
          ran[ci] = 1;
          if (ci == 2) {
            throw std::runtime_error("boom");
          }
          return true;
        },
        nullptr);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 1, 0, 0, 0, 0, 0, 0, 0}));
}

TEST(WorkerPoolTest, CancellableCompletesWithoutStop) {
  WorkerPool pool(2);
  CancelToken token;
  const ChunkPlan plan = unit_cost_plan(20, 2);
  std::atomic<int> sum{0};
  const ParallelRunResult res = pool.run_plan(
      plan,
      [&](std::size_t, std::size_t b, std::size_t e) {
        sum.fetch_add(static_cast<int>(e - b));
        return true;
      },
      &token);
  EXPECT_FALSE(res.stopped());
  EXPECT_EQ(res.completed_prefix_chunks, res.num_chunks);
  EXPECT_EQ(res.num_chunks, plan.num_chunks());
  EXPECT_EQ(sum.load(), 20);
  EXPECT_FALSE(token.stop_requested());
}

TEST(WorkerPoolTest, CancellableReportsCompletedPrefix) {
  for (const int threads : {1, 2, 4}) {
    WorkerPool pool(threads);
    CancelToken token;
    const ParallelRunResult res = pool.run_plan(
        single_item_plan(20),
        [&](std::size_t ci, std::size_t, std::size_t) {
          if (ci == 5) {
            token.request_stop(StopReason::kCancelRequested);
            return false;  // aborted chunk: excluded from the prefix
          }
          return true;
        },
        &token);
    EXPECT_TRUE(res.stopped()) << threads << " threads";
    EXPECT_EQ(res.num_chunks, 20u);
    EXPECT_LE(res.completed_prefix_chunks, 5u) << threads << " threads";
    if (threads == 1) {
      // Sequential claim order: exactly chunks 0..4 completed.
      EXPECT_EQ(res.completed_prefix_chunks, 5u);
    }
    EXPECT_EQ(token.reason(), StopReason::kCancelRequested);
  }
}

TEST(WorkerPoolTest, PreStoppedTokenRunsNothing) {
  WorkerPool pool(2);
  CancelToken token;
  token.request_stop(StopReason::kDeadline);
  const ParallelRunResult res = pool.run_plan(
      single_item_plan(10),
      [&](std::size_t, std::size_t, std::size_t) {
        ADD_FAILURE() << "no chunk may start on a tripped token";
        return true;
      },
      &token);
  EXPECT_TRUE(res.stopped());
  EXPECT_EQ(res.completed_prefix_chunks, 0u);
}

TEST(WorkerPoolTest, EmptyPlanIsANoop) {
  WorkerPool pool(2);
  int calls = 0;
  const ParallelRunResult res = pool.run_plan(
      ChunkPlan{},
      [&](std::size_t, std::size_t, std::size_t) {
        ++calls;
        return true;
      },
      nullptr);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(res.num_chunks, 0u);
  EXPECT_FALSE(res.stopped());
}

TEST(WorkerPoolTest, StoppedJobsNeverLeakIntoTheNext) {
  // Regression for a reuse race: a job stopped after its first chunk
  // leaves stale indices in the deques, and a worker that wakes late for
  // it sits in the claim loop outside the pool mutex. The next job must
  // open the claim latch only after reseeding every deque, or that worker
  // claims a stale index and some chunk of the next job runs twice (or
  // never). Every other job here is stopped by its token in whichever
  // chunk runs first; every unstopped job must run each chunk once.
  WorkerPool pool(4);
  const ChunkPlan plan = single_item_plan(16);
  for (int job = 0; job < 4000; ++job) {
    const bool stop = job % 2 == 1;
    CancelToken token;
    std::vector<std::atomic<int>> runs(plan.num_chunks());
    const ParallelRunResult res = pool.run_plan(
        plan,
        [&](std::size_t ci, std::size_t, std::size_t) {
          runs[ci].fetch_add(1);
          if (stop) {
            token.request_stop(StopReason::kCancelRequested);
          }
          return true;
        },
        &token);
    if (stop) {
      continue;
    }
    ASSERT_FALSE(res.stopped()) << "job " << job;
    for (std::size_t ci = 0; ci < runs.size(); ++ci) {
      ASSERT_EQ(runs[ci].load(), 1) << "job " << job << ", chunk " << ci;
    }
  }
}

// ---------------------------------------------------------------------------
// Chunk plans and the work-stealing scheduler.

TEST(ChunkPlanTest, AdaptivePlanBatchesCheapAndIsolatesDense) {
  // target = 108 / (2 threads * 1 range) = 54: the lone cost-100 item
  // must get a chunk of its own, the unit-cost runs batch around it.
  const std::vector<std::uint64_t> costs{1, 1, 1, 1, 100, 1, 1, 1, 1};
  const ChunkPlan plan = adaptive_plan(costs, 2, 1);
  EXPECT_TRUE(plan.adaptive);
  ASSERT_EQ(plan.num_chunks(), 3u);
  EXPECT_EQ(plan.ranges[0], (std::pair<std::size_t, std::size_t>{0, 4}));
  EXPECT_EQ(plan.ranges[1], (std::pair<std::size_t, std::size_t>{4, 5}));
  EXPECT_EQ(plan.ranges[2], (std::pair<std::size_t, std::size_t>{5, 9}));
}

TEST(ChunkPlanTest, AdaptivePlanAlwaysCoversContiguously) {
  // Whatever the cost profile (zeros included), the plan must be
  // contiguous ascending ranges exactly covering [0, n).
  const std::vector<std::vector<std::uint64_t>> profiles{
      {},
      {0},
      {5},
      {0, 0, 0, 0},
      {1, 1000, 1, 1000, 1},
      {9, 9, 9, 9, 9, 9, 9, 9},
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13},
  };
  for (const auto& costs : profiles) {
    for (const int threads : {1, 2, 4}) {
      const ChunkPlan plan = adaptive_plan(costs, threads, 2);
      EXPECT_EQ(plan.num_items(), costs.size());
      std::size_t expect_begin = 0;
      for (const auto& [begin, end] : plan.ranges) {
        EXPECT_EQ(begin, expect_begin);
        EXPECT_LT(begin, end);
        expect_begin = end;
      }
      EXPECT_EQ(expect_begin, costs.size());
    }
  }
}

TEST(WorkerPoolTest, RunPlanExecutesSkewedPlanExactlyOnce) {
  // A deliberately skewed hand-built plan: one huge range plus many tiny
  // ones. Every item must run exactly once at every pool size.
  ChunkPlan plan;
  plan.ranges = {{0, 50}, {50, 51}, {51, 52}, {52, 60}, {60, 61}, {61, 70}};
  for (const int threads : {1, 2, 4}) {
    WorkerPool pool(threads);
    std::vector<std::atomic<int>> hits(70);
    const ParallelRunResult res = pool.run_plan(
        plan,
        [&](std::size_t, std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) {
            hits[i].fetch_add(1);
          }
          return true;
        },
        nullptr);
    EXPECT_FALSE(res.stopped());
    EXPECT_EQ(res.chunks_claimed, plan.num_chunks());
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "item " << i << ", " << threads
                                   << " threads";
    }
  }
}

TEST(WorkerPoolTest, StealsDrainABlockedOwnersShare) {
  // Two pool threads, ten unit chunks: the caller owns chunks 0-4, the
  // worker 5-9. Chunk 0 blocks until all nine other chunks have run --
  // which is only possible if whoever is NOT stuck in chunk 0 steals the
  // blocked owner's remaining share. Completion therefore proves at
  // least one steal happened (and the counter must say so).
  WorkerPool pool(2);
  const ChunkPlan plan = single_item_plan(10);
  std::atomic<int> others_done{0};
  const ParallelRunResult res = pool.run_plan(
      plan,
      [&](std::size_t ci, std::size_t, std::size_t) {
        if (ci == 0) {
          while (others_done.load() < 9) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        } else {
          others_done.fetch_add(1);
        }
        return true;
      },
      nullptr);
  EXPECT_FALSE(res.stopped());
  EXPECT_EQ(res.chunks_claimed, 10u);
  EXPECT_GE(res.steals, 1u);
}

TEST(WorkerPoolTest, LateHighErrorStillRethrowsTheSequentialOne) {
  // Regression: with pre-partitioned deques a high chunk can throw
  // *before* the owner of a lower failing chunk ever reaches it. The
  // fail-fast bound must only prune chunks above the lowest error, so
  // chunk 1 still runs, still throws, and wins the rethrow -- exactly
  // what a sequential loop over the plan would have surfaced.
  WorkerPool pool(2);
  const ChunkPlan plan = single_item_plan(8);  // caller owns 0-3, worker 4-7
  std::atomic<bool> high_thrown{false};
  try {
    pool.run_plan(
        plan,
        [&](std::size_t ci, std::size_t, std::size_t) {
          if (ci == 6) {
            high_thrown.store(true);
            throw std::runtime_error("chunk 6");
          }
          if (ci == 1) {
            // Guarantee the race: chunk 1 does not run until the high
            // error has already been recorded.
            while (!high_thrown.load()) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            throw std::runtime_error("chunk 1");
          }
          return true;
        },
        nullptr);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 1");
  }
}

TEST(WorkerPoolTest, RunPlanReportsCompletedPrefixOnCancel) {
  // Prefix semantics must hold on adaptive (non-uniform) plans too.
  ChunkPlan plan;
  plan.ranges = {{0, 3}, {3, 4}, {4, 9}, {9, 10}, {10, 20}};
  plan.adaptive = true;
  WorkerPool pool(1);
  CancelToken token;
  const ParallelRunResult res = pool.run_plan(
      plan,
      [&](std::size_t ci, std::size_t, std::size_t) {
        if (ci == 2) {
          token.request_stop(StopReason::kCancelRequested);
          return false;
        }
        return true;
      },
      &token);
  EXPECT_TRUE(res.stopped());
  // Sequential claim order on one thread: chunks 0 and 1 completed.
  EXPECT_EQ(res.completed_prefix_chunks, 2u);
  EXPECT_EQ(plan.ranges[res.completed_prefix_chunks - 1].second, 4u);
}

TEST(ParallelTest, ResolveNumThreads) {
  EXPECT_EQ(resolve_num_threads(3), 3);
  ASSERT_EQ(setenv("SHLCP_NUM_THREADS", "5", 1), 0);
  EXPECT_EQ(resolve_num_threads(0), 5);
  EXPECT_EQ(resolve_num_threads(2), 2);  // explicit beats the environment
  ASSERT_EQ(setenv("SHLCP_NUM_THREADS", "junk", 1), 0);
  EXPECT_GE(resolve_num_threads(0), 1);  // falls back to the hardware
  ASSERT_EQ(unsetenv("SHLCP_NUM_THREADS"), 0);
  EXPECT_GE(resolve_num_threads(0), 1);
}

// ---------------------------------------------------------------------------
// Determinism of the parallel build.

ParallelEnumOptions par_options(const EnumOptions& enums, int threads) {
  ParallelEnumOptions options;
  options.enums = enums;
  options.num_threads = threads;
  return options;
}

TEST(ParallelEnumTest, ExhaustiveSpanningBfsMatchesSequential) {
  // Id-using decoder; the id-order dimension is live.
  const SpanningBfsLcp lcp;
  const auto graphs = connected_bipartite(3);
  EnumOptions enums;
  enums.all_id_orders = true;
  const NbhdGraph seq =
      build(BuildSource::exhaustive(lcp, graphs), one_thread(enums)).take();
  ASSERT_GT(seq.num_views(), 0);
  for (const int threads : {1, 2, 4}) {
    const NbhdGraph par =
        build(BuildSource::exhaustive(lcp, graphs), par_options(enums, threads))
            .take();
    expect_identical(seq, par);
  }
  expect_identical(seq, per_frame_shards(lcp, graphs, enums));
}

TEST(ParallelEnumTest, ExhaustiveDegreeOneMatchesSequential) {
  // Anonymous decoder; the port dimension is live.
  const DegreeOneLcp lcp;
  std::vector<Graph> graphs;
  for (const Graph& g : connected_bipartite(4)) {
    if (g.min_degree() == 1) {
      graphs.push_back(g);
    }
  }
  EnumOptions enums;
  enums.all_ports = true;
  const NbhdGraph seq =
      build(BuildSource::exhaustive(lcp, graphs), one_thread(enums)).take();
  ASSERT_GT(seq.num_views(), 0);
  for (const int threads : {1, 2, 4}) {
    const NbhdGraph par =
        build(BuildSource::exhaustive(lcp, graphs), par_options(enums, threads))
            .take();
    expect_identical(seq, par);
  }
  expect_identical(seq, per_frame_shards(lcp, graphs, enums));
}

TEST(ParallelEnumTest, AdaptivePlanMatchesSequential) {
  // The plans cut from frame_costs by adaptive_plan batch cheap frames
  // and isolate dense ones; whatever the boundaries, the merged result
  // must be bit-identical to sequential.
  const DegreeOneLcp lcp;
  std::vector<Graph> graphs;
  for (const Graph& g : connected_bipartite(4)) {
    if (g.min_degree() == 1) {
      graphs.push_back(g);
    }
  }
  EnumOptions enums;
  enums.all_ports = true;
  const NbhdGraph seq =
      build(BuildSource::exhaustive(lcp, graphs), one_thread(enums)).take();
  ASSERT_GT(seq.num_views(), 0);
  const auto frames = enumerate_frames(graphs, enums);
  const auto costs = frame_costs(lcp, graphs, frames);
  for (const int threads : {2, 4}) {
    // The plan has several chunks, so the build merges shards.
    ASSERT_GT(adaptive_plan(costs, threads).num_chunks(), 1u);
    const NbhdGraph par =
        build(BuildSource::exhaustive(lcp, graphs), par_options(enums, threads))
            .take();
    expect_identical(seq, par);
  }
}

TEST(ParallelEnumTest, FrameCostsMatchLabelingProducts) {
  const DegreeOneLcp lcp;
  const std::vector<Graph> graphs{make_path(2), make_path(4)};
  EnumOptions enums;
  const auto frames = enumerate_frames(graphs, enums);
  const auto costs = frame_costs(lcp, graphs, frames);
  ASSERT_EQ(costs.size(), frames.size());
  // Cross-check each cost against the actual labeling count of its frame.
  for (std::size_t i = 0; i < frames.size(); ++i) {
    std::uint64_t count = 0;
    for_each_frame_labeling(frame_labelings(lcp, graphs, frames[i], enums),
                            [&](const std::vector<int>&) {
                              ++count;
                              return true;
                            });
    EXPECT_EQ(costs[i], count) << "frame " << i;
  }
}

TEST(ParallelEnumTest, FingerprintCollisionsDedupExactly) {
  // The all-ports sweep registers distinct views that differ only in how
  // cross-edge port pairs line up -- exactly the fingerprint's designed
  // blind spot -- so some dedup chains hold more than one view. The
  // exact chain comparison must still keep every registered view
  // pairwise distinct.
  const DegreeOneLcp lcp;
  std::vector<Graph> graphs;
  for (const Graph& g : connected_bipartite(4)) {
    if (g.min_degree() == 1) {
      graphs.push_back(g);
    }
  }
  EnumOptions enums;
  enums.all_ports = true;
  const NbhdGraph nbhd =
      build(BuildSource::exhaustive(lcp, graphs), one_thread(enums)).take();
  ASSERT_GT(nbhd.num_views(), 1);
  EXPECT_LT(nbhd.num_fingerprint_chains(),
            static_cast<std::uint64_t>(nbhd.num_views()))
      << "expected fingerprint collisions in the all-ports family";
  for (int i = 0; i < nbhd.num_views(); ++i) {
    EXPECT_EQ(nbhd.index_of(nbhd.view(i)), i);
    for (int j = i + 1; j < nbhd.num_views(); ++j) {
      EXPECT_FALSE(nbhd.view(i) == nbhd.view(j))
          << "views " << i << " and " << j << " should be distinct";
    }
  }
}

TEST(ParallelEnumTest, ProvedEvenCycleMatchesSequential) {
  // Port-sensitive decoder over the honest prover's stream.
  const EvenCycleLcp lcp;
  const std::vector<Graph> graphs{make_cycle(4), make_cycle(6)};
  EnumOptions enums;
  enums.all_ports = true;
  const NbhdGraph seq =
      build(BuildSource::proved(lcp, graphs), one_thread(enums)).take();
  ASSERT_GT(seq.num_views(), 0);
  for (const int threads : {1, 2, 4}) {
    const NbhdGraph par =
        build(BuildSource::proved(lcp, graphs), par_options(enums, threads))
            .take();
    expect_identical(seq, par);
  }
  expect_identical(seq, per_instance_shards(lcp.decoder(),
                                            proved_instances(lcp, graphs, enums),
                                            lcp.k()));
}

TEST(ParallelEnumTest, WitnessFamiliesMatchSequential) {
  // Explicit witness lists through the instance source; both families
  // contain the paper's odd cycles, so the hiding verdict is exercised.
  struct Family {
    const Decoder& decoder;
    std::vector<Instance> instances;
  };
  const DegreeOneLcp degree_one;
  const EvenCycleLcp even_cycle;
  for (const Family& family :
       {Family{degree_one.decoder(), degree_one_witnesses(4)},
        Family{even_cycle.decoder(), even_cycle_witnesses(6)}}) {
    const NbhdGraph seq =
        build(BuildSource::instances(family.decoder, family.instances, 2),
              one_thread())
            .take();
    ASSERT_TRUE(seq.odd_cycle().has_value());
    for (const int threads : {1, 2, 4}) {
      EnumOptions enums;
      const NbhdGraph par =
          build(BuildSource::instances(family.decoder, family.instances, 2),
                par_options(enums, threads))
              .take();
      expect_identical(seq, par);
    }
    expect_identical(
        seq, per_instance_shards(family.decoder, family.instances, 2));
  }
}

TEST(ParallelEnumTest, PlainAndResumableBuildsAreByteIdentical) {
  // take() is the build's result plus a completeness check, so the graph
  // it returns must serialize to the very bytes of the result's nbhd --
  // including through the segmented pool path, which an unreachable
  // frame budget forces even at one thread. The instance source takes
  // no budget; its multithreaded build must match the sequential one
  // byte for byte instead.
  const DegreeOneLcp degree_one;
  const EvenCycleLcp even_cycle;
  std::vector<Graph> deg1_graphs;
  for (const Graph& g : connected_bipartite(4)) {
    if (g.min_degree() == 1) {
      deg1_graphs.push_back(g);
    }
  }
  const std::vector<Graph> cycles{make_cycle(4), make_cycle(6)};
  EnumOptions enums;
  enums.all_ports = true;
  const std::vector<Instance> witnesses = even_cycle_witnesses(6);
  const BuildSource exhaustive_source =
      BuildSource::exhaustive(degree_one, deg1_graphs);
  const BuildSource proved_source = BuildSource::proved(even_cycle, cycles);
  const BuildSource instance_source =
      BuildSource::instances(even_cycle.decoder(), witnesses, 2);
  const std::string exhaustive =
      state_bytes(build(exhaustive_source, one_thread(enums)).take());
  const std::string proved =
      state_bytes(build(proved_source, one_thread(enums)).take());
  const std::string instances =
      state_bytes(build(instance_source, one_thread()).take());
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(format("%d threads", threads));
    const ParallelEnumOptions plain = par_options(enums, threads);
    ParallelEnumOptions budgeted = plain;
    budgeted.budget.max_frames = ~std::uint64_t{0};
    EXPECT_EQ(exhaustive,
              state_bytes(build(exhaustive_source, plain).take()));
    for (const ParallelEnumOptions& options : {plain, budgeted}) {
      EXPECT_EQ(exhaustive,
                state_bytes(build(exhaustive_source, options).nbhd));
      EXPECT_EQ(proved, state_bytes(build(proved_source, options).nbhd));
    }
    EXPECT_EQ(proved, state_bytes(build(proved_source, plain).take()));
    EXPECT_EQ(instances,
              state_bytes(build(instance_source, plain).take()));
  }
}

TEST(ParallelEnumTest, WitnessBuildFindsThePaperCycles) {
  const EvenCycleLcp lcp;
  const std::vector<Instance> witnesses = even_cycle_witnesses(6);
  for (const int threads : {1, 2, 4}) {
    ParallelEnumOptions options;
    options.num_threads = threads;
    const auto odd_cycle =
        build(BuildSource::instances(lcp.decoder(), witnesses, 2), options)
            .take()
            .odd_cycle();
    ASSERT_TRUE(odd_cycle.has_value());
    EXPECT_EQ(odd_cycle->front(), odd_cycle->back());
    EXPECT_EQ(odd_cycle->size() % 2, 0u);  // odd edge count
  }
}

TEST(ParallelEnumTest, MergePrefersLowestInstanceProvenance) {
  // Two shards absorbing overlapping instances: merging b into a must
  // keep a's (earlier) provenance for shared views/edges and shift b's
  // instance indices for fresh ones.
  const RevealingLcp lcp(2);
  const Graph p3 = make_path(3);
  const Graph p4 = make_path(4);
  Instance i3 = Instance::canonical(p3);
  i3.labels = *lcp.prove(p3, i3.ports, i3.ids);
  Instance i4 = Instance::canonical(p4);
  i4.labels = *lcp.prove(p4, i4.ports, i4.ids);

  NbhdGraph seq;
  seq.absorb(lcp.decoder(), i3, 2);
  seq.absorb(lcp.decoder(), i4, 2);
  seq.absorb(lcp.decoder(), i3, 2);

  NbhdGraph a;
  a.absorb(lcp.decoder(), i3, 2);
  NbhdGraph b;
  b.absorb(lcp.decoder(), i4, 2);
  b.absorb(lcp.decoder(), i3, 2);
  a.merge(std::move(b));

  expect_identical(seq, a);
  EXPECT_EQ(a.num_instances_absorbed(), 3);
  // The P3 views were first seen by instance 0 (shard a), not instance 2.
  EXPECT_EQ(a.view_provenance(0).instance, 0);
}

TEST(ParallelEnumTest, StatsCountDedupesAndAbsorbTime) {
  const RevealingLcp lcp(2);
  const Graph g = make_path(3);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  NbhdGraph nbhd;
  nbhd.absorb(lcp.decoder(), inst, 2);
  const std::uint64_t first = nbhd.stats().views_deduped;
  nbhd.absorb(lcp.decoder(), inst, 2);  // every view again: all dedupes
  EXPECT_EQ(nbhd.stats().views_deduped,
            first + static_cast<std::uint64_t>(nbhd.num_views()));
  EXPECT_GT(nbhd.stats().absorb_ns, 0u);
}

// ---------------------------------------------------------------------------
// Frame-aware errors and the canonical-code cache.

TEST(ParallelEnumTest, LabelingBoundErrorNamesTheFrame) {
  // Regression: the bound used to throw bare ("labeling space exceeds
  // max_labelings_per_frame"), leaving the offending frame unidentified.
  const RevealingLcp lcp(2);
  const std::vector<Graph> graphs{make_path(2), make_path(4)};
  EnumOptions options;
  options.max_labelings_per_frame = 10;  // 3^2 fits, 3^4 does not
  std::string stream_msg;
  try {
    for_each_labeled_instance(lcp, graphs, options,
                              [](const Instance&) { return true; });
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("max_labelings_per_frame (10)"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("graph #1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("4 nodes"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ids=[1, 2, 3, 4]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ports="), std::string::npos) << msg;
    stream_msg = msg;
  }
  // The exhaustive build describes the frame with the same helper at
  // every thread count, so it raises the very same error.
  for (const int threads : {1, 2}) {
    try {
      build(BuildSource::exhaustive(lcp, graphs), par_options(options, threads))
          .take();
      FAIL() << "expected CheckError";
    } catch (const CheckError& e) {
      EXPECT_EQ(std::string(e.what()), stream_msg);
    }
  }
}

TEST(ParallelEnumTest, CanonicalCodeIsCachedAndInvalidated) {
  const Instance inst = Instance::canonical(make_path(4));
  View v = inst.view_of(1, 1, false);
  EXPECT_FALSE(v.canonical_cached());
  const auto& code = v.canonical();
  EXPECT_TRUE(v.canonical_cached());
  EXPECT_EQ(&code, &v.canonical());  // compute-once: same vector object

  // Copies share the cache; the mutating copiers drop it and re-derive.
  const View copy = v;
  EXPECT_TRUE(copy.canonical_cached());
  const View anon = v.anonymized();
  EXPECT_FALSE(anon.canonical_cached());
  EXPECT_FALSE(anon == v);  // ids differ, so the codes must differ
  EXPECT_TRUE(anon == inst.view_of(1, 1, true));
}

}  // namespace
}  // namespace shlcp

// Overhead of budgeted, checkpointed V(D, n) builds (robustness PR bench).
//
// Uses the same degree-one exhaustive family as bench_parallel_enum and
// measures three things against the plain (no budget, no checkpoint)
// parallel build:
//
//   * checkpointed builds at two cadences (every 4 and every 16 frames),
//     i.e. the cost of segmented execution plus periodic manifest+state
//     writes on an uninterrupted run;
//   * an interrupted-then-resumed build (frame budget trips at roughly
//     half the sweep, a second run finishes it), i.e. the end-to-end
//     price of a kill/resume cycle including the redundant re-merge.
//
// Every checkpointed or resumed result is cross-checked view-by-view
// against the sequential reference, so the numbers are only posted for
// bit-identical outputs. Results go to BENCH_checkpoint.json via the
// shared bench/report harness; in smoke mode (SHLCP_BENCH_SMOKE) the
// sweep runs one rep so CI can validate the schema and the manifest in
// seconds.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/report.h"
#include "certify/degree_one.h"
#include "graph/generators.h"
#include "lcp/enumerate.h"
#include "nbhd/aviews.h"
#include "nbhd/checkpoint.h"
#include "util/check.h"
#include "util/format.h"

namespace shlcp {
namespace {

constexpr const char* kCkptDir = "BENCH_checkpoint.ckpt";

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

void expect_identical(const NbhdGraph& nbhd, const NbhdGraph& reference) {
  SHLCP_CHECK(nbhd.num_views() == reference.num_views());
  SHLCP_CHECK(nbhd.num_edges() == reference.num_edges());
  SHLCP_CHECK(nbhd.num_instances_absorbed() ==
              reference.num_instances_absorbed());
  for (int i = 0; i < nbhd.num_views(); ++i) {
    SHLCP_CHECK(nbhd.view(i) == reference.view(i));
  }
}

struct Sample {
  std::string label;
  double seconds = 0.0;
  double overhead = 0.0;  // seconds / plain_seconds
};

double best_seconds(const std::function<void()>& run, int reps) {
  double best = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

}  // namespace
}  // namespace shlcp

int main() {
  using namespace shlcp;

  const DegreeOneLcp lcp;
  const auto graphs = promise_graphs(lcp, 4);
  EnumOptions enums;
  enums.all_ports = true;
  const std::uint64_t num_frames = enumerate_frames(graphs, enums).size();
  const int reps = bench::smoke() ? 1 : 3;

  std::printf("=== checkpointed V(D, n) sweep: degree-one, n <= 4, "
              "all ports (%llu frames) ===\n",
              static_cast<unsigned long long>(num_frames));

  const NbhdGraph reference =
      build(BuildSource::exhaustive(lcp, graphs), one_thread(enums)).take();

  ParallelEnumOptions base;
  base.enums = enums;
  base.num_threads = 2;
  std::vector<Sample> samples;

  Sample plain;
  plain.label = "plain";
  plain.seconds = best_seconds(
      [&] {
        expect_identical(
            build(BuildSource::exhaustive(lcp, graphs), base).take(),
            reference);
      },
      reps);
  plain.overhead = 1.0;
  samples.push_back(plain);

  for (const std::uint64_t every : {std::uint64_t{4}, std::uint64_t{16}}) {
    ParallelEnumOptions options = base;
    options.checkpoint.directory = kCkptDir;
    options.checkpoint.every_frames = every;
    Sample s;
    s.label = format("ckpt_every_%llu", static_cast<unsigned long long>(every));
    s.seconds = best_seconds(
        [&] {
          CheckpointStore(kCkptDir).clear();
          const ResumableBuildResult res =
              build(BuildSource::exhaustive(lcp, graphs), options);
          SHLCP_CHECK(res.complete);
          expect_identical(res.nbhd, reference);
        },
        reps);
    s.overhead = s.seconds / plain.seconds;
    samples.push_back(s);
  }

  {
    // Interrupt at ~half the sweep via the deterministic frame budget,
    // then resume to completion; the timed region covers both runs.
    ParallelEnumOptions first = base;
    first.checkpoint.directory = kCkptDir;
    first.checkpoint.every_frames = 8;
    first.budget.max_frames = std::max<std::uint64_t>(num_frames / 2, 1);
    ParallelEnumOptions second = first;
    second.budget.max_frames = 0;
    Sample s;
    s.label = "interrupted_resumed";
    s.seconds = best_seconds(
        [&] {
          CheckpointStore(kCkptDir).clear();
          const ResumableBuildResult partial =
              build(BuildSource::exhaustive(lcp, graphs), first);
          SHLCP_CHECK(!partial.complete);
          SHLCP_CHECK(partial.stop_reason == StopReason::kFrameBudget);
          const ResumableBuildResult res =
              build(BuildSource::exhaustive(lcp, graphs), second);
          SHLCP_CHECK(res.complete);
          SHLCP_CHECK(res.resumed_frames > 0);
          expect_identical(res.nbhd, reference);
        },
        reps);
    s.overhead = s.seconds / plain.seconds;
    samples.push_back(s);
  }
  CheckpointStore(kCkptDir).clear();

  std::printf("%-20s %10s %10s\n", "build", "seconds", "overhead");
  for (const Sample& s : samples) {
    std::printf("%-20s %10.4f %9.2fx\n", s.label.c_str(), s.seconds,
                s.overhead);
  }
  std::printf("(%d graphs, %llu frames, %d views; all checkpointed and "
              "resumed builds verified identical to sequential)\n",
              static_cast<int>(graphs.size()),
              static_cast<unsigned long long>(num_frames),
              reference.num_views());

  bench::Report report("checkpoint");
  report.meta()["family"] = "degree_one_exhaustive_n4_all_ports";
  report.meta()["graphs"] = static_cast<std::uint64_t>(graphs.size());
  report.meta()["frames"] = num_frames;
  report.meta()["views"] = static_cast<std::uint64_t>(reference.num_views());
  report.meta()["reps"] = static_cast<std::uint64_t>(reps);
  for (const Sample& s : samples) {
    Json& values = report.add_case(s.label);
    values["seconds"] = s.seconds;
    values["overhead"] = s.overhead;
  }
  report.write();
  return 0;
}

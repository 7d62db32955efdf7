// Throughput of the parallel V(D, n) sweep (ISSUE PR 1 acceptance bench).
//
// Builds the exhaustive degree-one V(D, 4) over all ports -- the same
// instance family as bench_nbhd_growth -- once sequentially and then with
// the sharded builder at 1, 2, 4, and 8 threads, reporting instances/sec
// and speedup over the sequential baseline. Every parallel build is
// cross-checked structurally against the sequential one (the bit-identical
// guarantee), so a wrong-but-fast merge cannot post a number here.
//
// Each case also reports the enumeration hot-path counters as per-build
// deltas: fingerprint-gate hits/misses, canonical-code computes (the gate
// exists to drive these toward zero on the build path -- the checker
// enforces computes <= 0.7x registrations), and the scheduler's steal /
// adaptive-chunk counts.
//
// Results (plus std::thread::hardware_concurrency, so single-core CI runs
// are legible as such) are written to BENCH_parallel_enum.json via the
// shared bench/report harness and validated by
// tools/check_bench_json.py --parallel. Scaling beyond
// hardware_concurrency threads is expected to be flat -- the point of the
// 8-thread row is oversubscription overhead, not speedup. In smoke mode
// (SHLCP_BENCH_SMOKE) the sweep shrinks to one rep at 1-2 threads so CI
// can validate the report schema in seconds.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/report.h"
#include "certify/degree_one.h"
#include "certify/revealing.h"
#include "graph/generators.h"
#include "nbhd/aviews.h"
#include "util/check.h"
#include "util/format.h"
#include "util/metrics.h"

namespace shlcp {
namespace {

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

/// Hot-path counters, reported as per-build deltas. The dedup counters
/// are deterministic per build; steals are timing-dependent diagnostics.
struct BuildMetrics {
  std::uint64_t canonical_computes = 0;
  std::uint64_t fingerprint_hits = 0;
  std::uint64_t fingerprint_misses = 0;
  std::uint64_t steals = 0;
  std::uint64_t chunks_adaptive = 0;
};

struct Sample {
  int threads = 0;  // 0 = sequential reference
  double seconds = 0.0;
  double instances_per_sec = 0.0;
  double speedup = 1.0;
  BuildMetrics metrics;
};

std::uint64_t counter_value(const char* name) {
  return metrics::counter(name).value();
}

BuildMetrics capture_counters() {
  BuildMetrics m;
  m.canonical_computes = counter_value("views.canonical.computes");
  m.fingerprint_hits = counter_value("enum.fingerprint_hits");
  m.fingerprint_misses = counter_value("enum.fingerprint_misses");
  m.steals = counter_value("parallel.steals");
  m.chunks_adaptive = counter_value("parallel.chunks_adaptive");
  return m;
}

double run_seconds(const std::function<NbhdGraph()>& build,
                   const NbhdGraph* reference, int reps, BuildMetrics* out) {
  const BuildMetrics before = capture_counters();
  double best = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const NbhdGraph nbhd = build();
    const auto t1 = std::chrono::steady_clock::now();
    if (reference != nullptr) {
      SHLCP_CHECK(nbhd.num_views() == reference->num_views());
      SHLCP_CHECK(nbhd.num_edges() == reference->num_edges());
      SHLCP_CHECK(nbhd.num_instances_absorbed() ==
                  reference->num_instances_absorbed());
      SHLCP_CHECK(nbhd.stats().views_deduped ==
                  reference->stats().views_deduped);
      for (int i = 0; i < nbhd.num_views(); ++i) {
        SHLCP_CHECK(nbhd.view(i) == reference->view(i));
      }
    }
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  if (out != nullptr) {
    // Per-build average; exact for the deterministic dedup counters.
    const BuildMetrics after = capture_counters();
    const auto per_rep = [reps](std::uint64_t b, std::uint64_t a) {
      return (a - b) / static_cast<std::uint64_t>(reps);
    };
    out->canonical_computes =
        per_rep(before.canonical_computes, after.canonical_computes);
    out->fingerprint_hits =
        per_rep(before.fingerprint_hits, after.fingerprint_hits);
    out->fingerprint_misses =
        per_rep(before.fingerprint_misses, after.fingerprint_misses);
    out->steals = per_rep(before.steals, after.steals);
    out->chunks_adaptive =
        per_rep(before.chunks_adaptive, after.chunks_adaptive);
  }
  return best;
}

}  // namespace
}  // namespace shlcp

int main() {
  using namespace shlcp;

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("=== parallel V(D, n) sweep: degree-one, n <= 4, all ports "
              "(hardware_concurrency = %u) ===\n",
              hw);

  const DegreeOneLcp lcp;
  const auto graphs = promise_graphs(lcp, 4);
  EnumOptions enums;
  enums.all_ports = true;

  const int reps = bench::smoke() ? 1 : 3;
  const std::vector<int> thread_counts =
      bench::smoke() ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  const NbhdGraph reference =
      build(BuildSource::exhaustive(lcp, graphs), one_thread(enums)).take();
  const double total_instances =
      static_cast<double>(reference.num_instances_absorbed());
  const std::uint64_t registrations =
      static_cast<std::uint64_t>(reference.num_views()) +
      reference.stats().views_deduped;

  std::vector<Sample> samples;
  Sample seq;
  seq.threads = 0;
  seq.seconds = run_seconds(
      [&] {
        return build(BuildSource::exhaustive(lcp, graphs), one_thread(enums))
            .take();
      },
      nullptr, reps, &seq.metrics);
  seq.instances_per_sec = total_instances / seq.seconds;
  samples.push_back(seq);

  for (const int threads : thread_counts) {
    ParallelEnumOptions options;
    options.enums = enums;
    options.num_threads = threads;
    Sample s;
    s.threads = threads;
    s.seconds = run_seconds(
        [&] {
          return build(BuildSource::exhaustive(lcp, graphs), options).take();
        },
        &reference, reps, &s.metrics);
    s.instances_per_sec = total_instances / s.seconds;
    s.speedup = seq.seconds / s.seconds;
    samples.push_back(s);
  }

  std::printf("%-12s %10s %14s %8s %10s %9s %7s\n", "build", "seconds",
              "instances/s", "speedup", "fp_hits", "canon", "steals");
  for (const Sample& s : samples) {
    const std::string label =
        s.threads == 0 ? "sequential" : format("%d threads", s.threads);
    std::printf("%-12s %10.4f %14.0f %7.2fx %10llu %9llu %7llu\n",
                label.c_str(), s.seconds, s.instances_per_sec, s.speedup,
                static_cast<unsigned long long>(s.metrics.fingerprint_hits),
                static_cast<unsigned long long>(s.metrics.canonical_computes),
                static_cast<unsigned long long>(s.metrics.steals));
  }
  std::printf("(%d graphs, %.0f instances, %d views, %llu registrations; "
              "parallel results verified identical to sequential)\n",
              static_cast<int>(graphs.size()), total_instances,
              reference.num_views(),
              static_cast<unsigned long long>(registrations));
  if (hw < 4) {
    std::printf("NOTE: only %u hardware thread(s) available -- parallel "
                "speedup is not measurable on this machine.\n",
                hw);
  }

  bench::Report report("parallel_enum");
  report.meta()["family"] = "degree_one_exhaustive_n4_all_ports";
  report.meta()["graphs"] = static_cast<std::uint64_t>(graphs.size());
  report.meta()["instances"] = total_instances;
  report.meta()["views"] = static_cast<std::uint64_t>(reference.num_views());
  report.meta()["registrations"] = registrations;
  report.meta()["reps"] = static_cast<std::uint64_t>(reps);
  for (const Sample& s : samples) {
    const std::string label =
        s.threads == 0 ? "sequential" : format("threads_%d", s.threads);
    Json& values = report.add_case(label);
    values["threads"] = static_cast<std::int64_t>(s.threads);
    values["seconds"] = s.seconds;
    values["instances_per_sec"] = s.instances_per_sec;
    values["speedup"] = s.speedup;
    values["canonical_computes"] = s.metrics.canonical_computes;
    values["fingerprint_hits"] = s.metrics.fingerprint_hits;
    values["fingerprint_misses"] = s.metrics.fingerprint_misses;
    values["steals"] = s.metrics.steals;
    values["chunks_adaptive"] = s.metrics.chunks_adaptive;
  }
  report.write();
  return 0;
}

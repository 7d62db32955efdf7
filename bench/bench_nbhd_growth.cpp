// Experiment E8 (Lemma 3.1): cost and size of the accepting neighborhood
// graph enumeration.
//
// Prints |AViews| and edge counts of the exhaustive V(D, n) per decoder
// as the instance-size bound n grows (the finiteness/computability that
// Lemma 3.1 establishes, made concrete), then times the builders.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/report.h"
#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/revealing.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "nbhd/aviews.h"
#include "util/format.h"

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

void print_growth(bench::Report& report) {
  std::printf("=== E8: V(D, n) growth (Lemma 3.1 enumeration) ===\n");
  std::printf("%-12s %3s %8s %8s %8s %12s\n", "decoder", "n", "graphs",
              "views", "edges", "2-colorable");

  const RevealingLcp revealing(2);
  const DegreeOneLcp degree_one;
  const EvenCycleLcp even_cycle;
  struct Row {
    const Lcp* lcp;
    const char* name;
  };
  for (const Row& row : {Row{&revealing, "revealing"},
                         Row{&degree_one, "degree-one"},
                         Row{&even_cycle, "even-cycle"}}) {
    for (int n = 2; n <= 5; ++n) {
      const auto graphs = promise_graphs(*row.lcp, n);
      if (graphs.empty()) {
        continue;
      }
      EnumOptions options;
      options.all_ports = true;
      const auto nbhd = build_exhaustive(*row.lcp, graphs, options);
      std::printf("%-12s %3d %8zu %8d %8d %12s\n", row.name, n,
                  graphs.size(), nbhd.num_views(), nbhd.num_edges(),
                  nbhd.k_colorable(2) ? "yes" : "NO (hiding)");
      Json& values = report.add_case(format("%s/n%d", row.name, n));
      values["graphs"] = static_cast<std::uint64_t>(graphs.size());
      values["views"] = static_cast<std::int64_t>(nbhd.num_views());
      values["edges"] = static_cast<std::int64_t>(nbhd.num_edges());
      values["two_colorable"] = nbhd.k_colorable(2);
    }
  }
  std::printf("\n");
}

void BM_ExhaustiveBuildRevealing(benchmark::State& state) {
  const RevealingLcp lcp(2);
  const auto graphs = promise_graphs(lcp, static_cast<int>(state.range(0)));
  EnumOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_exhaustive(lcp, graphs, options));
  }
  state.counters["graphs"] = static_cast<double>(graphs.size());
}
BENCHMARK(BM_ExhaustiveBuildRevealing)->Arg(3)->Arg(4);

void BM_ExhaustiveBuildDegreeOne(benchmark::State& state) {
  const DegreeOneLcp lcp;
  const auto graphs = promise_graphs(lcp, static_cast<int>(state.range(0)));
  EnumOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_exhaustive(lcp, graphs, options));
  }
}
BENCHMARK(BM_ExhaustiveBuildDegreeOne)->Arg(3)->Arg(4);

void BM_ProvedBuildEvenCycle(benchmark::State& state) {
  const EvenCycleLcp lcp;
  std::vector<Graph> graphs{make_cycle(4), make_cycle(6), make_cycle(8)};
  EnumOptions options;
  options.all_ports = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_proved(lcp, graphs, options));
  }
}
BENCHMARK(BM_ProvedBuildEvenCycle);

}  // namespace
}  // namespace shlcp

int main(int argc, char** argv) {
  shlcp::bench::Report report("nbhd_growth");
  shlcp::print_growth(report);
  report.write();
  return shlcp::bench::run_benchmarks(argc, argv);
}

// Experiment E9 (Lemma 3.2): the extractor decoder D'.
//
// Positive control: the revealing LCP's V(D, n) is k-colorable, the
// compiled extractor recovers a proper 2-coloring on every accepted
// instance in range. Negative control: for each hiding LCP the
// construction dies at the coloring step. Then times extractor
// compilation and per-view extraction.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/report.h"
#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/revealing.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "nbhd/aviews.h"
#include "nbhd/extractor.h"
#include "nbhd/witness.h"
#include "util/check.h"

namespace shlcp {
namespace {

std::vector<Graph> bipartite_graphs(int max_n) {
  std::vector<Graph> graphs;
  for (int n = 2; n <= max_n; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      if (is_bipartite(g)) {
        graphs.push_back(g);
      }
      return true;
    });
  }
  return graphs;
}

void print_replay(bench::Report& report) {
  std::printf("=== E9: Lemma 3.2 extractor ===\n");

  const RevealingLcp revealing(2);
  const auto graphs = bipartite_graphs(4);
  auto nbhd =
      build(BuildSource::exhaustive(revealing, graphs), one_thread()).take();
  const int views = nbhd.num_views();
  auto extractor = Extractor::build(revealing.decoder(), std::move(nbhd), 2);
  SHLCP_CHECK(extractor.has_value());
  int extracted = 0;
  for (const Graph& g : graphs) {
    Instance inst = Instance::canonical(g);
    inst.labels = *revealing.prove(g, inst.ports, inst.ids);
    const auto colors = extractor->run(inst);
    SHLCP_CHECK(colors.has_value());
    for (const Edge& e : g.edges()) {
      SHLCP_CHECK((*colors)[static_cast<std::size_t>(e.u)] !=
                  (*colors)[static_cast<std::size_t>(e.v)]);
    }
    ++extracted;
  }
  std::printf("revealing LCP: V(D,4) has %d views, 2-colorable => extractor "
              "compiled; proper 2-coloring extracted on %d/%zu instances\n",
              views, extracted, graphs.size());
  Json& positive = report.add_case("revealing_positive_control");
  positive["views"] = static_cast<std::int64_t>(views);
  positive["extracted"] = static_cast<std::int64_t>(extracted);
  positive["instances"] = static_cast<std::uint64_t>(graphs.size());

  const DegreeOneLcp degree_one;
  const auto deg1_witnesses = degree_one_witnesses(4);
  auto nb1 =
      build(BuildSource::instances(degree_one.decoder(), deg1_witnesses, 2),
            one_thread())
          .take();
  SHLCP_CHECK(
      !Extractor::build(degree_one.decoder(), std::move(nb1), 2).has_value());
  const EvenCycleLcp even_cycle;
  const auto cycle_witnesses = even_cycle_witnesses(6);
  auto nb2 =
      build(BuildSource::instances(even_cycle.decoder(), cycle_witnesses, 2),
            one_thread())
          .take();
  SHLCP_CHECK(
      !Extractor::build(even_cycle.decoder(), std::move(nb2), 2).has_value());
  std::printf("degree-one / even-cycle LCPs: neighborhood graphs are NOT "
              "2-colorable => no extractor exists (hiding confirmed)\n\n");
  Json& negative = report.add_case("hiding_negative_control");
  negative["degree_one_extractor_exists"] = false;
  negative["even_cycle_extractor_exists"] = false;
}

void BM_ExtractorCompile(benchmark::State& state) {
  const RevealingLcp lcp(2);
  const auto graphs = bipartite_graphs(static_cast<int>(state.range(0)));
  const auto nbhd =
      build(BuildSource::exhaustive(lcp, graphs), one_thread()).take();
  for (auto _ : state) {
    auto copy = nbhd;
    benchmark::DoNotOptimize(Extractor::build(lcp.decoder(), std::move(copy), 2));
  }
  state.counters["views"] = nbhd.num_views();
}
BENCHMARK(BM_ExtractorCompile)->Arg(3)->Arg(4);

void BM_ExtractPerNode(benchmark::State& state) {
  const RevealingLcp lcp(2);
  const auto graphs = bipartite_graphs(4);
  auto extractor = Extractor::build(
      lcp.decoder(),
      build(BuildSource::exhaustive(lcp, graphs), one_thread()).take(), 2);
  const Graph g = make_path(4);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  const View view = inst.view_of(1, 1, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor->extract(view));
  }
}
BENCHMARK(BM_ExtractPerNode);

}  // namespace
}  // namespace shlcp

int main(int argc, char** argv) {
  shlcp::bench::Report report("extractor");
  shlcp::print_replay(report);
  report.write();
  return shlcp::bench::run_benchmarks(argc, argv);
}

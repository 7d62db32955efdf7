// Experiment E3 (Figs. 3/4, Lemma 4.1): the degree-one LCP.
//
// Regenerates the paper's artifacts: the odd cycle of V(D, 4) built from
// min-degree-1 instances (Fig. 4) with its length, plus exhaustive
// completeness / strong-soundness counts on all small graphs; then times
// the decoder, the prover, and the exhaustive soundness sweep.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/report.h"
#include "certify/degree_one.h"
#include "graph/generators.h"
#include "lcp/checker.h"
#include "nbhd/aviews.h"
#include "nbhd/witness.h"
#include "util/check.h"

namespace shlcp {
namespace {

void print_replay(bench::Report& report) {
  const DegreeOneLcp lcp;
  std::printf("=== E3: degree-one LCP (Lemma 4.1, Figs. 3/4) ===\n");

  // Fig. 4: odd cycle in V(D, 4).
  const auto witnesses = degree_one_witnesses(4);
  const auto nbhd =
      build(BuildSource::instances(lcp.decoder(), witnesses, 2), one_thread())
          .take();
  const auto cycle = nbhd.odd_cycle();
  SHLCP_CHECK(cycle.has_value());
  std::printf("witness family: %zu labeled instances -> V(D,4) subgraph "
              "with %d views / %d edges\n",
              witnesses.size(), nbhd.num_views(), nbhd.num_edges());
  std::printf("odd cycle of length %zu found => LCP is HIDING (Lemma 3.2)\n",
              cycle->size() - 1);
  Json& witness = report.add_case("fig4_witness");
  witness["instances"] = static_cast<std::uint64_t>(witnesses.size());
  witness["views"] = static_cast<std::int64_t>(nbhd.num_views());
  witness["edges"] = static_cast<std::int64_t>(nbhd.num_edges());
  witness["odd_cycle_len"] = static_cast<std::uint64_t>(cycle->size() - 1);

  // Exhaustive completeness and strong soundness at small n.
  int promise_graphs = 0;
  std::uint64_t labelings = 0;
  for (int n = 2; n <= 5; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      if (lcp.in_promise(g)) {
        ++promise_graphs;
        SHLCP_CHECK(check_completeness(lcp, Instance::canonical(g)).ok);
      }
      const auto report =
          check_strong_soundness_exhaustive(lcp, Instance::canonical(g));
      SHLCP_CHECK_MSG(report.ok, report.failure);
      labelings += report.cases;
      return true;
    });
  }
  std::printf("completeness: OK on all %d promise graphs with <= 5 nodes\n",
              promise_graphs);
  std::printf("strong soundness: OK over %llu labelings (ALL connected "
              "graphs <= 5 nodes x full 4-symbol alphabet)\n",
              static_cast<unsigned long long>(labelings));
  std::printf("certificate size: 2 bits (constant)\n\n");
  Json& exhaustive = report.add_case("exhaustive_n5");
  exhaustive["promise_graphs"] = static_cast<std::int64_t>(promise_graphs);
  exhaustive["labelings"] = labelings;
  exhaustive["certificate_bits"] = std::int64_t{2};
}

void BM_Decoder(benchmark::State& state) {
  const DegreeOneLcp lcp;
  const Graph g = make_double_broom(static_cast<int>(state.range(0)), 2, 2);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lcp.decoder().run(inst));
  }
  state.counters["nodes"] = g.num_nodes();
}
BENCHMARK(BM_Decoder)->Arg(8)->Arg(32)->Arg(128);

void BM_Prover(benchmark::State& state) {
  const DegreeOneLcp lcp;
  const Graph g = make_path(static_cast<int>(state.range(0)));
  const Instance inst = Instance::canonical(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lcp.prove(g, inst.ports, inst.ids));
  }
}
BENCHMARK(BM_Prover)->Arg(16)->Arg(64)->Arg(256);

void BM_StrongSoundnessSweepP4(benchmark::State& state) {
  const DegreeOneLcp lcp;
  const Instance inst = Instance::canonical(make_path(4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_strong_soundness_exhaustive(lcp, inst));
  }
  state.counters["labelings"] = 256;
}
BENCHMARK(BM_StrongSoundnessSweepP4);

void BM_WitnessNbhdBuild(benchmark::State& state) {
  const DegreeOneLcp lcp;
  const auto witnesses = degree_one_witnesses(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        build(BuildSource::instances(lcp.decoder(), witnesses, 2), one_thread())
            .take());
  }
}
BENCHMARK(BM_WitnessNbhdBuild);

}  // namespace
}  // namespace shlcp

int main(int argc, char** argv) {
  shlcp::bench::Report report("degree_one");
  shlcp::print_replay(report);
  report.write();
  return shlcp::bench::run_benchmarks(argc, argv);
}

// Experiment E4 (Figs. 5/6, Lemma 4.2): the even-cycle LCP.
//
// Regenerates the odd cycle of V(D, 6) from even-cycle instances (the
// Fig. 6 artifact, including the extreme self-loop witness from matched
// ports), exhaustively validates strong soundness on the critical odd
// cycle C5 (the full 16^5 labeling space), and times decoder/prover.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/report.h"
#include "certify/even_cycle.h"
#include "graph/generators.h"
#include "lcp/checker.h"
#include "nbhd/aviews.h"
#include "nbhd/witness.h"
#include "util/check.h"

namespace shlcp {
namespace {

void print_replay(bench::Report& report) {
  const EvenCycleLcp lcp;
  std::printf("=== E4: even-cycle LCP (Lemma 4.2, Figs. 5/6) ===\n");

  const auto witnesses = even_cycle_witnesses(6);
  const auto nbhd =
      build(BuildSource::instances(lcp.decoder(), witnesses, 2), one_thread())
          .take();
  const auto cycle = nbhd.odd_cycle();
  SHLCP_CHECK(cycle.has_value());
  std::printf("witness family (C4/C6, all ports, both phases): %zu "
              "instances -> %d views / %d edges\n",
              witnesses.size(), nbhd.num_views(), nbhd.num_edges());
  std::printf("odd cycle of length %zu => LCP is HIDING everywhere "
              "(2-edge-coloring reveals no node color)\n",
              cycle->size() - 1);

  // The strongest witness: matched ports make all views identical.
  bool loop = false;
  for (int i = 0; i < nbhd.num_views(); ++i) {
    loop = loop || nbhd.graph().has_edge(i, i);
  }
  std::printf("self-loop view present: %s (two adjacent nodes can share "
              "one view)\n", loop ? "yes" : "no");

  const auto c5 = check_strong_soundness_exhaustive(
      lcp, Instance::canonical(make_cycle(5)));
  SHLCP_CHECK_MSG(c5.ok, c5.failure);
  std::printf("strong soundness on C5: OK over %llu labelings (full "
              "16-certificate alphabet)\n",
              static_cast<unsigned long long>(c5.cases));
  std::printf("certificate size: 6 bits (constant)\n\n");

  Json& witness = report.add_case("fig6_witness");
  witness["instances"] = static_cast<std::uint64_t>(witnesses.size());
  witness["views"] = static_cast<std::int64_t>(nbhd.num_views());
  witness["edges"] = static_cast<std::int64_t>(nbhd.num_edges());
  witness["odd_cycle_len"] = static_cast<std::uint64_t>(cycle->size() - 1);
  witness["self_loop"] = loop;
  Json& soundness = report.add_case("c5_exhaustive");
  soundness["labelings"] = c5.cases;
  soundness["certificate_bits"] = std::int64_t{6};
}

void BM_Decoder(benchmark::State& state) {
  const EvenCycleLcp lcp;
  const Graph g = make_cycle(static_cast<int>(state.range(0)));
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lcp.decoder().run(inst));
  }
  state.counters["nodes"] = g.num_nodes();
}
BENCHMARK(BM_Decoder)->Arg(8)->Arg(64)->Arg(512);

void BM_Prover(benchmark::State& state) {
  const EvenCycleLcp lcp;
  const Graph g = make_cycle(static_cast<int>(state.range(0)));
  const Instance inst = Instance::canonical(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lcp.prove(g, inst.ports, inst.ids));
  }
}
BENCHMARK(BM_Prover)->Arg(8)->Arg(64)->Arg(512);

void BM_StrongSoundnessC4(benchmark::State& state) {
  const EvenCycleLcp lcp;
  const Instance inst = Instance::canonical(make_cycle(4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_strong_soundness_exhaustive(lcp, inst));
  }
  state.counters["labelings"] = 65536;
}
BENCHMARK(BM_StrongSoundnessC4);

}  // namespace
}  // namespace shlcp

int main(int argc, char** argv) {
  shlcp::bench::Report report("even_cycle");
  shlcp::print_replay(report);
  report.write();
  return shlcp::bench::run_benchmarks(argc, argv);
}

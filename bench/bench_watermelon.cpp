// Experiment E7 (Theorem 1.4, Section 7.2): the watermelon LCP.
//
// Regenerates: (a) the Section 7.2 hiding witness (8-path under two
// identifier assignments) as an odd cycle of V(D, 8); (b) the O(log n)
// certificate-size curve; (c) the far-port reality check finding: the
// literal condition-3(c) reading accepts an all-identical-certificate odd
// cycle that the standard decoder rejects. Then times prover/decoder and
// the watermelon recognizer.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/report.h"
#include "certify/watermelon.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "nbhd/aviews.h"
#include "nbhd/witness.h"
#include "util/check.h"
#include "util/format.h"

namespace shlcp {
namespace {

void print_replay(bench::Report& report) {
  std::printf("=== E7: watermelon LCP (Theorem 1.4, Section 7.2) ===\n");

  const WatermelonLcp lcp;
  const auto witnesses = watermelon_witnesses();
  const auto nbhd =
      build(BuildSource::instances(lcp.decoder(), witnesses, 2), one_thread())
          .take();
  const auto cycle = nbhd.odd_cycle();
  SHLCP_CHECK(cycle.has_value());
  std::printf("8-path witness family (id orders x ports x phases = %zu "
              "instances): odd cycle length %zu in V(D,8) => HIDING\n",
              witnesses.size(), cycle->size() - 1);
  Json& witness = report.add_case("hiding_witness");
  witness["instances"] = static_cast<std::uint64_t>(witnesses.size());
  witness["odd_cycle_len"] = static_cast<std::uint64_t>(cycle->size() - 1);

  std::printf("\ncertificate bits vs n (path watermelons):\n%6s %8s\n", "n",
              "bits");
  for (int n : {8, 16, 32, 64, 128, 256}) {
    const Graph g = make_path(n);
    Instance inst = Instance::canonical(g);
    const auto labels = lcp.prove(g, inst.ports, inst.ids);
    SHLCP_CHECK(labels.has_value());
    std::printf("%6d %8d\n", n, labels->max_bits());
    Json& values = report.add_case(format("certificate_curve/n%d", n));
    values["nodes"] = static_cast<std::int64_t>(n);
    values["bits"] = static_cast<std::int64_t>(labels->max_bits());
  }

  // Far-port reality check finding.
  Graph g = make_cycle(5);
  std::vector<std::vector<Port>> lists(5);
  for (Node v = 0; v < 5; ++v) {
    const Node next = (v + 1) % 5;
    const auto nb = g.neighbors(v);
    lists[static_cast<std::size_t>(v)] = {nb[0] == next ? 1 : 2,
                                          nb[1] == next ? 1 : 2};
  }
  Instance inst;
  inst.g = g;
  inst.ports = PortAssignment::from_lists(g, std::move(lists));
  inst.ids = IdAssignment::consecutive(g);
  Labeling labels(5);
  for (Node v = 0; v < 5; ++v) {
    labels.at(v) = make_watermelon_type2(1, 99, 1, 1, 0, 2, 1, 99, 2);
  }
  inst.labels = std::move(labels);
  const WatermelonLcp cheat(WatermelonVariant::kNoPortCheck);
  const WatermelonLcp standard(WatermelonVariant::kStandard);
  std::printf("\nREPRODUCTION FINDING: literal condition 3(c) (no far-port "
              "reality check) on C5 with one uniform certificate: accepts "
              "all 5 nodes: %s => strong soundness VIOLATED\n",
              cheat.decoder().accepts_all(inst) ? "yes" : "no");
  SHLCP_CHECK(cheat.decoder().accepts_all(inst));
  SHLCP_CHECK(!standard.decoder().accepts_all(inst));
  std::printf("standard decoder (far ports checked against the visible "
              "reality): every node rejects => repair holds\n\n");
  Json& finding = report.add_case("far_port_finding");
  finding["literal_accepts_all"] = true;
  finding["standard_accepts_all"] = false;
}

void BM_Prover(benchmark::State& state) {
  const WatermelonLcp lcp;
  const Graph g = make_watermelon(
      std::vector<int>(static_cast<std::size_t>(state.range(0)), 4));
  const Instance inst = Instance::canonical(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lcp.prove(g, inst.ports, inst.ids));
  }
  state.counters["nodes"] = g.num_nodes();
}
BENCHMARK(BM_Prover)->Arg(2)->Arg(8)->Arg(32);

void BM_Decoder(benchmark::State& state) {
  const WatermelonLcp lcp;
  const Graph g = make_watermelon(
      std::vector<int>(static_cast<std::size_t>(state.range(0)), 4));
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lcp.decoder().run(inst));
  }
}
BENCHMARK(BM_Decoder)->Arg(2)->Arg(8)->Arg(32);

void BM_Recognizer(benchmark::State& state) {
  const Graph g = make_watermelon(
      std::vector<int>(static_cast<std::size_t>(state.range(0)), 6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(watermelon_decomposition(g));
  }
}
BENCHMARK(BM_Recognizer)->Arg(2)->Arg(8)->Arg(32);

}  // namespace
}  // namespace shlcp

int main(int argc, char** argv) {
  shlcp::bench::Report report("watermelon");
  shlcp::print_replay(report);
  report.write();
  return shlcp::bench::run_benchmarks(argc, argv);
}

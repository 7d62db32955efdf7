// Experiments E14-E16: the library's extensions beyond the paper's
// headline results.
//
// E14 (quantified hiding, the paper's Section 1.1 future work): per-LCP
//     obstructed-node fractions and the chromatic threshold of V(D, n)
//     (which K-colorings stay hidden, per the Section 1.3 remark).
// E15 (the known bipartiteness certificate): the spanning-BFS distance
//     labeling -- strong, O(log n) bits, and maximally revealing; the
//     contrast that motivates the whole paper.
// E16 (resilience ablation, Section 1.2 / [FOS22]): none of the hiding
//     LCPs tolerates even a single erased certificate -- resilience
//     constrains completeness, strong soundness constrains acceptance,
//     and the two pull apart.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/report.h"
#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/revealing.h"
#include "certify/spanning_bfs.h"
#include "graph/generators.h"
#include "lcp/checker.h"
#include "nbhd/aviews.h"
#include "nbhd/quantified.h"
#include "nbhd/witness.h"
#include "util/check.h"
#include "util/format.h"

namespace shlcp {
namespace {

std::vector<Graph> promise_family(const Lcp& lcp, int max_n) {
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

void print_e14(bench::Report& report) {
  std::printf("=== E14: quantified hiding & chromatic thresholds ===\n");
  std::printf("%-12s %18s %16s %16s\n", "decoder", "chrom. threshold",
              "component-bound", "self-conflict");

  {
    const RevealingLcp lcp(2);
    const auto nbhd =
        build(BuildSource::exhaustive(lcp, promise_family(lcp, 4)),
              one_thread())
            .take();
    const Graph g = make_path(4);
    Instance inst = Instance::canonical(g);
    inst.labels = *lcp.prove(g, inst.ports, inst.ids);
    const auto thr = chromatic_threshold(nbhd, 6);
    const double hidden = hidden_fraction(nbhd, lcp.decoder(), inst);
    const double self =
        self_conflicting_fraction(nbhd, lcp.decoder(), inst);
    std::printf("%-12s %18d %16.2f %16.2f\n", "revealing", *thr, hidden,
                self);
    Json& values = report.add_case("e14/revealing");
    values["chromatic_threshold"] = static_cast<std::int64_t>(*thr);
    values["hidden_fraction"] = hidden;
    values["self_conflicting_fraction"] = self;
  }
  {
    const DegreeOneLcp lcp;
    const auto nbhd =
        build(BuildSource::instances(lcp.decoder(), degree_one_witnesses(4), 2),
              one_thread())
            .take();
    const Graph g = make_path(4);
    Instance inst = Instance::canonical(g);
    inst.labels = degree_one_labeling(g, 0);
    const auto thr = chromatic_threshold(nbhd, 8);
    const double hidden = hidden_fraction(nbhd, lcp.decoder(), inst);
    const double self =
        self_conflicting_fraction(nbhd, lcp.decoder(), inst);
    std::printf("%-12s %18d %16.2f %16.2f   (hides somewhere, not "
                "everywhere)\n",
                "degree-one", thr.value_or(-1), hidden, self);
    Json& values = report.add_case("e14/degree_one");
    values["chromatic_threshold"] =
        static_cast<std::int64_t>(thr.value_or(-1));
    values["hidden_fraction"] = hidden;
    values["self_conflicting_fraction"] = self;
  }
  {
    const EvenCycleLcp lcp;
    // Matched-port C4: the loop witness obstructs everything.
    const Graph g = make_cycle(4);
    std::vector<std::vector<Port>> lists(4);
    lists[0] = {1, 2};
    lists[1] = {1, 2};
    lists[2] = {2, 1};
    lists[3] = {2, 1};
    Instance inst;
    inst.g = g;
    inst.ports = PortAssignment::from_lists(g, std::move(lists));
    inst.ids = IdAssignment::consecutive(g);
    Labeling labels(4);
    for (Node v = 0; v < 4; ++v) {
      labels.at(v) = make_even_cycle_certificate(1, 0, 2, 1);
    }
    inst.labels = std::move(labels);
    auto nbhd =
        build(BuildSource::instances(lcp.decoder(), {inst}, 2), one_thread())
            .take();
    const auto thr = chromatic_threshold(nbhd, 8);
    const double hidden = hidden_fraction(nbhd, lcp.decoder(), inst);
    const double self =
        self_conflicting_fraction(nbhd, lcp.decoder(), inst);
    std::printf("%-12s %18s %16.2f %16.2f   (hides everywhere, every K)\n",
                "even-cycle", thr.has_value() ? "finite" : "none (loop)",
                hidden, self);
    Json& values = report.add_case("e14/even_cycle");
    values["chromatic_threshold_exists"] = thr.has_value();
    values["hidden_fraction"] = hidden;
    values["self_conflicting_fraction"] = self;
  }
  std::printf("\n");
}

void print_e15(bench::Report& report) {
  std::printf("=== E15: spanning-BFS distance labeling (the revealing "
              "bipartiteness certificate) ===\n");
  const SpanningBfsLcp lcp;
  const auto nbhd =
      build(BuildSource::exhaustive(lcp, promise_family(lcp, 3)), one_thread())
          .take();
  SHLCP_CHECK(nbhd.k_colorable(2));
  std::printf("V(D, 3) (exhaustive): %d views, 2-colorable => NOT hiding "
              "(distance parity is the coloring)\n",
              nbhd.num_views());
  Json& values = report.add_case("e15/spanning_bfs");
  values["views"] = static_cast<std::int64_t>(nbhd.num_views());
  values["two_colorable"] = true;
  std::printf("certificate bits vs n: ");
  for (int n : {8, 32, 128}) {
    const Graph g = make_path(n);
    Instance inst = Instance::canonical(g);
    const int bits = lcp.prove(g, inst.ports, inst.ids)->max_bits();
    std::printf("n=%d:%db  ", n, bits);
    values[format("bits_n%d", n)] = static_cast<std::int64_t>(bits);
  }
  std::printf("\nstrong: exhaustive sweep on all <=4-node graphs passed "
              "(see extensions_test)\n\n");
}

void print_e16(bench::Report& report) {
  std::printf("=== E16: erasure resilience ablation ([FOS22] contrast) "
              "===\n");
  std::printf("%-14s %-10s %3s %10s %12s %16s\n", "decoder", "instance", "f",
              "patterns", "survive", "mean rejections");
  const DegreeOneLcp degree_one;
  const EvenCycleLcp even_cycle;
  const SpanningBfsLcp spanning;
  struct Case {
    const Lcp* lcp;
    const char* name;
    Graph g;
  };
  for (const Case& c : {Case{&degree_one, "degree-one", make_path(8)},
                        Case{&even_cycle, "even-cycle", make_cycle(8)},
                        Case{&spanning, "spanning-bfs", make_grid(2, 4)}}) {
    for (int f = 1; f <= 2; ++f) {
      const auto erasure =
          check_erasure_completeness(*c.lcp, Instance::canonical(c.g), f);
      std::printf("%-14s %-10s %3d %10llu %12llu %16.2f\n", c.name,
                  "n=8", f,
                  static_cast<unsigned long long>(erasure.patterns),
                  static_cast<unsigned long long>(erasure.still_accepted),
                  erasure.mean_rejections);
      Json& values = report.add_case(format("e16/%s/f%d", c.name, f));
      values["erasures"] = static_cast<std::int64_t>(f);
      values["patterns"] = erasure.patterns;
      values["still_accepted"] = erasure.still_accepted;
      values["mean_rejections"] = erasure.mean_rejections;
    }
  }
  std::printf("no scheme survives a single erasure: resilient labeling "
              "demands completeness slack that strong soundness removes\n\n");
}

void BM_HiddenFraction(benchmark::State& state) {
  const DegreeOneLcp lcp;
  const auto nbhd =
      build(BuildSource::instances(lcp.decoder(), degree_one_witnesses(4), 2),
            one_thread())
          .take();
  const Graph g = make_path(4);
  Instance inst = Instance::canonical(g);
  inst.labels = degree_one_labeling(g, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hidden_fraction(nbhd, lcp.decoder(), inst));
  }
}
BENCHMARK(BM_HiddenFraction);

void BM_SpanningBfsVerify(benchmark::State& state) {
  const SpanningBfsLcp lcp;
  const Graph g = make_path(static_cast<int>(state.range(0)));
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lcp.decoder().run(inst));
  }
}
BENCHMARK(BM_SpanningBfsVerify)->Arg(64)->Arg(256);

void BM_ErasureSweep(benchmark::State& state) {
  const EvenCycleLcp lcp;
  const Instance inst = Instance::canonical(make_cycle(8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_erasure_completeness(lcp, inst, 2));
  }
}
BENCHMARK(BM_ErasureSweep);

}  // namespace
}  // namespace shlcp

int main(int argc, char** argv) {
  shlcp::bench::Report report("extensions");
  shlcp::print_e14(report);
  shlcp::print_e15(report);
  shlcp::print_e16(report);
  report.write();
  return shlcp::bench::run_benchmarks(argc, argv);
}

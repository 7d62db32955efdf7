// Experiment E6 (Theorem 1.3, Section 7.1): the shatter-point LCP.
//
// Regenerates: (a) the P1/P2 hiding witness odd cycle; (b) the
// certificate-size curve against the O(min{Delta^2, n} + log n) bound
// over spiders with growing component counts; (c) THE REPRODUCTION
// FINDING -- the literal brief-announcement decoder accepts a full odd
// cycle on C5-plus-claimants while the vector-on-point repair rejects it.
// Then times prover/decoder.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/report.h"
#include "certify/shatter.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "nbhd/aviews.h"
#include "nbhd/witness.h"
#include "util/check.h"
#include "util/format.h"

namespace shlcp {
namespace {

Graph spider(int legs, int leg_len) {
  Graph g(1);
  for (int i = 0; i < legs; ++i) {
    Node prev = 0;
    for (int j = 0; j < leg_len; ++j) {
      const Node next = g.add_node();
      g.add_edge(prev, next);
      prev = next;
    }
  }
  return g;
}

void print_replay(bench::Report& report) {
  std::printf("=== E6: shatter-point LCP (Theorem 1.3, Section 7.1) ===\n");

  // (a) Hiding witness (both layouts).
  for (const bool on_point : {false, true}) {
    const ShatterLcp lcp(on_point ? ShatterVariant::kVectorOnPoint
                                  : ShatterVariant::kLiteral);
    const auto witnesses = shatter_witnesses(on_point);
    const auto nbhd =
        build(BuildSource::instances(lcp.decoder(), witnesses, 2), one_thread())
            .take();
    const auto cycle = nbhd.odd_cycle();
    SHLCP_CHECK(cycle.has_value());
    std::printf("P1/P2 witness (%s layout): odd cycle length %zu in "
                "V(D,8) => HIDING\n",
                on_point ? "vector-on-point" : "literal", cycle->size() - 1);
    Json& values = report.add_case(format(
        "hiding_witness_%s", on_point ? "vector_on_point" : "literal"));
    values["odd_cycle_len"] = static_cast<std::uint64_t>(cycle->size() - 1);
  }

  // (b) Certificate-size curve.
  std::printf("\ncertificate bits vs component count k (spider with k "
              "legs of length 2):\n%6s %6s %8s\n", "k", "n", "bits");
  const ShatterLcp lcp;
  for (int k : {2, 4, 8, 16, 32}) {
    const Graph g = spider(k, 2);
    Instance inst = Instance::canonical(g);
    const auto labels = lcp.prove(g, inst.ports, inst.ids);
    SHLCP_CHECK(labels.has_value());
    std::printf("%6d %6d %8d\n", k, g.num_nodes(), labels->max_bits());
    Json& values = report.add_case(format("certificate_curve/k%d", k));
    values["components"] = static_cast<std::int64_t>(k);
    values["nodes"] = static_cast<std::int64_t>(g.num_nodes());
    values["bits"] = static_cast<std::int64_t>(labels->max_bits());
  }

  // (c) The literal decoder's strong-soundness violation.
  Graph g(7);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 0);
  g.add_edge(1, 5);
  g.add_edge(4, 6);
  Instance inst = Instance::canonical(g);
  const Ident claimed = inst.ids.id_of(5);
  const Ident bound = inst.ids.bound();
  Labeling labels(7);
  labels.at(1) = make_shatter_type1(claimed, {0, 1}, bound);
  labels.at(4) = make_shatter_type1(claimed, {0, 0}, bound);
  labels.at(0) = make_shatter_type2(claimed, 1, 0, bound, 2);
  labels.at(2) = make_shatter_type2(claimed, 2, 1, bound, 2);
  labels.at(3) = make_shatter_type2(claimed, 2, 0, bound, 2);
  labels.at(5) = make_shatter_type0(claimed, {}, bound);
  labels.at(6) = make_shatter_type0(claimed, {}, bound);
  inst.labels = std::move(labels);
  const ShatterLcp literal(ShatterVariant::kLiteral);
  const auto acc = literal.decoder().accepting_set(inst);
  const bool violated = !is_bipartite(inst.g.induced_subgraph(acc));
  std::printf("\nREPRODUCTION FINDING: literal decoder on C5+claimants "
              "accepts %zu/7 nodes; accepting set bipartite: %s => strong "
              "soundness %s\n",
              acc.size(), violated ? "NO" : "yes",
              violated ? "VIOLATED" : "holds");
  SHLCP_CHECK(violated);
  Json& finding = report.add_case("literal_violation");
  finding["accepting_nodes"] = static_cast<std::uint64_t>(acc.size());
  finding["accepting_set_bipartite"] = !violated;

  const ShatterLcp fixed(ShatterVariant::kVectorOnPoint);
  Labeling repaired(7);
  repaired.at(1) = make_shatter_type1(claimed, {}, bound);
  repaired.at(4) = make_shatter_type1(claimed, {}, bound);
  repaired.at(0) = make_shatter_type2(claimed, 1, 0, bound, 2);
  repaired.at(2) = make_shatter_type2(claimed, 2, 1, bound, 2);
  repaired.at(3) = make_shatter_type2(claimed, 2, 0, bound, 2);
  repaired.at(5) = make_shatter_type0(claimed, {0, 1}, bound);
  repaired.at(6) = make_shatter_type0(claimed, {0, 0}, bound);
  const Instance inst2 = inst.with_labels(std::move(repaired));
  const auto acc2 = fixed.decoder().accepting_set(inst2);
  SHLCP_CHECK(is_bipartite(inst2.g.induced_subgraph(acc2)));
  std::printf("repaired (vector-on-point) decoder on the same attack: "
              "accepting set stays bipartite => repair holds\n\n");
  Json& repair = report.add_case("vector_on_point_repair");
  repair["accepting_nodes"] = static_cast<std::uint64_t>(acc2.size());
  repair["accepting_set_bipartite"] = true;
}

void BM_Prover(benchmark::State& state) {
  const ShatterLcp lcp;
  const Graph g = spider(static_cast<int>(state.range(0)), 2);
  const Instance inst = Instance::canonical(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lcp.prove(g, inst.ports, inst.ids));
  }
  state.counters["nodes"] = g.num_nodes();
}
BENCHMARK(BM_Prover)->Arg(4)->Arg(16)->Arg(64);

void BM_Decoder(benchmark::State& state) {
  const ShatterLcp lcp;
  const Graph g = spider(static_cast<int>(state.range(0)), 2);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lcp.decoder().run(inst));
  }
}
BENCHMARK(BM_Decoder)->Arg(4)->Arg(16)->Arg(64);

void BM_ShatterPointSearch(benchmark::State& state) {
  const Graph g = make_grid(static_cast<int>(state.range(0)),
                            static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(shatter_points(g));
  }
}
BENCHMARK(BM_ShatterPointSearch)->Arg(4)->Arg(6)->Arg(8);

}  // namespace
}  // namespace shlcp

int main(int argc, char** argv) {
  shlcp::bench::Report report("shatter");
  shlcp::print_replay(report);
  report.write();
  return shlcp::bench::run_benchmarks(argc, argv);
}

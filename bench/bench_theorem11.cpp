// Experiment E5 (Theorem 1.1): the union LCP over H1 (min degree 1) and
// H2 (even cycles).
//
// Regenerates the theorem's content as a checklist: anonymity, constant
// certificate size, completeness across both classes, strong soundness
// (exhaustive on C5 with the tagged 20-certificate alphabet), and hiding
// inherited from both components; then times the dispatcher overhead
// against the raw component decoders.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/report.h"
#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/union_lcp.h"
#include "graph/generators.h"
#include "lcp/checker.h"
#include "nbhd/aviews.h"
#include "nbhd/witness.h"
#include "util/check.h"
#include "util/format.h"

namespace shlcp {
namespace {

const DegreeOneLcp g_deg1;
const EvenCycleLcp g_cycle;

std::vector<Instance> tagged(std::vector<Instance> instances, int tag) {
  for (Instance& inst : instances) {
    Labeling labels(inst.num_nodes());
    for (Node v = 0; v < inst.num_nodes(); ++v) {
      labels.at(v) = tag_certificate(tag, inst.labels.at(v), 2);
    }
    inst.labels = std::move(labels);
  }
  return instances;
}

void print_replay(bench::Report& report) {
  const UnionLcp lcp({&g_deg1, &g_cycle});
  std::printf("=== E5: Theorem 1.1 (union of H1 and H2) ===\n");
  std::printf("decoder: %s, anonymous=%d, radius=%d\n", lcp.name().c_str(),
              lcp.decoder().anonymous() ? 1 : 0, lcp.decoder().radius());

  int complete = 0;
  for (const Graph& g : {make_path(9), make_star(5), make_cycle(6),
                         make_cycle(10), make_double_broom(4, 2, 3)}) {
    SHLCP_CHECK(check_completeness(lcp, Instance::canonical(g)).ok);
    ++complete;
  }
  std::printf("completeness: OK on %d representatives of H1 u H2\n",
              complete);
  report.add_case("completeness")["representatives"] =
      static_cast<std::int64_t>(complete);

  const auto c5 = check_strong_soundness_exhaustive(
      lcp, Instance::canonical(make_cycle(5)), 5'000'000);
  SHLCP_CHECK_MSG(c5.ok, c5.failure);
  std::printf("strong soundness on C5: OK over %llu labelings "
              "(20-certificate tagged alphabet)\n",
              static_cast<unsigned long long>(c5.cases));
  report.add_case("c5_exhaustive")["labelings"] = c5.cases;

  for (int tag = 0; tag <= 1; ++tag) {
    const auto witnesses =
        tag == 0 ? tagged(degree_one_witnesses(4), 0)
                 : tagged(even_cycle_witnesses(6), 1);
    const auto nbhd =
        build(BuildSource::instances(lcp.decoder(), witnesses, 2), one_thread())
            .take();
    const auto cycle = nbhd.odd_cycle();
    SHLCP_CHECK(cycle.has_value());
    std::printf("hiding witness via component %d (%s): odd cycle length "
                "%zu\n",
                tag, tag == 0 ? "degree-one" : "even-cycle",
                cycle->size() - 1);
    Json& values = report.add_case(format(
        "hiding_witness_%s", tag == 0 ? "degree_one" : "even_cycle"));
    values["odd_cycle_len"] = static_cast<std::uint64_t>(cycle->size() - 1);
  }
  const Graph sample = make_cycle(12);
  Instance inst = Instance::canonical(sample);
  const int c12_bits = lcp.prove(sample, inst.ports, inst.ids)->max_bits();
  std::printf("certificate size on C12: %d bits (constant: max component "
              "size + 1 tag bit)\n\n",
              c12_bits);
  report.add_case("c12_certificate")["bits"] =
      static_cast<std::int64_t>(c12_bits);
}

void BM_UnionDecoder(benchmark::State& state) {
  const UnionLcp lcp({&g_deg1, &g_cycle});
  const Graph g = make_cycle(static_cast<int>(state.range(0)));
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lcp.decoder().run(inst));
  }
}
BENCHMARK(BM_UnionDecoder)->Arg(16)->Arg(128);

void BM_RawComponentDecoder(benchmark::State& state) {
  const Graph g = make_cycle(static_cast<int>(state.range(0)));
  Instance inst = Instance::canonical(g);
  inst.labels = *g_cycle.prove(g, inst.ports, inst.ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_cycle.decoder().run(inst));
  }
}
BENCHMARK(BM_RawComponentDecoder)->Arg(16)->Arg(128);

}  // namespace
}  // namespace shlcp

int main(int argc, char** argv) {
  shlcp::bench::Report report("theorem11");
  shlcp::print_replay(report);
  report.write();
  return shlcp::bench::run_benchmarks(argc, argv);
}

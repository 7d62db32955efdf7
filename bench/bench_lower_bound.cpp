// Experiment E10 (Section 5, Theorem 1.5): the impossibility engine.
//
// Regenerates, end to end, the odd-cycle -> realization -> G_bad pipeline
// against a hiding-but-not-strong decoder (the no-port-check watermelon
// variant), and shows the two honest strong LCPs dying at the realization
// step -- the mechanical content of "strong + hiding is impossible ...
// unless the class escapes the hypotheses". Also regenerates the
// Lemma 5.4 forgetting-detour construction (Fig. 8) on a torus and
// counts its ingredients. Then times pipeline stages.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/report.h"
#include "certify/shatter.h"
#include "certify/watermelon.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "lower/pipeline.h"
#include "lower/realize.h"
#include "lower/surgery.h"
#include "lower/walks.h"
#include "nbhd/aviews.h"
#include "nbhd/witness.h"
#include "util/check.h"

namespace shlcp {
namespace {

void print_replay(bench::Report& report) {
  std::printf("=== E10: Theorem 1.5 pipeline (Section 5) ===\n");

  {
    const WatermelonLcp cheat(WatermelonVariant::kNoPortCheck);
    const auto result = run_theorem15_pipeline(
        cheat.decoder(), no_port_check_witnesses(), 99);
    SHLCP_CHECK(result.strong_soundness_violated);
    std::printf("[cheating decoder: watermelon without far-port checks]\n");
    std::printf("  V subgraph: %d views / %d edges; odd closed walk of %zu "
                "edges\n",
                result.nbhd.num_views(), result.nbhd.num_edges(),
                result.odd_cycle.size() - 1);
    std::printf("  Lemma 5.1 merge -> G_bad with %d nodes / %d edges; all "
                "cycle views verified accepted; accepting set induces an "
                "ODD cycle => STRONG SOUNDNESS VIOLATED (pipeline "
                "complete)\n",
                result.g_bad.num_nodes(), result.g_bad.g.num_edges());
    Json& values = report.add_case("cheating_watermelon");
    values["views"] = static_cast<std::int64_t>(result.nbhd.num_views());
    values["edges"] = static_cast<std::int64_t>(result.nbhd.num_edges());
    values["odd_walk_edges"] =
        static_cast<std::uint64_t>(result.odd_cycle.size() - 1);
    values["g_bad_nodes"] =
        static_cast<std::int64_t>(result.g_bad.num_nodes());
    values["g_bad_edges"] =
        static_cast<std::int64_t>(result.g_bad.g.num_edges());
    values["strong_soundness_violated"] = true;
  }
  {
    const WatermelonLcp standard(WatermelonVariant::kStandard);
    const auto result = run_theorem15_pipeline(standard.decoder(),
                                               watermelon_witnesses(), 99);
    SHLCP_CHECK(result.hiding_witness_found);
    SHLCP_CHECK(!result.strong_soundness_violated);
    std::printf("[honest watermelon decoder]\n");
    std::printf("  odd cycle exists (hiding) but NO candidate walk "
                "realizes; first conflict: %s\n",
                result.realize_conflict.substr(0, 100).c_str());
    Json& values = report.add_case("honest_watermelon");
    values["hiding_witness_found"] = true;
    values["strong_soundness_violated"] = false;
  }
  {
    const ShatterLcp shatter(ShatterVariant::kVectorOnPoint);
    const auto result = run_theorem15_pipeline(
        shatter.decoder(), shatter_witnesses(true), 8);
    SHLCP_CHECK(result.hiding_witness_found);
    SHLCP_CHECK(!result.strong_soundness_violated);
    std::printf("[repaired shatter decoder]\n");
    std::printf("  odd cycle exists (hiding) but realization fails => "
                "strong soundness survives the pipeline\n");
    Json& values = report.add_case("repaired_shatter");
    values["hiding_witness_found"] = true;
    values["strong_soundness_violated"] = false;
  }

  // The COMPLETE Section 5 engine (Lemmas 5.4 -> 5.2/5.3 -> 5.1) on
  // 1-forgetful C8 hosts.
  {
    const WatermelonLcp cheat(WatermelonVariant::kNoPortCheck);
    const auto instances = no_port_check_c8_witnesses();
    // The witness build runs on the pool (identical to a sequential
    // absorb; threads from SHLCP_NUM_THREADS / hardware).
    const NbhdGraph nbhd =
        build(BuildSource::instances(cheat.decoder(), instances, 2),
              ParallelEnumOptions{})
            .take();
    const auto cycle = nbhd.odd_cycle();
    SHLCP_CHECK(cycle.has_value());
    const auto expanded = expand_odd_cycle(nbhd, instances, *cycle, 1);
    SHLCP_CHECK_MSG(expanded.ok, expanded.failure);
    SHLCP_CHECK(check_walk_id_consistency(expanded.walk).empty());
    Ident new_bound = 0;
    const auto separated = separate_id_components(expanded.walk, &new_bound);
    const MergeResult merged = merge_views_by_id(separated, new_bound);
    SHLCP_CHECK_MSG(merged.ok, merged.conflict);
    const auto verify =
        verify_realization(cheat.decoder(), merged.instance, separated);
    SHLCP_CHECK_MSG(verify.ok, verify.failure);
    const auto acc = cheat.decoder().accepting_set(merged.instance);
    SHLCP_CHECK(!is_bipartite(merged.instance.g.induced_subgraph(acc)));
    std::printf("[full Section 5 surgery on 1-forgetful C8 hosts]\n");
    std::printf("  odd cycle (%zu edges) -> %d detours spliced -> walk of "
                "%zu views, id-consistent -> Lemma 5.2 separation (N' = %d) "
                "-> G_bad with %d nodes, violation verified\n",
                cycle->size() - 1, expanded.detours, expanded.walk.size(),
                new_bound, merged.instance.num_nodes());
    Json& values = report.add_case("c8_full_surgery");
    values["odd_cycle_edges"] =
        static_cast<std::uint64_t>(cycle->size() - 1);
    values["detours"] = static_cast<std::int64_t>(expanded.detours);
    values["walk_views"] = static_cast<std::uint64_t>(expanded.walk.size());
    values["id_bound"] = static_cast<std::int64_t>(new_bound);
    values["g_bad_nodes"] =
        static_cast<std::int64_t>(merged.instance.num_nodes());
  }

  // Lemma 5.4 / Fig. 8: the forgetting detour on a 1-forgetful host.
  const Graph torus = make_torus(6, 6);
  SHLCP_CHECK(is_r_forgetful(torus, 1));
  const Instance inst = Instance::canonical(torus);
  int detours = 0;
  std::size_t total_len = 0;
  for (const Edge& e : torus.edges()) {
    const auto detour = forgetting_detour(inst, e.u, e.v, 1);
    if (detour.has_value()) {
      ++detours;
      total_len += detour->size() - 1;
    }
  }
  std::printf("[Lemma 5.4 / Fig. 8 on the 6x6 torus, r = 1]\n");
  std::printf("  forgetting detours built for %d/%d edges, average length "
              "%.1f (all even, non-backtracking, reaching a view-disjoint "
              "node)\n\n",
              detours, torus.num_edges(),
              static_cast<double>(total_len) / detours);
  Json& values = report.add_case("torus6x6_forgetting_detours");
  values["detours"] = static_cast<std::int64_t>(detours);
  values["edges"] = static_cast<std::int64_t>(torus.num_edges());
  values["mean_length"] = static_cast<double>(total_len) / detours;
}

void BM_FullPipelineCheat(benchmark::State& state) {
  const WatermelonLcp cheat(WatermelonVariant::kNoPortCheck);
  const auto witnesses = no_port_check_witnesses();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_theorem15_pipeline(cheat.decoder(), witnesses, 99));
  }
}
BENCHMARK(BM_FullPipelineCheat);

void BM_MergeViews(benchmark::State& state) {
  Rng rng(7);
  Instance inst = Instance::canonical(make_torus(6, 6));
  std::vector<View> views;
  for (Node v = 0; v < inst.num_nodes(); ++v) {
    views.push_back(inst.view_of(v, 1, false));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(merge_views_by_id(views, inst.ids.bound()));
  }
  state.counters["views"] = static_cast<double>(views.size());
}
BENCHMARK(BM_MergeViews);

void BM_ForgettingDetour(benchmark::State& state) {
  const Instance inst = Instance::canonical(
      make_torus(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(forgetting_detour(inst, 0, 1, 1));
  }
}
BENCHMARK(BM_ForgettingDetour)->Arg(6)->Arg(8)->Arg(10);

}  // namespace
}  // namespace shlcp

int main(int argc, char** argv) {
  shlcp::bench::Report report("lower_bound");
  shlcp::print_replay(report);
  report.write();
  return shlcp::bench::run_benchmarks(argc, argv);
}

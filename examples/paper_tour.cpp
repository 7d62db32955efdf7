// Paper tour: every theorem of the paper, demonstrated in order.
//
// A narrated end-to-end run intended as the "reproduce the paper in one
// command" entry point; each section prints the claim and the mechanical
// evidence. (The bench binaries produce the same artifacts with more
// detail and with timings; see EXPERIMENTS.md.)

#include <cstdio>

#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/shatter.h"
#include "certify/union_lcp.h"
#include "certify/watermelon.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "lcp/checker.h"
#include "lower/pipeline.h"
#include "lower/realize.h"
#include "lower/surgery.h"
#include "nbhd/aviews.h"
#include "nbhd/witness.h"
#include "util/rng.h"

using namespace shlcp;

namespace {

void banner(const char* text) { std::printf("\n--- %s ---\n", text); }

bool hiding_via_witnesses(const Lcp& lcp, const std::vector<Instance>& w) {
  return build(BuildSource::instances(lcp.decoder(), w, 2), one_thread())
      .take()
      .odd_cycle()
      .has_value();
}

}  // namespace

int main() {
  std::printf("Strong and Hiding Distributed Certification of k-Coloring "
              "(PODC 2025): the tour\n");

  banner("Theorem 1.1 (anonymous, constant bits, H1 u H2)");
  {
    const DegreeOneLcp d1;
    const EvenCycleLcp ec;
    const UnionLcp both({&d1, &ec});
    Rng rng(1);
    bool complete = true;
    for (const Graph& g : {make_path(7), make_star(4), make_cycle(6),
                           make_cycle(10)}) {
      complete = complete &&
                 check_completeness(both, Instance::canonical(g)).ok;
    }
    bool strong = true;
    for (const Graph& g : {make_cycle(5), make_theta(2, 2, 3)}) {
      strong = strong && check_strong_soundness_random(
                             both, Instance::canonical(g), 500, rng)
                             .ok;
    }
    std::printf("complete on H1 u H2: %s | strong (sampled adversaries): %s "
                "| hiding: %s (degree-one witness) and %s (even-cycle "
                "witness)\n",
                complete ? "yes" : "NO", strong ? "yes" : "NO",
                hiding_via_witnesses(d1, degree_one_witnesses(4)) ? "yes"
                                                                  : "NO",
                hiding_via_witnesses(ec, even_cycle_witnesses(6)) ? "yes"
                                                                  : "NO");
  }

  banner("Theorem 1.3 (shatter points, O(min{D^2,n}+log n) bits)");
  {
    const ShatterLcp lcp;  // the repaired vector-on-point layout
    const bool complete =
        check_completeness(lcp, Instance::canonical(make_path(8))).ok;
    const bool hiding = hiding_via_witnesses(lcp, shatter_witnesses(true));
    std::printf("complete: %s | hiding via the P1/P2 instances: %s\n",
                complete ? "yes" : "NO", hiding ? "yes" : "NO");
    std::printf("(the brief announcement's literal decoder fails strong "
                "soundness; see adversarial_prover)\n");
  }

  banner("Theorem 1.4 (watermelons, O(log n) bits)");
  {
    const WatermelonLcp lcp;
    const Graph g = make_watermelon({2, 4, 4});
    const bool complete = check_completeness(lcp, Instance::canonical(g)).ok;
    const bool hiding = hiding_via_witnesses(lcp, watermelon_witnesses());
    std::printf("complete on {2,4,4}: %s | hiding via the two 8-path id "
                "orders: %s\n",
                complete ? "yes" : "NO", hiding ? "yes" : "NO");
  }

  banner("Theorem 1.2/1.5 (impossibility engine, Section 5)");
  {
    const WatermelonLcp cheat(WatermelonVariant::kNoPortCheck);
    const auto instances = no_port_check_c8_witnesses();
    NbhdGraph nbhd;
    for (const Instance& inst : instances) {
      nbhd.absorb(cheat.decoder(), inst, 2);
    }
    const auto cycle = nbhd.odd_cycle();
    const auto expanded = expand_odd_cycle(nbhd, instances, *cycle, 1);
    Ident bound = 0;
    const auto separated = separate_id_components(expanded.walk, &bound);
    const MergeResult merged = merge_views_by_id(separated, bound);
    const auto acc = cheat.decoder().accepting_set(merged.instance);
    const bool violated =
        !is_bipartite(merged.instance.g.induced_subgraph(acc));
    std::printf("cheating decoder (hiding but not strong): odd cycle of %zu "
                "edges -> surgery -> G_bad (%d nodes) -> violation: %s\n",
                cycle->size() - 1, merged.instance.num_nodes(),
                violated ? "CONFIRMED" : "no");

    const WatermelonLcp honest(WatermelonVariant::kStandard);
    const auto survive =
        run_theorem15_pipeline(honest.decoder(), watermelon_witnesses(), 99);
    std::printf("honest watermelon decoder: odd cycle exists but no walk "
                "realizes (first conflict: %s) -> strong soundness "
                "survives\n",
                survive.realize_conflict.substr(0, 60).c_str());
  }

  banner("Lemma 2.1 and the r-forgetful landscape");
  {
    std::printf("torus-6x6: 1-forgetful (diam 6 >= 3) | cycle-16: "
                "3-forgetful (diam 8 >= 7) | grid-5x5: NOT forgetful "
                "(corners) | every forgetful case satisfies diam >= 2r+1\n");
    SHLCP_CHECK(is_r_forgetful(make_torus(6, 6), 1));
    SHLCP_CHECK(is_r_forgetful(make_cycle(16), 3));
    SHLCP_CHECK(!is_r_forgetful(make_grid(5, 5), 1));
  }

  std::printf("\nTour complete; run ctest and the bench binaries for the "
              "exhaustive versions of each claim.\n");
  return 0;
}

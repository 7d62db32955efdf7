// Hiding witnesses: the paper's explicit constructions, generalized into
// small searchable families.
//
// Each hiding proof in the paper exhibits two (or more) small labeled
// yes-instances whose views interleave into an odd cycle of V(D, n):
//   - Figs. 3/4 (degree-one LCP, Lemma 4.1): min-degree-1 instances with
//     the hidden BOT node placed at different leaves;
//   - Figs. 5/6 (even-cycle LCP, Lemma 4.2): even cycles under different
//     port assignments / edge-coloring phases;
//   - Section 7.1 (shatter LCP, Theorem 1.3): the 8-node path P1 and its
//     7-node contraction P2, certified through the same shatter point
//     with different facing colors;
//   - Section 7.2 (watermelon LCP, Theorem 1.4): the 8-node path under
//     two identifier assignments (ids of the middle block reversed).
//
// The generators below produce the honestly-labeled instance families
// containing those constructions (all relevant placements / ports /
// coloring phases, each a handful of instances); feeding them to
// NbhdGraph and asking for an odd cycle mechanically reproduces each
// figure. The labeling helpers expose the prover's internal choices
// (hidden node, shatter point, coloring phase) that the paper's
// constructions vary.

#pragma once

#include <optional>
#include <vector>

#include "lcp/instance.h"
#include "nbhd/aviews.h"

namespace shlcp {

/// Honest degree-one labeling with a chosen hidden leaf. Requires g
/// bipartite, degree(hidden) == 1.
Labeling degree_one_labeling(const Graph& g, Node hidden);

/// Honest even-cycle labeling with a chosen phase: `first_color` is the
/// color of the edge {0, 1}. Requires g an even cycle.
Labeling even_cycle_labeling(const Graph& g, const PortAssignment& ports,
                             int first_color);

/// Honest shatter labeling with a chosen shatter point and per-component
/// coloring flips (bit i of flip_mask flips component i+1's 2-coloring).
/// `vector_on_point` selects the certificate layout (see certify/shatter.h).
Labeling shatter_labeling(const Graph& g, const IdAssignment& ids, Node point,
                          unsigned flip_mask, bool vector_on_point);

/// Honest watermelon labeling with a chosen phase: `first_color` colors
/// each path's edge at v1. Requires g a bipartite watermelon.
Labeling watermelon_labeling(const Graph& g, const PortAssignment& ports,
                             const IdAssignment& ids, int first_color);

/// Fig. 3 family: every bipartite min-degree-1 graph on <= `max_n` nodes
/// (paths, stars, brooms, all connected graphs when max_n <= 6), canonical
/// ports, every hidden-leaf placement.
std::vector<Instance> degree_one_witnesses(int max_n);

/// Figs. 5/6 family: cycles C4..C`max_n` (even), every port assignment,
/// both coloring phases.
std::vector<Instance> even_cycle_witnesses(int max_n);

/// Section 7.1 family: the paths P1 (8 nodes) and P2 (7 nodes), certified
/// through the middle shatter point, with every per-component flip.
/// `vector_on_point` selects the certificate layout.
std::vector<Instance> shatter_witnesses(bool vector_on_point);

/// Section 7.2 family: the 8-node path, identifier assignments {identity,
/// the paper's middle-block reversal, full reversal}, every interior port
/// assignment, both coloring phases.
std::vector<Instance> watermelon_witnesses();

/// Instances that defeat WatermelonVariant::kNoPortCheck (the literal
/// reading of condition 3(c) without the far-port reality check): even
/// cycles with cyclically oriented ports whose nodes all carry ONE
/// identical type-2 certificate with self-referential far-port claims.
/// Every node accepts, the instances are bipartite (so their views enter
/// V(D, n)), and the identifier windows are arranged so that V(D, n)
/// contains an odd cycle whose Lemma 5.1 merge realizes an odd 5-cycle
/// G_bad -- the full Theorem 1.5 pipeline runs to a verified
/// strong-soundness violation. The standard decoder rejects these
/// certificates, and the same pipeline on watermelon_witnesses() dies at
/// the realization step: that contrast is experiment E10.
std::vector<Instance> no_port_check_witnesses();

/// One building block of the above: the cycle on |ids_around| nodes with
/// cyclically oriented ports (port 1 to the successor) where every node
/// carries the same self-referential type-2 watermelon certificate, and
/// the i-th node takes identifier ids_around[i]. Unanimously accepted by
/// WatermelonVariant::kNoPortCheck; bipartite iff the length is even.
Instance uniform_cheat_cycle_instance(const std::vector<Ident>& ids_around);

/// A larger witness family for the Section 5 surgery demonstration: the
/// same identifier windows as no_port_check_witnesses, but realized on
/// C8 hosts -- which are 1-forgetful with far nodes, so Lemma 5.4's
/// forgetting detours exist for every edge of the resulting V(D, n).
std::vector<Instance> no_port_check_c8_witnesses();

}  // namespace shlcp

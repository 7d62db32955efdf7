// Watermelon tour: the Theorem 1.4 scheme on real watermelon graphs.
//
// Recognizes watermelon structure, prints the decomposition, certifies
// 2-colorability through 2-edge-colored paths with O(log n) certificates,
// and replays the Section 7.2 hiding witness: the same 8-path under two
// identifier assignments produces views that no extractor can split.

#include <cstdio>

#include "certify/watermelon.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "nbhd/aviews.h"
#include "nbhd/witness.h"

using namespace shlcp;

int main() {
  const Graph g = make_watermelon({2, 4, 4});
  std::printf("watermelon with path lengths {2, 4, 4}: %d nodes, "
              "bipartite (all lengths even)\n",
              g.num_nodes());
  const auto dec = watermelon_decomposition(g);
  std::printf("decomposition: endpoints %d and %d, %zu paths\n", dec->v1,
              dec->v2, dec->paths.size());
  for (std::size_t i = 0; i < dec->paths.size(); ++i) {
    std::printf("  path %zu:", i + 1);
    for (const Node v : dec->paths[i]) {
      std::printf(" %d", v);
    }
    std::printf("\n");
  }

  const WatermelonLcp lcp;
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  std::printf("\nhonest certificates: max %d bits; unanimous acceptance: "
              "%s\n",
              inst.labels.max_bits(),
              lcp.decoder().accepts_all(inst) ? "yes" : "no");

  // A non-bipartite watermelon is rejected by the prover but, more
  // importantly, no certificates whatsoever can make it accept on an odd
  // cycle (strong soundness).
  const Graph odd = make_watermelon({2, 3});
  std::printf("\nwatermelon {2, 3} (odd cycle): prover declines: %s\n",
              lcp.prove(odd, PortAssignment::canonical(odd),
                        IdAssignment::consecutive(odd))
                      .has_value()
                  ? "no"
                  : "yes");

  // Section 7.2 hiding witness.
  const auto witnesses = watermelon_witnesses();
  const auto nbhd =
      build(BuildSource::instances(lcp.decoder(), witnesses, 2), one_thread())
          .take();
  const auto cycle = nbhd.odd_cycle();
  std::printf("\nSection 7.2 witness (8-path, shuffled middle ids): odd "
              "cycle of %zu views in V(D, 8)\n",
              cycle->size() - 1);
  std::printf("=> hiding: the interior of a long path cannot tell which "
              "side of the 2-coloring it is on.\n");
  return 0;
}

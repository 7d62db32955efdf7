// Metrics dump: run a named experiment and print the process-wide
// metrics registry as a tree.
//
//   metrics_dump [enum|sim|audit|all]
//
// Each mode exercises one instrumented subsystem -- the Lemma 3.1
// enumeration, the synchronous message-passing engine, or the
// fault-injection audits -- then prints metrics::snapshot().pretty_tree()
// so the counter/gauge/histogram surface can be inspected without a
// bench harness. Set SHLCP_TRACE=<path> to also capture the JSONL trace
// of the same run.

#include <cstdio>
#include <cstring>

#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "graph/generators.h"
#include "lcp/audit.h"
#include "nbhd/aviews.h"
#include "sim/engine.h"
#include "util/metrics.h"

using namespace shlcp;

namespace {

void run_enum() {
  const DegreeOneLcp lcp;
  std::vector<Graph> graphs;
  for (int n = 2; n <= 4; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      if (lcp.in_promise(g)) {
        graphs.push_back(g);
      }
      return true;
    });
  }
  const auto nbhd =
      build(BuildSource::exhaustive(lcp, graphs), one_thread()).take();
  std::printf("enum: V(D,4) for degree-one built: %d views / %d edges\n",
              nbhd.num_views(), nbhd.num_edges());
}

void run_sim() {
  const EvenCycleLcp lcp;
  const Graph g = make_cycle(12);
  Instance inst = Instance::canonical(g);
  inst.labels = *lcp.prove(g, inst.ports, inst.ids);
  const auto verdicts = run_decoder_distributed(lcp.decoder(), inst);
  int accepted = 0;
  for (const bool b : verdicts) {
    accepted += b ? 1 : 0;
  }
  std::printf("sim: even-cycle on C12: %d/%d accept\n", accepted,
              g.num_nodes());
}

void run_audit() {
  const EvenCycleLcp lcp;
  const auto yes = audit_yes_instances(lcp, 1);
  const auto no = audit_no_instances(lcp.k(), 1);
  AuditOptions options;
  options.adversarial_labelings = 4;
  const auto report = audit_sweep(lcp, yes, no, options);
  std::printf("audit: even-cycle sweep %s (%zu findings)\n",
              report.ok ? "clean" : "FINDINGS", report.findings.size());
}

}  // namespace

int main(int argc, char** argv) {
  const char* mode = argc > 1 ? argv[1] : "all";
  const bool all = std::strcmp(mode, "all") == 0;
  bool ran = false;
  if (all || std::strcmp(mode, "enum") == 0) {
    run_enum();
    ran = true;
  }
  if (all || std::strcmp(mode, "sim") == 0) {
    run_sim();
    ran = true;
  }
  if (all || std::strcmp(mode, "audit") == 0) {
    run_audit();
    ran = true;
  }
  if (!ran) {
    std::fprintf(stderr, "usage: metrics_dump [enum|sim|audit|all]\n");
    return 2;
  }
  std::printf("\n--- metrics registry ---\n%s",
              metrics::snapshot().pretty_tree().c_str());
  return 0;
}

#include "lcp/audit.h"

#include <algorithm>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "lcp/checker.h"
#include "util/format.h"
#include "util/hash.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace shlcp {

namespace {

/// Nodes accepting in one faulty run, sorted.
std::vector<Node> accepting_nodes(const FaultyRunResult& res) {
  std::vector<Node> acc;
  for (std::size_t v = 0; v < res.verdicts.size(); ++v) {
    if (res.verdicts[v]) {
      acc.push_back(static_cast<Node>(v));
    }
  }
  return acc;
}

/// Every violated invariant flows through here: fails the report,
/// tallies audit.findings (total and per invariant) in the registry,
/// and emits a trace event carrying the full REPRO string so a trace
/// file alone is enough to replay the failure.
void record_finding(AuditReport& report, AuditFinding finding) {
  metrics::counter("audit.findings").inc();
  metrics::counter(std::string("audit.findings.") + finding.invariant).inc();
  trace::event("audit.finding", {{"invariant", finding.invariant},
                                 {"repro", finding.repro},
                                 {"detail", finding.detail}});
  report.ok = false;
  report.findings.push_back(std::move(finding));
}

/// Folds one audit function's tallies into the registry (the report
/// starts empty in each audit_* entry point, so these are deltas).
void publish_audit_tallies(const AuditReport& report) {
  metrics::counter("audit.runs").add(report.runs);
  metrics::counter("audit.runs.completeness").add(report.completeness_runs);
  metrics::counter("audit.runs.soundness").add(report.soundness_runs);
  metrics::counter("audit.verdicts.degraded").add(report.degraded_verdicts);
  metrics::counter("audit.rejections.attributed")
      .add(report.attributed_rejections);
}

/// Polls an optional cancel token; on a trip, marks `report` as a
/// partial result (explicit budget_exhausted verdict + counters/trace)
/// and returns true so the caller winds down its sweep loop.
bool audit_cancelled(const CancelToken* cancel, AuditReport& report) {
  if (cancel == nullptr || !cancel->stop_requested()) {
    return false;
  }
  if (!report.budget_exhausted) {
    report.budget_exhausted = true;
    report.stop_reason = to_string(cancel->reason());
    metrics::counter("audit.cancelled").inc();
    trace::event("audit.cancelled",
                 {{"reason", report.stop_reason},
                  {"runs", report.runs}});
  }
  return true;
}

}  // namespace

void AuditReport::merge(const AuditReport& other) {
  ok = ok && other.ok;
  runs += other.runs;
  completeness_runs += other.completeness_runs;
  soundness_runs += other.soundness_runs;
  degraded_verdicts += other.degraded_verdicts;
  attributed_rejections += other.attributed_rejections;
  if (other.budget_exhausted && !budget_exhausted) {
    budget_exhausted = true;
    stop_reason = other.stop_reason;
  }
  findings.insert(findings.end(), other.findings.begin(),
                  other.findings.end());
}

std::string AuditReport::summary() const {
  return format(
      "%s: %llu runs (%llu completeness, %llu soundness), %llu degraded "
      "verdicts, %llu attributed rejections, %d finding(s)%s",
      ok ? "OK" : "FAIL", static_cast<unsigned long long>(runs),
      static_cast<unsigned long long>(completeness_runs),
      static_cast<unsigned long long>(soundness_runs),
      static_cast<unsigned long long>(degraded_verdicts),
      static_cast<unsigned long long>(attributed_rejections),
      static_cast<int>(findings.size()),
      budget_exhausted
          ? format(" [PARTIAL: stopped early, reason=%s]", stop_reason.c_str())
                .c_str()
          : "");
}

AdversarialSampler::AdversarialSampler(const Lcp& lcp, const Instance& base)
    : num_nodes_(base.num_nodes()) {
  spaces_.reserve(static_cast<std::size_t>(num_nodes_));
  for (Node v = 0; v < num_nodes_; ++v) {
    spaces_.push_back(lcp.certificate_space(base.g, base.ids, v));
    SHLCP_CHECK_MSG(!spaces_.back().empty(),
                    "certificate space must be non-empty");
  }
  honest_ = lcp.prove(base.g, base.ports, base.ids);
}

Labeling AdversarialSampler::labeling(std::uint64_t seed) const {
  Rng rng(seed);
  const int n = num_nodes_;
  Labeling labels(n);
  const bool mutate_honest = honest_.has_value() && rng.next_coin();
  if (mutate_honest) {
    labels = *honest_;
    const int flips = rng.next_int(1, std::max(1, n / 2));
    for (int f = 0; f < flips; ++f) {
      const Node v =
          static_cast<Node>(rng.next_below(static_cast<std::uint64_t>(n)));
      const auto& space = spaces_[static_cast<std::size_t>(v)];
      labels.at(v) = space[rng.next_below(space.size())];
    }
  } else {
    for (Node v = 0; v < n; ++v) {
      const auto& space = spaces_[static_cast<std::size_t>(v)];
      labels.at(v) = space[rng.next_below(space.size())];
    }
  }
  return labels;
}

std::string make_repro(const std::string& lcp_name,
                       const std::string& instance_name,
                       const std::string& labels, const FaultPlan& plan) {
  return format("REPRO lcp=%s instance=%s labels=%s plan={%s}",
                lcp_name.c_str(), instance_name.c_str(), labels.c_str(),
                plan.describe().c_str());
}

FaultyRunResult replay_honest(const Lcp& lcp, const Instance& inst,
                              const FaultPlan& plan) {
  const auto honest = lcp.prove(inst.g, inst.ports, inst.ids);
  SHLCP_CHECK_MSG(honest.has_value(),
                  "honest replay needs a certifiable instance");
  return run_decoder_distributed_faulty(lcp.decoder(),
                                        inst.with_labels(*honest), plan);
}

FaultyRunResult replay_adversarial(const Lcp& lcp, const Instance& inst,
                                   std::uint64_t labeling_seed,
                                   const FaultPlan& plan) {
  const AdversarialSampler sampler(lcp, inst);
  return run_decoder_distributed_faulty(
      lcp.decoder(), inst.with_labels(sampler.labeling(labeling_seed)), plan);
}

AuditReport audit_completeness_under_faults(
    const Lcp& lcp, const NamedInstance& yes,
    const std::vector<FaultPlan>& plans, const CancelToken* cancel) {
  AuditReport report;
  trace::Span span("audit.completeness");
  span.note("lcp", lcp.name());
  span.note("instance", yes.name);
  const auto honest = lcp.prove(yes.inst.g, yes.inst.ports, yes.inst.ids);
  if (!honest.has_value()) {
    record_finding(report, AuditFinding{
        "completeness",
        make_repro(lcp.name(), yes.name, "honest", FaultPlan{}),
        format("prover declined promise instance %s (n=%d)", yes.name.c_str(),
               yes.inst.num_nodes())});
    return report;
  }
  const Instance labeled = yes.inst.with_labels(*honest);
  const int r = lcp.decoder().radius();
  // Ground truth for attribution: the direct view extraction (what a
  // fault-free gathered view provably equals, per tests/sim_test.cpp).
  std::vector<View> honest_views;
  honest_views.reserve(static_cast<std::size_t>(labeled.num_nodes()));
  for (Node v = 0; v < labeled.num_nodes(); ++v) {
    honest_views.push_back(labeled.view_of(v, r, false));
  }
  for (const FaultPlan& plan : plans) {
    if (audit_cancelled(cancel, report)) {
      break;
    }
    const FaultyRunResult res =
        run_decoder_distributed_faulty(lcp.decoder(), labeled, plan);
    report.runs += 1;
    report.completeness_runs += 1;
    const std::string repro = make_repro(lcp.name(), yes.name, "honest", plan);
    for (Node v = 0; v < labeled.num_nodes(); ++v) {
      const auto i = static_cast<std::size_t>(v);
      if (res.degraded[i]) {
        report.degraded_verdicts += 1;
        if (res.verdicts[i]) {
          record_finding(report, AuditFinding{
              "degraded-view", repro,
              format("node %d accepted despite degraded reconstruction", v)});
        }
      }
      if (res.verdicts[i]) {
        continue;
      }
      if (!plan.enabled()) {
        // Invariant 1: the installed hook must not perturb fault-free
        // completeness.
        record_finding(report, AuditFinding{
            "completeness", repro,
            format("node %d rejects honest certificates on the fault-free "
                   "channel",
                   v)});
        continue;
      }
      // Invariant 3 (attribution): a rejection under faults must trace to
      // degraded knowledge or a view that differs from the honest one.
      const bool attributed =
          res.degraded[i] || !res.views[i].has_value() ||
          !(*res.views[i] == honest_views[i]);
      if (attributed) {
        report.attributed_rejections += 1;
      } else {
        record_finding(report, AuditFinding{
            "attribution", repro,
            format("node %d rejected with a pristine honest view under plan "
                   "%s -- verdict flip has no attributable fault",
                   v, plan.label.c_str())});
      }
    }
  }
  publish_audit_tallies(report);
  return report;
}

AuditReport audit_soundness_under_faults(const Lcp& lcp,
                                         const NamedInstance& no,
                                         const std::vector<FaultPlan>& plans,
                                         const AuditOptions& options) {
  AuditReport report;
  trace::Span span("audit.soundness");
  span.note("lcp", lcp.name());
  span.note("instance", no.name);
  SHLCP_CHECK_MSG(!is_k_colorable(no.inst.g, lcp.k()),
                  "soundness audit expects a non-k-colorable no-instance");
  const AdversarialSampler sampler(lcp, no.inst);
  const std::uint64_t base =
      mix64(options.seed ^ fnv1a64(no.name) ^ fnv1a64(lcp.name()));
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const FaultPlan& plan = plans[p];
    if (audit_cancelled(options.cancel, report)) {
      break;
    }
    for (int s = 0; s < options.adversarial_labelings; ++s) {
      if (audit_cancelled(options.cancel, report)) {
        break;
      }
      const std::uint64_t labeling_seed =
          mix64(base ^ (static_cast<std::uint64_t>(p) << 32) ^
                static_cast<std::uint64_t>(s));
      const Labeling labels = sampler.labeling(labeling_seed);
      const FaultyRunResult res = run_decoder_distributed_faulty(
          lcp.decoder(), no.inst.with_labels(labels), plan);
      report.runs += 1;
      report.soundness_runs += 1;
      const std::string repro =
          make_repro(lcp.name(), no.name,
                     format("seed:0x%llx",
                            static_cast<unsigned long long>(labeling_seed)),
                     plan);
      bool all_accept = true;
      for (std::size_t i = 0; i < res.verdicts.size(); ++i) {
        all_accept = all_accept && res.verdicts[i];
        if (res.degraded[i]) {
          report.degraded_verdicts += 1;
          if (res.verdicts[i]) {
            record_finding(report, AuditFinding{
                "degraded-view", repro,
                format("node %d accepted despite degraded reconstruction",
                       static_cast<int>(i))});
          }
        }
      }
      if (all_accept) {
        // Invariant 2: no fault plan may manufacture global acceptance of
        // a no-instance.
        record_finding(report, AuditFinding{
            "soundness", repro,
            format("all %d nodes accept a non-%d-colorable instance under "
                   "plan %s",
                   no.inst.num_nodes(), lcp.k(), plan.label.c_str())});
      } else if (!plan.enabled()) {
        // Fault-free adversarial runs get the full strong-soundness
        // judgment: the accepting set must induce a k-colorable subgraph.
        const auto acc = accepting_nodes(res);
        if (!is_k_colorable(no.inst.g.induced_subgraph(acc), lcp.k())) {
          record_finding(report, AuditFinding{
              "soundness", repro,
              format("accepting set %s induces a non-%d-colorable subgraph",
                     show_vec(acc).c_str(), lcp.k())});
        }
      }
    }
  }
  publish_audit_tallies(report);
  return report;
}

AuditReport audit_sweep(const Lcp& lcp,
                        const std::vector<NamedInstance>& yes_instances,
                        const std::vector<NamedInstance>& no_instances,
                        const AuditOptions& options) {
  AuditReport report;
  for (const NamedInstance& yes : yes_instances) {
    if (audit_cancelled(options.cancel, report)) {
      return report;
    }
    const auto plans = FaultPlan::standard_family(
        mix64(options.seed ^ fnv1a64(yes.name)), yes.inst.num_nodes());
    report.merge(
        audit_completeness_under_faults(lcp, yes, plans, options.cancel));
  }
  for (const NamedInstance& no : no_instances) {
    if (audit_cancelled(options.cancel, report)) {
      return report;
    }
    const auto plans = FaultPlan::standard_family(
        mix64(options.seed ^ fnv1a64(no.name)), no.inst.num_nodes());
    report.merge(audit_soundness_under_faults(lcp, no, plans, options));
  }
  return report;
}

std::vector<NamedInstance> audit_instance_pool() {
  std::vector<NamedInstance> pool;
  const auto add = [&](const char* name, Graph g) {
    pool.push_back(NamedInstance{name, Instance::canonical(std::move(g))});
  };
  add("path5", make_path(5));
  add("path6", make_path(6));
  add("star5", make_star(5));
  add("cycle5", make_cycle(5));
  add("cycle6", make_cycle(6));
  add("cycle7", make_cycle(7));
  add("cycle8", make_cycle(8));
  add("grid23", make_grid(2, 3));
  add("grid33", make_grid(3, 3));
  add("theta222", make_theta(2, 2, 2));
  add("theta223", make_theta(2, 2, 3));
  add("melon2222", make_watermelon({2, 2, 2, 2}));
  add("broom322", make_double_broom(3, 2, 2));
  add("complete4", make_complete(4));
  return pool;
}

std::vector<NamedInstance> audit_yes_instances(const Lcp& lcp, int max_count) {
  std::vector<NamedInstance> out;
  for (NamedInstance& cand : audit_instance_pool()) {
    if (static_cast<int>(out.size()) >= max_count) {
      break;
    }
    if (!lcp.in_promise(cand.inst.g)) {
      continue;
    }
    if (!lcp.prove(cand.inst.g, cand.inst.ports, cand.inst.ids).has_value()) {
      continue;
    }
    out.push_back(std::move(cand));
  }
  return out;
}

std::vector<NamedInstance> audit_no_instances(int k, int max_count) {
  std::vector<NamedInstance> out;
  for (NamedInstance& cand : audit_instance_pool()) {
    if (static_cast<int>(out.size()) >= max_count) {
      break;
    }
    if (is_k_colorable(cand.inst.g, k)) {
      continue;
    }
    out.push_back(std::move(cand));
  }
  return out;
}

AttackReport attack_strong_soundness(const Lcp& lcp, const NamedInstance& host,
                                     int samples, std::uint64_t seed,
                                     std::uint64_t exhaustive_limit) {
  AttackReport attack;
  CheckReport check;
  if (labeling_space_size(lcp, host.inst) <= exhaustive_limit) {
    attack.mode = "exhaustive";
    check = check_strong_soundness_exhaustive(lcp, host.inst, exhaustive_limit);
  } else {
    attack.mode = "random";
    Rng rng(mix64(seed ^ fnv1a64(host.name)));
    check = check_strong_soundness_random(lcp, host.inst, samples, rng);
  }
  attack.labelings = check.cases;
  attack.broken = !check.ok;
  if (!check.ok) {
    attack.failure =
        format("host=%s mode=%s seed=0x%llx\n%s", host.name.c_str(),
               attack.mode.c_str(), static_cast<unsigned long long>(seed),
               check.failure.c_str());
  }
  return attack;
}

}  // namespace shlcp

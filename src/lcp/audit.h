// Adversarial soundness audit driver.
//
// The paper's central claims are adversarial: soundness must survive a
// malicious prover, and the brief-announcement constructions claim
// *strong* soundness (every accepting set induces a k-colorable
// subgraph). This module turns the ad-hoc attack loops that used to live
// in examples/adversarial_prover.cpp into a reusable subsystem and
// extends them with the fault layer of sim/faults.h. It mechanically
// checks three invariants for any Lcp:
//
//  1. Completeness is preserved on honest, fault-free executions of
//     yes-instances -- with the channel hook installed (the hook itself
//     must not perturb the protocol).
//  2. Soundness on no-instances survives EVERY fault plan: faults may
//     only add rejections, never manufacture global acceptance of a
//     non-k-colorable graph. With faults disabled the check is the full
//     strong-soundness judgment (accepting set k-colorable).
//  3. Degraded view reconstruction is detected and reported: a node
//     whose knowledge no longer supports a radius-r reconstruction
//     always rejects, and every completeness rejection under faults is
//     attributed to a named fault (degraded knowledge or a tampered
//     view), never left unexplained.
//
// Every failure carries a single-line repro string (instance name +
// labeling seed + fault-plan descriptor) that reconstructs the exact
// run; examples/fault_audit.cpp replays such strings from the command
// line. An audit has no early stop: every report covers every run its
// sweep plans, so `ok` is never a claim about a truncated sweep.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lcp/decoder.h"
#include "sim/engine.h"

namespace shlcp {

/// An instance with a stable name used in repro strings. Catalog names
/// (audit_instance_pool) are reconstructible across processes.
struct NamedInstance {
  std::string name;
  Instance inst;
};

/// One audit failure. `invariant` is "completeness", "soundness",
/// "degraded-view", or "attribution"; `repro` replays the exact run.
struct AuditFinding {
  std::string invariant;
  std::string repro;
  std::string detail;
};

struct AuditOptions {
  /// Master seed; every labeling seed and fault plan derives from it.
  std::uint64_t seed = 0xA0D17;
  /// Adversarial labelings sampled per (no-instance, fault plan).
  int adversarial_labelings = 48;
};

struct AuditReport {
  bool ok = true;
  /// Distributed executions performed.
  std::uint64_t runs = 0;
  std::uint64_t completeness_runs = 0;
  std::uint64_t soundness_runs = 0;
  /// Node-verdicts that were degraded (and therefore rejected).
  std::uint64_t degraded_verdicts = 0;
  /// Completeness rejections under faults attributed to a named fault.
  std::uint64_t attributed_rejections = 0;
  std::vector<AuditFinding> findings;

  /// AND of ok, sums of counters, findings concatenated.
  void merge(const AuditReport& other);

  /// One-line human summary.
  [[nodiscard]] std::string summary() const;
};

/// Deterministic adversarial labeling sampler: certificate spaces are
/// computed once, then labeling(seed) is a pure function of the seed
/// (uniform per-node draws, mixed with mutations of the honest labeling
/// when the prover accepts the frame -- the same adversary model as
/// check_strong_soundness_random, made replayable).
class AdversarialSampler {
 public:
  AdversarialSampler(const Lcp& lcp, const Instance& base);

  [[nodiscard]] Labeling labeling(std::uint64_t seed) const;

 private:
  int num_nodes_;
  std::vector<std::vector<Certificate>> spaces_;
  std::optional<Labeling> honest_;
};

/// Repro string for one run. `labels` is "honest" for the prover's
/// labeling or "seed:0x..." for an AdversarialSampler seed.
std::string make_repro(const std::string& lcp_name,
                       const std::string& instance_name,
                       const std::string& labels, const FaultPlan& plan);

/// Replays a completeness run (honest labeling) under `plan`.
FaultyRunResult replay_honest(const Lcp& lcp, const Instance& inst,
                              const FaultPlan& plan);

/// Replays an adversarial run: AdversarialSampler labeling from
/// `labeling_seed`, executed under `plan`.
FaultyRunResult replay_adversarial(const Lcp& lcp, const Instance& inst,
                                   std::uint64_t labeling_seed,
                                   const FaultPlan& plan);

/// Invariants 1 and 3 on a yes-instance: honest certificates, executed
/// fault-free and under every plan in `plans`. Fault-free runs must
/// unanimously accept; under faults every rejection must be attributed
/// (degraded knowledge or a view that differs from the honest one) and
/// no degraded node may accept.
AuditReport audit_completeness_under_faults(
    const Lcp& lcp, const NamedInstance& yes,
    const std::vector<FaultPlan>& plans);

/// Invariant 2 on a no-instance (non-k-colorable graph): adversarial
/// labelings executed under every plan. Any globally accepted run is a
/// soundness violation; fault-free runs additionally get the full
/// strong-soundness judgment.
AuditReport audit_soundness_under_faults(const Lcp& lcp,
                                         const NamedInstance& no,
                                         const std::vector<FaultPlan>& plans,
                                         const AuditOptions& options);

/// The full sweep: completeness audit on every yes-instance and
/// soundness audit on every no-instance, each under the standard fault
/// family (FaultPlan::standard_family) sized to the instance.
AuditReport audit_sweep(const Lcp& lcp,
                        const std::vector<NamedInstance>& yes_instances,
                        const std::vector<NamedInstance>& no_instances,
                        const AuditOptions& options = {});

/// The shared catalog of small named canonical instances the audits and
/// replay tooling draw from. Names are stable (part of repro strings).
std::vector<NamedInstance> audit_instance_pool();

/// Pool members inside `lcp`'s promise class that its prover certifies;
/// at most `max_count`.
std::vector<NamedInstance> audit_yes_instances(const Lcp& lcp,
                                               int max_count = 3);

/// Pool members that are NOT k-colorable (no-instances of k-col); at
/// most `max_count`.
std::vector<NamedInstance> audit_no_instances(int k, int max_count = 3);

/// The malicious-prover attack that examples/adversarial_prover.cpp used
/// to hand-roll: exhaustive over the certificate space when it fits
/// under `exhaustive_limit`, seeded-random otherwise. Failure messages
/// embed the host name and the Rng state for replay.
struct AttackReport {
  std::uint64_t labelings = 0;
  bool broken = false;
  /// "exhaustive" or "random".
  std::string mode;
  std::string failure;
};

AttackReport attack_strong_soundness(const Lcp& lcp, const NamedInstance& host,
                                     int samples, std::uint64_t seed,
                                     std::uint64_t exhaustive_limit = 20'000);

}  // namespace shlcp

// The sweep workload: the exhaustive degree-one V(D, n) over every
// connected promise graph with n <= 5 (canonical ports), built by
// build_exhaustive at 2 threads, repeated for the run's seconds. All of
// its time is in lcp/enumerate, views, certify, nbhd and util/parallel;
// none is in the service. The seed shuffles the graph order, which
// changes registration order but not the graph's counts.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>

#include "bench.h"
#include "certify/degree_one.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "nbhd/aviews.h"
#include "util/format.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "views/extract.h"

namespace shlcp::e2e {
namespace {

constexpr int kMaxN = 5;
constexpr int kThreads = 2;
constexpr int kSetups = 5;

// V(D, n) of the family, independent of graph order.
constexpr std::size_t kGraphs = 205;
constexpr int kInstances = 193'744;
constexpr int kViews = 220;
constexpr int kEdges = 623;

std::vector<Graph> promise_family(const Lcp& lcp, std::uint64_t seed) {
  std::vector<Graph> graphs;
  for (int n = 2; n <= kMaxN; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      if (lcp.in_promise(g)) {
        graphs.push_back(g);
      }
      return true;
    });
  }
  Rng rng(mix64(seed ^ 0x5EEDF00DULL));
  rng.shuffle(graphs);
  return graphs;
}

double cpu_seconds_self() {
  rusage u = {};
  ::getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

std::uint64_t counter(const char* name) {
  return metrics::counter(name).value();
}

/// The checks every build must pass: the family's fixed counts, and on
/// request the Lemma 3.2 verdict with a genuine odd cycle of views.
bool check_build(const NbhdGraph& nbhd, bool verdict, RunResult& out) {
  bool ok = nbhd.num_instances_absorbed() == kInstances &&
            nbhd.num_views() == kViews && nbhd.num_edges() == kEdges;
  if (!ok) {
    out.fail(format("V(D, 5): %d instances, %d views, %d edges; expected %d, "
                    "%d, %d",
                    nbhd.num_instances_absorbed(), nbhd.num_views(),
                    nbhd.num_edges(), kInstances, kViews, kEdges));
    return false;
  }
  if (verdict) {
    // odd_cycle() is a closed walk v0 .. v0: an odd number of edges.
    const std::optional<std::vector<int>> cycle = nbhd.odd_cycle();
    bool closed = cycle.has_value() && cycle->size() >= 2 &&
                  cycle->front() == cycle->back() && cycle->size() % 2 == 0;
    for (std::size_t i = 0; closed && i + 1 < cycle->size(); ++i) {
      closed = nbhd.graph().has_edge((*cycle)[i], (*cycle)[i + 1]);
    }
    if (nbhd.k_colorable(2) || !closed) {
      out.fail("V(D, 5) must be non-2-colorable with an odd cycle of views");
      return false;
    }
  }
  return true;
}

/// One window per build: its wall time and the process CPU it used.
struct Reps {
  std::vector<double> seconds;
  std::vector<double> cpu_seconds;
  std::uint64_t failed = 0;
};

/// Builds until `seconds` have passed (at least once).
Reps build_for(const Lcp& lcp, const std::vector<Graph>& graphs,
               const ParallelEnumOptions& options, double seconds,
               bool once, SpanLog* spans, std::uint64_t request_base,
               RunResult& out) {
  Reps reps;
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    const double cpu0 = cpu_seconds_self();
    const std::uint64_t t0 = now_ns();
    NbhdGraph nbhd;
    {
      ScopedSpan span(spans, "sweep.build", -1,
                      request_base + reps.seconds.size());
      nbhd = build_exhaustive(lcp, graphs, options);
    }
    reps.seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    reps.cpu_seconds.push_back(cpu_seconds_self() - cpu0);
    if (!check_build(nbhd, reps.seconds.size() == 1, out)) {
      ++reps.failed;
    }
  } while (!once && now_ns() < end);
  return reps;
}

std::vector<double> per_instance(const std::vector<double>& xs, double scale) {
  std::vector<double> out;
  for (const double x : xs) {
    out.push_back(x * scale / kInstances);
  }
  return out;
}

std::vector<double> throughputs(const Reps& reps) {
  std::vector<double> out;
  for (const double s : reps.seconds) {
    out.push_back(kInstances / s);
  }
  return out;
}

/// The traced run's layer probes, all on the same family.
void probe_layers(const Lcp& lcp, const std::vector<Graph>& graphs,
                  const EnumOptions& enums, bool smoke, SpanLog& log,
                  RunResult& out) {
  const Decoder& decoder = lcp.decoder();

  // Enumeration alone: the instance stream with a no-op visitor.
  int streamed = 0;
  std::uint64_t t0 = now_ns();
  for_each_labeled_instance(lcp, graphs, enums, [&](const Instance&) {
    ++streamed;
    return true;
  });
  out.metric("enumerate.ns_per_instance",
             static_cast<double>(now_ns() - t0) / std::max(streamed, 1), "ns");
  if (streamed != kInstances) {
    out.fail(format("instance stream yielded %d, expected %d", streamed,
                    kInstances));
  }

  // A systematic sample of the stream, each instance through the stages
  // absorb runs (colorability check, per node: extract, accept, and for
  // accepted views the fingerprint), then through absorb itself on a
  // graph that already holds V(D, n) -- the steady state of a build.
  const int stride = kInstances / (smoke ? 200 : 2000);
  std::vector<Instance> sample;
  int index = 0;
  for_each_labeled_instance(lcp, graphs, enums, [&](const Instance& inst) {
    if (index++ % stride == 0) {
      sample.push_back(inst);
    }
    return true;
  });
  ParallelEnumOptions seq;
  seq.enums = enums;
  seq.num_threads = 1;
  NbhdGraph full = build_exhaustive(lcp, graphs, seq);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const Instance& inst = sample[i];
    const std::int64_t root = log.open("instance", -1, i);
    timed(log, "graph.is_k_colorable", root, i, true,
          [&] { (void)is_k_colorable(inst.g, lcp.k()); });
    for (Node v = 0; v < inst.num_nodes(); ++v) {
      View view;
      timed(log, "views.extract", root, i, true, [&] {
        view = extract_view(inst.g, inst.ports,
                            decoder.anonymous() ? nullptr : &inst.ids,
                            inst.labels, decoder.radius(), v);
      });
      bool accepted = false;
      timed(log, "certify.accept", root, i, true,
            [&] { accepted = decoder.accept(view); });
      if (accepted) {
        timed(log, "views.fingerprint", root, i, true, [&] {
          view.invalidate_canonical_cache();
          (void)view.fingerprint();
        });
      }
    }
    log.close(root);
    timed(log, "nbhd.absorb", -1, i, false,
          [&] { full.absorb(decoder, inst, lcp.k()); });
  }
  const std::vector<Span> spans = log.snapshot();
  const auto p50_ns = [&](std::string_view name) {
    return median(per_call_ns(spans, name));
  };
  out.metric("views.extract_ns", p50_ns("views.extract"), "ns");
  out.metric("views.fingerprint_ns", p50_ns("views.fingerprint"), "ns");
  out.metric("certify.accept_ns", p50_ns("certify.accept"), "ns");
  out.metric("nbhd.absorb_ns", p50_ns("nbhd.absorb"), "ns");
  // absorb's own work (dedup lookups, edge registration): its median
  // minus the median per-instance cost of the stages it calls.
  std::vector<double> stage_sums;
  {
    std::map<std::uint64_t, double> sums;
    for (const char* stage : {"graph.is_k_colorable", "views.extract",
                              "certify.accept", "views.fingerprint"}) {
      for (const auto& [request, ns] : child_totals_ns(spans, stage)) {
        sums[request] += ns;
      }
    }
    for (const auto& [request, ns] : sums) {
      stage_sums.push_back(ns);
    }
  }
  out.metric("nbhd.absorb_self_ns",
             p50_ns("nbhd.absorb") - median(stage_sums), "ns");

  // Shard merge: two halves built separately, merged in order.
  const std::size_t mid = graphs.size() / 2;
  const std::vector<Graph> left(graphs.begin(), graphs.begin() + mid);
  const std::vector<Graph> right(graphs.begin() + mid, graphs.end());
  const NbhdGraph left_shard = build_exhaustive(lcp, left, seq);
  const NbhdGraph right_shard = build_exhaustive(lcp, right, seq);
  std::vector<double> merge_ms;
  std::vector<double> analysis_ms;
  for (int rep = 0; rep < 3; ++rep) {
    NbhdGraph merged = left_shard;
    NbhdGraph other = right_shard;
    t0 = now_ns();
    merged.merge(std::move(other));
    merge_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    t0 = now_ns();
    const bool colorable = merged.k_colorable(lcp.k());
    const bool has_cycle = merged.odd_cycle().has_value();
    analysis_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    if (colorable || !has_cycle || !check_build(merged, false, out)) {
      out.fail("merged shards differ from the full build");
    }
  }
  out.metric("nbhd.merge_ms", median(merge_ms), "ms");
  out.metric("nbhd.analysis_ms", median(analysis_ms), "ms");

  // 1 vs 2 threads on the same family, alternating; the 2-thread build
  // must be bit-identical to the sequential one.
  ParallelEnumOptions two = seq;
  two.num_threads = kThreads;
  std::vector<double> t1s;
  std::vector<double> t2s;
  std::uint64_t steals = 0;
  const std::uint64_t fp_hits0 = counter("enum.fingerprint_hits");
  const std::uint64_t fp_misses0 = counter("enum.fingerprint_misses");
  const std::uint64_t canon0 = counter("views.canonical.computes");
  const int pairs = smoke ? 1 : 2;
  NbhdGraph last;
  for (int rep = 0; rep < pairs; ++rep) {
    t0 = now_ns();
    NbhdGraph one = build_exhaustive(lcp, graphs, seq);
    t1s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    const std::uint64_t steals0 = counter("parallel.steals");
    t0 = now_ns();
    last = build_exhaustive(lcp, graphs, two);
    t2s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    steals += counter("parallel.steals") - steals0;
    bool identical = one.num_views() == last.num_views() &&
                     one.num_edges() == last.num_edges();
    for (int v = 0; identical && v < one.num_views(); ++v) {
      identical = one.view(v) == last.view(v);
    }
    if (!identical) {
      out.fail("2-thread build differs from the sequential build");
    }
  }
  const double builds = 2.0 * pairs;
  out.metric("parallel.efficiency_2t", median(t1s) / median(t2s) / kThreads,
             "ratio");
  out.metric("parallel.steals", static_cast<double>(steals) / pairs, "count");
  out.metric("nbhd.registrations",
             static_cast<double>(last.num_views()) +
                 static_cast<double>(last.stats().views_deduped),
             "count");
  out.metric("nbhd.fingerprint_hits",
             static_cast<double>(counter("enum.fingerprint_hits") - fp_hits0) /
                 builds,
             "count");
  out.metric("nbhd.fingerprint_misses",
             static_cast<double>(counter("enum.fingerprint_misses") -
                                 fp_misses0) /
                 builds,
             "count");
  out.metric("views.canonical_computes",
             static_cast<double>(counter("views.canonical.computes") - canon0) /
                 builds,
             "count");
}

}  // namespace

void run_sweep(const Options& opt, SpanLog* spans, RunResult& out) {
  const DegreeOneLcp lcp;
  EnumOptions enums;  // canonical ports, consecutive ids

  ParallelEnumOptions options;
  options.enums = enums;
  options.num_threads = kThreads;

  // Setup, several times: the graph family, the build's frame plan, and
  // one untimed build that brings the allocator and caches to the state
  // the timed builds run in (the sweep's counterpart of priming).
  std::vector<double> setup_s;
  std::vector<double> plan_ms;
  std::vector<Graph> graphs;
  for (int k = 0; k < (opt.smoke ? 1 : kSetups); ++k) {
    const std::uint64_t t0 = now_ns();
    graphs = promise_family(lcp, opt.seed);
    if (graphs.size() != kGraphs) {
      out.fail(format("%zu promise graphs with n <= %d, expected %zu",
                      graphs.size(), kMaxN, kGraphs));
      return;
    }
    const std::uint64_t t1 = now_ns();
    const std::vector<EnumFrame> frames = enumerate_frames(graphs, enums);
    (void)frame_costs(lcp, graphs, frames);
    plan_ms.push_back(static_cast<double>(now_ns() - t1) / 1e6);
    if (!check_build(build_exhaustive(lcp, graphs, options), true, out)) {
      return;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  Reps untraced;
  Reps timed_reps;
  if (spans == nullptr) {
    timed_reps = build_for(lcp, graphs, options, opt.seconds, opt.smoke,
                           nullptr, 0, out);
  } else {
    untraced = build_for(lcp, graphs, options, opt.seconds / 2, opt.smoke,
                         nullptr, 0, out);
    timed_reps = build_for(lcp, graphs, options, opt.seconds / 2, opt.smoke,
                           spans, 1'000'000, out);
  }
  out.attempted = untraced.seconds.size() + timed_reps.seconds.size();
  out.wrong = untraced.failed + timed_reps.failed;

  Json& d = out.details;
  d["graphs"] = static_cast<std::uint64_t>(graphs.size());
  d["instances_per_build"] = kInstances;
  d["builds"] = Json::array();
  for (const double s : timed_reps.seconds) {
    d["builds"].push_back(s);
  }
  d["build_cpu_s"] = Json::array();
  for (const double s : timed_reps.cpu_seconds) {
    d["build_cpu_s"].push_back(s);
  }
  d["setup_s"] = Json::array();
  for (const double s : setup_s) {
    d["setup_s"].push_back(s);
  }

  if (spans == nullptr) {
    // A build is the op (latency) and the window (rates, CPU).
    out.metric("throughput", median(throughputs(timed_reps)), "ops/s");
    out.metric("latency_p50_us", median(timed_reps.seconds) * 1e6, "us");
    out.metric("cpu_us_per_op",
               median(per_instance(timed_reps.cpu_seconds, 1e6)), "us");
    out.metric("peak_rss_mb", proc_peak_rss_mb(::getpid()), "MiB");
    out.metric("setup_s", median(setup_s), "s");
    return;
  }
  out.metric("enumerate.setup_ms", median(plan_ms), "ms");
  out.metric("latency_p99_us", percentile(timed_reps.seconds, 99) * 1e6, "us");
  out.metric("trace.overhead_pct",
             median(throughputs(untraced)) / median(throughputs(timed_reps)) *
                     100.0 -
                 100.0,
             "%");
  probe_layers(lcp, graphs, enums, opt.smoke, *spans, out);
}

}  // namespace shlcp::e2e

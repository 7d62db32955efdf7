#include "nbhd/aviews.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "nbhd/checkpoint.h"
#include "util/check.h"
#include "util/format.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace shlcp {

namespace {

/// Publishes the finished build to the registry and annotates the
/// enclosing nbhd.build trace span with the result shape. Called on the
/// final graph only (see the NbhdStats note in nbhd_graph.h), so the
/// counters are identical for sequential and parallel builds.
void finish_build(const NbhdGraph& nbhd, trace::Span& span) {
  publish_build_metrics(nbhd);
  span.note("instances", static_cast<std::uint64_t>(nbhd.num_instances_absorbed()));
  span.note("views", static_cast<std::uint64_t>(nbhd.num_views()));
  span.note("views_deduped", nbhd.stats().views_deduped);
  span.note("edges", static_cast<std::uint64_t>(nbhd.num_edges()));
  span.note("absorb_ns", nbhd.stats().absorb_ns);
}

/// Whether anything can stop a sweep before its last item: a budget, a
/// checkpoint, an external token or a stall watchdog.
bool interruptible(const ParallelEnumOptions& options) {
  return !options.budget.unlimited() || options.checkpoint.enabled() ||
         options.cancel != nullptr || options.stall_timeout_ms != 0;
}

/// One sweep of the engine: `num_items` items (frames, or the instances
/// of an explicit list), each absorbed by `body` in item order.
struct Sweep {
  /// "exhaustive", "proved" or "instances"; names the sweep in its trace
  /// span and its checkpoint manifest.
  const char* kind = "";
  std::size_t num_items = 0;
  /// Per-item work estimates for the adaptive chunk plans, asked for only
  /// when the sweep runs on the pool. Null means unit costs.
  std::function<std::vector<std::uint64_t>()> costs;
  /// The manifest template describing this sweep (a found manifest must
  /// match it field by field before its state is trusted). Null for an
  /// instance list, whose builder rejects checkpoint options up front.
  std::function<CheckpointManifest()> manifest;
  /// Absorbs item i into `shard`, reporting progress to `tracker`.
  /// Returns false iff a hard stop aborted the item midway (the
  /// enclosing chunk is then discarded from the completed prefix).
  std::function<bool(std::size_t i, NbhdGraph& shard, BudgetTracker& tracker)>
      body;
};

/// Rejects a resume whose manifest describes a different sweep. Every
/// mismatch is a CheckError with a one-line repro string.
void validate_resume(const CheckpointManifest& found,
                     const CheckpointManifest& expected,
                     const std::string& path) {
  const auto reject = [&](const char* field, const std::string& have,
                          const std::string& want) {
    SHLCP_CHECK_MSG(
        false,
        format("checkpoint resume rejected (manifest %s): %s mismatch -- "
               "checkpoint has \"%s\", this run expects \"%s\"; delete the "
               "checkpoint directory (or set checkpoint.resume=false) to "
               "restart from scratch",
               path.c_str(), field, have.c_str(), want.c_str()));
  };
  if (found.decoder != expected.decoder) {
    reject("decoder", found.decoder, expected.decoder);
  }
  if (found.build != expected.build) {
    reject("build", found.build, expected.build);
  }
  if (found.k != expected.k) {
    reject("k", std::to_string(found.k), std::to_string(expected.k));
  }
  if (found.options_hash != expected.options_hash) {
    reject("options_hash", found.options_hash, expected.options_hash);
  }
  if (found.num_frames != expected.num_frames) {
    reject("num_frames", std::to_string(found.num_frames),
           std::to_string(expected.num_frames));
  }
  if (found.frames_digest != expected.frames_digest) {
    reject("frames_digest", found.frames_digest, expected.frames_digest);
  }
  if (found.git != "unknown" && expected.git != "unknown" &&
      found.git != expected.git) {
    reject("git", found.git, expected.git);
  }
}

/// The one V(D, n) build engine: every builder runs its sweep here.
///
/// With one thread and nothing that can interrupt the sweep, every item
/// is absorbed straight into the result: no pool, shards or merge.
/// Otherwise items are processed in contiguous chunks grouped into
/// *segments* (the checkpoint cadence; one segment for the whole sweep
/// when checkpointing is off). Each segment is chunked by its own
/// cost-adaptive plan -- resume-safe because the merged result never
/// depends on chunk boundaries -- and after each segment the completed
/// chunk prefix is merged into the accumulator in plan order, exactly
/// the sequential absorption order, and persisted when a checkpoint
/// directory is configured. See DESIGN.md §11 for why this makes
/// interrupted-then-resumed builds bit-identical.
ResumableBuildResult run_resumable(const Sweep& sweep,
                                   const ParallelEnumOptions& options) {
  const std::size_t num_items = sweep.num_items;
  const int threads = resolve_num_threads(options.num_threads);

  ResumableBuildResult result;
  result.num_frames = num_items;
  NbhdGraph& acc = result.nbhd;

  std::optional<CheckpointStore> store;
  CheckpointManifest expected;
  if (options.checkpoint.enabled()) {
    store.emplace(options.checkpoint.directory);
    result.manifest_path = store->manifest_path();
    expected = sweep.manifest();
  }

  // The budget clock starts here, after the manifest's one-off setup
  // (checkpoint_git_rev runs a subprocess on first use).
  CancelToken local_token;
  CancelToken& token =
      options.cancel != nullptr ? *options.cancel : local_token;
  BudgetTracker tracker(options.budget, token);

  trace::Span span("nbhd.build");
  span.note("items", static_cast<std::uint64_t>(num_items));
  span.note("kind", Json(std::string(sweep.kind)));
  span.note("threads", static_cast<std::uint64_t>(threads));

  if (threads == 1 && !interruptible(options)) {
    for (std::size_t i = 0; i < num_items; ++i) {
      sweep.body(i, acc, tracker);
    }
    result.complete = true;
    result.frames_done = num_items;
    finish_build(acc, span);
    return result;
  }

  std::size_t pos = 0;
  if (store.has_value() && options.checkpoint.resume && store->has_manifest()) {
    CheckpointStore::Loaded loaded = store->load();
    validate_resume(loaded.manifest, expected, store->manifest_path());
    acc = std::move(loaded.state);
    pos = static_cast<std::size_t>(loaded.manifest.frames_done);
    result.resumed_frames = pos;
    static metrics::Counter& resumed_counter =
        metrics::counter("enum.resumed_frames");
    resumed_counter.add(pos);
    trace::event("enum.resumed_frames",
                 {{"frames", static_cast<std::uint64_t>(pos)},
                  {"manifest", Json(store->manifest_path())}});
  }

  const std::vector<std::uint64_t> costs =
      sweep.costs != nullptr ? sweep.costs() : std::vector<std::uint64_t>{};
  WorkerPool pool(threads);
  static metrics::Histogram& shard_hist =
      metrics::histogram("nbhd.build.shard_absorb_ns");
  static metrics::Histogram& merge_hist =
      metrics::histogram("nbhd.build.merge_ns");

  // The frame budget caps frames started *this run* (not since the
  // original sweep began), enforced deterministically by frame index so
  // the completed prefix under a tiny budget still grows every run.
  const std::size_t run_start = pos;
  const std::size_t seg_len =
      store.has_value()
          ? static_cast<std::size_t>(
                std::max<std::uint64_t>(1, options.checkpoint.every_frames))
          : std::max<std::size_t>(1, num_items);

  const auto write_checkpoint = [&](const char* status,
                                    StopReason stop_reason) {
    CheckpointManifest m = expected;
    m.frames_done = pos;
    m.instances_absorbed =
        static_cast<std::uint64_t>(acc.num_instances_absorbed());
    m.status = status;
    m.stop_reason = to_string(stop_reason);
    store->write(m, acc);
    static metrics::Counter& ckpt_counter =
        metrics::counter("enum.checkpoint_written");
    ckpt_counter.inc();
    trace::event("enum.checkpoint_written",
                 {{"frames_done", static_cast<std::uint64_t>(pos)},
                  {"status", Json(std::string(status))},
                  {"stop_reason", Json(std::string(to_string(stop_reason)))}});
  };

  bool stopped = false;
  while (pos < num_items && !stopped) {
    if (tracker.should_stop()) {
      stopped = true;
      break;
    }
    const std::size_t seg_begin = pos;
    const std::size_t seg_items = std::min(num_items - seg_begin, seg_len);
    // Plan this segment's chunks. Resume safety does not depend on the
    // boundaries: merging any contiguous in-order chunking reproduces
    // the sequential build, so a resumed run may cut different chunks
    // than the interrupted one and still converge bit-identically.
    const auto seg_cost = costs.begin() + static_cast<std::ptrdiff_t>(seg_begin);
    const ChunkPlan plan = adaptive_plan(
        costs.empty() ? std::vector<std::uint64_t>(seg_items, 1)
                      : std::vector<std::uint64_t>(
                            seg_cost,
                            seg_cost + static_cast<std::ptrdiff_t>(seg_items)),
        threads);
    std::vector<NbhdGraph> shards(plan.num_chunks());
    ParallelRunControl ctrl;
    ctrl.cancel = &token;
    ctrl.stall_timeout_ms = options.stall_timeout_ms;
    const ParallelRunResult run = pool.run_plan(
        plan,
        [&](std::size_t chunk_index, std::size_t begin, std::size_t end) {
          // Deterministic frame-budget gate: start the chunk iff its
          // first frame (relative to this run's start) lies below the
          // cap. Overshoot is bounded by one chunk.
          if (options.budget.max_frames != 0 &&
              seg_begin + begin - run_start >= options.budget.max_frames) {
            token.request_stop(StopReason::kFrameBudget);
            return false;
          }
          trace::Span shard_span("nbhd.build.shard");
          shard_span.note("chunk", static_cast<std::uint64_t>(chunk_index));
          shard_span.note("items", static_cast<std::uint64_t>(end - begin));
          tracker.add_frames(end - begin);
          NbhdGraph& shard = shards[chunk_index];
          for (std::size_t i = begin; i < end; ++i) {
            if (i != begin) {
              pool.heartbeat();
              // Hard stops (deadline, signal, memory, stall, external
              // cancel) abort between frames; soft work-count budgets
              // let the started chunk finish so progress is guaranteed.
              if (tracker.should_stop() && is_hard_stop(token.reason())) {
                return false;
              }
            }
            if (!sweep.body(seg_begin + i, shard, tracker)) {
              return false;
            }
          }
          shard_hist.record(shard.stats().absorb_ns);
          return true;
        },
        ctrl);
    const std::size_t done_chunks = run.completed_prefix_chunks;
    // Every early stop names its reason on the token before the chunk
    // body returns false; a stopped run without one lost a chunk.
    SHLCP_CHECK_MSG(
        !run.stopped() || token.stop_requested(),
        format("%s build lost chunk %zu of %zu (items [%zu, %zu)): the pool "
               "stopped with no stop reason",
               sweep.kind, done_chunks, plan.num_chunks(),
               seg_begin + plan.ranges[done_chunks].first,
               seg_begin + plan.ranges[done_chunks].second));
    {
      trace::Span merge_span("nbhd.build.merge");
      merge_span.note("shards", static_cast<std::uint64_t>(done_chunks));
      const metrics::ScopedTimerNs merge_timer(merge_hist);
      for (std::size_t ci = 0; ci < done_chunks; ++ci) {
        acc.merge(std::move(shards[ci]));
      }
    }
    pos += done_chunks == 0 ? 0 : plan.ranges[done_chunks - 1].second;
    stopped = token.stop_requested();
    if (store.has_value() && !stopped && pos < num_items) {
      write_checkpoint("in_progress", StopReason::kNone);
    }
  }

  result.complete = pos == num_items;
  result.frames_done = pos;
  result.stop_reason = result.complete ? StopReason::kNone : token.reason();

  if (store.has_value()) {
    write_checkpoint(result.complete ? "complete" : "in_progress",
                     result.stop_reason);
  }
  if (result.complete) {
    finish_build(acc, span);
  } else {
    static metrics::Counter& cancelled_counter =
        metrics::counter("enum.cancelled");
    cancelled_counter.inc();
    span.note("stop_reason",
              Json(std::string(to_string(result.stop_reason))));
    span.note("frames_done", static_cast<std::uint64_t>(pos));
    trace::event(
        "enum.cancelled",
        {{"stop_reason", Json(std::string(to_string(result.stop_reason)))},
         {"frames_done", static_cast<std::uint64_t>(pos)},
         {"num_frames", static_cast<std::uint64_t>(num_items)}});
  }
  return result;
}

/// The manifest template of a frame sweep.
CheckpointManifest frame_manifest(const Lcp& lcp,
                                  const std::vector<EnumFrame>& frames,
                                  const EnumOptions& enums, const char* kind) {
  CheckpointManifest m;
  m.git = checkpoint_git_rev();
  m.decoder = lcp.decoder().name();
  m.build = kind;
  m.k = lcp.k();
  m.options_hash = enum_options_hash(m.decoder, kind, lcp.k(), enums);
  m.num_frames = frames.size();
  m.frames_digest = frames_digest(frames);
  return m;
}

/// The options of a one-thread build that nothing interrupts.
ParallelEnumOptions one_thread(const EnumOptions& enums) {
  ParallelEnumOptions options;
  options.enums = enums;
  options.num_threads = 1;
  return options;
}

/// Error for the plain overloads when an interrupt-aware build did not
/// run to completion.
[[noreturn]] void throw_incomplete(const char* builder,
                                   const ResumableBuildResult& res) {
  SHLCP_CHECK_MSG(
      false,
      format("%s stopped early (%s) after %llu of %llu frames -- partial "
             "results are only available via the *_resumable builders",
             builder, to_string(res.stop_reason),
             static_cast<unsigned long long>(res.frames_done),
             static_cast<unsigned long long>(res.num_frames)));
}

/// The plain overloads' result: the graph of a complete build, else
/// throw_incomplete -- a truncated V(D, n) is never returned silently.
NbhdGraph take_complete(const char* builder, ResumableBuildResult&& res) {
  if (!res.complete) {
    throw_incomplete(builder, res);
  }
  return std::move(res.nbhd);
}

}  // namespace

NbhdGraph build_exhaustive(const Lcp& lcp, const std::vector<Graph>& graphs,
                           const EnumOptions& options) {
  return build_exhaustive(lcp, graphs, one_thread(options));
}

NbhdGraph build_exhaustive(const Lcp& lcp, const std::vector<Graph>& graphs,
                           const ParallelEnumOptions& options) {
  return take_complete("build_exhaustive",
                       build_exhaustive_resumable(lcp, graphs, options));
}

ResumableBuildResult build_exhaustive_resumable(
    const Lcp& lcp, const std::vector<Graph>& graphs,
    const ParallelEnumOptions& options) {
  const auto yes_graphs = filter_yes_graphs(graphs, lcp.k());
  const auto frames = enumerate_frames(yes_graphs, options.enums);
  Sweep sweep;
  sweep.kind = "exhaustive";
  sweep.num_items = frames.size();
  sweep.costs = [&] { return frame_costs(lcp, yes_graphs, frames); };
  sweep.manifest = [&] {
    return frame_manifest(lcp, frames, options.enums, sweep.kind);
  };
  sweep.body = [&](std::size_t i, NbhdGraph& shard, BudgetTracker& tracker) {
    const FrameLabelings labelings =
        frame_labelings(lcp, yes_graphs, frames[i], options.enums);
    const std::uint64_t seen = shard.absorb_frame(
        lcp.decoder(), labelings, lcp.k(), [&](std::uint64_t) {
          return !tracker.should_stop() ||
                 !is_hard_stop(tracker.token().reason());
        });
    tracker.add_instances(seen);
    return seen == labelings.num_labelings;
  };
  return run_resumable(sweep, options);
}

NbhdGraph build_proved(const Lcp& lcp, const std::vector<Graph>& graphs,
                       const EnumOptions& options) {
  return build_proved(lcp, graphs, one_thread(options));
}

NbhdGraph build_proved(const Lcp& lcp, const std::vector<Graph>& graphs,
                       const ParallelEnumOptions& options) {
  return take_complete("build_proved",
                       build_proved_resumable(lcp, graphs, options));
}

ResumableBuildResult build_proved_resumable(const Lcp& lcp,
                                            const std::vector<Graph>& graphs,
                                            const ParallelEnumOptions& options) {
  const auto yes_graphs = filter_yes_graphs(graphs, lcp.k());
  const auto frames = enumerate_frames(yes_graphs, options.enums);
  // Proved builds do one prove() per frame -- near-uniform work, so no
  // cost model: the plans cut evenly-sized chunks.
  Sweep sweep;
  sweep.kind = "proved";
  sweep.num_items = frames.size();
  sweep.manifest = [&] {
    return frame_manifest(lcp, frames, options.enums, sweep.kind);
  };
  sweep.body = [&](std::size_t i, NbhdGraph& shard, BudgetTracker& tracker) {
    const auto inst = proved_instance_in_frame(lcp, yes_graphs, frames[i]);
    if (inst.has_value()) {
      shard.absorb(lcp.decoder(), *inst, lcp.k());
      tracker.add_instances(1);
    }
    return true;
  };
  return run_resumable(sweep, options);
}

NbhdGraph build_from_instances(const Decoder& decoder,
                               const std::vector<Instance>& instances, int k) {
  return build_from_instances(decoder, instances, k, one_thread({}));
}

NbhdGraph build_from_instances(const Decoder& decoder,
                               const std::vector<Instance>& instances, int k,
                               const ParallelEnumOptions& options) {
  SHLCP_CHECK_MSG(!interruptible(options),
                  "build_from_instances does not support budgets, "
                  "cancellation, or checkpointing; use the frame-based "
                  "*_resumable builders for interruptible sweeps");
  Sweep sweep;
  sweep.kind = "instances";
  sweep.num_items = instances.size();
  sweep.body = [&](std::size_t i, NbhdGraph& shard, BudgetTracker&) {
    shard.absorb(decoder, instances[i], k);
    return true;
  };
  return take_complete("build_from_instances", run_resumable(sweep, options));
}

}  // namespace shlcp

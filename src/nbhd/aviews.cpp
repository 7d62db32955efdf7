#include "nbhd/aviews.h"

#include <algorithm>
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

/// Builds the work-distribution plan for a sweep of `num_items` items:
/// frames_per_chunk >= 1 pins the legacy fixed uniform chunks, 0 (the
/// default) cuts a cost-adaptive plan from `costs` (per-item labeling
/// counts; an empty vector means no cost model -- unit costs, giving
/// evenly-sized chunks of about total / (threads * 8) items).
ChunkPlan make_plan(std::size_t num_items, const ParallelEnumOptions& options,
                    int threads, const std::vector<std::uint64_t>& costs) {
  if (options.frames_per_chunk >= 1) {
    return uniform_plan(num_items,
                        static_cast<std::size_t>(options.frames_per_chunk));
  }
  if (!costs.empty()) {
    SHLCP_CHECK_MSG(costs.size() == num_items,
                    "cost model must cover every item of the sweep");
    return adaptive_plan(costs, threads);
  }
  return adaptive_plan(std::vector<std::uint64_t>(num_items, 1), threads);
}

/// Shared shard/merge skeleton: runs `item_body(i, shard)` for every item
/// in [0, num_items), distributed across a worker pool by a chunk plan
/// (cost-adaptive by default, fixed when frames_per_chunk is pinned), and
/// merges the per-chunk shards in plan order. With one thread (or one
/// chunk) it degenerates to a plain sequential loop into a single graph,
/// which is also the reference semantics the merge path must reproduce.
NbhdGraph build_sharded(
    std::size_t num_items, const ParallelEnumOptions& options,
    const std::vector<std::uint64_t>& costs,
    const std::function<void(std::size_t, NbhdGraph&)>& item_body) {
  const int threads = resolve_num_threads(options.num_threads);
  const ChunkPlan plan = make_plan(num_items, options, threads, costs);
  trace::Span span("nbhd.build");
  span.note("items", static_cast<std::uint64_t>(num_items));
  if (threads <= 1 || plan.num_chunks() <= 1) {
    span.note("threads", std::uint64_t{1});
    NbhdGraph out;
    for (std::size_t i = 0; i < num_items; ++i) {
      item_body(i, out);
    }
    finish_build(out, span);
    return out;
  }
  span.note("threads", static_cast<std::uint64_t>(threads));
  span.note("chunks", static_cast<std::uint64_t>(plan.num_chunks()));
  span.note("adaptive", plan.adaptive);
  static metrics::Histogram& shard_hist =
      metrics::histogram("nbhd.build.shard_absorb_ns");
  std::vector<NbhdGraph> shards(plan.num_chunks());
  WorkerPool pool(threads);
  const CancellableChunkBody chunk_body =
      [&](std::size_t chunk_index, std::size_t begin, std::size_t end) {
        trace::Span shard_span("nbhd.build.shard");
        shard_span.note("chunk", static_cast<std::uint64_t>(chunk_index));
        shard_span.note("items", static_cast<std::uint64_t>(end - begin));
        NbhdGraph& shard = shards[chunk_index];
        for (std::size_t i = begin; i < end; ++i) {
          item_body(i, shard);
        }
        shard_hist.record(shard.stats().absorb_ns);
        return true;
      };
  const ParallelRunResult run =
      pool.run_plan(plan, chunk_body, ParallelRunControl{});
  span.note("steals", static_cast<std::uint64_t>(run.steals));
  NbhdGraph out;
  {
    trace::Span merge_span("nbhd.build.merge");
    merge_span.note("shards", static_cast<std::uint64_t>(plan.num_chunks()));
    static metrics::Histogram& merge_hist =
        metrics::histogram("nbhd.build.merge_ns");
    const metrics::ScopedTimerNs merge_timer(merge_hist);
    for (NbhdGraph& shard : shards) {
      out.merge(std::move(shard));
    }
  }
  finish_build(out, span);
  return out;
}

/// Per-frame work of a resumable build: absorb `frame` into `shard`,
/// reporting progress to `tracker`. Returns false iff the frame was
/// aborted mid-way by a hard stop (the enclosing chunk is then discarded
/// from the completed prefix).
using FrameBody = std::function<bool(const EnumFrame& frame, NbhdGraph& shard,
                                     BudgetTracker& tracker)>;

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

/// The budget/cancellation/checkpoint engine shared by the resumable
/// builders. Frames are processed in contiguous chunks grouped into
/// *segments* (the checkpoint cadence, rounded up to whole chunks when a
/// fixed chunk size is pinned; one segment for the whole sweep when
/// checkpointing is off); each segment is chunked by its own plan
/// (cost-adaptive by default -- resume-safe because the merged result
/// never depends on chunk boundaries), and after each segment the
/// completed chunk prefix is merged into the accumulator in plan order
/// -- exactly the sequential absorption order -- and, when a checkpoint
/// directory is configured, persisted. See DESIGN.md §11 for why this
/// makes interrupted-then-resumed builds bit-identical. `costs` is the
/// optional per-frame cost model for the adaptive plans (parallel to
/// `frames`; empty means unit costs).
ResumableBuildResult run_resumable(const Lcp& lcp,
                                   const std::vector<EnumFrame>& frames,
                                   const std::vector<std::uint64_t>& costs,
                                   const ParallelEnumOptions& options,
                                   const char* kind, const FrameBody& body) {
  const std::size_t num_frames = frames.size();
  const bool fixed_chunks = options.frames_per_chunk >= 1;
  const auto chunk =
      static_cast<std::size_t>(std::max(1, options.frames_per_chunk));

  ResumableBuildResult result;
  result.num_frames = num_frames;

  // Manifest template describing *this* sweep; a found manifest must
  // match it field by field before its state is trusted.
  CheckpointManifest expected;
  std::optional<CheckpointStore> store;
  if (options.checkpoint.enabled()) {
    store.emplace(options.checkpoint.directory);
    result.manifest_path = store->manifest_path();
    expected.git = checkpoint_git_rev();
    expected.decoder = lcp.decoder().name();
    expected.build = kind;
    expected.k = lcp.k();
    expected.options_hash =
        enum_options_hash(expected.decoder, kind, lcp.k(), options.enums);
    expected.num_frames = num_frames;
    expected.frames_digest = frames_digest(frames);
  }

  // The budget clock starts here, after the manifest's one-off setup
  // (checkpoint_git_rev runs a subprocess on first use).
  CancelToken local_token;
  CancelToken& token =
      options.cancel != nullptr ? *options.cancel : local_token;
  BudgetTracker tracker(options.budget, token);

  trace::Span span("nbhd.build");
  span.note("items", static_cast<std::uint64_t>(num_frames));
  span.note("kind", Json(std::string(kind)));
  span.note("resumable", true);

  std::size_t pos = 0;
  NbhdGraph acc;
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

  const int threads = resolve_num_threads(options.num_threads);
  span.note("threads", static_cast<std::uint64_t>(threads));
  WorkerPool pool(threads);
  static metrics::Histogram& shard_hist =
      metrics::histogram("nbhd.build.shard_absorb_ns");

  // The frame budget caps frames started *this run* (not since the
  // original sweep began), enforced deterministically by frame index so
  // the completed prefix under a tiny budget still grows every run.
  const std::size_t run_start = pos;

  // Segment length: the checkpoint cadence (rounded up to whole chunks
  // under a pinned chunk size; adaptive plans re-cut per segment, so no
  // rounding is needed there).
  std::size_t seg_frames = num_frames == 0 ? 1 : num_frames;
  if (store.has_value()) {
    const auto every = static_cast<std::size_t>(
        std::max<std::uint64_t>(1, options.checkpoint.every_frames));
    seg_frames = fixed_chunks ? (every + chunk - 1) / chunk * chunk : every;
  }

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
  while (pos < num_frames && !stopped) {
    if (tracker.should_stop()) {
      stopped = true;
      break;
    }
    const std::size_t seg_begin = pos;
    const std::size_t seg_items = std::min(num_frames - seg_begin, seg_frames);
    // Plan this segment's chunks. Resume safety does not depend on the
    // boundaries: merging any contiguous in-order chunking reproduces
    // the sequential build, so a resumed run may cut different chunks
    // than the interrupted one and still converge bit-identically.
    std::vector<std::uint64_t> seg_costs;
    if (!fixed_chunks && !costs.empty()) {
      seg_costs.assign(costs.begin() + static_cast<std::ptrdiff_t>(seg_begin),
                       costs.begin() +
                           static_cast<std::ptrdiff_t>(seg_begin + seg_items));
    }
    const ChunkPlan plan = make_plan(seg_items, options, threads, seg_costs);
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
            if (!body(frames[seg_begin + i], shard, tracker)) {
              return false;
            }
          }
          shard_hist.record(shard.stats().absorb_ns);
          return true;
        },
        ctrl);
    const std::size_t done_items =
        run.completed_prefix_chunks == 0
            ? 0
            : plan.ranges[run.completed_prefix_chunks - 1].second;
    for (std::size_t ci = 0; ci < run.completed_prefix_chunks; ++ci) {
      acc.merge(std::move(shards[ci]));
    }
    pos += done_items;
    if (run.stopped() || token.stop_requested()) {
      stopped = true;
    }
    if (store.has_value() && !stopped && pos < num_frames) {
      write_checkpoint("in_progress", StopReason::kNone);
    }
  }

  result.complete = pos == num_frames;
  result.frames_done = pos;
  result.stop_reason = result.complete ? StopReason::kNone : token.reason();
  if (!result.complete && result.stop_reason == StopReason::kNone) {
    result.stop_reason = StopReason::kCancelRequested;
  }

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
         {"num_frames", static_cast<std::uint64_t>(num_frames)}});
  }
  result.nbhd = std::move(acc);
  return result;
}

/// Per-frame labeling counts for the adaptive planner -- skipped (empty)
/// when a fixed chunk size is pinned, since the plan would ignore them.
std::vector<std::uint64_t> maybe_frame_costs(
    const Lcp& lcp, const std::vector<Graph>& graphs,
    const std::vector<EnumFrame>& frames, const ParallelEnumOptions& options) {
  if (options.frames_per_chunk >= 1) {
    return {};
  }
  return frame_costs(lcp, graphs, frames);
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

}  // namespace

NbhdGraph build_exhaustive(const Lcp& lcp, const std::vector<Graph>& graphs,
                           const EnumOptions& options) {
  ParallelEnumOptions sequential;
  sequential.enums = options;
  sequential.num_threads = 1;
  return build_exhaustive(lcp, graphs, sequential);
}

NbhdGraph build_exhaustive(const Lcp& lcp, const std::vector<Graph>& graphs,
                           const ParallelEnumOptions& options) {
  if (options.plain()) {
    const auto yes_graphs = filter_yes_graphs(graphs, lcp.k());
    const auto frames = enumerate_frames(yes_graphs, options.enums);
    return build_sharded(
        frames.size(), options,
        maybe_frame_costs(lcp, yes_graphs, frames, options),
        [&](std::size_t i, NbhdGraph& shard) {
          shard.absorb_frame(
              lcp.decoder(),
              frame_labelings(lcp, yes_graphs, frames[i], options.enums),
              lcp.k());
        });
  }
  ResumableBuildResult res = build_exhaustive_resumable(lcp, graphs, options);
  if (!res.complete) {
    throw_incomplete("build_exhaustive", res);
  }
  return std::move(res.nbhd);
}

ResumableBuildResult build_exhaustive_resumable(
    const Lcp& lcp, const std::vector<Graph>& graphs,
    const ParallelEnumOptions& options) {
  const auto yes_graphs = filter_yes_graphs(graphs, lcp.k());
  const auto frames = enumerate_frames(yes_graphs, options.enums);
  return run_resumable(
      lcp, frames, maybe_frame_costs(lcp, yes_graphs, frames, options),
      options, "exhaustive",
      [&](const EnumFrame& frame, NbhdGraph& shard, BudgetTracker& tracker) {
        const FrameLabelings labelings =
            frame_labelings(lcp, yes_graphs, frame, options.enums);
        const std::uint64_t seen = shard.absorb_frame(
            lcp.decoder(), labelings, lcp.k(), [&](std::uint64_t absorbed) {
              // Sampled mid-frame poll so hard stops land inside huge
              // labeling products, not only between frames.
              return (absorbed & 2047u) != 0 || !tracker.should_stop() ||
                     !is_hard_stop(tracker.token().reason());
            });
        tracker.add_instances(seen);
        return seen == labelings.num_labelings;
      });
}

NbhdGraph build_proved(const Lcp& lcp, const std::vector<Graph>& graphs,
                       const EnumOptions& options) {
  trace::Span span("nbhd.build");
  span.note("threads", std::uint64_t{1});
  NbhdGraph nbhd;
  const auto yes_graphs = filter_yes_graphs(graphs, lcp.k());
  for_each_proved_instance(lcp, yes_graphs, options, [&](const Instance& inst) {
    nbhd.absorb(lcp.decoder(), inst, lcp.k());
    return true;
  });
  finish_build(nbhd, span);
  return nbhd;
}

NbhdGraph build_proved(const Lcp& lcp, const std::vector<Graph>& graphs,
                       const ParallelEnumOptions& options) {
  if (options.plain()) {
    const auto yes_graphs = filter_yes_graphs(graphs, lcp.k());
    const auto frames = enumerate_frames(yes_graphs, options.enums);
    // Proved builds do one prove() per frame -- near-uniform work, so no
    // cost model: the planner falls back to evenly-sized chunks.
    return build_sharded(
        frames.size(), options, /*costs=*/{},
        [&](std::size_t i, NbhdGraph& shard) {
          const auto inst = proved_instance_in_frame(lcp, yes_graphs, frames[i]);
          if (inst.has_value()) {
            shard.absorb(lcp.decoder(), *inst, lcp.k());
          }
        });
  }
  ResumableBuildResult res = build_proved_resumable(lcp, graphs, options);
  if (!res.complete) {
    throw_incomplete("build_proved", res);
  }
  return std::move(res.nbhd);
}

ResumableBuildResult build_proved_resumable(const Lcp& lcp,
                                            const std::vector<Graph>& graphs,
                                            const ParallelEnumOptions& options) {
  const auto yes_graphs = filter_yes_graphs(graphs, lcp.k());
  const auto frames = enumerate_frames(yes_graphs, options.enums);
  return run_resumable(
      lcp, frames, /*costs=*/{}, options, "proved",
      [&](const EnumFrame& frame, NbhdGraph& shard, BudgetTracker& tracker) {
        const auto inst = proved_instance_in_frame(lcp, yes_graphs, frame);
        if (inst.has_value()) {
          shard.absorb(lcp.decoder(), *inst, lcp.k());
          tracker.add_instances(1);
        }
        return true;
      });
}

NbhdGraph build_from_instances(const Decoder& decoder,
                               const std::vector<Instance>& instances, int k) {
  trace::Span span("nbhd.build");
  span.note("threads", std::uint64_t{1});
  NbhdGraph nbhd;
  for (const Instance& inst : instances) {
    nbhd.absorb(decoder, inst, k);
  }
  finish_build(nbhd, span);
  return nbhd;
}

NbhdGraph build_from_instances(const Decoder& decoder,
                               const std::vector<Instance>& instances, int k,
                               const ParallelEnumOptions& options) {
  SHLCP_CHECK_MSG(options.plain(),
                  "build_from_instances does not support budgets, "
                  "cancellation, or checkpointing; use the frame-based "
                  "*_resumable builders for interruptible sweeps");
  return build_sharded(instances.size(), options, /*costs=*/{},
                       [&](std::size_t i, NbhdGraph& shard) {
                         shard.absorb(decoder, instances[i], k);
                       });
}

}  // namespace shlcp

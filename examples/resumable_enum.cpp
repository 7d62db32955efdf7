// Interrupt-safe V(D, n) sweep from the command line.
//
// Runs a budgeted, checkpointed exhaustive build and demonstrates the
// whole interrupt-safety surface: ^C (SIGINT) checkpoints and exits
// cleanly, --max-frames / --wall-ms interrupt deterministically, and
// re-running the same command line resumes from the manifest and
// finishes the sweep bit-identically to an uninterrupted run.
//
//   resumable_enum --ckpt DIR [options]
//     --decoder NAME    spanning-bfs (default) | degree-one | even-cycle
//     --max-n N         largest graph size in the family (default 3)
//     --threads T       worker threads (default 0 = auto)
//     --every F         checkpoint cadence in frames (default 8)
//     --max-frames F    stop after F frames this run (0 = unlimited)
//     --wall-ms MS      wall-clock budget for this run (0 = unlimited)
//     --reset           discard any existing checkpoint first
//
// Exit codes: 0 = sweep complete, 3 = interrupted (checkpoint written,
// run again to resume), 1 = usage or internal error. CI's
// checkpoint-smoke job drives exactly this loop (.github/workflows).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/spanning_bfs.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "nbhd/aviews.h"
#include "nbhd/checkpoint.h"
#include "util/budget.h"

using namespace shlcp;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --ckpt DIR [--decoder NAME] [--max-n N] "
               "[--threads T]\n"
               "          [--every F] [--max-frames F] [--wall-ms MS] "
               "[--reset]\n"
               "decoders: spanning-bfs | degree-one | even-cycle\n",
               argv0);
  return 1;
}

std::unique_ptr<Lcp> make_lcp(const std::string& name) {
  if (name == "spanning-bfs") {
    return std::make_unique<SpanningBfsLcp>();
  }
  if (name == "degree-one") {
    return std::make_unique<DegreeOneLcp>();
  }
  if (name == "even-cycle") {
    return std::make_unique<EvenCycleLcp>();
  }
  return nullptr;
}

std::vector<Graph> graph_family(const std::string& decoder, int max_n) {
  std::vector<Graph> graphs;
  for (int n = 2; n <= max_n; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      if (!is_bipartite(g)) {
        return true;  // the shipped decoders certify 2-colorability
      }
      if (decoder == "degree-one" && g.min_degree() != 1) {
        return true;
      }
      graphs.push_back(g);
      return true;
    });
  }
  return graphs;
}

}  // namespace

int main(int argc, char** argv) {
  std::string decoder = "spanning-bfs";
  std::string ckpt_dir;
  int max_n = 3;
  int threads = 0;
  std::uint64_t every = 8;
  std::uint64_t max_frames = 0;
  std::uint64_t wall_ms = 0;
  bool reset = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--decoder") {
      decoder = need_value("--decoder");
    } else if (arg == "--ckpt") {
      ckpt_dir = need_value("--ckpt");
    } else if (arg == "--max-n") {
      max_n = std::atoi(need_value("--max-n"));
    } else if (arg == "--threads") {
      threads = std::atoi(need_value("--threads"));
    } else if (arg == "--every") {
      every = std::strtoull(need_value("--every"), nullptr, 10);
    } else if (arg == "--max-frames") {
      max_frames = std::strtoull(need_value("--max-frames"), nullptr, 10);
    } else if (arg == "--wall-ms") {
      wall_ms = std::strtoull(need_value("--wall-ms"), nullptr, 10);
    } else if (arg == "--reset") {
      reset = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (ckpt_dir.empty()) {
    return usage(argv[0]);
  }
  const std::unique_ptr<Lcp> lcp = make_lcp(decoder);
  if (lcp == nullptr) {
    std::fprintf(stderr, "unknown decoder: %s\n", decoder.c_str());
    return usage(argv[0]);
  }
  if (reset) {
    CheckpointStore(ckpt_dir).clear();
  }

  ParallelEnumOptions options;
  options.enums.all_id_orders = (decoder == "spanning-bfs");
  options.enums.all_ports = !options.enums.all_id_orders;
  options.num_threads = threads;
  options.checkpoint.directory = ckpt_dir;
  options.checkpoint.every_frames = every;
  options.budget.max_frames = max_frames;
  options.budget.wall_ms = wall_ms;
  options.budget.arm_sigint = true;  // ^C checkpoints and exits cleanly

  const std::vector<Graph> graphs = graph_family(decoder, max_n);
  std::printf("sweep: decoder=%s max_n=%d graphs=%d ckpt=%s\n",
              decoder.c_str(), max_n, static_cast<int>(graphs.size()),
              ckpt_dir.c_str());

  try {
    const ResumableBuildResult res =
        build(BuildSource::exhaustive(*lcp, graphs), options);
    std::printf("frames: %llu/%llu done (%llu restored from checkpoint)\n",
                static_cast<unsigned long long>(res.frames_done),
                static_cast<unsigned long long>(res.num_frames),
                static_cast<unsigned long long>(res.resumed_frames));
    std::printf("manifest: %s\n", res.manifest_path.c_str());
    if (!res.complete) {
      std::printf("status: INTERRUPTED (%s) -- run the same command again "
                  "to resume\n",
                  to_string(res.stop_reason));
      return 3;
    }
    std::printf("status: COMPLETE  views=%d edges=%d instances=%d\n",
                res.nbhd.num_views(), res.nbhd.num_edges(),
                res.nbhd.num_instances_absorbed());
    const auto cycle = res.nbhd.odd_cycle();
    std::printf("odd cycle in V(D, n): %s\n",
                cycle.has_value() ? "present (decoder is hiding-capable)"
                                  : "absent");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

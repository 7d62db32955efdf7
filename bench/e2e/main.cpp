// shlcp_bench -- the repository's end-to-end benchmark driver.
//
//   shlcp_bench --workload W --seed S [--trace PATH] [--result PATH]
//               [--smoke]
//   shlcp_bench --self-test
//
// Prints every metric as "name value unit", writes a result JSON (with
// git describe, build type, nproc, client threads and the transport),
// and ends stdout with one JSON line {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics, or with --trace the per-layer
// metrics (spans go to PATH as JSONL). Exits nonzero when any output
// check failed. A run measures for kRunSeconds; --smoke runs the same
// code and checks for a fraction of a second per phase. README.md
// describes the workloads and metrics.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "util/format.h"

namespace {

using shlcp::Json;
using shlcp::format;
using namespace shlcp::e2e;

/// The workloads, in the order the README lists them.
const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sweep", "serve_warm", "serve_cold", "sessions"};
  return names;
}

/// Per-layer metric names with their units, in BENCHMARK.json order;
/// every traced run reports each of them (0 where the workload does not
/// exercise the layer).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"json.parse_us", "us"},
      {"json.dump_us", "us"},
      {"proto.envelope_us", "us"},
      {"proto.frame_us", "us"},
      {"cache.key_us", "us"},
      {"cache.digest_us", "us"},
      {"cache.get_hit_us", "us"},
      {"cache.get_miss_us", "us"},
      {"cache.insert_us", "us"},
      {"cache.hit_rate", "ratio"},
      {"cache.evictions", "count"},
      {"service.handle_hit_us", "us"},
      {"service.handle_miss_us", "us"},
      {"service.coverage", "ratio"},
      {"graph.k_coloring_us", "us"},
      {"sim.run_decoder_us", "us"},
      {"nbhd.build_proved_us", "us"},
      {"netloop.residual_us", "us"},
      {"netloop.queue_depth_max", "count"},
      {"netloop.shed", "count"},
      {"client.check_us", "us"},
      {"client.retries", "count"},
      {"client.late_ms", "ms"},
      {"router.hop_us", "us"},
      {"router.ring_us", "us"},
      {"router.skew", "ratio"},
      {"router.rerouted", "count"},
      {"interactive.commit_round_us", "us"},
      {"interactive.open_us", "us"},
      {"interactive.table_open_us", "us"},
      {"interactive.table_step_us", "us"},
      {"interactive.step_rtt_us", "us"},
      {"sessions.live_max", "count"},
      {"sessions.expired", "count"},
      {"enumerate.setup_ms", "ms"},
      {"enumerate.ns_per_instance", "ns"},
      {"views.extract_ns", "ns"},
      {"views.fingerprint_ns", "ns"},
      {"certify.accept_ns", "ns"},
      {"nbhd.absorb_ns", "ns"},
      {"nbhd.absorb_self_ns", "ns"},
      {"nbhd.merge_ms", "ms"},
      {"nbhd.analysis_ms", "ms"},
      {"parallel.efficiency_2t", "ratio"},
      {"parallel.steals", "count"},
      {"nbhd.registrations", "count"},
      {"nbhd.fingerprint_hits", "count"},
      {"nbhd.fingerprint_misses", "count"},
      {"views.canonical_computes", "count"},
      {"trace.overhead_pct", "%"},
      {"latency_p99_us", "us"},
  };
  return metrics;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload W --seed S [--trace PATH] [--result PATH]\n"
               "          [--smoke]\n"
               "       %s --self-test\n"
               "workloads: sweep serve_warm serve_cold sessions\n",
               argv0, argv0);
  return 2;
}

std::string git_describe() {
  std::FILE* p = ::popen("git describe --always --dirty 2>/dev/null", "r");
  if (p == nullptr) {
    return "unknown";
  }
  char buf[128] = {};
  const bool got = std::fgets(buf, sizeof buf, p) != nullptr;
  ::pclose(p);
  std::string s = got ? buf : "";
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) {
    s.pop_back();
  }
  return s.empty() ? "unknown" : s;
}

/// Median self time per call of every span name: where each layer's
/// own time went once its children are subtracted.
Json self_time_table(const std::vector<Span>& spans) {
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(
        static_cast<double>(self[i]) /
        static_cast<double>(std::max<std::uint32_t>(spans[i].batch, 1)));
  }
  Json table = Json::object();
  for (auto& [name, xs] : by_name) {
    table[name] = median(std::move(xs));
  }
  return table;
}

std::string exe_dir() {
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string(".") : self.parent_path().string();
}

/// The run's work directory, <build dir>/run/<workload>-<pid>: inside the
/// build tree, and spelled relative to the current directory when that
/// is shorter, because unix socket paths are limited to ~100 bytes.
std::string work_dir_for(const std::string& build_dir,
                         const std::string& workload) {
  std::filesystem::path base = std::filesystem::path(build_dir) / "run";
  std::error_code ec;
  const std::filesystem::path rel = std::filesystem::relative(base, ec);
  if (!ec && !rel.empty() && rel.native().size() < base.native().size()) {
    base = rel;
  }
  return format("%s/%s-%d", base.c_str(), workload.c_str(),
                static_cast<int>(::getpid()));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool self_test = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = next();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--trace") {
      opt.trace_path = next();
    } else if (arg == "--result") {
      opt.result_path = next();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--self-test") {
      self_test = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (self_test) {
    return run_self_test();
  }
  const auto& names = workload_names();
  if (!have_seed ||
      std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    return usage(argv[0]);
  }
  opt.seconds = opt.smoke ? kSmokeSeconds : kRunSeconds;
  if (opt.result_path.empty()) {
    opt.result_path = format("BENCH_e2e_%s.json", opt.workload.c_str());
  }
  opt.exe_dir = exe_dir();
  opt.work_dir = work_dir_for(opt.exe_dir, opt.workload);
  // The longest socket path of a run: the router's backend sockets.
  if (opt.work_dir.size() + std::strlen("/setup0/fleet/b0.sock") >= 100) {
    std::fprintf(stderr,
                 "shlcp_bench: work directory %s is too deep for unix socket "
                 "paths; run from closer to the build directory\n",
                 opt.work_dir.c_str());
    return 2;
  }
  std::filesystem::remove_all(opt.work_dir);
  std::filesystem::create_directories(opt.work_dir);

  kill_children_on_fatal_signals();
  SpanLog log;
  SpanLog* spans = opt.traced() ? &log : nullptr;
  RunResult result;
  try {
    if (opt.workload == "sweep") {
      run_sweep(opt, spans, result);
    } else {
      run_serving(opt, spans, result);
    }
  } catch (const std::exception& e) {
    result.fail(format("aborted: %s", e.what()));
  }

  if (opt.traced()) {
    // A layer the workload does not exercise reports 0 (no calls).
    for (const auto& [name, unit] : per_layer_metrics()) {
      if (result.metrics.count(name) == 0) {
        result.metric(name, 0.0, unit);
      }
    }
    if (!log.write_jsonl(opt.trace_path)) {
      result.fail("cannot write the span log to " + opt.trace_path);
    }
  }
  for (auto& [name, m] : result.metrics) {
    if (!std::isfinite(m.first)) {
      result.fail(format("metric %s is not finite", name.c_str()));
      m.first = -1.0;
    }
  }
  const bool correct = result.failures.empty() && result.failed() == 0;
  const double error_rate =
      result.attempted == 0
          ? 1.0
          : static_cast<double>(result.failed()) /
                static_cast<double>(result.attempted);

  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "shlcp_bench: CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("# %s seed=%llu seconds=%g%s%s (%s, %d client threads)\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.traced() ? " traced" : "",
              opt.smoke ? " smoke" : "", kTransport, kClientThreads);
  Json metrics = Json::object();
  for (const auto& [name, m] : result.metrics) {
    std::printf("%s %s %s\n", name.c_str(), Json(m.first).dump().c_str(),
                m.second.c_str());
    Json& entry = (metrics[name] = Json::object());
    entry["value"] = m.first;
    entry["unit"] = m.second;
  }
  std::printf("error_rate %s ratio\n", Json(error_rate).dump().c_str());

  Json doc = Json::object();
  doc["schema"] = "shlcp.e2e.v1";
  doc["workload"] = opt.workload;
  doc["seed"] = opt.seed;
  doc["seconds"] = opt.seconds;
  doc["traced"] = opt.traced();
  doc["smoke"] = opt.smoke;
  Json& env = (doc["env"] = Json::object());
  env["git_describe"] = git_describe();
  env["build_type"] = SHLCP_BENCH_BUILD_TYPE;
  env["nproc"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  env["client_threads"] = kClientThreads;
  env["transport"] = kTransport;
  doc["correct"] = correct;
  doc["attempted"] = result.attempted;
  doc["failed"] = result.failed();
  doc["error_rate"] = error_rate;
  Json& counts = (doc["counts"] = Json::object());
  counts["errors"] = result.errors;
  counts["refused"] = result.refused;
  counts["lost"] = result.lost;
  counts["wrong"] = result.wrong;
  Json& failures = (doc["failures"] = Json::array());
  for (const std::string& f : result.failures) {
    failures.push_back(f);
  }
  doc["metrics"] = metrics;
  doc["details"] = result.details;
  if (opt.traced()) {
    doc["trace"] = opt.trace_path;
    doc["self_time_p50_ns"] = self_time_table(log.snapshot());
  }
  if (std::FILE* f = std::fopen(opt.result_path.c_str(), "w")) {
    const std::string text = doc.dump(2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "shlcp_bench: cannot write %s\n",
                 opt.result_path.c_str());
  }
  if (correct) {
    std::error_code ec;
    std::filesystem::remove_all(opt.work_dir, ec);
    // Only if now empty.
    std::filesystem::remove(std::filesystem::path(opt.work_dir).parent_path(),
                            ec);
  } else {
    std::fprintf(stderr, "shlcp_bench: logs kept in %s\n",
                 opt.work_dir.c_str());
  }

  Json line = Json::object();
  line["correct"] = correct;
  line["attempted"] = std::max<std::uint64_t>(result.attempted, 1);
  line["failed"] = result.failed();
  line["metrics"] = metrics;
  std::printf("%s\n", line.dump().c_str());
  return correct ? 0 : 1;
}

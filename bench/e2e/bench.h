// Shared declarations of shlcp_bench, the repository's end-to-end
// benchmark (bench/e2e/README.md has the workload and metric tables).
//
// The bench is the only load source: at most kClientThreads client
// threads, each with one svc::Client connection (retries off), drive
// shlcpd / shlcp_router processes it spawns itself over unix sockets on
// this host. The sweep workload runs the V(D, n) builders in-process.
//
// Tracing is the bench's own: spans around its calls into each layer's
// public functions, kept in memory and written as JSONL at exit. The
// daemons run with tracing off (SHLCP_* is scrubbed from their
// environment).

#pragma once

#include <sys/types.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace shlcp::e2e {

/// Client threads (= connections) of the load generator.
inline constexpr int kClientThreads = 2;

/// Every result states the transport, since no real link is involved.
inline constexpr const char* kTransport = "unix socket, single host";

/// How long one run measures (BENCHMARK.json's run_seconds); --smoke
/// cuts it to kSmokeSeconds. The run length is fixed so that every run
/// of a workload measures the same amount of work.
inline constexpr double kRunSeconds = 20.0;
inline constexpr double kSmokeSeconds = 0.5;

std::uint64_t now_ns();

// ---------------------------------------------------------------------
// Statistics (stats.cpp).

/// Nearest-rank percentile: the sample at 1-based rank ceil(p / 100 * n)
/// of the sorted sample. 0 for an empty sample.
double percentile(std::vector<double> xs, double p);
double median(std::vector<double> xs);

/// The highest of 99.99 / 99.9 / 99 / 90 / 50 that leaves at least ten
/// of `n` samples above its rank; 0 when not even the median does.
double highest_supported_percentile(std::size_t n);

/// A timed phase cut into equal windows by op completion time. A phase's
/// reported rate and cost are the medians over its windows: a minority
/// of windows slowed by other tenants cannot move them, a slowdown in
/// most of the phase does.
struct Windows {
  std::vector<double> rate;    // ok ops per second, per window
  std::vector<double> p50_us;  // median op latency (windows with ops only)
  std::vector<double> cost;    // CPU microseconds per op, per window
};

/// Bins ok ops (completion time, latency; pairwise) into the windows
/// [start + k * window, start + (k + 1) * window); `cpu_s` holds a CPU
/// seconds reading at every window boundary, so its size is one more
/// than the window count.
Windows window_stats(const std::vector<std::uint64_t>& done_ns,
                     const std::vector<double>& latency_us,
                     std::uint64_t start_ns, std::uint64_t window_ns,
                     const std::vector<double>& cpu_s);

/// Open-loop send schedule: op i is due at start_ns + i / rate.
struct OpenLoopSchedule {
  std::uint64_t start_ns = 0;
  double rate = 0.0;  // ops per second

  [[nodiscard]] std::uint64_t due_ns(std::uint64_t i) const;
};

/// One open-loop op's accounting. Latency runs from the due time, so a
/// stall is charged to every op it delays; lateness is how far behind
/// schedule the generator actually sent (0 when on time).
struct OpenLoopTiming {
  double latency_us = 0.0;
  double late_us = 0.0;
};
OpenLoopTiming open_loop_timing(std::uint64_t due_ns, std::uint64_t sent_ns,
                                std::uint64_t done_ns);

// ---------------------------------------------------------------------
// Spans (stats.cpp).

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;   // index into the log; -1 = root
  std::uint64_t request = 0;  // the op this span belongs to
  std::uint32_t batch = 1;    // calls covered (sub-microsecond calls are
                              // timed in batches)
};

/// Thread-safe in-memory span log. A null SpanLog* means tracing is off;
/// ScopedSpan and timed() accept one.
class SpanLog {
 public:
  std::int64_t open(std::string_view name, std::int64_t parent,
                    std::uint64_t request);
  void close(std::int64_t index);
  /// Appends an already-timed span.
  void record(std::string_view name, std::int64_t parent,
              std::uint64_t request, std::uint64_t start_ns,
              std::uint64_t end_ns, std::uint32_t batch);
  [[nodiscard]] std::vector<Span> snapshot() const;
  /// One JSON object per line: name, start_ns, end_ns, parent, request,
  /// batch. Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Opens a span for the current scope (no-op on a null log).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string_view name, std::int64_t parent,
             std::uint64_t request)
      : log_(log),
        index_(log == nullptr ? -1 : log->open(name, parent, request)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t index() const { return index_; }

 private:
  SpanLog* log_;
  std::int64_t index_;
};

/// Times `fn` as a span `name` under `parent`. A call that finishes in
/// under a microsecond is re-run as a batch long enough to time and the
/// span records the batch size, so only repeatable calls may pass
/// `repeatable`.
template <typename Fn>
void timed(SpanLog& log, std::string_view name, std::int64_t parent,
           std::uint64_t request, bool repeatable, Fn&& fn) {
  std::uint64_t t0 = now_ns();
  fn();
  std::uint64_t t1 = now_ns();
  std::uint32_t batch = 1;
  if (repeatable && t1 - t0 < 1000) {
    batch = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        1024, 2000 / std::max<std::uint64_t>(t1 - t0, 1) + 1));
    t0 = now_ns();
    for (std::uint32_t i = 0; i < batch; ++i) {
      fn();
      // Keeps the compiler from hoisting the call out of the batch.
      asm volatile("" ::: "memory");
    }
    t1 = now_ns();
  }
  log.record(name, parent, request, t0, t1, batch);
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to its own).
std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans);

/// Per-call duration in ns (duration / batch) of every span named
/// `name` (a trailing '*' matches any suffix).
std::vector<double> per_call_ns(const std::vector<Span>& spans,
                                std::string_view name);

/// Per request: the summed per-call time (ns) of its non-root spans
/// named `name` -- one stage's cost inside each replayed request.
std::map<std::uint64_t, double> child_totals_ns(const std::vector<Span>& spans,
                                                std::string_view name);

// ---------------------------------------------------------------------
// Child processes (child.cpp).

/// One system-under-test process, posix_spawn'ed as the leader of its own
/// process group with every SHLCP_* variable removed from its
/// environment and stdout/stderr appended to a log. Its group is killed
/// and reaped on destruction if it is still running.
class ChildProcess {
 public:
  ChildProcess(const std::vector<std::string>& argv,
               const std::string& log_path);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Readiness handshake: `port_file` appears (the daemon publishes it
  /// once every listener is bound), then one `health` call over
  /// `socket` succeeds. False on timeout or if the child died.
  bool wait_ready(const std::string& port_file, const std::string& socket,
                  std::uint64_t timeout_ms);

  /// SIGINT (graceful drain) and reap. Returns the exit code, 128 +
  /// signal when signalled, or -1 when it had to be SIGKILLed.
  int stop(std::uint64_t timeout_ms = 10'000);

  [[nodiscard]] pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

/// Makes this process the subreaper of its children's children and, on
/// SIGINT / SIGTERM / SIGHUP, SIGKILLs every live child's process group
/// before dying of the signal, so no daemon outlives an interrupted run.
void kill_children_on_fatal_signals();

/// user + system CPU seconds of a live process (/proc/<pid>/stat).
double proc_cpu_seconds(pid_t pid);
/// Peak resident set (VmHWM) of a live process in MiB.
double proc_peak_rss_mb(pid_t pid);

// ---------------------------------------------------------------------
// Runs and results.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kRunSeconds;  // kSmokeSeconds with --smoke
  std::string trace_path;   // non-empty = traced run
  std::string result_path;  // result JSON
  bool smoke = false;
  std::string exe_dir;      // where shlcpd / shlcp_router live
  std::string work_dir;     // fresh per run; removed when it passes

  [[nodiscard]] bool traced() const { return !trace_path.empty(); }
};

/// What one invocation measured and checked.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;   // error responses
  std::uint64_t refused = 0;  // overloaded / draining
  std::uint64_t lost = 0;     // no response
  std::uint64_t wrong = 0;    // answered, but failed an output check
  std::vector<std::string> failures;  // one line per failed check
  /// name -> (value, unit). End-to-end metrics in an untraced run,
  /// per-layer metrics in a traced one.
  std::map<std::string, std::pair<double, std::string>> metrics;
  Json details = Json::object();  // sample counts, rates, phase data

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(std::string why) { failures.push_back(std::move(why)); }
  [[nodiscard]] std::uint64_t failed() const {
    return errors + refused + lost + wrong;
  }
};

/// Workload entry points. Each fills `out` and leaves the checks'
/// verdicts in out.failures.
void run_serving(const Options& opt, SpanLog* spans, RunResult& out);
void run_sweep(const Options& opt, SpanLog* spans, RunResult& out);

/// shlcp_bench --self-test; returns the exit code.
int run_self_test();

}  // namespace shlcp::e2e

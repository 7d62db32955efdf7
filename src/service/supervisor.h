// Self-healing fleet supervision for shlcpd backends.
//
// The router (router.h) reroutes around a dead backend but never
// revives one, so an unsupervised fleet degrades monotonically under
// the crash faults a single daemon provably survives (bench_chaos).
// Supervisor closes that loop: it spawns the backend processes itself,
// watches them with waitpid plus periodic `health` probes, and
// restarts whatever dies -- so the fleet converges back to full
// strength instead of shrinking toward zero.
//
// The pieces, each independently testable:
//
//   CrashLoopBreaker -- a pure state machine over injected timestamps
//   (no clock, no threads; tests/service_supervisor_test.cpp drives
//   every transition with literal times). K failures inside a sliding
//   window open the breaker; an open breaker quarantines the backend
//   (the router spills its ring keys to replicas and never blocks a
//   request on it); after half_open_after_ms one trial restart is
//   allowed -- success closes the breaker and clears the failure
//   history, failure re-opens it with a fresh timer.
//
//   restart_backoff_ms -- the capped exponential restart schedule with
//   deterministic jitter keyed on (seed, backend, attempt), the same
//   splitmix-keyed discipline the resilient Client uses, so a chaos
//   run's restart timeline replays exactly from its seed.
//
//   Supervisor -- the process manager. Each backend is one
//   ChildProcess (process.h) with its own unix socket, port file, log,
//   and disk-cache directory; it counts as ready only once
//   ChildProcess::spawn_ready has seen the port file *and* a `health`
//   round-trip. Restarts are warm: the dead backend's cache directory
//   is reused, so a revived shard serves its pre-crash artifacts from
//   disk instead of recomputing them.
//
// Wedge detection: a live process that stops answering is as dead as a
// crashed one, but waitpid cannot see it. The monitor's periodic
// `health` probes distinguish connection-refused (process gone;
// waitpid will reap it) from timeout (process wedged) via
// CallResult::fail_kind; wedge_probe_timeouts consecutive timeouts get
// the process SIGKILLed, which turns the wedge into an ordinary crash
// the restart path already handles.
//
// Router integration is push-based: attach_router() lets the
// supervisor stamp quarantine flags, restart counts, last exit status,
// and pids into the router's per-backend state the moment they change,
// so fleet `health` reports them live and routing skips a quarantined
// backend without ever probing it.

#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/router.h"

namespace shlcp::svc {

/// Crash-loop circuit breaker: a pure function of the failure/success
/// timestamps fed to it. Not thread-safe; the owner serializes access.
class CrashLoopBreaker {
 public:
  enum class State {
    kClosed,    // restarts proceed on the normal backoff schedule
    kOpen,      // quarantined: no restarts until the half-open time
    kHalfOpen,  // one trial restart allowed
  };

  /// `max_failures` failures within the trailing `window_ms` open the
  /// breaker; once open, state(now) turns half-open after
  /// `half_open_after_ms`.
  CrashLoopBreaker(int max_failures, std::uint64_t window_ms,
                   std::uint64_t half_open_after_ms);

  [[nodiscard]] State state(std::uint64_t now_ms) const;

  /// Records one failure at `now_ms` and returns the resulting state.
  /// A failure while open (a half-open trial that died) re-opens the
  /// breaker with a fresh half-open timer.
  State record_failure(std::uint64_t now_ms);

  /// A successful half-open trial: closes the breaker and clears the
  /// failure history (the next crash starts a fresh window).
  void record_success();

  /// Failures still inside the window at `now_ms`.
  [[nodiscard]] int failures_in_window(std::uint64_t now_ms) const;

  [[nodiscard]] std::uint64_t opened_at_ms() const { return opened_at_ms_; }

 private:
  int max_failures_;
  std::uint64_t window_ms_;
  std::uint64_t half_open_after_ms_;
  std::deque<std::uint64_t> failures_;  // timestamps, oldest first
  bool open_ = false;
  std::uint64_t opened_at_ms_ = 0;
};

/// Restart schedule knobs (the supervisor analogue of RetryPolicy).
struct RestartPolicy {
  std::uint64_t base_backoff_ms = 100;
  std::uint64_t max_backoff_ms = 2000;
  std::uint64_t seed = 0;
};

/// Backoff before restart attempt `attempt` (1-based) of backend
/// `backend_index`: jitter(min(base << (attempt-1), max)) with the
/// jitter drawn uniformly from [b/2, b] by an Rng keyed on (seed,
/// backend, attempt) -- deterministic, so the restart timeline of a
/// seeded run replays exactly.
std::uint64_t restart_backoff_ms(const RestartPolicy& policy,
                                 std::uint64_t backend_index, int attempt);

struct SupervisorOptions {
  /// Backend binary to exec (Supervisor::find_shlcpd locates it).
  std::string shlcpd_path;
  /// Root for per-backend sockets, port files, logs, and cache dirs.
  /// Created if absent; cache dirs persist across restarts (warm).
  std::string work_dir;
  /// Number of backends to spawn and keep alive.
  int backends = 2;
  /// Extra argv appended to every backend (e.g. "--cache-bytes", "N").
  std::vector<std::string> backend_args;
  /// Worker threads per backend.
  int backend_threads = 2;
  RestartPolicy restart;
  /// Crash-loop breaker: `breaker_failures` failures inside
  /// `breaker_window_ms` quarantine the backend; a trial restart is
  /// allowed every `half_open_after_ms` thereafter.
  int breaker_failures = 5;
  std::uint64_t breaker_window_ms = 30'000;
  std::uint64_t half_open_after_ms = 2'000;
  /// Budget for one spawn to publish its port file and answer a
  /// `health` probe; past it the spawn counts as a failure.
  std::uint64_t spawn_wait_ms = 10'000;
  /// Monitor cadence: how often each live backend is health-probed.
  std::uint64_t probe_interval_ms = 500;
  /// Per-probe timeout; a probe that exceeds it counts toward wedge
  /// detection.
  std::uint64_t probe_timeout_ms = 1'000;
  /// Consecutive probe timeouts before a live backend is declared
  /// wedged and SIGKILLed into the ordinary restart path.
  int wedge_probe_timeouts = 3;
};

/// Snapshot of one supervised backend (Supervisor::stats).
struct SupervisedBackendStats {
  std::string name;
  std::string target;  // "unix:<path>"
  pid_t pid = -1;      // -1 = not running
  bool running = false;
  bool quarantined = false;
  std::uint64_t restarts = 0;     // successful respawns (initial spawn
                                  // excluded)
  int last_exit = -1;             // exit code, 128+signal, or -1 = never
  std::uint64_t wedge_kills = 0;  // SIGKILLs issued by wedge detection
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions options);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Locates the backend binary: $SHLCP_SHLCPD, then shlcpd next to
  /// `argv0`, then the build-tree locations bench_chaos probes.
  /// Returns "" when nothing is executable.
  static std::string find_shlcpd(const char* argv0);

  /// Spawns every backend and waits for each readiness handshake.
  /// False if any backend never came up (the rest are torn down).
  bool start();

  /// Pushes live quarantine/restart/pid state into `router` (not
  /// owned; must outlive this supervisor or be detached by destroying
  /// the supervisor first). Call between start() and start_monitor().
  void attach_router(Router* router);

  /// Starts the background monitor (waitpid + probes + restarts).
  void start_monitor();

  /// Stops the monitor, then stops each child in turn with
  /// ChildProcess::stop (SIGINT to drain, SIGKILL past a 5 s grace
  /// period, reap). Idempotent.
  void stop();

  /// Ring specs for the spawned fleet, in backend order -- what the
  /// Router is constructed from.
  [[nodiscard]] std::vector<BackendSpec> backend_specs() const;

  [[nodiscard]] std::vector<SupervisedBackendStats> stats() const;

  /// Pid of backend `index`, or -1 when not running. The chaos bench
  /// uses this to SIGKILL victims directly.
  [[nodiscard]] pid_t pid_of(int index) const;

  /// One monitor iteration at `now_ms`: reap exits, probe the living,
  /// restart the due, run half-open trials. The monitor thread calls
  /// this on a timer; exposed so a harness can drive supervision
  /// without depending on wall-clock scheduling.
  void poll_once(std::uint64_t now_ms);

 private:
  struct Child;

  bool spawn_child(Child& c);  // ChildProcess::spawn_ready
  /// A crash or failed restart: back off, or quarantine past the
  /// breaker's threshold.
  void on_failure(Child& c, std::uint64_t now_ms);
  void push_runtime(const Child& c);

  SupervisorOptions options_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Child>> children_;
  Router* router_ = nullptr;
  std::thread monitor_;
  std::atomic<bool> stop_{false};
};

}  // namespace shlcp::svc

// One spawned child process: fork/exec, readiness, exit status, reap.
//
// Every program that starts an shlcpd -- the Supervisor, bench_chaos,
// bench_fleet and shlcp_loadgen --spawn -- goes through ChildProcess,
// so the rules of DESIGN.md §16 are stated here once:
//
//   Spawn. argv is built before fork. The parent is multithreaded, so
//   between fork and exec the child makes only async-signal-safe calls
//   (open, dup2, execv, _exit); a malloc there can deadlock on a lock
//   another thread held at fork time. An exec failure exits 127.
//
//   Readiness. spawn_ready() removes any stale port file (one left by
//   a SIGKILLed incarnation must not satisfy the wait), appends
//   `--port-file`, waits for the file (shlcpd publishes it by atomic
//   rename once every listener is bound), then makes one `health` call
//   on the published unix socket or TCP port, so the dispatcher is
//   known to answer, not merely bound. A child that dies first is seen
//   by a WNOHANG reap and the wait returns at once.
//
//   Exit status. Decoded once, shell style: the exit code for a normal
//   exit, 128+signal for a signal death (SIGKILL reads as 137).
//
//   Stop. SIGINT (shlcpd drains, then exits 0), a grace period, then
//   SIGKILL and reap. The destructor kills and reaps a child that is
//   still running, so no caller leaks one on an early return.

#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "service/client.h"
#include "util/json.h"

namespace shlcp::svc {

/// Where a child's standard streams go; unset fields are inherited.
/// The daemons append stdout and stderr to a log file (restarts stack
/// in one log). shlcp_loadgen --spawn instead hands over pipe ends as
/// the child's stdin and stdout; it creates them O_CLOEXEC, so only
/// the dup2'd copies survive the exec.
struct ChildStdio {
  std::string log_path;
  int stdin_fd = -1;
  int stdout_fd = -1;
};

/// One `health` call to `target` ("unix:<path>" or "tcp:<host>:<port>"),
/// a single attempt within `timeout_ms`: the readiness probe, and the
/// supervisor's liveness and wedge probe.
CallResult probe_health(const std::string& target, std::uint64_t timeout_ms);

class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess();

  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Forks and execs `args[0]` with `args` as argv. False only if fork
  /// fails. Must not be called while a child is running.
  bool spawn(std::vector<std::string> args, const ChildStdio& stdio);

  /// spawn() with `--port-file port_file` appended, then waits up to
  /// `budget_ms` for readiness (see the file comment). Returns the
  /// parsed port file ({"unix": path, "tcp": port, "http": port}) once
  /// ready. Returns nullopt if the child exited first, or missed the
  /// budget and was killed; last_exit() then says how it ended. The
  /// probe goes to the unix socket if one was published, else to the
  /// TCP port on 127.0.0.1.
  std::optional<Json> spawn_ready(std::vector<std::string> args,
                                  const std::string& port_file,
                                  const ChildStdio& stdio,
                                  std::uint64_t budget_ms,
                                  std::uint64_t probe_timeout_ms = 1'000);

  /// Non-blocking reap: true once the child has exited (or none runs).
  bool try_reap();

  /// Blocks until the child exits; returns last_exit().
  int wait();

  /// SIGINT, up to `grace_ms` for a clean exit, then SIGKILL; reaps
  /// and returns last_exit(). A no-op when no child runs.
  int stop(std::uint64_t grace_ms = 5'000);

  /// SIGKILL and reap; returns last_exit().
  int kill();

  /// Sends `sig` without reaping (a later try_reap() collects it).
  void signal(int sig) const;

  /// The running child's pid, or -1 when none runs.
  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] bool running() const { return pid_ > 0; }

  /// Exit code or 128+signal of the last reaped child; -1 until one
  /// has been reaped. A new spawn keeps it until that child exits.
  [[nodiscard]] int last_exit() const { return last_exit_; }

 private:
  void record(int wait_status);

  pid_t pid_ = -1;
  int last_exit_ = -1;
};

}  // namespace shlcp::svc

#include "service/supervisor.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "service/client.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/format.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace shlcp::svc {

namespace {

namespace fs = std::filesystem;

/// Shell convention: exit code for a normal exit, 128+signal for a
/// signal death (so SIGKILL reads as 137 in fleet health).
int decode_wait_status(int status) {
  if (WIFEXITED(status)) {
    return WEXITSTATUS(status);
  }
  if (WIFSIGNALED(status)) {
    return 128 + WTERMSIG(status);
  }
  return -1;
}

}  // namespace

// ---------------------------------------------------------------------
// CrashLoopBreaker.

CrashLoopBreaker::CrashLoopBreaker(int max_failures, std::uint64_t window_ms,
                                   std::uint64_t half_open_after_ms)
    : max_failures_(std::max(max_failures, 1)),
      window_ms_(window_ms),
      half_open_after_ms_(half_open_after_ms) {}

CrashLoopBreaker::State CrashLoopBreaker::state(std::uint64_t now) const {
  if (!open_) {
    return State::kClosed;
  }
  return now - opened_at_ms_ >= half_open_after_ms_ ? State::kHalfOpen
                                                    : State::kOpen;
}

int CrashLoopBreaker::failures_in_window(std::uint64_t now) const {
  int count = 0;
  for (const std::uint64_t t : failures_) {
    if (now - t < window_ms_) {
      ++count;
    }
  }
  return count;
}

CrashLoopBreaker::State CrashLoopBreaker::record_failure(std::uint64_t now) {
  failures_.push_back(now);
  while (!failures_.empty() && now - failures_.front() >= window_ms_) {
    failures_.pop_front();
  }
  if (open_ || static_cast<int>(failures_.size()) >= max_failures_) {
    // Already open (a half-open trial just died) or the window filled:
    // (re-)open with a fresh half-open timer.
    open_ = true;
    opened_at_ms_ = now;
  }
  return state(now);
}

void CrashLoopBreaker::record_success() {
  open_ = false;
  failures_.clear();
}

// ---------------------------------------------------------------------
// Restart backoff.

std::uint64_t restart_backoff_ms(const RestartPolicy& policy,
                                 std::uint64_t backend_index, int attempt) {
  const int shift = std::min(std::max(attempt, 1) - 1, 30);
  std::uint64_t backoff = policy.base_backoff_ms;
  if (backoff > (policy.max_backoff_ms >> shift)) {
    backoff = policy.max_backoff_ms;
  } else {
    backoff = std::min(backoff << shift, policy.max_backoff_ms);
  }
  if (backoff > 0) {
    Rng rng(mix64(policy.seed ^ mix64(0x9e3779b97f4a7c15ULL + backend_index) ^
                  static_cast<std::uint64_t>(attempt)));
    backoff = backoff / 2 + rng.next_below(backoff / 2 + 1);
  }
  return backoff;
}

// ---------------------------------------------------------------------
// Supervisor.

/// One supervised backend. All fields are guarded by Supervisor::mu_;
/// the monitor thread is the only writer after start().
struct Supervisor::Child {
  int index = 0;
  std::string name;
  std::string socket_path;
  std::string port_file;
  std::string cache_dir;
  std::string log_path;

  pid_t pid = -1;
  bool running = false;
  bool quarantined = false;
  std::uint64_t restarts = 0;
  int last_exit = -1;
  std::uint64_t wedge_kills = 0;

  /// Consecutive failed spawn/restart attempts since the last success;
  /// indexes the backoff schedule.
  int failed_attempts = 0;
  /// When the next restart is due (0 = none scheduled).
  std::uint64_t restart_due_ms = 0;
  std::uint64_t last_probe_ms = 0;
  int probe_timeouts_in_a_row = 0;

  CrashLoopBreaker breaker;

  Child(int max_failures, std::uint64_t window_ms,
        std::uint64_t half_open_after_ms)
      : breaker(max_failures, window_ms, half_open_after_ms) {}
};

Supervisor::Supervisor(SupervisorOptions options)
    : options_(std::move(options)) {
  SHLCP_CHECK_MSG(options_.backends > 0,
                  "supervisor needs at least one backend");
  for (int i = 0; i < options_.backends; ++i) {
    auto child = std::make_unique<Child>(options_.breaker_failures,
                                         options_.breaker_window_ms,
                                         options_.half_open_after_ms);
    child->index = i;
    child->name = format("b%d", i);
    const std::string base = options_.work_dir + "/" + child->name;
    child->socket_path = base + ".sock";
    child->port_file = base + ".ports.json";
    child->cache_dir = base + ".cache";
    child->log_path = base + ".log";
    children_.push_back(std::move(child));
  }
}

Supervisor::~Supervisor() { stop(); }

std::string Supervisor::find_shlcpd(const char* argv0) {
  if (const char* env = std::getenv("SHLCP_SHLCPD")) {
    return env;
  }
  if (argv0 != nullptr && argv0[0] != '\0') {
    const fs::path sibling = fs::path(argv0).parent_path() / "shlcpd";
    std::error_code ec;
    if (fs::exists(sibling, ec) &&
        ::access(sibling.c_str(), X_OK) == 0) {
      return sibling.string();
    }
  }
  for (const char* candidate :
       {"examples/shlcpd", "build/examples/shlcpd", "../examples/shlcpd"}) {
    if (::access(candidate, X_OK) == 0) {
      return candidate;
    }
  }
  return "";
}

bool Supervisor::spawn_child(Child& c) {
  std::error_code ec;
  // A stale port file must never satisfy the readiness handshake:
  // shlcpd removes it on graceful exit, the supervisor removes it
  // before every spawn, so its presence always means *this*
  // incarnation is bound.
  fs::remove(c.port_file, ec);
  fs::create_directories(c.cache_dir, ec);  // reused across restarts

  std::vector<std::string> args = {
      options_.shlcpd_path,
      "--socket",     c.socket_path,
      "--port-file",  c.port_file,
      "--cache-dir",  c.cache_dir,
      "--threads",    format("%d", std::max(options_.backend_threads, 1)),
  };
  args.insert(args.end(), options_.backend_args.begin(),
              options_.backend_args.end());

  // argv is assembled BEFORE fork: the parent is multithreaded, so the
  // child may only touch async-signal-safe calls between fork and exec
  // (a malloc there can deadlock on an arena lock some other thread
  // held at fork time).
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    return false;
  }
  if (pid == 0) {
    const int log_fd =
        ::open(c.log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, 1);
      ::dup2(log_fd, 2);
      ::close(log_fd);
    }
    ::execv(argv[0], argv.data());
    _exit(127);  // exec failed; the parent sees a dead readiness wait
  }

  c.pid = pid;
  const std::uint64_t deadline = mono_ms() + options_.spawn_wait_ms;

  // Phase 1 of the handshake: the port file is published (atomic
  // rename) only once every listener is bound.
  bool published = false;
  while (mono_ms() < deadline) {
    if (fs::exists(c.port_file, ec)) {
      published = true;
      break;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      c.pid = -1;
      c.last_exit = decode_wait_status(status);
      return false;  // died before binding (bad flags, exec failure)
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Phase 2: one health round-trip proves the dispatcher is answering,
  // not merely bound.
  bool ready = false;
  if (published) {
    ClientOptions probe_options;
    probe_options.timeout_ms = options_.probe_timeout_ms;
    probe_options.retry.max_attempts = 1;
    while (mono_ms() < deadline) {
      Client probe(Client::unix_connector(c.socket_path, ChaosPlan{}),
                   probe_options);
      if (probe.call("health", Json::object()).ok) {
        ready = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  if (!ready) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    c.pid = -1;
    c.last_exit = decode_wait_status(status);
    return false;
  }
  c.running = true;
  c.probe_timeouts_in_a_row = 0;
  c.last_probe_ms = mono_ms();
  metrics::counter("supervisor.spawns").inc();
  return true;
}

bool Supervisor::start() {
  std::error_code ec;
  fs::create_directories(options_.work_dir, ec);
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& child : children_) {
    if (!spawn_child(*child)) {
      std::fprintf(stderr,
                   "supervisor: backend %s never became ready "
                   "(last_exit=%d, log: %s)\n",
                   child->name.c_str(), child->last_exit,
                   child->log_path.c_str());
      for (auto& other : children_) {
        if (other->running) {
          ::kill(other->pid, SIGKILL);
          int status = 0;
          ::waitpid(other->pid, &status, 0);
          other->running = false;
          other->pid = -1;
        }
      }
      return false;
    }
  }
  return true;
}

void Supervisor::attach_router(Router* router) {
  const std::lock_guard<std::mutex> lock(mu_);
  router_ = router;
  for (const auto& child : children_) {
    push_runtime(*child);
  }
}

void Supervisor::push_runtime(const Child& c) {
  if (router_ == nullptr) {
    return;
  }
  BackendRuntime rt;
  rt.quarantined = c.quarantined;
  rt.restarts = c.restarts;
  rt.last_exit = c.last_exit;
  rt.pid = c.running ? static_cast<std::int64_t>(c.pid) : -1;
  router_->set_backend_runtime(c.name, rt);
  router_->set_backend_alive(c.name, c.running && !c.quarantined);
}

void Supervisor::on_exit(Child& c, int status, std::uint64_t now) {
  c.running = false;
  c.pid = -1;
  c.last_exit = decode_wait_status(status);
  c.failed_attempts += 1;
  metrics::counter("supervisor.crashes").inc();
  const CrashLoopBreaker::State st = c.breaker.record_failure(now);
  if (st == CrashLoopBreaker::State::kOpen) {
    c.quarantined = true;
    c.restart_due_ms = 0;  // half-open timing owns the next attempt
    metrics::counter("supervisor.quarantines").inc();
  } else {
    c.restart_due_ms =
        now + restart_backoff_ms(options_.restart,
                                 static_cast<std::uint64_t>(c.index),
                                 c.failed_attempts);
  }
  push_runtime(c);
}

void Supervisor::poll_once(std::uint64_t now) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& child : children_) {
    Child& c = *child;
    if (c.running) {
      int status = 0;
      const pid_t r = ::waitpid(c.pid, &status, WNOHANG);
      if (r == c.pid) {
        on_exit(c, status, now);
        continue;
      }
      if (now - c.last_probe_ms >= options_.probe_interval_ms) {
        c.last_probe_ms = now;
        ClientOptions probe_options;
        probe_options.timeout_ms = options_.probe_timeout_ms;
        probe_options.retry.max_attempts = 1;
        Client probe(Client::unix_connector(c.socket_path, ChaosPlan{}),
                     probe_options);
        const CallResult res = probe.call("health", Json::object());
        if (res.ok) {
          c.probe_timeouts_in_a_row = 0;
        } else if (res.fail_kind == CallResult::FailKind::kTimeout) {
          // Alive per waitpid but not answering: the wedge signal.
          // Connection-refused is NOT counted here -- that means the
          // process is mid-death and waitpid will reap it next tick.
          c.probe_timeouts_in_a_row += 1;
          if (c.probe_timeouts_in_a_row >= options_.wedge_probe_timeouts) {
            ::kill(c.pid, SIGKILL);  // reaped as a crash next tick
            c.wedge_kills += 1;
            c.probe_timeouts_in_a_row = 0;
            metrics::counter("supervisor.wedge_kills").inc();
          }
        }
      }
      continue;
    }

    if (c.quarantined) {
      if (c.breaker.state(now) == CrashLoopBreaker::State::kHalfOpen) {
        // The half-open trial IS a restart attempt.
        if (spawn_child(c)) {
          c.breaker.record_success();
          c.quarantined = false;
          c.restarts += 1;
          c.failed_attempts = 0;
          metrics::counter("supervisor.restarts").inc();
        } else {
          c.breaker.record_failure(now);  // re-opens with a fresh timer
        }
        push_runtime(c);
      }
      continue;
    }

    if (c.restart_due_ms != 0 && now >= c.restart_due_ms) {
      if (spawn_child(c)) {
        c.restarts += 1;
        c.failed_attempts = 0;
        c.restart_due_ms = 0;
        metrics::counter("supervisor.restarts").inc();
        push_runtime(c);
      } else {
        c.failed_attempts += 1;
        const CrashLoopBreaker::State st = c.breaker.record_failure(now);
        if (st == CrashLoopBreaker::State::kOpen) {
          c.quarantined = true;
          c.restart_due_ms = 0;
          metrics::counter("supervisor.quarantines").inc();
        } else {
          c.restart_due_ms =
              now + restart_backoff_ms(options_.restart,
                                       static_cast<std::uint64_t>(c.index),
                                       c.failed_attempts);
        }
        push_runtime(c);
      }
    }
  }
}

void Supervisor::start_monitor() {
  stop_.store(false, std::memory_order_relaxed);
  monitor_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      poll_once(mono_ms());
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
}

void Supervisor::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (monitor_.joinable()) {
    monitor_.join();
  }
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& child : children_) {
    if (child->running) {
      ::kill(child->pid, SIGINT);  // graceful drain, then exit 0
    }
  }
  const std::uint64_t deadline = mono_ms() + 5'000;
  for (auto& child : children_) {
    Child& c = *child;
    if (!c.running) {
      continue;
    }
    int status = 0;
    pid_t r = 0;
    while ((r = ::waitpid(c.pid, &status, WNOHANG)) == 0 &&
           mono_ms() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (r == 0) {
      ::kill(c.pid, SIGKILL);
      ::waitpid(c.pid, &status, 0);
    }
    c.last_exit = decode_wait_status(status);
    c.running = false;
    c.pid = -1;
  }
}

std::vector<BackendSpec> Supervisor::backend_specs() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<BackendSpec> specs;
  specs.reserve(children_.size());
  for (const auto& child : children_) {
    BackendSpec spec;
    spec.name = child->name;
    spec.target = "unix:" + child->socket_path;
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<SupervisedBackendStats> Supervisor::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<SupervisedBackendStats> out;
  out.reserve(children_.size());
  for (const auto& child : children_) {
    SupervisedBackendStats s;
    s.name = child->name;
    s.target = "unix:" + child->socket_path;
    s.pid = child->running ? child->pid : -1;
    s.running = child->running;
    s.quarantined = child->quarantined;
    s.restarts = child->restarts;
    s.last_exit = child->last_exit;
    s.wedge_kills = child->wedge_kills;
    out.push_back(std::move(s));
  }
  return out;
}

pid_t Supervisor::pid_of(int index) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (index < 0 || index >= static_cast<int>(children_.size())) {
    return -1;
  }
  const Child& c = *children_[static_cast<std::size_t>(index)];
  return c.running ? c.pid : -1;
}

}  // namespace shlcp::svc

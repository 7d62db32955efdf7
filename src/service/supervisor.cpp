#include "service/supervisor.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <utility>

#include "service/client.h"
#include "service/process.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/format.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace shlcp::svc {

namespace fs = std::filesystem;

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

  ChildProcess proc;  // running() while spawned, ready and not reaped
  bool quarantined = false;
  std::uint64_t restarts = 0;
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
  fs::create_directories(c.cache_dir, ec);  // reused across restarts
  std::vector<std::string> args = {
      options_.shlcpd_path,
      "--socket",     c.socket_path,
      "--cache-dir",  c.cache_dir,
      "--threads",    format("%d", std::max(options_.backend_threads, 1)),
  };
  args.insert(args.end(), options_.backend_args.begin(),
              options_.backend_args.end());
  if (!c.proc.spawn_ready(std::move(args), c.port_file,
                          ChildStdio{c.log_path}, options_.spawn_wait_ms,
                          options_.probe_timeout_ms)) {
    return false;
  }
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
                   child->name.c_str(), child->proc.last_exit(),
                   child->log_path.c_str());
      for (auto& other : children_) {
        other->proc.kill();
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
  rt.last_exit = c.proc.last_exit();
  rt.pid = c.proc.pid();
  router_->set_backend_runtime(c.name, rt);
  router_->set_backend_alive(c.name, c.proc.running() && !c.quarantined);
}

void Supervisor::on_failure(Child& c, std::uint64_t now) {
  c.failed_attempts += 1;
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
    if (c.proc.running()) {
      if (c.proc.try_reap()) {
        metrics::counter("supervisor.crashes").inc();
        on_failure(c, now);
        continue;
      }
      if (now - c.last_probe_ms >= options_.probe_interval_ms) {
        c.last_probe_ms = now;
        const CallResult res =
            probe_health("unix:" + c.socket_path, options_.probe_timeout_ms);
        if (res.ok) {
          c.probe_timeouts_in_a_row = 0;
        } else if (res.fail_kind == CallResult::FailKind::kTimeout) {
          // Alive per waitpid but not answering: the wedge signal.
          // Connection-refused is NOT counted here -- that means the
          // process is mid-death and the next tick reaps it.
          c.probe_timeouts_in_a_row += 1;
          if (c.probe_timeouts_in_a_row >= options_.wedge_probe_timeouts) {
            c.proc.signal(SIGKILL);  // reaped as a crash next tick
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
        on_failure(c, now);
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
    child->proc.stop();  // graceful drain, SIGKILL past the grace period
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
    s.pid = child->proc.pid();
    s.running = child->proc.running();
    s.quarantined = child->quarantined;
    s.restarts = child->restarts;
    s.last_exit = child->proc.last_exit();
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
  return children_[static_cast<std::size_t>(index)]->proc.pid();
}

}  // namespace shlcp::svc

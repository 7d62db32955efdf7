#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "service/client.h"

extern char** environ;

namespace shlcp::e2e {

namespace {

// Process groups of the live children (each child leads its own group,
// which the router's backends join). Lock-free atomics, so the fatal
// signal handler may read them.
std::atomic<pid_t> g_groups[16];

void remember_group(pid_t pg) {
  for (std::atomic<pid_t>& g : g_groups) {
    pid_t empty = 0;
    if (g.compare_exchange_strong(empty, pg)) {
      return;
    }
  }
}

void forget_group(pid_t pg) {
  for (std::atomic<pid_t>& g : g_groups) {
    pid_t expected = pg;
    g.compare_exchange_strong(expected, 0);
  }
}

extern "C" void kill_groups_and_die(int sig) {
  for (std::atomic<pid_t>& g : g_groups) {
    const pid_t pg = g.load();
    if (pg > 0) {
      ::killpg(pg, SIGKILL);
    }
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

int decode_status(int status) {
  if (WIFEXITED(status)) {
    return WEXITSTATUS(status);
  }
  if (WIFSIGNALED(status)) {
    return 128 + WTERMSIG(status);
  }
  return -1;
}

/// Waits up to `timeout_ms` for `pid`; true (and *status) once reaped.
bool wait_for(pid_t pid, std::uint64_t timeout_ms, int* status) {
  const std::uint64_t deadline = now_ns() + timeout_ms * 1'000'000;
  for (;;) {
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid) {
      return true;
    }
    if (r < 0 && errno != EINTR) {
      return true;  // not our child any more; nothing left to reap
    }
    if (now_ns() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

ChildProcess::ChildProcess(const std::vector<std::string>& argv,
                           const std::string& log_path) {
  // The daemons must run untraced and with the thread counts the bench
  // passes, whatever the caller's environment says.
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SHLCP_", 6) != 0) {
      env_strings.emplace_back(*e);
    }
  }
  std::vector<char*> envp;
  for (std::string& s : env_strings) {
    envp.push_back(s.data());
  }
  envp.push_back(nullptr);
  std::vector<std::string> args = argv;
  std::vector<char*> argp;
  for (std::string& s : args) {
    argp.push_back(s.data());
  }
  argp.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&attr, 0);  // a group of its own
  const int rc = ::posix_spawn(&pid_, argp[0], &actions, &attr, argp.data(),
                               envp.data());
  posix_spawnattr_destroy(&attr);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("posix_spawn " + argv[0] + ": " +
                             std::strerror(rc));
  }
  remember_group(pid_);
}

ChildProcess::~ChildProcess() {
  if (pid_ <= 0) {
    return;
  }
  // Only a failed run gets here with the child alive: kill its whole
  // group, then reap the child and, as their subreaper, any of its
  // children that outlived it.
  ::killpg(pid_, SIGKILL);
  int status = 0;
  wait_for(pid_, 10'000, &status);
  const std::uint64_t deadline = now_ns() + 2'000'000'000ULL;
  while (::waitpid(-pid_, &status, WNOHANG) >= 0 && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  forget_group(pid_);
}

void kill_children_on_fatal_signals() {
  ::prctl(PR_SET_CHILD_SUBREAPER, 1UL, 0UL, 0UL, 0UL);
  struct sigaction sa = {};
  sa.sa_handler = kill_groups_and_die;
  sigemptyset(&sa.sa_mask);
  for (const int sig : {SIGINT, SIGTERM, SIGHUP}) {
    ::sigaction(sig, &sa, nullptr);
  }
}

bool ChildProcess::wait_ready(const std::string& port_file,
                              const std::string& socket,
                              std::uint64_t timeout_ms) {
  const std::uint64_t deadline = now_ns() + timeout_ms * 1'000'000;
  std::error_code ec;
  while (!std::filesystem::exists(port_file, ec)) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      forget_group(pid_);
      pid_ = -1;
      return false;  // died before binding
    }
    if (now_ns() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  svc::ClientOptions options;
  options.timeout_ms = 2'000;
  options.retry.max_attempts = 1;
  svc::Client probe(svc::Client::unix_connector(socket, svc::ChaosPlan{}),
                    options);
  while (now_ns() < deadline) {
    if (probe.call("health", Json::object()).ok) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

int ChildProcess::stop(std::uint64_t timeout_ms) {
  if (pid_ <= 0) {
    return -1;
  }
  ::kill(pid_, SIGINT);
  int status = 0;
  int code = -1;
  if (wait_for(pid_, timeout_ms, &status)) {
    code = decode_status(status);
  } else {
    ::killpg(pid_, SIGKILL);
    wait_for(pid_, timeout_ms, &status);
  }
  forget_group(pid_);
  pid_ = -1;
  return code;
}

double proc_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name (which may hold spaces):
  // state is field 3, utime 14, stime 15.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) {
    return 0.0;
  }
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double utime = 0;
  double stime = 0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) {
      utime = std::stod(field);
    } else if (i == 15) {
      stime = std::stod(field);
    }
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double proc_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace shlcp::e2e

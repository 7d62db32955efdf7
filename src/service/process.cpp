#include "service/process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "util/check.h"
#include "util/clock.h"
#include "util/format.h"

namespace shlcp::svc {

namespace {

constexpr auto kPollInterval = std::chrono::milliseconds(10);

/// The port file once published, else nullopt. shlcpd writes it by
/// atomic rename, so a file that exists is complete.
std::optional<Json> read_port_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return Json::parse(buf.str());
}

std::string probe_target(const Json& ports) {
  if (ports.contains("unix")) {
    return "unix:" + ports.at("unix").as_string();
  }
  return format("tcp:127.0.0.1:%llu",
                static_cast<unsigned long long>(ports.at("tcp").as_uint()));
}

}  // namespace

CallResult probe_health(const std::string& target, std::uint64_t timeout_ms) {
  ClientOptions options;
  options.timeout_ms = timeout_ms;
  options.retry.max_attempts = 1;
  Client probe(Client::connector_for(target, ChaosPlan{}), options);
  return probe.call("health", Json::object());
}

ChildProcess::~ChildProcess() { kill(); }

bool ChildProcess::spawn(std::vector<std::string> args,
                         const ChildStdio& stdio) {
  SHLCP_CHECK_MSG(!running(), "ChildProcess::spawn while a child runs");
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);
  const char* log =
      stdio.log_path.empty() ? nullptr : stdio.log_path.c_str();

  const pid_t pid = ::fork();
  if (pid < 0) {
    return false;
  }
  if (pid == 0) {
    // Async-signal-safe calls only. The log fd is O_CLOEXEC, so the
    // dup2'd copies are all of it that survives the exec.
    if (log != nullptr) {
      const int fd =
          ::open(log, O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
    }
    if (stdio.stdin_fd >= 0) {
      ::dup2(stdio.stdin_fd, 0);
    }
    if (stdio.stdout_fd >= 0) {
      ::dup2(stdio.stdout_fd, 1);
    }
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  pid_ = pid;
  return true;
}

std::optional<Json> ChildProcess::spawn_ready(std::vector<std::string> args,
                                              const std::string& port_file,
                                              const ChildStdio& stdio,
                                              std::uint64_t budget_ms,
                                              std::uint64_t probe_timeout_ms) {
  std::error_code ec;
  std::filesystem::remove(port_file, ec);
  args.push_back("--port-file");
  args.push_back(port_file);
  if (!spawn(std::move(args), stdio)) {
    return std::nullopt;
  }
  const std::uint64_t deadline = mono_ms() + budget_ms;
  std::optional<Json> ports;
  while (!try_reap() && mono_ms() < deadline) {
    if (!ports) {
      ports = read_port_file(port_file);
    }
    if (ports && probe_health(probe_target(*ports), probe_timeout_ms).ok) {
      return ports;
    }
    std::this_thread::sleep_for(kPollInterval);
  }
  kill();  // missed the budget; a no-op if the child already exited
  return std::nullopt;
}

bool ChildProcess::try_reap() {
  if (pid_ <= 0) {
    return true;
  }
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) != pid_) {
    return false;
  }
  record(status);
  return true;
}

int ChildProcess::wait() {
  if (pid_ > 0) {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    record(status);
  }
  return last_exit_;
}

int ChildProcess::stop(std::uint64_t grace_ms) {
  signal(SIGINT);
  const std::uint64_t deadline = mono_ms() + grace_ms;
  while (!try_reap() && mono_ms() < deadline) {
    std::this_thread::sleep_for(kPollInterval);
  }
  return kill();
}

int ChildProcess::kill() {
  signal(SIGKILL);
  return wait();
}

void ChildProcess::signal(int sig) const {
  if (pid_ > 0) {
    ::kill(pid_, sig);
  }
}

void ChildProcess::record(int wait_status) {
  if (WIFEXITED(wait_status)) {
    last_exit_ = WEXITSTATUS(wait_status);
  } else if (WIFSIGNALED(wait_status)) {
    last_exit_ = 128 + WTERMSIG(wait_status);
  } else {
    last_exit_ = -1;
  }
  pid_ = -1;
}

}  // namespace shlcp::svc

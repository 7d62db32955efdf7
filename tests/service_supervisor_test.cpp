// Supervisor tests: the crash-loop breaker's full state machine driven
// by literal timestamps (no clocks, no sleeps), the deterministic
// restart backoff schedule, transport-failure classification
// (connection-refused vs timeout) on the resilient Client, quarantine
// spill through the Router (keys move to replicas; nothing ever blocks
// on a breaker-open backend), ChildProcess's spawn/readiness/reap
// contract, and the Supervisor's process management against a real
// shlcpd when one is discoverable (spawn, SIGKILL, poll-driven restart,
// warm disk cache, graceful stop).

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/client.h"
#include "service/process.h"
#include "service/router.h"
#include "service/server.h"
#include "service/service.h"
#include "service/supervisor.h"
#include "util/json.h"

namespace shlcp::svc {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// CrashLoopBreaker: a pure state machine over injected timestamps.

TEST(CrashLoopBreaker, StaysClosedBelowTheFailureThreshold) {
  CrashLoopBreaker breaker(/*max_failures=*/3, /*window_ms=*/1000,
                           /*half_open_after_ms=*/500);
  EXPECT_EQ(breaker.state(0), CrashLoopBreaker::State::kClosed);
  EXPECT_EQ(breaker.record_failure(100), CrashLoopBreaker::State::kClosed);
  EXPECT_EQ(breaker.record_failure(200), CrashLoopBreaker::State::kClosed);
  EXPECT_EQ(breaker.failures_in_window(200), 2);
}

TEST(CrashLoopBreaker, OpensOnKFailuresInsideTheWindow) {
  CrashLoopBreaker breaker(3, 1000, 500);
  breaker.record_failure(100);
  breaker.record_failure(200);
  EXPECT_EQ(breaker.record_failure(300), CrashLoopBreaker::State::kOpen);
  EXPECT_EQ(breaker.state(300), CrashLoopBreaker::State::kOpen);
  EXPECT_EQ(breaker.opened_at_ms(), 300u);
}

TEST(CrashLoopBreaker, WindowExpiryForgivesOldFailures) {
  CrashLoopBreaker breaker(3, 1000, 500);
  breaker.record_failure(0);
  breaker.record_failure(100);
  // The third failure lands after the first left the window: 2 in
  // window, still closed.
  EXPECT_EQ(breaker.record_failure(1050), CrashLoopBreaker::State::kClosed);
  EXPECT_EQ(breaker.failures_in_window(1050), 2);
}

TEST(CrashLoopBreaker, HalfOpensAfterTheQuarantineDelay) {
  CrashLoopBreaker breaker(2, 1000, 500);
  breaker.record_failure(0);
  ASSERT_EQ(breaker.record_failure(10), CrashLoopBreaker::State::kOpen);
  EXPECT_EQ(breaker.state(509), CrashLoopBreaker::State::kOpen);
  EXPECT_EQ(breaker.state(510), CrashLoopBreaker::State::kHalfOpen);
}

TEST(CrashLoopBreaker, FailedTrialReopensWithAFreshTimer) {
  CrashLoopBreaker breaker(2, 1000, 500);
  breaker.record_failure(0);
  breaker.record_failure(10);
  ASSERT_EQ(breaker.state(600), CrashLoopBreaker::State::kHalfOpen);
  // The trial restart dies at t=600: back to open, and the half-open
  // clock restarts from 600, not from 10.
  EXPECT_EQ(breaker.record_failure(600), CrashLoopBreaker::State::kOpen);
  EXPECT_EQ(breaker.opened_at_ms(), 600u);
  EXPECT_EQ(breaker.state(1099), CrashLoopBreaker::State::kOpen);
  EXPECT_EQ(breaker.state(1100), CrashLoopBreaker::State::kHalfOpen);
}

TEST(CrashLoopBreaker, SuccessClosesAndClearsHistory) {
  CrashLoopBreaker breaker(2, 1000, 500);
  breaker.record_failure(0);
  breaker.record_failure(10);
  ASSERT_EQ(breaker.state(600), CrashLoopBreaker::State::kHalfOpen);
  breaker.record_success();
  EXPECT_EQ(breaker.state(600), CrashLoopBreaker::State::kClosed);
  EXPECT_EQ(breaker.failures_in_window(600), 0);
  // History is gone: the next crash starts a fresh window instead of
  // tripping on pre-quarantine failures.
  EXPECT_EQ(breaker.record_failure(610), CrashLoopBreaker::State::kClosed);
}

// ---------------------------------------------------------------------
// Restart backoff: deterministic, jittered, capped.

TEST(RestartBackoff, IsDeterministicPerSeedBackendAndAttempt) {
  RestartPolicy policy;
  policy.base_backoff_ms = 100;
  policy.max_backoff_ms = 2000;
  policy.seed = 42;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_EQ(restart_backoff_ms(policy, 0, attempt),
              restart_backoff_ms(policy, 0, attempt));
  }
  // Different backends draw different jitter streams for the same
  // attempt (same nominal backoff, independent placement inside it).
  bool any_difference = false;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    any_difference |= restart_backoff_ms(policy, 0, attempt) !=
                      restart_backoff_ms(policy, 1, attempt);
  }
  EXPECT_TRUE(any_difference);
}

TEST(RestartBackoff, StaysInsideTheJitterBandAndCaps) {
  RestartPolicy policy;
  policy.base_backoff_ms = 100;
  policy.max_backoff_ms = 2000;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    policy.seed = seed;
    for (int attempt = 1; attempt <= 12; ++attempt) {
      const std::uint64_t nominal =
          std::min<std::uint64_t>(100ull << std::min(attempt - 1, 30),
                                  policy.max_backoff_ms);
      const std::uint64_t b = restart_backoff_ms(policy, seed, attempt);
      EXPECT_GE(b, nominal / 2) << "attempt " << attempt;
      EXPECT_LE(b, nominal) << "attempt " << attempt;
    }
  }
}

TEST(RestartBackoff, HugeAttemptCountsDoNotOverflow) {
  RestartPolicy policy;
  policy.base_backoff_ms = 100;
  policy.max_backoff_ms = 2000;
  const std::uint64_t b = restart_backoff_ms(policy, 3, 1000);
  EXPECT_GE(b, 1000u);
  EXPECT_LE(b, 2000u);
}

// ---------------------------------------------------------------------
// Transport-failure classification (CallResult::fail_kind).

TEST(FailKind, ConnectionRefusedWhenNothingListens) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "shlcp_nobody.sock").string();
  fs::remove(path);
  ClientOptions options;
  options.timeout_ms = 1000;
  options.retry.max_attempts = 1;
  Client client(Client::unix_connector(path, ChaosPlan{}), options);
  const CallResult r = client.call("health", Json::object());
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fail_kind, CallResult::FailKind::kConnRefused);
}

TEST(FailKind, TimeoutWhenTheServerAcceptsButNeverAnswers) {
  // A listener that accepts and then goes silent models a wedged
  // backend: the connection succeeds, the call must classify as
  // kTimeout (the supervisor's wedge signal), not as refused.
  const std::string path =
      (fs::path(::testing::TempDir()) / "shlcp_wedged.sock").string();
  fs::remove(path);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);

  std::atomic<bool> done{false};
  std::thread wedge([&] {
    const int conn = ::accept(listener, nullptr, nullptr);
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (conn >= 0) {
      ::close(conn);
    }
  });

  ClientOptions options;
  options.timeout_ms = 200;  // short: the test waits this out for real
  options.retry.max_attempts = 1;
  Client client(Client::unix_connector(path, ChaosPlan{}), options);
  const CallResult r = client.call("health", Json::object());
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fail_kind, CallResult::FailKind::kTimeout);

  done.store(true);
  wedge.join();
  ::close(listener);
  fs::remove(path);
}

// ---------------------------------------------------------------------
// Quarantine spill through the Router.

Json make_request(std::int64_t id, const std::string& op, Json params) {
  Json req = Json::object();
  req["id"] = id;
  req["op"] = op;
  req["params"] = std::move(params);
  return req;
}

Json coloring_params(const std::string& instance, std::int64_t k) {
  Json params = Json::object();
  params["instance"] = instance;
  params["k"] = k;
  return params;
}

/// Two live unix-socket backends behind a Router, as in
/// service_router_test.cpp -- here to prove quarantine semantics.
class QuarantineFleet : public ::testing::Test {
 protected:
  static constexpr int kBackends = 2;

  void SetUp() override {
    for (int b = 0; b < kBackends; ++b) {
      paths_[b] = (fs::path(::testing::TempDir()) /
                   ("shlcp_quar_b" + std::to_string(b) + ".sock"))
                      .string();
      options_[b].cancel = &tokens_[b];
      options_[b].num_threads = 2;
      servers_[b] = std::thread([this, b] {
        TransportSpec spec;
        spec.unix_path = paths_[b];
        exit_codes_[b] = serve_transports(spec, options_[b]);
      });
    }
    RouterOptions router_options;
    for (int b = 0; b < kBackends; ++b) {
      BackendSpec spec;
      spec.name = "b" + std::to_string(b);
      spec.target = "unix:" + paths_[b];
      router_options.backends.push_back(std::move(spec));
    }
    router_options.client.timeout_ms = 5000;
    router_options.client.retry.max_attempts = 2;
    router_options.client.retry.base_backoff_ms = 1;
    router_ = std::make_unique<Router>(router_options);
    for (int i = 0; i < 250; ++i) {
      if (router_->probe_all() == kBackends) {
        return;
      }
      ::usleep(20'000);
    }
    FAIL() << "backends never came up";
  }

  void TearDown() override {
    router_.reset();
    for (int b = 0; b < kBackends; ++b) {
      if (servers_[b].joinable()) {
        tokens_[b].request_stop(StopReason::kCancelRequested);
        servers_[b].join();
        EXPECT_EQ(exit_codes_[b], 0);
      }
    }
  }

  std::string paths_[kBackends];
  CancelToken tokens_[kBackends];
  ServerOptions options_[kBackends];
  std::thread servers_[kBackends];
  int exit_codes_[kBackends] = {-1, -1};
  std::unique_ptr<Router> router_;
};

TEST_F(QuarantineFleet, QuarantinedKeysSpillToTheReplica) {
  const Json req =
      make_request(1, "check_coloring", coloring_params("cycle6", 2));
  const std::vector<int> pref =
      router_->preference_for("check_coloring", req.at("params"));
  const int owner = pref.at(0);
  const int replica = pref.at(1);

  // Quarantine the key's owner; the request must be answered by the
  // replica -- correctly, and without probing the quarantined backend.
  BackendRuntime rt;
  rt.quarantined = true;
  ASSERT_TRUE(router_->set_backend_runtime("b" + std::to_string(owner), rt));

  Service direct;
  const Json routed = router_->handle(req);
  ASSERT_TRUE(routed.at("ok").as_bool()) << routed.dump();
  EXPECT_EQ(routed.at("result").dump(),
            direct.handle(req).at("result").dump());

  const auto stats = router_->backend_stats();
  EXPECT_EQ(stats.at(static_cast<std::size_t>(owner)).forwarded, 0u)
      << "no request may touch a quarantined backend";
  EXPECT_TRUE(stats.at(static_cast<std::size_t>(owner)).quarantined);
  EXPECT_GE(stats.at(static_cast<std::size_t>(replica)).forwarded, 1u);

  // Lifting the quarantine returns the keys to their owner.
  rt.quarantined = false;
  ASSERT_TRUE(router_->set_backend_runtime("b" + std::to_string(owner), rt));
  ASSERT_TRUE(router_->set_backend_alive("b" + std::to_string(owner), true));
  const Json back = router_->handle(make_request(
      2, "check_coloring", coloring_params("cycle6", 2)));
  ASSERT_TRUE(back.at("ok").as_bool());
  EXPECT_GE(router_->backend_stats()
                .at(static_cast<std::size_t>(owner))
                .forwarded,
            1u);
}

TEST_F(QuarantineFleet, AllQuarantinedRefusesInsteadOfBlocking) {
  BackendRuntime rt;
  rt.quarantined = true;
  ASSERT_TRUE(router_->set_backend_runtime("b0", rt));
  ASSERT_TRUE(router_->set_backend_runtime("b1", rt));

  const auto before = std::chrono::steady_clock::now();
  const Json resp = router_->handle(
      make_request(3, "check_coloring", coloring_params("path5", 2)));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - before)
                           .count();
  ASSERT_FALSE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("error").at("code").as_string(), "overloaded");
  // The refusal must be immediate: an empty routing plan, not a
  // connect/retry cycle against breaker-open backends.
  EXPECT_LT(elapsed, 1000);
}

TEST_F(QuarantineFleet, HealthReportsSupervisorRuntimeState) {
  BackendRuntime rt;
  rt.quarantined = true;
  rt.restarts = 7;
  rt.last_exit = 137;
  rt.pid = -1;
  ASSERT_TRUE(router_->set_backend_runtime("b1", rt));
  EXPECT_FALSE(router_->set_backend_runtime("nonesuch", rt));

  const Json health = router_->handle(make_request(4, "health", Json::object()));
  ASSERT_TRUE(health.at("ok").as_bool()) << health.dump();
  const Json& backends = health.at("result").at("backends");
  ASSERT_EQ(backends.size(), 2u);
  const Json& b1 = backends.at(1);
  EXPECT_EQ(b1.at("name").as_string(), "b1");
  EXPECT_TRUE(b1.at("quarantined").as_bool());
  EXPECT_FALSE(b1.at("alive").as_bool());
  EXPECT_EQ(b1.at("restarts").as_int(), 7);
  EXPECT_EQ(b1.at("last_exit").as_int(), 137);
  EXPECT_FALSE(b1.contains("health"))
      << "a quarantined backend must not be probed by the fan-out";
}

// ---------------------------------------------------------------------
// ChildProcess: spawn, readiness, exit status and reap.

/// A fresh, empty directory under the gtest temp dir.
std::string scratch_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

TEST(ChildProcess, EarlyExitIsReportedWellInsideTheBudget) {
  const std::string dir = scratch_dir("shlcp_child_false");
  ChildProcess child;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(child.spawn_ready({"/bin/false"}, dir + "/ports.json",
                                 ChildStdio{}, 10'000));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  EXPECT_EQ(child.last_exit(), 1);
  EXPECT_FALSE(child.running());
}

TEST(ChildProcess, MissingBinaryExits127) {
  const std::string dir = scratch_dir("shlcp_child_missing");
  ChildProcess child;
  EXPECT_FALSE(child.spawn_ready({dir + "/no-such-binary"},
                                 dir + "/ports.json", ChildStdio{}, 10'000));
  EXPECT_EQ(child.last_exit(), 127);
}

TEST(ChildProcess, SigkillReads137) {
  ChildProcess child;
  ASSERT_TRUE(child.spawn({"/bin/sh", "-c", "exec sleep 30"}, ChildStdio{}));
  EXPECT_TRUE(child.running());
  EXPECT_FALSE(child.try_reap());
  EXPECT_EQ(child.kill(), 137);
  EXPECT_FALSE(child.running());
  EXPECT_EQ(child.pid(), -1);
}

TEST(ChildProcess, StopDrainsALiveShlcpdToExitZero) {
  const std::string shlcpd = Supervisor::find_shlcpd(nullptr);
  if (shlcpd.empty()) {
    GTEST_SKIP() << "no shlcpd binary discoverable";
  }
  const std::string dir = scratch_dir("shlcp_child_stop");
  const std::string port_file = dir + "/ports.json";
  ChildProcess child;
  const std::optional<Json> ports =
      child.spawn_ready({shlcpd, "--socket", dir + "/d.sock"}, port_file,
                        ChildStdio{dir + "/d.log"}, 10'000);
  ASSERT_TRUE(ports.has_value()) << "exit status " << child.last_exit();
  EXPECT_EQ(ports->at("unix").as_string(), dir + "/d.sock");
  EXPECT_TRUE(fs::exists(port_file));
  EXPECT_EQ(child.stop(), 0);
  EXPECT_FALSE(fs::exists(port_file)) << "a clean exit removes it";
}

// A port file that cannot be published fails shlcpd like a listener
// that cannot bind: exit 1 with a message, and no socket file left.
TEST(ChildProcess, UnpublishablePortFileExitsOneAndLeavesNoSocket) {
  const std::string shlcpd = Supervisor::find_shlcpd(nullptr);
  if (shlcpd.empty()) {
    GTEST_SKIP() << "no shlcpd binary discoverable";
  }
  const std::string dir = scratch_dir("shlcp_child_no_port_dir");
  const std::string socket_path = dir + "/d.sock";
  ChildProcess child;
  EXPECT_FALSE(child.spawn_ready({shlcpd, "--socket", socket_path},
                                 dir + "/no/such/dir/ports.json",
                                 ChildStdio{dir + "/d.log"}, 10'000));
  EXPECT_EQ(child.last_exit(), 1);
  EXPECT_FALSE(fs::exists(socket_path));
  std::string log;
  if (std::FILE* f = std::fopen((dir + "/d.log").c_str(), "r")) {
    char buf[4096];
    log.assign(buf, std::fread(buf, 1, sizeof buf, f));
    std::fclose(f);
  }
  EXPECT_NE(log.find("cannot publish port file"), std::string::npos) << log;
}

// A SIGKILLed shlcpd leaves its port file behind. The next readiness
// wait must not take it for the new child's, even when the address in
// it answers: here a second daemon serves the old socket path, and the
// new child never binds anything.
TEST(ChildProcess, StalePortFileDoesNotSatisfyTheNextReadinessWait) {
  const std::string shlcpd = Supervisor::find_shlcpd(nullptr);
  if (shlcpd.empty()) {
    GTEST_SKIP() << "no shlcpd binary discoverable";
  }
  const std::string dir = scratch_dir("shlcp_child_stale");
  const std::string socket_path = dir + "/d.sock";
  const std::string port_file = dir + "/ports.json";
  ChildProcess first;
  ASSERT_TRUE(first.spawn_ready({shlcpd, "--socket", socket_path}, port_file,
                                ChildStdio{dir + "/d.log"}, 10'000));
  EXPECT_EQ(first.kill(), 137);
  ASSERT_TRUE(fs::exists(port_file)) << "SIGKILL skips shlcpd's cleanup";

  ChildProcess squatter;
  ASSERT_TRUE(squatter.spawn_ready({shlcpd, "--socket", socket_path},
                                   dir + "/other.json",
                                   ChildStdio{dir + "/d.log"}, 10'000));
  ASSERT_TRUE(fs::exists(port_file));

  ChildProcess second;
  EXPECT_FALSE(second.spawn_ready({"/bin/sh", "-c", "exec sleep 30"},
                                  port_file, ChildStdio{}, 300));
  EXPECT_EQ(second.last_exit(), 137) << "killed at the end of its budget";
  EXPECT_FALSE(fs::exists(port_file));
}

// ---------------------------------------------------------------------
// Supervisor process management.

TEST(Supervisor, StartFailsFastWhenTheBackendBinaryIsBroken) {
  SupervisorOptions options;
  options.shlcpd_path = "/bin/false";  // execs, exits 1, never binds
  options.work_dir =
      (fs::path(::testing::TempDir()) / "shlcp_sup_broken").string();
  options.backends = 1;
  options.spawn_wait_ms = 3000;
  Supervisor supervisor(options);
  EXPECT_FALSE(supervisor.start());
  const auto stats = supervisor.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_FALSE(stats.at(0).running);
  EXPECT_EQ(stats.at(0).last_exit, 1);  // /bin/false's exit code
}

TEST(Supervisor, SpawnsKillsRestartsAndServesWarmFromDiskCache) {
  const std::string shlcpd = Supervisor::find_shlcpd(nullptr);
  if (shlcpd.empty()) {
    GTEST_SKIP() << "no shlcpd binary discoverable";
  }
  const std::string work_dir =
      (fs::path(::testing::TempDir()) / "shlcp_sup_live").string();
  fs::remove_all(work_dir);

  SupervisorOptions options;
  options.shlcpd_path = shlcpd;
  options.work_dir = work_dir;
  options.backends = 1;
  options.backend_threads = 2;
  options.restart.base_backoff_ms = 50;
  options.restart.max_backoff_ms = 200;
  // Generous breaker: a single SIGKILL must restart, never quarantine.
  options.breaker_failures = 5;
  options.breaker_window_ms = 60'000;
  Supervisor supervisor(options);
  ASSERT_TRUE(supervisor.start());

  const auto specs = supervisor.backend_specs();
  ASSERT_EQ(specs.size(), 1u);
  ClientOptions client_options;
  client_options.timeout_ms = 10'000;
  client_options.retry.max_attempts = 3;
  const std::string socket_path = specs.at(0).target.substr(5);  // "unix:"

  const Json params = coloring_params("cycle6", 2);
  std::string first_result;
  {
    Client client(Client::unix_connector(socket_path, ChaosPlan{}),
                  client_options);
    const CallResult warm = client.call("check_coloring", params);
    ASSERT_TRUE(warm.ok) << warm.error_code << ": " << warm.error_detail;
    EXPECT_FALSE(warm.response.at("cached").as_bool());
    first_result = warm.result_dump;
  }

  const pid_t victim = supervisor.pid_of(0);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  // Drive the monitor by hand -- poll_once() is the unit under test;
  // the loop waits on observable state, not on a fixed sleep.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool restarted = false;
  while (std::chrono::steady_clock::now() < deadline) {
    supervisor.poll_once(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count()));
    const auto stats = supervisor.stats();
    if (stats.at(0).running && stats.at(0).restarts == 1) {
      restarted = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(restarted) << "backend never restarted";

  const auto stats = supervisor.stats();
  EXPECT_EQ(stats.at(0).last_exit, 137);  // 128 + SIGKILL
  EXPECT_NE(supervisor.pid_of(0), victim);

  // The restart reused the cache directory: the same request replays
  // from disk, byte-identical to the pre-crash compute.
  {
    Client client(Client::unix_connector(socket_path, ChaosPlan{}),
                  client_options);
    const CallResult replay = client.call("check_coloring", params);
    ASSERT_TRUE(replay.ok) << replay.error_code << ": "
                           << replay.error_detail;
    EXPECT_TRUE(replay.response.at("cached").as_bool())
        << "restart must be warm (disk cache)";
    EXPECT_EQ(replay.result_dump, first_result);
  }

  supervisor.stop();
  EXPECT_EQ(supervisor.pid_of(0), -1);
  // A graceful stop SIGINTs the backend; its clean drain removes the
  // port file (the crash-marker contract from the shlcpd side).
  EXPECT_FALSE(fs::exists(work_dir + "/b0.ports.json"));
}

}  // namespace
}  // namespace shlcp::svc

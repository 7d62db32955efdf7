// Chaos harness + acceptance gate for the service resilience layer
// (DESIGN.md §14, EXPERIMENTS.md E21).
//
// Spawns a real shlcpd daemon on a unix socket (binary located via
// SHLCP_SHLCPD or next to the build tree) with a disk-backed artifact
// cache, then drives it through three adversarial passes:
//
//  1. Transport chaos: worker threads call through service/client.h
//     Clients whose FaultyTransport chops, corrupts, resets, and delays
//     both directions of the wire. Every completed response must be
//     byte-identical to an in-process oracle Service answering the same
//     (op, params) -- the zero-wrong-response gate. Failed calls must
//     be attributed (a wire error code or retry exhaustion), never
//     silent.
//
//  2. Kill -9 / restart: with a calm transport, a supervisor SIGKILLs
//     the daemon and restarts it at least kMinKills times while the
//     workers keep an open-ended stream going. Clients must ride
//     through every crash on retries alone: zero lost calls, zero
//     wrong responses.
//
//  3. Crash-consistent cache: after the final restart the daemon must
//     serve a pre-crash payload from its disk cache (cached=true,
//     byte-identical), and after every cache entry on disk is
//     truncated mid-entry the next uncached payload must be treated as
//     a miss and recomputed correctly -- torn writes are misses, never
//     aborts, never wrong artifacts.
//
// A separate determinism check replays one ChaosPlan twice over a
// socketpair and requires identical ChaosStats, plus the
// describe()/parse() REPRO round-trip (a chaos failure's fault
// schedule is reproducible from its printed descriptor).
//
// Results go to BENCH_chaos.json (validated in CI by
// check_bench_json.py --chaos); exit status is nonzero if any gate
// fails.

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "bench/report.h"
#include "service/chaos.h"
#include "service/client.h"
#include "service/process.h"
#include "service/supervisor.h"
#include "util/check.h"
#include "util/format.h"
#include "util/json.h"

using namespace shlcp;
using bench::kPoolSize;
using bench::pool_payload;
using svc::ChaosPlan;
using svc::ChaosStats;
using svc::Client;
using svc::ClientOptions;
using svc::ClientStats;
using svc::FaultyTransport;

namespace {

constexpr int kMinKills = 3;

int chaos_requests() { return bench::smoke() ? 90 : 240; }
int chaos_workers() { return 3; }
int kill_spacing_ms() { return bench::smoke() ? 250 : 400; }

/// Two payloads the load passes never touch: primed through the daemon
/// exactly once before the crashes, so after the final restart they can
/// only be on disk, never in the new incarnation's memory cache. That
/// makes them the probes for the crash-consistency checks.
std::pair<std::string, Json> reserve_payload(int which) {
  Json params = Json::object();
  params["instance"] = which == 0 ? "complete4" : "star5";
  params["k"] = 3;
  return {"check_coloring", std::move(params)};
}

/// The oracle's dumps: slots [0, kPoolSize) are the load pool; the last
/// two are the reserves.
std::vector<std::string> compute_oracle() {
  return bench::compute_oracle(kPoolSize + 2, [](int slot) {
    return slot < kPoolSize ? pool_payload(slot)
                            : reserve_payload(slot - kPoolSize);
  });
}

/// The daemon under test: shlcpd on a unix socket in `dir`, with its
/// disk cache in `dir`/cache. Its log is appended to, so restarts stack.
struct Daemon {
  std::string shlcpd;
  bench::TempDir dir{"shlcp-chaos"};
  svc::ChildProcess proc;  // reaped before `dir` is removed

  std::string socket_path() const { return dir.path() + "/shlcp.sock"; }
  std::string cache_dir() const { return dir.path() + "/cache"; }

  /// Spawns a fresh incarnation and waits until it answers `health`.
  /// A SIGKILLed incarnation leaves its port file behind; spawn_ready
  /// removes it, so only the new one can satisfy the wait.
  bool start() {
    if (proc.spawn_ready({shlcpd, "--socket", socket_path(), "--cache-dir",
                          cache_dir(), "--threads", "2"},
                         dir.path() + "/ports.json",
                         svc::ChildStdio{dir.path() + "/shlcpd.log"}, 5'000)) {
      return true;
    }
    std::fprintf(stderr,
                 "bench_chaos: shlcpd never became ready (exit status %d)\n",
                 proc.last_exit());
    return false;
  }
};

/// Per-pass outcome counters. "lost" = every retry exhausted below the
/// protocol (no error code); "wrong" = a completed response whose
/// result bytes differ from the oracle -- the one count that must stay
/// zero no matter what the transport or the supervisor does.
struct PassResult {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t refused = 0;  // "draining" (daemon mid-SIGINT; benign)
  std::uint64_t errors = 0;   // any other wire error code
  std::uint64_t lost = 0;
  std::uint64_t wrong = 0;
  ClientStats stats;

  void merge(const PassResult& other) {
    requests += other.requests;
    ok += other.ok;
    refused += other.refused;
    errors += other.errors;
    lost += other.lost;
    wrong += other.wrong;
    stats += other.stats;
  }
};

void score_call(const svc::CallResult& r, int slot,
                const std::vector<std::string>& oracle, PassResult* out) {
  out->requests += 1;
  if (r.ok) {
    if (r.result_dump == oracle[static_cast<std::size_t>(slot)]) {
      out->ok += 1;
    } else {
      out->wrong += 1;
      std::fprintf(stderr, "bench_chaos: WRONG RESPONSE slot %d\n  got: %s\n",
                   slot, r.result_dump.c_str());
    }
  } else if (r.error_code == "draining") {
    out->refused += 1;
  } else if (r.error_code.empty()) {
    out->lost += 1;
  } else {
    out->errors += 1;
    std::fprintf(stderr, "bench_chaos: slot %d error %s: %s\n", slot,
                 r.error_code.c_str(), r.error_detail.c_str());
  }
}

ClientOptions chaos_client_options(const ChaosPlan& plan, std::uint64_t seed) {
  ClientOptions options;
  options.timeout_ms = 1500;
  options.retry.max_attempts = 10;
  options.retry.base_backoff_ms = 5;
  options.retry.seed = seed;
  options.chaos = plan;
  options.chaos.seed = seed;
  return options;
}

/// Pass 1: fixed request count striped across workers, faulty wire.
PassResult run_transport_chaos(const std::string& socket_path,
                               const ChaosPlan& plan,
                               const std::vector<std::string>& oracle) {
  const int total = chaos_requests();
  const int workers = chaos_workers();
  std::vector<PassResult> outs(static_cast<std::size_t>(workers));
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      ClientOptions options = chaos_client_options(
          plan, plan.seed + static_cast<std::uint64_t>(w) * 0x9E37ULL);
      Client client(Client::unix_connector(socket_path, options.chaos),
                    options);
      for (int i = w; i < total; i += workers) {
        const int slot = i % kPoolSize;
        auto [op, params] = pool_payload(slot);
        score_call(client.call(op, params), slot, oracle,
                   &outs[static_cast<std::size_t>(w)]);
      }
      outs[static_cast<std::size_t>(w)].stats = client.stats();
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  PassResult merged;
  for (const PassResult& out : outs) {
    merged.merge(out);
  }
  return merged;
}

/// Pass 2: open-ended stream on a calm wire while the supervisor
/// SIGKILLs and restarts the daemon >= kMinKills times. Returns the
/// merged pass result; `daemon` runs the final incarnation.
PassResult run_kill_restart(const std::vector<std::string>& oracle,
                            Daemon* daemon, int* kills) {
  const std::string socket_path = daemon->socket_path();
  const int workers = chaos_workers();
  std::atomic<bool> stop{false};
  std::vector<PassResult> outs(static_cast<std::size_t>(workers));
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      ClientOptions options = chaos_client_options(
          ChaosPlan{}, 0xD00D + static_cast<std::uint64_t>(w));
      options.retry.base_backoff_ms = 20;  // ride out the restart gap
      Client client(Client::unix_connector(socket_path, options.chaos),
                    options);
      int i = w;
      while (!stop.load(std::memory_order_relaxed)) {
        const int slot = i % kPoolSize;
        auto [op, params] = pool_payload(slot);
        score_call(client.call(op, params), slot, oracle,
                   &outs[static_cast<std::size_t>(w)]);
        i += workers;
      }
      outs[static_cast<std::size_t>(w)].stats = client.stats();
    });
  }

  // The supervisor: kill -9 mid-stream, reap, restart, repeat. Each
  // cycle waits for the new incarnation to be ready before the next
  // kill so every crash lands on a daemon that was actually serving. A
  // failed restart ends the cycle; the workers' lost calls fail the gate.
  for (int cycle = 0; cycle < kMinKills; ++cycle) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kill_spacing_ms()));
    daemon->proc.kill();
    *kills += 1;
    if (!daemon->start()) {
      break;
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(kill_spacing_ms()));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) {
    t.join();
  }
  PassResult merged;
  for (const PassResult& out : outs) {
    merged.merge(out);
  }
  return merged;
}

/// Serves both reserve payloads through the daemon once (misses, so
/// they are persisted to disk) before the crash pass begins.
bool prime_reserves(const std::string& socket_path,
                    const std::vector<std::string>& oracle) {
  Client client(Client::unix_connector(socket_path, ChaosPlan{}),
                ClientOptions{});
  for (int which = 0; which < 2; ++which) {
    auto [op, params] = reserve_payload(which);
    const svc::CallResult r = client.call(op, params);
    if (!r.ok ||
        r.result_dump != oracle[static_cast<std::size_t>(kPoolSize + which)]) {
      std::fprintf(stderr, "bench_chaos: priming reserve %d failed: %s\n",
                   which, r.error_detail.c_str());
      return false;
    }
  }
  return true;
}

/// Pass 3a: a payload served once before the crashes (and never since)
/// must come back from the restarted daemon's *disk* cache:
/// cached=true and byte-identical.
bool check_disk_hit(const std::string& socket_path,
                    const std::vector<std::string>& oracle) {
  Client client(Client::unix_connector(socket_path, ChaosPlan{}),
                ClientOptions{});
  auto [op, params] = reserve_payload(0);
  const svc::CallResult r = client.call(op, params);
  if (!r.ok || r.result_dump != oracle[static_cast<std::size_t>(kPoolSize)]) {
    std::fprintf(stderr, "bench_chaos: disk-hit probe failed: %s\n",
                 r.error_detail.c_str());
    return false;
  }
  if (!r.response.at("cached").as_bool()) {
    std::fprintf(stderr,
                 "bench_chaos: pre-crash payload was recomputed, not served "
                 "from the surviving disk cache\n");
    return false;
  }
  return true;
}

/// Pass 3b: truncate every disk entry mid-body (a torn write), then
/// probe the other reserve payload -- absent from the restarted
/// daemon's memory cache, so the daemon must read its torn disk entry,
/// treat it as a miss, and recompute: correct answer, cached=false, no
/// crash.
bool check_torn_entries(const std::string& socket_path,
                        const std::string& cache_dir,
                        const std::vector<std::string>& oracle) {
  int truncated = 0;
  for (const auto& entry : std::filesystem::directory_iterator(cache_dir)) {
    if (entry.is_regular_file()) {
      std::filesystem::resize_file(entry.path(), 10);
      ++truncated;
    }
  }
  if (truncated == 0) {
    std::fprintf(stderr, "bench_chaos: cache dir is empty, nothing to tear\n");
    return false;
  }
  Client client(Client::unix_connector(socket_path, ChaosPlan{}),
                ClientOptions{});
  auto [op, params] = reserve_payload(1);
  const svc::CallResult r = client.call(op, params);
  if (!r.ok ||
      r.result_dump != oracle[static_cast<std::size_t>(kPoolSize + 1)]) {
    std::fprintf(stderr, "bench_chaos: torn-entry probe failed: %s %s\n",
                 r.error_code.c_str(), r.error_detail.c_str());
    return false;
  }
  if (r.response.at("cached").as_bool()) {
    std::fprintf(stderr,
                 "bench_chaos: a truncated disk entry was served as a hit "
                 "(%d files torn): %s\n",
                 truncated, r.response.dump().c_str());
    return false;
  }
  return true;
}

/// Replays one plan's write schedule twice over fresh socketpairs; the
/// observed fault counts must be identical (and actually nonzero), and
/// the plan's descriptor must round-trip through parse(). This is the
/// REPRO contract: the printed descriptor IS the fault schedule.
bool check_replay(const ChaosPlan& base) {
  ChaosPlan plan = base;
  plan.reset_permille = 0;  // keep the connection alive for all writes
  if (ChaosPlan::parse(plan.describe()).describe() != plan.describe()) {
    std::fprintf(stderr, "bench_chaos: describe/parse round-trip failed\n");
    return false;
  }
  const auto run_once = [&plan]() -> ChaosStats {
    int fds[2];
    SHLCP_CHECK_MSG(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
                    "socketpair failed");
    std::thread drain([fd = fds[1]] {
      char buf[4096];
      while (::read(fd, buf, sizeof buf) > 0) {
      }
    });
    ChaosStats stats;
    {
      FaultyTransport wire(::dup(fds[0]), fds[0], plan);
      for (int i = 0; i < 40; ++i) {
        const std::string frame =
            format("frame %d: %s\n", i, std::string(64, 'x').c_str());
        wire.write_all(frame);
      }
      stats = wire.stats();
    }  // closes fds[0]; the drain thread sees EOF
    drain.join();
    return stats;
  };
  const ChaosStats a = run_once();
  const ChaosStats b = run_once();
  const bool identical =
      a.writes == b.writes && a.chopped_writes == b.chopped_writes &&
      a.corrupted_bytes == b.corrupted_bytes && a.delays == b.delays &&
      a.delay_ms_total == b.delay_ms_total;
  if (!identical) {
    std::fprintf(stderr, "bench_chaos: fault schedule did not replay\n");
    return false;
  }
  if (a.chopped_writes == 0 || a.corrupted_bytes == 0) {
    std::fprintf(stderr, "bench_chaos: replay plan injected nothing\n");
    return false;
  }
  return true;
}

void add_pass_meta(Json& meta, const char* prefix, const PassResult& pass) {
  meta[format("%s_requests", prefix)] = pass.requests;
  meta[format("%s_ok", prefix)] = pass.ok;
  meta[format("%s_refused", prefix)] = pass.refused;
  meta[format("%s_errors", prefix)] = pass.errors;
  meta[format("%s_lost", prefix)] = pass.lost;
  meta[format("%s_retries", prefix)] = pass.stats.retries;
  meta[format("%s_reconnects", prefix)] = pass.stats.reconnects;
  meta[format("%s_timeouts", prefix)] = pass.stats.timeouts;
  meta[format("%s_digest_mismatches", prefix)] = pass.stats.digest_mismatches;
}

}  // namespace

int main() {
  const std::string shlcpd = svc::Supervisor::find_shlcpd(nullptr);
  if (shlcpd.empty()) {
    std::fprintf(stderr,
                 "bench_chaos: cannot find shlcpd (set SHLCP_SHLCPD or run "
                 "from the build tree)\n");
    return 1;
  }

  Daemon daemon;
  daemon.shlcpd = shlcpd;
  const std::string socket_path = daemon.socket_path();
  const std::string cache_dir = daemon.cache_dir();
  std::filesystem::create_directory(cache_dir);
  if (!daemon.start()) {
    return 1;
  }

  std::printf("== oracle: %d payload slots, in-process ==\n", kPoolSize);
  const std::vector<std::string> oracle = compute_oracle();

  ChaosPlan plan;
  plan.label = "bench-mixed";
  plan.seed = 0xC4A05C4A05ULL;
  plan.write_chop_permille = 300;
  plan.read_chop_permille = 300;
  plan.corrupt_permille = 60;
  plan.reset_permille = 20;
  plan.delay_permille = 50;
  plan.max_delay_ms = 2;

  std::printf("== pass 1: %d requests through chaos plan %s ==\n",
              chaos_requests(), plan.describe().c_str());
  const PassResult chaos = run_transport_chaos(socket_path, plan, oracle);
  std::printf(
      "chaos: %llu ok, %llu refused, %llu errors, %llu lost, %llu WRONG "
      "(retries=%llu reconnects=%llu digest_mismatches=%llu)\n",
      static_cast<unsigned long long>(chaos.ok),
      static_cast<unsigned long long>(chaos.refused),
      static_cast<unsigned long long>(chaos.errors),
      static_cast<unsigned long long>(chaos.lost),
      static_cast<unsigned long long>(chaos.wrong),
      static_cast<unsigned long long>(chaos.stats.retries),
      static_cast<unsigned long long>(chaos.stats.reconnects),
      static_cast<unsigned long long>(chaos.stats.digest_mismatches));

  const bool primed = prime_reserves(socket_path, oracle);

  std::printf("== pass 2: kill -9 x%d mid-stream ==\n", kMinKills);
  int kills = 0;
  const PassResult crash = run_kill_restart(oracle, &daemon, &kills);
  std::printf(
      "crash: %d kills, %llu ok, %llu refused, %llu errors, %llu lost, "
      "%llu WRONG (retries=%llu reconnects=%llu)\n",
      kills, static_cast<unsigned long long>(crash.ok),
      static_cast<unsigned long long>(crash.refused),
      static_cast<unsigned long long>(crash.errors),
      static_cast<unsigned long long>(crash.lost),
      static_cast<unsigned long long>(crash.wrong),
      static_cast<unsigned long long>(crash.stats.retries),
      static_cast<unsigned long long>(crash.stats.reconnects));

  std::printf("== pass 3: crash-consistent disk cache ==\n");
  const bool disk_hit = check_disk_hit(socket_path, oracle);
  const bool torn_miss = check_torn_entries(socket_path, cache_dir, oracle);
  std::printf("disk hit after restart: %s; torn entry is a miss: %s\n",
              disk_hit ? "ok" : "FAILED", torn_miss ? "ok" : "FAILED");

  const bool replay = check_replay(plan);
  std::printf("fault schedule replay: %s\n", replay ? "ok" : "FAILED");

  const std::uint64_t wrong = chaos.wrong + crash.wrong;
  const bool chaos_accounted =
      chaos.ok + chaos.refused + chaos.errors + chaos.lost + chaos.wrong ==
      chaos.requests;
  const bool crash_accounted =
      crash.ok + crash.refused + crash.errors + crash.lost + crash.wrong ==
      crash.requests;
  // Under the faulty wire some calls may legitimately exhaust their
  // retries; they must stay a bounded minority. Under the calm wire the
  // retry policy must absorb every crash completely.
  const bool chaos_bounded =
      chaos.lost * 2 <= chaos.requests && chaos.errors == 0;
  const bool crash_clean = crash.lost == 0 && crash.errors == 0;

  bench::Report report("chaos");
  report.meta()["repro"] = plan.describe();
  report.meta()["kills"] = static_cast<std::int64_t>(kills);
  report.meta()["wrong_responses"] = wrong;
  report.meta()["replay_match"] = replay;
  report.meta()["disk_hit_after_restart"] = disk_hit;
  report.meta()["torn_entry_is_miss"] = torn_miss;
  report.meta()["accounting_exact"] = chaos_accounted && crash_accounted;
  add_pass_meta(report.meta(), "chaos", chaos);
  add_pass_meta(report.meta(), "crash", crash);
  report.write();

  const bool gate = wrong == 0 && kills >= kMinKills && chaos_accounted &&
                    crash_accounted && chaos_bounded && crash_clean &&
                    primed && disk_hit && torn_miss && replay &&
                    chaos.requests > 0 && crash.requests > 0;
  if (!gate) {
    std::fprintf(stderr, "bench_chaos: GATE FAILED\n");
  }
  return gate ? 0 : 1;
}

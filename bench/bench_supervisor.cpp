// Self-healing fleet harness + acceptance gate for the supervisor
// (DESIGN.md §16, EXPERIMENTS.md E23).
//
// A Supervisor spawns a real shlcpd fleet (unix sockets, per-backend
// disk caches), a Router consistent-hashes requests across it, and the
// supervisor's monitor thread runs for real -- waitpid, health probes,
// restarts. Worker threads stream requests through the router while
// the harness SIGKILLs backends at least kMinKills times (every
// backend is a victim at least once); after each kill it requires the
// supervisor to bring the backend back within a restart budget.
//
// Gates (exit nonzero on any failure; CI validates the report with
// check_bench_json.py --supervisor):
//
//   zero wrong responses  every ok response byte-identical to an
//                         in-process oracle Service
//   kills >= kMinKills    and restarts >= kills (each SIGKILL was
//                         auto-restarted; the breaker never tripped)
//   budget                every recovery within kRestartBudgetMs
//   warm restarts         payloads primed pre-kill replay cached=true,
//                         byte-identical, after all victims revived
//   exact accounting      ok + refused + errors + lost == requests
//
// The router never goes down, so "lost" (a request with no response
// envelope at all) must be zero -- a total fleet outage surfaces as an
// "overloaded" refusal, which the accounting counts, not drops.

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "bench/report.h"
#include "service/client.h"
#include "service/router.h"
#include "service/supervisor.h"
#include "util/check.h"
#include "util/format.h"
#include "util/json.h"
#include "util/rng.h"

using namespace shlcp;
using svc::BackendRuntime;
using svc::Router;
using svc::RouterOptions;
using svc::SupervisedBackendStats;
using svc::Supervisor;
using svc::SupervisorOptions;

namespace {

constexpr int kMinKills = 6;
constexpr std::uint64_t kRestartBudgetMs = 15'000;

int fleet_size() { return bench::smoke() ? 2 : 3; }
int workers() { return 3; }
int kill_spacing_ms() { return bench::smoke() ? 200 : 400; }

/// Request pool: cacheable, deterministic, cheap enough that the
/// stream keeps pressure on the fleet between kills. The last two
/// slots are reserves -- primed once pre-kill, replayed post-recovery
/// as the warm-restart probes.
constexpr int kPoolSize = 8;
constexpr int kReserves = 2;

std::pair<std::string, Json> payload(int slot) {
  Json params = Json::object();
  if (slot < kPoolSize) {
    static const std::pair<const char*, std::int64_t> kColorings[] = {
        {"path5", 2},   {"cycle5", 3}, {"cycle6", 2}, {"grid23", 2},
        {"theta222", 2}, {"star5", 2},  {"cycle8", 2}, {"path5", 3},
    };
    const auto& [inst, k] = kColorings[static_cast<std::size_t>(slot)];
    params["instance"] = inst;
    params["k"] = k;
    return {"check_coloring", std::move(params)};
  }
  params["instance"] = slot == kPoolSize ? "complete4" : "star5";
  params["k"] = 3;
  return {"check_coloring", std::move(params)};
}

Json make_request(std::int64_t id, int slot) {
  auto [op, params] = payload(slot);
  Json req = Json::object();
  req["id"] = id;
  req["op"] = op;
  req["params"] = std::move(params);
  return req;
}

struct StreamResult {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t refused = 0;  // overloaded / draining (fleet mid-kill)
  std::uint64_t errors = 0;   // any other error code
  std::uint64_t lost = 0;     // no response envelope at all
  std::uint64_t wrong = 0;    // != oracle bytes: must stay zero

  void merge(const StreamResult& other) {
    requests += other.requests;
    ok += other.ok;
    refused += other.refused;
    errors += other.errors;
    lost += other.lost;
    wrong += other.wrong;
  }
};

void score(const Json& resp, int slot, const std::vector<std::string>& oracle,
           StreamResult* out) {
  out->requests += 1;
  if (!resp.is_object() || !resp.contains("ok")) {
    out->lost += 1;
    return;
  }
  if (resp.at("ok").as_bool()) {
    if (resp.at("result").dump() == oracle[static_cast<std::size_t>(slot)]) {
      out->ok += 1;
    } else {
      out->wrong += 1;
      std::fprintf(stderr, "bench_supervisor: WRONG RESPONSE slot %d\n", slot);
    }
    return;
  }
  const std::string code = resp.at("error").at("code").as_string();
  if (code == "overloaded" || code == "draining") {
    out->refused += 1;
  } else {
    out->errors += 1;
    std::fprintf(stderr, "bench_supervisor: slot %d error %s\n", slot,
                 code.c_str());
  }
}

std::uint64_t total_restarts(const std::vector<SupervisedBackendStats>& s) {
  std::uint64_t total = 0;
  for (const auto& b : s) {
    total += b.restarts;
  }
  return total;
}

/// Waits until backend `victim` is running again with one more restart
/// than before the kill. Returns the recovery latency in ms, or
/// UINT64_MAX on budget exhaustion.
std::uint64_t await_recovery(const Supervisor& supervisor, int victim,
                             std::uint64_t restarts_before) {
  const auto start = std::chrono::steady_clock::now();
  while (true) {
    const auto stats = supervisor.stats();
    const auto& b = stats.at(static_cast<std::size_t>(victim));
    const std::uint64_t elapsed = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (b.running && b.restarts > restarts_before) {
      return elapsed;
    }
    if (elapsed > kRestartBudgetMs) {
      return UINT64_MAX;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace

int main() {
  const std::string shlcpd = Supervisor::find_shlcpd(nullptr);
  if (shlcpd.empty()) {
    std::fprintf(stderr,
                 "bench_supervisor: cannot find shlcpd (set SHLCP_SHLCPD or "
                 "run from the build tree)\n");
    return 1;
  }

  const bench::TempDir dir("shlcp-supervisor");
  const std::vector<std::string> oracle =
      bench::compute_oracle(kPoolSize + kReserves, payload);

  SupervisorOptions sup_options;
  sup_options.shlcpd_path = shlcpd;
  sup_options.work_dir = dir.path();
  sup_options.backends = fleet_size();
  sup_options.backend_threads = 2;
  sup_options.restart.base_backoff_ms = 50;
  sup_options.restart.max_backoff_ms = 400;
  sup_options.restart.seed = 0x5EED;
  // Spaced SIGKILLs must restart, never quarantine: the window is kept
  // far below kill spacing x breaker_failures.
  sup_options.breaker_failures = 5;
  sup_options.breaker_window_ms = 1'000;
  sup_options.probe_interval_ms = 200;
  Supervisor supervisor(sup_options);  // stopped before `dir` is removed
  if (!supervisor.start()) {
    return 1;
  }

  RouterOptions router_options;
  router_options.backends = supervisor.backend_specs();
  router_options.client.timeout_ms = 5'000;
  router_options.client.retry.max_attempts = 4;
  router_options.client.retry.base_backoff_ms = 20;
  router_options.client.retry.seed = 0x5EED;
  router_options.replica_attempts = fleet_size();
  router_options.probe_interval_ms = 250;
  Router router(router_options);
  SHLCP_CHECK_MSG(router.probe_all() == fleet_size(),
                  "not every backend probes alive");
  supervisor.attach_router(&router);
  supervisor.start_monitor();

  // Prime the reserve payloads while the fleet is intact: they hit
  // their ring owners' disk caches and are never sent again until the
  // warm-restart probe at the end.
  for (int r = 0; r < kReserves; ++r) {
    const Json resp = router.handle(make_request(1000 + r, kPoolSize + r));
    SHLCP_CHECK_MSG(resp.at("ok").as_bool(), "priming reserve failed");
    SHLCP_CHECK_MSG(
        resp.at("result").dump() ==
            oracle[static_cast<std::size_t>(kPoolSize + r)],
        "reserve prime mismatch");
  }

  // The load: workers stream pool payloads through the router until
  // the kill schedule completes.
  std::atomic<bool> stop{false};
  std::vector<StreamResult> outs(static_cast<std::size_t>(workers()));
  std::vector<std::thread> threads;
  for (int w = 0; w < workers(); ++w) {
    threads.emplace_back([&, w] {
      std::int64_t i = w;
      while (!stop.load(std::memory_order_relaxed)) {
        const int slot = static_cast<int>(i % kPoolSize);
        score(router.handle(make_request(i, slot)), slot, oracle,
              &outs[static_cast<std::size_t>(w)]);
        i += workers();
      }
    });
  }

  // The kill schedule: first a round-robin pass so every backend dies
  // at least once (the warm-restart probe needs every possible reserve
  // owner to have crashed), then seeded-random victims. Each kill
  // waits out its recovery, so the next victim is always running.
  Rng victim_rng(0xCA11ED);
  int kills = 0;
  std::uint64_t slowest_recovery_ms = 0;
  bool budget_ok = true;
  for (int cycle = 0; cycle < kMinKills * 3 && kills < kMinKills; ++cycle) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kill_spacing_ms()));
    const int victim =
        kills < fleet_size()
            ? kills
            : static_cast<int>(victim_rng.next_below(
                  static_cast<std::uint64_t>(fleet_size())));
    const auto before = supervisor.stats();
    const pid_t pid = supervisor.pid_of(victim);
    if (pid <= 0) {
      continue;  // mid-restart straggler; try again next cycle
    }
    ::kill(pid, SIGKILL);
    ++kills;
    const std::uint64_t recovery = await_recovery(
        supervisor, victim,
        before.at(static_cast<std::size_t>(victim)).restarts);
    if (recovery == UINT64_MAX) {
      std::fprintf(stderr,
                   "bench_supervisor: backend b%d missed the %llu ms restart "
                   "budget\n",
                   victim, static_cast<unsigned long long>(kRestartBudgetMs));
      budget_ok = false;
      break;
    }
    slowest_recovery_ms = std::max(slowest_recovery_ms, recovery);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(kill_spacing_ms()));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) {
    t.join();
  }

  StreamResult stream;
  for (const StreamResult& out : outs) {
    stream.merge(out);
  }

  // Warm-restart probe: the reserves were primed before any kill and
  // their owners have all crashed and revived since -- the replay must
  // come back cached (the restarted incarnations reread their disk
  // caches) and byte-identical.
  bool warm_ok = true;
  for (int r = 0; r < kReserves && budget_ok; ++r) {
    const Json resp = router.handle(make_request(2000 + r, kPoolSize + r));
    if (!resp.at("ok").as_bool() ||
        resp.at("result").dump() !=
            oracle[static_cast<std::size_t>(kPoolSize + r)] ||
        !resp.at("cached").as_bool()) {
      std::fprintf(stderr,
                   "bench_supervisor: warm-restart probe %d failed: %s\n", r,
                   resp.dump().c_str());
      warm_ok = false;
    }
  }

  const auto final_stats = supervisor.stats();
  const std::uint64_t restarts = total_restarts(final_stats);
  std::uint64_t wedge_kills = 0;
  bool all_running = true;
  bool any_quarantined = false;
  for (const auto& b : final_stats) {
    all_running &= b.running;
    any_quarantined |= b.quarantined;
    wedge_kills += b.wedge_kills;
  }

  supervisor.stop();

  const bool accounted =
      stream.ok + stream.refused + stream.errors + stream.lost + stream.wrong ==
      stream.requests;
  // The router always answers; a fleet-wide gap surfaces as "refused",
  // never as a vanished response.
  const bool stream_clean = stream.lost == 0 && stream.errors == 0;

  std::printf(
      "supervisor: %d kills, %llu restarts, slowest recovery %llu ms\n"
      "stream: %llu requests, %llu ok, %llu refused, %llu errors, %llu lost, "
      "%llu WRONG\n",
      kills, static_cast<unsigned long long>(restarts),
      static_cast<unsigned long long>(slowest_recovery_ms),
      static_cast<unsigned long long>(stream.requests),
      static_cast<unsigned long long>(stream.ok),
      static_cast<unsigned long long>(stream.refused),
      static_cast<unsigned long long>(stream.errors),
      static_cast<unsigned long long>(stream.lost),
      static_cast<unsigned long long>(stream.wrong));

  bench::Report report("supervisor");
  report.meta()["backends"] = static_cast<std::int64_t>(fleet_size());
  report.meta()["kills"] = static_cast<std::int64_t>(kills);
  report.meta()["restarts"] = restarts;
  report.meta()["wedge_kills"] = wedge_kills;
  report.meta()["wrong_responses"] = stream.wrong;
  report.meta()["slowest_recovery_ms"] = slowest_recovery_ms;
  report.meta()["restart_budget_ms"] = kRestartBudgetMs;
  report.meta()["budget_ok"] = budget_ok;
  report.meta()["warm_hit_after_restart"] = warm_ok;
  report.meta()["all_running_at_end"] = all_running;
  report.meta()["any_quarantined"] = any_quarantined;
  report.meta()["accounting_exact"] = accounted;
  report.meta()["stream_requests"] = stream.requests;
  report.meta()["stream_ok"] = stream.ok;
  report.meta()["stream_refused"] = stream.refused;
  report.meta()["stream_errors"] = stream.errors;
  report.meta()["stream_lost"] = stream.lost;
  report.write();

  const bool gate = stream.wrong == 0 && kills >= kMinKills &&
                    restarts >= static_cast<std::uint64_t>(kills) &&
                    budget_ok && warm_ok && all_running && !any_quarantined &&
                    accounted && stream_clean && stream.requests > 0;
  if (!gate) {
    std::fprintf(stderr, "bench_supervisor: GATE FAILED\n");
  }
  return gate ? 0 : 1;
}

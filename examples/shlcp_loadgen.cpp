// shlcp_loadgen -- load generator for shlcpd and shlcp_router.
//
// Drives a mixed 4-endpoint workload against a running daemon, by
// spawning one itself over pipes, or by connecting to a unix socket or
// a TCP endpoint (a backend or the router -- both speak the same
// framing):
//
//   shlcp_loadgen --spawn build/examples/shlcpd --requests 200
//   shlcp_loadgen --socket /tmp/shlcp.sock --concurrency 16
//   shlcp_loadgen --tcp 127.0.0.1:7400 --open-loop --rate 500
//
// The request stream is deterministic in --seed: request i draws from a
// fixed generator table at index derived from (seed, i), so two runs
// are comparable. --repeat-keys K folds the stream onto K distinct
// request payloads, which makes the expected warm cache hit-rate
// (K < requests) a controlled quantity -- the CI smoke jobs assert
// hit-rate this way.
//
// Options:
//   --requests N         total requests (default 200)
//   --concurrency C      max outstanding requests / worker threads
//                        (default 8)
//   --mix M              mixed | run | check | witness | build
//   --seed S             stream seed (default 1)
//   --repeat-keys K      distinct payloads; 0 = all distinct (default 32)
//   --deadline-ms D      attach this deadline to every request
//   --allow-refused      "draining" responses are not failures
//   --require-hit-rate X fail unless final cache hit-rate >= X
//   --slo-p99-us X       fail unless the overall p99 latency <= X us
//
// Closed loop vs open loop. The default closed loop (send a request
// whenever a slot frees) under-reports tail latency: when the server
// stalls, the generator stops sending, so the stall is charged to one
// request instead of every request that *would* have been sent --
// coordinated omission. --open-loop fixes this: request k has the
// scheduled send time t0 + k/rate, workers sleep until the schedule
// (never until the server is ready), and latency is measured from the
// *scheduled* time, so server backlog is charged to every request it
// delays. Open-loop mode reports the corrected p99 and the achieved
// vs offered rate; it requires --socket or --tcp.
//
//   --open-loop          scheduled send times (coordinated-omission safe)
//   --rate R             open-loop offered rate, req/s (default 200)
//
// Resilient mode (--retries / --chaos / --open-loop; --socket or
// --tcp): instead of one pipelined connection, C worker threads each
// drive their own service/client.h Client -- per-attempt timeouts,
// capped exponential backoff with deterministic jitter,
// reconnect-on-failure, integrity digests both ways -- optionally
// through a client-side FaultyTransport chaos plan.
// Retry/reconnect/shed accounting is printed at the end.
//
//   --timeout-ms T       per-attempt response timeout (default 5000)
//   --retries R          max attempts per request (default 1 = off)
//   --backoff-ms B       base backoff between attempts (default 10)
//   --chaos DESC         client-side ChaosPlan descriptor (see
//                        src/service/chaos.h), e.g. the REPRO string of
//                        a chaos bench failure
//
// Interactive mode (--interactive; --socket or --tcp): instead of the
// stateless 4-endpoint mix, each of C workers drives honest
// commit-reveal k-coloring sessions end to end over session_open /
// session_step (schema shlcp.ia.v1): per round, commit to a freshly
// permuted coloring of the pool instance, receive the server's edge
// challenge, open the two endpoints. --requests counts whole sessions,
// --rounds sets the per-session round count. Session ids stay out of
// the reserved c<digits> retry-alias namespace (see service/proto.h).
// The run fails if any honest session is rejected or errors out.
//
//   --interactive        drive commit-reveal sessions instead of the mix
//   --rounds R           challenge rounds per session (default 2)
//
// Exit status: 0 iff every response was ok (or an allowed refusal),
// the hit-rate / SLO requirements (if any) held, and a --spawn daemon
// exited 0.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "interactive/commit.h"
#include "interactive/protocol.h"
#include "service/chaos.h"
#include "service/client.h"
#include "service/process.h"
#include "service/proto.h"
#include "sim/faults.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/format.h"
#include "util/json.h"
#include "util/rng.h"

namespace {

using shlcp::mix64;
using shlcp::mono_us;

using shlcp::FaultPlan;
using shlcp::Json;
using shlcp::svc::ChaosPlan;
using shlcp::svc::encode_frame;
using shlcp::svc::FrameReader;

/// Parses one response body. Bytes that are not JSON give nullopt and a
/// stderr line, so the caller counts the response as an error instead of
/// the process ending on an uncaught CheckError.
std::optional<Json> parse_response(std::string_view bytes) {
  try {
    return Json::parse(bytes);
  } catch (const shlcp::CheckError& e) {
    std::fprintf(stderr, "loadgen: unparsable response: %s\n", e.what());
    return std::nullopt;
  }
}

struct Endpoint {
  int write_fd = -1;
  int read_fd = -1;
};

/// Spawns `path --pipe` into `daemon` with our pipe ends as its stdin
/// and stdout. The pipes are O_CLOEXEC, so only the copies dup2'd onto
/// the child's stdin and stdout survive its exec.
Endpoint spawn_daemon(const char* path, shlcp::svc::ChildProcess* daemon) {
  int to_child[2];
  int from_child[2];
  if (pipe2(to_child, O_CLOEXEC) != 0 || pipe2(from_child, O_CLOEXEC) != 0 ||
      !daemon->spawn({path, "--pipe"}, {"", to_child[0], from_child[1]})) {
    std::perror("spawn");
    std::exit(1);
  }
  close(to_child[0]);
  close(from_child[1]);
  return Endpoint{to_child[1], from_child[0]};
}

Endpoint connect_socket(const char* path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    std::exit(1);
  }
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::perror("connect");
    std::exit(1);
  }
  return Endpoint{fd, fd};
}

Endpoint connect_tcp(const std::string& host, int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    std::exit(1);
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "loadgen: bad TCP host '%s' (numeric IPv4 only)\n",
                 host.c_str());
    std::exit(1);
  }
  int rc;
  do {
    rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    std::perror("connect");
    std::exit(1);
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Endpoint{fd, fd};
}

bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// The generator table: each entry builds one (op, params) pair. All of
/// them are cheap (small named instances, tiny families) so throughput
/// measures the service, not one giant enumeration.
Json make_params(const std::string& op, std::uint64_t variant) {
  Json params = Json::object();
  if (op == "run_decoder") {
    static const std::pair<const char*, const char*> kCombos[] = {
        {"degree-one", "path5"},    {"degree-one", "star5"},
        {"degree-one", "path6"},    {"spanning-bfs", "path6"},
        {"spanning-bfs", "cycle6"}, {"spanning-bfs", "grid23"},
        {"even-cycle", "cycle6"},   {"even-cycle", "cycle8"},
    };
    const auto& [lcp, inst] = kCombos[variant % std::size(kCombos)];
    params["lcp"] = lcp;
    params["instance"] = inst;
    params["labels"] = "honest";
    if (variant % 3 == 2) {
      FaultPlan plan;
      plan.label = "drop-light";
      plan.seed = 0xC0FFEE + variant;
      plan.drop_permille = 100;
      params["plan"] = plan.describe();
    }
  } else if (op == "check_coloring") {
    static const char* kPool[] = {"path5",  "cycle5", "cycle6",  "grid23",
                                  "star5",  "cycle7", "theta222", "complete4"};
    params["instance"] = kPool[variant % std::size(kPool)];
    params["k"] = static_cast<std::int64_t>(2 + variant % 2);
  } else if (op == "search_witness") {
    if (variant % 2 == 0) {
      params["family"] = "degree-one";
      params["max_n"] = static_cast<std::int64_t>(4 + variant % 2);
    } else {
      params["family"] = "even-cycle";
      params["max_n"] = 4;
    }
  } else {  // build_nbhd
    static const std::pair<const char*, const char*> kBuilds[] = {
        {"degree-one", "path:4"},   {"degree-one", "star:4"},
        {"spanning-bfs", "path:4"}, {"spanning-bfs", "cycle:4"},
        {"even-cycle", "cycle:4"},  {"even-cycle", "cycle:6"},
    };
    const auto& [lcp, spec] = kBuilds[variant % std::size(kBuilds)];
    params["lcp"] = lcp;
    Json& graphs = (params["graphs"] = Json::array());
    graphs.push_back(spec);
    params["build"] = "proved";
  }
  return params;
}

const char* pick_op(const std::string& mix, std::uint64_t variant) {
  if (mix == "run") return "run_decoder";
  if (mix == "check") return "check_coloring";
  if (mix == "witness") return "search_witness";
  if (mix == "build") return "build_nbhd";
  static const char* kOps[] = {"run_decoder", "check_coloring",
                               "search_witness", "build_nbhd"};
  return kOps[variant % std::size(kOps)];
}

struct OpTally {
  std::uint64_t count = 0;
  std::uint64_t errors = 0;
  std::vector<std::uint64_t> latencies_us;
};

std::uint64_t percentile(std::vector<std::uint64_t> xs, double p) {
  if (xs.empty()) {
    return 0;
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t i = static_cast<std::size_t>(
      p * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(i, xs.size() - 1)];
}

/// Resilient mode: `concurrency` threads, each driving its own Client
/// over its own connection to `target` ("unix:<path>" or
/// "tcp:<host>:<port>"; requests striped across workers so the stream
/// content matches the pipelined mode's). In open-loop mode request i
/// is sent at its scheduled time t0 + i/rate and latency is measured
/// from that schedule, not the actual send -- the coordinated-omission
/// correction. Returns the exit code.
int run_resilient(const std::string& target, std::uint64_t total,
                  std::uint64_t concurrency, const std::string& mix,
                  std::uint64_t seed, std::uint64_t repeat_keys,
                  std::uint64_t deadline_ms, bool allow_refused,
                  double require_hit_rate, double slo_p99_us, bool open_loop,
                  double rate,
                  const shlcp::svc::ClientOptions& base_options) {
  struct WorkerOut {
    std::map<std::string, OpTally> tallies;
    shlcp::svc::ClientStats stats;
    std::uint64_t refused = 0;
    std::uint64_t lost = 0;
  };
  std::vector<WorkerOut> outs(concurrency);
  std::vector<std::thread> workers;
  const std::uint64_t t0 = mono_us();
  for (std::uint64_t w = 0; w < concurrency; ++w) {
    workers.emplace_back([&, w] {
      WorkerOut& out = outs[w];
      shlcp::svc::ClientOptions options = base_options;
      // Per-worker fault/jitter streams: same plan shape, independent
      // deterministic schedules (the whole run replays from --seed).
      options.chaos.seed = mix64(options.chaos.seed ^ (0xC4A05ULL + w));
      options.retry.seed = mix64(options.retry.seed ^ (0xBAC0FFULL + w));
      shlcp::svc::Client client(
          shlcp::svc::Client::connector_for(target, options.chaos), options);
      for (std::uint64_t i = w; i < total; i += concurrency) {
        const std::uint64_t slot = repeat_keys == 0 ? i : i % repeat_keys;
        const std::uint64_t key_variant =
            shlcp::Rng(seed * 7919 + slot).next_u64() >> 8;
        const std::string op = pick_op(mix, key_variant);
        const Json params = make_params(op, key_variant);
        std::uint64_t sent_us = mono_us();
        if (open_loop) {
          // Sleep until request i's scheduled send time -- never until
          // the server is ready -- and charge latency from the
          // schedule, so a stall is billed to every request it delays.
          const std::uint64_t sched_us =
              t0 + static_cast<std::uint64_t>(static_cast<double>(i) * 1e6 /
                                              rate);
          if (sent_us < sched_us) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(sched_us - sent_us));
          }
          sent_us = sched_us;
        }
        const shlcp::svc::CallResult r =
            client.call(op, params, deadline_ms);
        OpTally& tally = out.tallies[op];
        ++tally.count;
        tally.latencies_us.push_back(mono_us() - sent_us);
        if (!r.ok) {
          if (r.error_code == "draining") {
            ++out.refused;
          } else if (r.error_code.empty()) {
            ++out.lost;  // transport/timeout after all retries
          } else {
            ++tally.errors;
            std::fprintf(stderr, "loadgen: [%s] %s: %s\n", op.c_str(),
                         r.error_code.c_str(), r.error_detail.c_str());
          }
        }
      }
      out.stats = client.stats();
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  const double elapsed_s = static_cast<double>(mono_us() - t0) / 1e6;

  std::map<std::string, OpTally> tallies;
  shlcp::svc::ClientStats stats;
  std::uint64_t refused = 0;
  std::uint64_t lost = 0;
  for (WorkerOut& out : outs) {
    for (auto& [op, tally] : out.tallies) {
      OpTally& merged = tallies[op];
      merged.count += tally.count;
      merged.errors += tally.errors;
      merged.latencies_us.insert(merged.latencies_us.end(),
                                 tally.latencies_us.begin(),
                                 tally.latencies_us.end());
    }
    stats += out.stats;
    refused += out.refused;
    lost += out.lost;
  }

  // Final hit-rate probe over a clean (chaos-free) connection.
  double hit_rate = -1.0;
  {
    shlcp::svc::ClientOptions options = base_options;
    options.chaos = ChaosPlan{};
    shlcp::svc::Client client(
        shlcp::svc::Client::connector_for(target, options.chaos), options);
    const shlcp::svc::CallResult r = client.call("info", Json::object());
    if (const std::optional<Json> result =
            r.ok ? parse_response(r.result_dump) : std::nullopt) {
      hit_rate = result->at("cache").at("hit_rate").as_double();
    }
  }

  std::uint64_t errors = 0;
  std::uint64_t done = 0;
  std::vector<std::uint64_t> overall_us;
  std::printf("%-16s %8s %8s %10s %10s\n", "op", "count", "errors", "p50_us",
              "p99_us");
  for (const auto& [op, tally] : tallies) {
    errors += tally.errors;
    done += tally.count;
    overall_us.insert(overall_us.end(), tally.latencies_us.begin(),
                      tally.latencies_us.end());
    std::printf("%-16s %8llu %8llu %10llu %10llu\n", op.c_str(),
                static_cast<unsigned long long>(tally.count),
                static_cast<unsigned long long>(tally.errors),
                static_cast<unsigned long long>(
                    percentile(tally.latencies_us, 0.50)),
                static_cast<unsigned long long>(
                    percentile(tally.latencies_us, 0.99)));
  }
  const std::uint64_t p99_us = percentile(overall_us, 0.99);
  std::printf(
      "total %llu requests in %.2fs (%.1f req/s), %llu errors, %llu refused, "
      "%llu lost\n",
      static_cast<unsigned long long>(done), elapsed_s,
      elapsed_s > 0 ? static_cast<double>(done) / elapsed_s : 0.0,
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(refused),
      static_cast<unsigned long long>(lost));
  if (open_loop) {
    std::printf("open-loop: offered %.1f req/s, achieved %.1f req/s\n", rate,
                elapsed_s > 0 ? static_cast<double>(done) / elapsed_s : 0.0);
  }
  std::printf("p99_us_overall=%llu\n",
              static_cast<unsigned long long>(p99_us));
  std::printf(
      "resilience: attempts=%llu retries=%llu reconnects=%llu timeouts=%llu "
      "transport_errors=%llu digest_mismatches=%llu shed_seen=%llu "
      "integrity_seen=%llu backoff_ms=%llu\n",
      static_cast<unsigned long long>(stats.attempts),
      static_cast<unsigned long long>(stats.retries),
      static_cast<unsigned long long>(stats.reconnects),
      static_cast<unsigned long long>(stats.timeouts),
      static_cast<unsigned long long>(stats.transport_errors),
      static_cast<unsigned long long>(stats.digest_mismatches),
      static_cast<unsigned long long>(stats.refused_overloaded),
      static_cast<unsigned long long>(stats.refused_integrity),
      static_cast<unsigned long long>(stats.backoff_ms_total));
  if (hit_rate >= 0) {
    std::printf("cache_hit_rate=%.4f\n", hit_rate);
  }

  if (errors > 0) {
    return 1;
  }
  if (!allow_refused && (refused > 0 || lost > 0)) {
    return 1;
  }
  if (require_hit_rate >= 0 && hit_rate < require_hit_rate) {
    std::fprintf(stderr, "loadgen: hit rate %.4f below required %.4f\n",
                 hit_rate, require_hit_rate);
    return 1;
  }
  if (slo_p99_us >= 0 && static_cast<double>(p99_us) > slo_p99_us) {
    std::fprintf(stderr, "loadgen: overall p99 %lluus above SLO %.0fus\n",
                 static_cast<unsigned long long>(p99_us), slo_p99_us);
    return 1;
  }
  return 0;
}

/// Interactive mode: C workers, each driving honest commit-reveal
/// sessions end to end through its own Client. One session is live per
/// worker at a time, so the daemon's per-connection cap is never in
/// play; a refused or rejected honest session is a failure. Session ids
/// are "lg-<worker>-<index>", outside the reserved c<digits> namespace.
int run_interactive(const std::string& target, std::uint64_t total,
                    std::uint64_t concurrency, std::uint64_t seed,
                    std::uint64_t rounds,
                    const shlcp::svc::ClientOptions& base_options) {
  const shlcp::Graph cycle = shlcp::make_cycle(6);
  const std::optional<std::vector<int>> coloring =
      shlcp::k_coloring(cycle, 2);
  if (!coloring.has_value()) {
    std::fprintf(stderr, "loadgen: cycle6 has no 2-coloring?\n");
    return 1;
  }
  struct WorkerOut {
    std::uint64_t sessions = 0;
    std::uint64_t accepted = 0;
    std::uint64_t errors = 0;
    std::vector<std::uint64_t> latencies_us;  // whole-session latency
  };
  std::vector<WorkerOut> outs(concurrency);
  std::vector<std::thread> workers;
  const std::uint64_t t0 = mono_us();
  for (std::uint64_t w = 0; w < concurrency; ++w) {
    workers.emplace_back([&, w] {
      WorkerOut& out = outs[w];
      shlcp::svc::ClientOptions options = base_options;
      options.retry.seed = mix64(options.retry.seed ^ (0xBAC0FFULL + w));
      shlcp::svc::Client client(
          shlcp::svc::Client::connector_for(target, options.chaos), options);
      for (std::uint64_t i = w; i < total; i += concurrency) {
        const std::string id = shlcp::format(
            "lg-%llu-%llu", static_cast<unsigned long long>(w),
            static_cast<unsigned long long>(i));
        const std::uint64_t sent_us = mono_us();
        ++out.sessions;
        Json open_params = Json::object();
        open_params["session"] = id;
        open_params["instance"] = "cycle6";
        open_params["k"] = 2;
        open_params["rounds"] = rounds;
        // The wire carries signed ints; keep the per-session seed in
        // the int63 range the server can read back.
        open_params["seed"] =
            static_cast<std::int64_t>(mix64(seed ^ i) >> 1);
        shlcp::svc::CallResult r =
            client.call("session_open", open_params, 0);
        if (!r.ok) {
          ++out.errors;
          std::fprintf(stderr, "loadgen: [session_open %s] %s: %s\n",
                       id.c_str(), r.error_code.c_str(),
                       r.error_detail.c_str());
          continue;
        }
        shlcp::ia::CommitProver prover(*coloring, 2, id, mix64(seed + i));
        bool verdict = false;
        bool failed = false;
        for (std::uint64_t round = 0; round < rounds && !failed; ++round) {
          Json commit = Json::object();
          commit["type"] = "commit";
          Json& arr = (commit["commitments"] = Json::array());
          for (const std::uint64_t c : prover.commit_round()) {
            arr.push_back(shlcp::ia::hex16(c));
          }
          Json params = Json::object();
          params["session"] = id;
          params["msg"] = std::move(commit);
          r = client.call("session_step", params, 0);
          if (!r.ok) {
            failed = true;
            break;
          }
          const std::optional<Json> committed = parse_response(r.result_dump);
          if (!committed.has_value()) {
            r.error_code = "unparsable";
            failed = true;
            break;
          }
          const Json& challenge = committed->at("reply").at("challenge");
          Json open = Json::object();
          open["type"] = "open";
          Json& opens = (open["opens"] = Json::array());
          for (std::size_t e = 0; e < 2; ++e) {
            const shlcp::ia::Opening o =
                prover.open(static_cast<int>(challenge.at(e).as_int()));
            Json& entry = opens.push_back(Json::array());
            entry.push_back(o.node);
            entry.push_back(o.color);
            entry.push_back(shlcp::ia::hex16(o.nonce));
          }
          Json open_step = Json::object();
          open_step["session"] = id;
          open_step["msg"] = std::move(open);
          r = client.call("session_step", open_step, 0);
          if (!r.ok) {
            failed = true;
            break;
          }
          const std::optional<Json> stepped = parse_response(r.result_dump);
          if (!stepped.has_value()) {
            r.error_code = "unparsable";
            failed = true;
            break;
          }
          if (stepped->at("completed").as_bool()) {
            verdict = stepped->at("reply").at("verdict").as_bool();
          }
        }
        if (failed) {
          ++out.errors;
          std::fprintf(stderr, "loadgen: [session %s] %s: %s\n", id.c_str(),
                       r.error_code.c_str(), r.error_detail.c_str());
          // Best-effort cleanup so a half-done session does not linger
          // until the TTL sweep.
          Json close_params = Json::object();
          close_params["session"] = id;
          client.call("session_close", close_params, 0);
          continue;
        }
        if (verdict) {
          ++out.accepted;
        } else {
          ++out.errors;
          std::fprintf(stderr,
                       "loadgen: [session %s] honest session rejected\n",
                       id.c_str());
        }
        out.latencies_us.push_back(mono_us() - sent_us);
      }
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  const double elapsed_s = static_cast<double>(mono_us() - t0) / 1e6;

  std::uint64_t sessions = 0;
  std::uint64_t accepted = 0;
  std::uint64_t errors = 0;
  std::vector<std::uint64_t> overall_us;
  for (WorkerOut& out : outs) {
    sessions += out.sessions;
    accepted += out.accepted;
    errors += out.errors;
    overall_us.insert(overall_us.end(), out.latencies_us.begin(),
                      out.latencies_us.end());
  }
  std::printf(
      "interactive: %llu sessions in %.2fs (%.1f sessions/s), %llu rounds "
      "each, %llu accepted, %llu errors\n",
      static_cast<unsigned long long>(sessions), elapsed_s,
      elapsed_s > 0 ? static_cast<double>(sessions) / elapsed_s : 0.0,
      static_cast<unsigned long long>(rounds),
      static_cast<unsigned long long>(accepted),
      static_cast<unsigned long long>(errors));
  std::printf("session_p50_us=%llu session_p99_us=%llu\n",
              static_cast<unsigned long long>(percentile(overall_us, 0.50)),
              static_cast<unsigned long long>(percentile(overall_us, 0.99)));
  return errors == 0 && accepted == sessions ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* spawn_path = nullptr;
  const char* socket_path = nullptr;
  std::string tcp;
  std::uint64_t total = 200;
  std::uint64_t concurrency = 8;
  std::string mix = "mixed";
  std::uint64_t seed = 1;
  std::uint64_t repeat_keys = 32;
  std::uint64_t deadline_ms = 0;
  bool allow_refused = false;
  double require_hit_rate = -1.0;
  double slo_p99_us = -1.0;
  bool open_loop = false;
  double rate = 200.0;
  std::uint64_t timeout_ms = 5000;
  int retries = 1;
  std::uint64_t backoff_ms = 10;
  std::string chaos_desc;
  bool interactive = false;
  std::uint64_t rounds = 2;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--spawn") {
      spawn_path = next();
    } else if (arg == "--socket") {
      socket_path = next();
    } else if (arg == "--tcp") {
      tcp = next();
    } else if (arg == "--open-loop") {
      open_loop = true;
    } else if (arg == "--rate") {
      rate = std::atof(next());
    } else if (arg == "--slo-p99-us") {
      slo_p99_us = std::atof(next());
    } else if (arg == "--requests") {
      total = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--concurrency") {
      concurrency = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--mix") {
      mix = next();
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--repeat-keys") {
      repeat_keys = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--deadline-ms") {
      deadline_ms = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--allow-refused") {
      allow_refused = true;
    } else if (arg == "--require-hit-rate") {
      require_hit_rate = std::atof(next());
    } else if (arg == "--timeout-ms") {
      timeout_ms = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--retries") {
      retries = std::atoi(next());
    } else if (arg == "--backoff-ms") {
      backoff_ms = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--chaos") {
      chaos_desc = next();
    } else if (arg == "--interactive") {
      interactive = true;
    } else if (arg == "--rounds") {
      rounds = std::strtoull(next(), nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s (--spawn SHLCPD | --socket PATH | --tcp "
                   "[HOST:]PORT) [--requests N] "
                   "[--concurrency C] [--mix M] [--seed S] [--repeat-keys K] "
                   "[--deadline-ms D] [--allow-refused] "
                   "[--require-hit-rate X] [--slo-p99-us X] "
                   "[--open-loop] [--rate R] [--timeout-ms T] [--retries R] "
                   "[--backoff-ms B] [--chaos DESC] "
                   "[--interactive] [--rounds R]\n",
                   argv[0]);
      return 2;
    }
  }
  const int n_targets = (spawn_path != nullptr ? 1 : 0) +
                        (socket_path != nullptr ? 1 : 0) +
                        (tcp.empty() ? 0 : 1);
  if (n_targets != 1) {
    std::fprintf(stderr, "%s: need exactly one of --spawn / --socket / --tcp\n",
                 argv[0]);
    return 2;
  }
  if (!tcp.empty() && tcp.find(':') == std::string::npos) {
    tcp = "127.0.0.1:" + tcp;
  }
  if (open_loop && rate <= 0) {
    std::fprintf(stderr, "%s: --rate must be positive\n", argv[0]);
    return 2;
  }
  concurrency = std::max<std::uint64_t>(1, std::min(concurrency, total));

  if (interactive) {
    if (spawn_path != nullptr) {
      std::fprintf(stderr, "%s: --interactive needs --socket or --tcp\n",
                   argv[0]);
      return 2;
    }
    if (rounds == 0) {
      std::fprintf(stderr, "%s: --rounds must be positive\n", argv[0]);
      return 2;
    }
    shlcp::svc::ClientOptions options;
    options.timeout_ms = timeout_ms;
    options.retry.max_attempts = std::max(retries, 1);
    options.retry.base_backoff_ms = backoff_ms;
    options.retry.seed = seed;
    const std::string target = socket_path != nullptr
                                   ? "unix:" + std::string(socket_path)
                                   : "tcp:" + tcp;
    return run_interactive(target, total, concurrency, seed, rounds, options);
  }

  const bool resilient = retries > 1 || !chaos_desc.empty() || open_loop;
  if (resilient) {
    if (spawn_path != nullptr) {
      std::fprintf(stderr,
                   "%s: --retries/--chaos/--open-loop need --socket or --tcp\n",
                   argv[0]);
      return 2;
    }
    shlcp::svc::ClientOptions options;
    options.timeout_ms = timeout_ms;
    options.retry.max_attempts = std::max(retries, 1);
    options.retry.base_backoff_ms = backoff_ms;
    options.retry.seed = seed;
    if (!chaos_desc.empty()) {
      try {
        options.chaos = ChaosPlan::parse(chaos_desc);
      } catch (const shlcp::CheckError& e) {
        std::fprintf(stderr, "%s: bad --chaos descriptor: %s\n", argv[0],
                     e.what());
        return 2;
      }
    }
    const std::string target = socket_path != nullptr
                                   ? "unix:" + std::string(socket_path)
                                   : "tcp:" + tcp;
    return run_resilient(target, total, concurrency, mix, seed, repeat_keys,
                         deadline_ms, allow_refused, require_hit_rate,
                         slo_p99_us, open_loop, rate, options);
  }

  shlcp::svc::ChildProcess daemon;  // runs only with --spawn
  Endpoint ep;
  if (spawn_path != nullptr) {
    ep = spawn_daemon(spawn_path, &daemon);
  } else if (socket_path != nullptr) {
    ep = connect_socket(socket_path);
  } else {
    const std::size_t colon = tcp.rfind(':');
    ep = connect_tcp(tcp.substr(0, colon), std::atoi(tcp.c_str() + colon + 1));
  }

  // Closed loop: keep up to `concurrency` requests outstanding, match
  // responses by echoed id.
  FrameReader reader;
  std::map<std::uint64_t, std::pair<std::string, std::uint64_t>>
      outstanding;  // id -> (op, send time us)
  std::map<std::string, OpTally> tallies;
  std::uint64_t sent = 0;
  std::uint64_t done = 0;
  std::uint64_t refused = 0;
  std::uint64_t transport_lost = 0;
  const std::uint64_t t0 = mono_us();

  while (done + transport_lost < total) {
    bool transport_ok = true;
    while (sent < total && outstanding.size() < concurrency) {
      // Folding onto K payload keys: the variant is a pure function of
      // the request's key slot, so repeated slots repeat byte-identically
      // (same cache key server-side).
      const std::uint64_t slot = repeat_keys == 0 ? sent : sent % repeat_keys;
      const std::uint64_t key_variant =
          shlcp::Rng(seed * 7919 + slot).next_u64() >> 8;
      Json req = Json::object();
      req["id"] = sent;
      req["op"] = pick_op(mix, key_variant);
      req["params"] = make_params(req.at("op").as_string(), key_variant);
      if (deadline_ms > 0) {
        req["deadline_ms"] = deadline_ms;
      }
      if (!write_all(ep.write_fd, encode_frame(req.dump()))) {
        transport_ok = false;
        break;
      }
      outstanding[sent] = {req.at("op").as_string(), mono_us()};
      ++sent;
    }
    if (!transport_ok) {
      transport_lost = total - done;
      break;
    }

    pollfd pfd = {ep.read_fd, POLLIN, 0};
    const int rc = poll(&pfd, 1, 5000);
    if (rc <= 0) {
      if (rc < 0 && errno == EINTR) {
        continue;
      }
      std::fprintf(stderr, "loadgen: response timeout/poll failure\n");
      transport_lost = total - done;
      break;
    }
    char buf[64 << 10];
    const ssize_t n = read(ep.read_fd, buf, sizeof buf);
    if (n <= 0) {
      transport_lost = total - done;
      break;
    }
    reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    std::string frame;
    std::string error;
    while (reader.next(&frame, &error) == FrameReader::Next::kFrame) {
      const std::optional<Json> parsed = parse_response(frame);
      if (!parsed.has_value()) {
        // The frame names no request, so it stands in for one answer:
        // an error, and the run still ends once every request is done.
        OpTally& tally = tallies["unparsable"];
        ++tally.count;
        ++tally.errors;
        ++done;
        continue;
      }
      const Json& resp = *parsed;
      const std::uint64_t id = resp.at("id").as_uint();
      const auto it = outstanding.find(id);
      if (it == outstanding.end()) {
        std::fprintf(stderr, "loadgen: unmatched response id %llu\n",
                     static_cast<unsigned long long>(id));
        return 1;
      }
      OpTally& tally = tallies[it->second.first];
      ++tally.count;
      tally.latencies_us.push_back(mono_us() - it->second.second);
      if (!resp.at("ok").as_bool()) {
        const std::string& code =
            resp.at("error").at("code").as_string();
        if (code == "draining") {
          ++refused;
        } else {
          ++tally.errors;
          std::fprintf(stderr, "loadgen: [%s] %s: %s\n",
                       it->second.first.c_str(), code.c_str(),
                       resp.at("error").at("message").as_string().c_str());
        }
      }
      outstanding.erase(it);
      ++done;
    }
    if (reader.failed()) {
      std::fprintf(stderr, "loadgen: framing lost: %s\n", error.c_str());
      return 1;
    }
  }
  const double elapsed_s =
      static_cast<double>(mono_us() - t0) / 1e6;

  // Final (uncached) info request for the server-side cache hit-rate.
  double hit_rate = -1.0;
  if (transport_lost == 0) {
    Json info = Json::object();
    info["id"] = "info";
    info["op"] = "info";
    if (write_all(ep.write_fd, encode_frame(info.dump()))) {
      std::string frame;
      std::string error;
      while (reader.next(&frame, &error) != FrameReader::Next::kFrame) {
        pollfd pfd = {ep.read_fd, POLLIN, 0};
        if (poll(&pfd, 1, 5000) <= 0) {
          break;
        }
        char buf[16 << 10];
        const ssize_t n = read(ep.read_fd, buf, sizeof buf);
        if (n <= 0) {
          break;
        }
        reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      }
      const std::optional<Json> resp =
          frame.empty() ? std::nullopt : parse_response(frame);
      if (resp.has_value() && resp->at("ok").as_bool()) {
        hit_rate = resp->at("result").at("cache").at("hit_rate").as_double();
      }
    }
  }

  close(ep.write_fd);  // EOF -> a spawned daemon exits cleanly
  const int daemon_exit = daemon.wait();  // -1: nothing was spawned

  std::uint64_t errors = 0;
  std::vector<std::uint64_t> overall_us;
  std::printf("%-16s %8s %8s %10s %10s\n", "op", "count", "errors", "p50_us",
              "p99_us");
  for (const auto& [op, tally] : tallies) {
    errors += tally.errors;
    overall_us.insert(overall_us.end(), tally.latencies_us.begin(),
                      tally.latencies_us.end());
    std::printf("%-16s %8llu %8llu %10llu %10llu\n", op.c_str(),
                static_cast<unsigned long long>(tally.count),
                static_cast<unsigned long long>(tally.errors),
                static_cast<unsigned long long>(
                    percentile(tally.latencies_us, 0.50)),
                static_cast<unsigned long long>(
                    percentile(tally.latencies_us, 0.99)));
  }
  const std::uint64_t p99_us = percentile(overall_us, 0.99);
  std::printf(
      "total %llu requests in %.2fs (%.1f req/s), %llu errors, %llu refused, "
      "%llu lost\n",
      static_cast<unsigned long long>(done), elapsed_s,
      elapsed_s > 0 ? static_cast<double>(done) / elapsed_s : 0.0,
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(refused),
      static_cast<unsigned long long>(transport_lost));
  std::printf("p99_us_overall=%llu\n",
              static_cast<unsigned long long>(p99_us));
  if (hit_rate >= 0) {
    std::printf("cache_hit_rate=%.4f\n", hit_rate);
  }

  if (daemon_exit > 0) {
    std::fprintf(stderr, "loadgen: spawned daemon exited with status %d\n",
                 daemon_exit);
    return 1;
  }
  if (errors > 0) {
    return 1;
  }
  if (!allow_refused && (refused > 0 || transport_lost > 0)) {
    return 1;
  }
  if (require_hit_rate >= 0 && hit_rate < require_hit_rate) {
    std::fprintf(stderr, "loadgen: hit rate %.4f below required %.4f\n",
                 hit_rate, require_hit_rate);
    return 1;
  }
  if (slo_p99_us >= 0 && static_cast<double>(p99_us) > slo_p99_us) {
    std::fprintf(stderr, "loadgen: overall p99 %lluus above SLO %.0fus\n",
                 static_cast<unsigned long long>(p99_us), slo_p99_us);
    return 1;
  }
  return 0;
}

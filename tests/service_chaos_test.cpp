// Resilience-layer tests: ChaosPlan, FaultyTransport, and the retrying
// Client (service/chaos.h, service/client.h). The claims pinned here:
//
//   * ChaosPlan::describe / ChaosPlan::parse round-trip exactly (the
//     chaos bench's REPRO string reconstructs the plan), malformed
//     descriptors fail loudly, and standard_family is deterministic;
//   * a calm FaultyTransport is byte-for-byte transparent, so the
//     wrapper can stay installed in the load paths permanently;
//   * chopped writes reorder nothing -- the peer reassembles the exact
//     payload; corruption changes exactly stats().corrupted_bytes
//     bytes; a reset kills the connection for good;
//   * two transports driven by the same plan over the same operation
//     sequence inject identical faults (replay determinism);
//   * the Client retries overloaded refusals (honoring retry_after_ms),
//     retries digest-mismatched responses instead of surfacing them,
//     reconnects after attempt timeouts, attaches the "check" integrity
//     digest, and never retries fatal error codes.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nbhd/checkpoint.h"
#include "service/cache.h"
#include "service/chaos.h"
#include "service/client.h"
#include "service/proto.h"
#include "service/service.h"
#include "util/check.h"

namespace shlcp::svc {
namespace {

// ---------------------------------------------------------------------
// ChaosPlan descriptors.

TEST(ChaosPlan, DescribeParseRoundTrip) {
  ChaosPlan plan;
  plan.label = "bench-mixed";
  plan.seed = 0xC4A05C4A05ULL;
  plan.write_chop_permille = 300;
  plan.read_chop_permille = 250;
  plan.corrupt_permille = 60;
  plan.reset_permille = 20;
  plan.delay_permille = 50;
  plan.max_delay_ms = 2;

  const std::string descriptor = plan.describe();
  // The 7-field ';' shape is the REPRO contract of the chaos bench
  // (tools/check_bench_json.py --chaos counts the separators).
  EXPECT_EQ(std::count(descriptor.begin(), descriptor.end(), ';'), 6)
      << descriptor;
  EXPECT_EQ(ChaosPlan::parse(descriptor), plan);

  // Defaults survive the round trip too.
  EXPECT_EQ(ChaosPlan::parse(ChaosPlan{}.describe()), ChaosPlan{});
}

TEST(ChaosPlan, EnabledReflectsFaultRates) {
  EXPECT_FALSE(ChaosPlan{}.enabled());
  ChaosPlan seeded;
  seeded.seed = 123;  // a seed alone injects nothing
  EXPECT_FALSE(seeded.enabled());
  ChaosPlan chop;
  chop.write_chop_permille = 1;
  EXPECT_TRUE(chop.enabled());
  // A delay rate without a delay bound cannot stall anything.
  ChaosPlan zero_delay;
  zero_delay.delay_permille = 500;
  zero_delay.max_delay_ms = 0;
  EXPECT_FALSE(zero_delay.enabled());
}

TEST(ChaosPlan, ParseRejectsMalformedDescriptors) {
  for (const char* bad : {
           "",
           "calm",
           "calm;seed=0x1;wchop=0;rchop=0;corrupt=0;reset=0",  // 6 fields
           "calm;sed=0x1;wchop=0;rchop=0;corrupt=0;reset=0;delay=0@0ms",
           "calm;seed=0x1;wchop=0;rchop=0;corrupt=0;reset=0;delay=0",
           "calm;seed=0x1;wchop=0;rchop=0;corrupt=0;reset=0;delay=0@5",
           // Numbers must be consumed completely: none reads as 0 or 12.
           "calm;seed=0x1;wchop=12x;rchop=0;corrupt=0;reset=0;delay=0@0ms",
           "calm;seed=zz;wchop=0;rchop=0;corrupt=0;reset=0;delay=0@0ms",
           "calm;seed=0x1;wchop=0;rchop=0;corrupt=0;reset=0;delay=x@0ms",
           "calm;seed=0x1;wchop=0;rchop=0;corrupt=0;reset=0;delay=0@ms",
       }) {
    EXPECT_THROW(ChaosPlan::parse(bad), CheckError) << bad;
  }
}

TEST(ChaosPlan, StandardFamilyIsDeterministic) {
  const std::vector<ChaosPlan> family = ChaosPlan::standard_family(0xFEED);
  EXPECT_EQ(family, ChaosPlan::standard_family(0xFEED));
  ASSERT_GE(family.size(), 3u);
  EXPECT_EQ(family.front().label, "calm");
  EXPECT_FALSE(family.front().enabled());
  bool any_enabled = false;
  for (const ChaosPlan& plan : family) {
    any_enabled = any_enabled || plan.enabled();
    EXPECT_EQ(ChaosPlan::parse(plan.describe()), plan) << plan.describe();
  }
  EXPECT_TRUE(any_enabled);
  // Different base seeds derive different per-plan seeds.
  EXPECT_NE(ChaosPlan::standard_family(0xBEEF).front().seed,
            family.front().seed);
}

// ---------------------------------------------------------------------
// FaultyTransport.

struct SocketPair {
  int ours = -1;   // raw peer end, owned here
  int theirs = -1;  // handed to a FaultyTransport, owned there
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ours = fds[0];
    theirs = fds[1];
  }
  ~SocketPair() {
    if (ours >= 0) {
      ::close(ours);
    }
  }
};

/// Reads exactly `n` bytes from a raw fd (the peer side of a chopped
/// write delivers them in slices).
std::string read_exact(int fd, std::size_t n) {
  std::string out;
  while (out.size() < n) {
    char buf[4096];
    const ssize_t got =
        ::read(fd, buf, std::min(sizeof buf, n - out.size()));
    if (got <= 0) {
      ADD_FAILURE() << "peer read failed with " << out.size() << "/" << n
                    << " bytes";
      return out;
    }
    out.append(buf, static_cast<std::size_t>(got));
  }
  return out;
}

TEST(FaultyTransport, CalmPlanIsByteTransparent) {
  SocketPair pair;
  FaultyTransport wire(pair.theirs, pair.theirs, ChaosPlan{});

  const std::string out = "hello through a calm wire \x00\xff\n ok";
  ASSERT_TRUE(wire.write_all(out));
  EXPECT_EQ(read_exact(pair.ours, out.size()), out);

  const std::string back = "and the reply comes back untouched";
  ASSERT_EQ(::write(pair.ours, back.data(), back.size()),
            static_cast<ssize_t>(back.size()));
  std::string got;
  while (got.size() < back.size()) {
    char buf[4096];
    const std::int64_t n = wire.read_some(buf, sizeof buf);
    ASSERT_GT(n, 0);
    got.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(got, back);

  EXPECT_FALSE(wire.dead());
  const ChaosStats& stats = wire.stats();
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_GE(stats.reads, 1u);
  EXPECT_EQ(stats.chopped_writes, 0u);
  EXPECT_EQ(stats.chopped_reads, 0u);
  EXPECT_EQ(stats.corrupted_bytes, 0u);
  EXPECT_EQ(stats.resets, 0u);
  EXPECT_EQ(stats.delays, 0u);
}

TEST(FaultyTransport, ChoppedWritesPreserveContent) {
  ChaosPlan plan;
  plan.label = "chop-always";
  plan.seed = 0xC0FFEE;
  plan.write_chop_permille = 1000;

  SocketPair pair;
  FaultyTransport wire(pair.theirs, pair.theirs, plan);
  for (int round = 0; round < 5; ++round) {
    std::string payload;
    for (int i = 0; i < 100 + 37 * round; ++i) {
      payload.push_back(static_cast<char>('a' + (i * 7 + round) % 26));
    }
    ASSERT_TRUE(wire.write_all(payload));
    EXPECT_EQ(read_exact(pair.ours, payload.size()), payload) << round;
  }
  EXPECT_EQ(wire.stats().writes, 5u);
  EXPECT_EQ(wire.stats().chopped_writes, 5u);
  EXPECT_EQ(wire.stats().corrupted_bytes, 0u);
}

TEST(FaultyTransport, CorruptionChangesExactlyCountedBytes) {
  ChaosPlan plan;
  plan.label = "corrupt-always";
  plan.seed = 0xBAD;
  plan.corrupt_permille = 1000;

  SocketPair pair;
  FaultyTransport wire(pair.theirs, pair.theirs, plan);
  std::uint64_t diffs = 0;
  const int rounds = 20;
  for (int round = 0; round < rounds; ++round) {
    std::string payload(32, static_cast<char>('A' + round));
    ASSERT_TRUE(wire.write_all(payload));
    const std::string received = read_exact(pair.ours, payload.size());
    ASSERT_EQ(received.size(), payload.size());
    for (std::size_t i = 0; i < payload.size(); ++i) {
      diffs += received[i] != payload[i] ? 1 : 0;
    }
  }
  EXPECT_EQ(diffs, wire.stats().corrupted_bytes);
  EXPECT_EQ(diffs, static_cast<std::uint64_t>(rounds));  // one byte per op
}

TEST(FaultyTransport, ResetKillsConnectionForGood) {
  ChaosPlan plan;
  plan.label = "reset-always";
  plan.seed = 0x5E7;
  plan.reset_permille = 1000;

  SocketPair pair;
  FaultyTransport wire(pair.theirs, pair.theirs, plan);
  EXPECT_FALSE(wire.write_all("doomed"));
  EXPECT_TRUE(wire.dead());
  EXPECT_EQ(wire.poll_fd(), -1);
  EXPECT_EQ(wire.stats().resets, 1u);

  // Dead is dead: no operation revives the connection.
  EXPECT_FALSE(wire.write_all("still doomed"));
  char buf[16];
  EXPECT_EQ(wire.read_some(buf, sizeof buf), -1);
  EXPECT_EQ(wire.stats().resets, 1u);  // no further draws on a corpse
}

// Two transports with the same plan over the same write sequence must
// inject identical faults and deliver identical bytes -- the replay
// contract that makes a chaos REPRO string reproduce a failure.
TEST(FaultyTransport, SamePlanSameOpsReplaysIdentically) {
  ChaosPlan plan;
  plan.label = "replay";
  plan.seed = 0x12345;
  plan.write_chop_permille = 500;
  plan.corrupt_permille = 400;

  const auto run_once = [&](std::string* received) -> ChaosStats {
    SocketPair pair;
    std::thread drain([&] {
      char buf[4096];
      for (;;) {
        const ssize_t n = ::read(pair.ours, buf, sizeof buf);
        if (n <= 0) {
          return;
        }
        received->append(buf, static_cast<std::size_t>(n));
      }
    });
    ChaosStats stats;
    {
      FaultyTransport wire(pair.theirs, pair.theirs, plan);
      for (int i = 0; i < 30; ++i) {
        std::string payload = encode_frame(
            "{\"id\":" + std::to_string(i) + ",\"op\":\"info\"}");
        EXPECT_TRUE(wire.write_all(payload)) << i;
      }
      stats = wire.stats();
    }  // destruction closes the write side; the drain thread sees EOF
    drain.join();
    return stats;
  };

  std::string first_bytes;
  std::string second_bytes;
  const ChaosStats first = run_once(&first_bytes);
  const ChaosStats second = run_once(&second_bytes);
  EXPECT_EQ(first_bytes, second_bytes);
  EXPECT_EQ(first.writes, second.writes);
  EXPECT_EQ(first.chopped_writes, second.chopped_writes);
  EXPECT_EQ(first.corrupted_bytes, second.corrupted_bytes);
  // The plan must actually have fired, or the test proves nothing.
  EXPECT_GT(first.chopped_writes, 0u);
  EXPECT_GT(first.corrupted_bytes, 0u);
}

// ---------------------------------------------------------------------
// Client retry discipline, against a scripted in-process server.

/// Decides one response. `connection` counts connector calls (0-based),
/// `request_index` counts requests across all connections. nullopt =
/// never answer (the client's attempt times out).
using Responder =
    std::function<std::optional<Json>(const Json& request, int connection,
                                      int request_index)>;

/// A fake daemon: each connector call opens a socketpair whose peer end
/// is served by a thread running `respond` until EOF.
class ScriptedServer {
 public:
  explicit ScriptedServer(Responder respond)
      : respond_(std::move(respond)) {}

  ~ScriptedServer() {
    for (std::thread& t : threads_) {
      t.join();
    }
  }

  Client::Connector connector() {
    return [this]() -> std::unique_ptr<FaultyTransport> {
      int fds[2] = {-1, -1};
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        return nullptr;
      }
      const int connection = connections_++;
      threads_.emplace_back([this, fd = fds[1], connection] {
        serve(fd, connection);
      });
      return std::make_unique<FaultyTransport>(fds[0], fds[0], ChaosPlan{});
    };
  }

  [[nodiscard]] int connections() const { return connections_; }

 private:
  void serve(int fd, int connection) {
    FrameReader reader;
    std::string frame;
    std::string error;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n <= 0) {
        break;
      }
      reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      while (reader.next(&frame, &error) == FrameReader::Next::kFrame) {
        const std::optional<Json> resp =
            respond_(Json::parse(frame), connection, requests_++);
        if (!resp.has_value()) {
          continue;  // scripted silence; the client must time out
        }
        const std::string encoded = encode_frame(resp->dump());
        if (::write(fd, encoded.data(), encoded.size()) !=
            static_cast<ssize_t>(encoded.size())) {
          break;
        }
      }
    }
    ::close(fd);
  }

  Responder respond_;
  std::atomic<int> connections_{0};
  std::atomic<int> requests_{0};
  std::vector<std::thread> threads_;
};

Json scripted_result(int request_index) {
  Json result = Json::object();
  result["answer"] = request_index;
  return result;
}

Json scripted_ok(const Json& request, int request_index) {
  Json result = scripted_result(request_index);
  const std::string digest = fnv1a_hex(result.dump());
  return ok_response(request.at("id"), std::move(result), false, digest);
}

ClientOptions fast_retry_options(int max_attempts) {
  ClientOptions options;
  options.timeout_ms = 5000;
  options.retry.max_attempts = max_attempts;
  options.retry.base_backoff_ms = 1;
  options.retry.max_backoff_ms = 8;
  options.retry.seed = 42;
  return options;
}

TEST(Client, RetriesOverloadedAndHonorsRetryAfterHint) {
  ScriptedServer server([](const Json& request, int, int request_index) {
    if (request_index == 0) {
      return std::optional<Json>(error_response(
          request.at("id"), kErrOverloaded, "queue full", "",
          /*retry_after_ms=*/7));
    }
    return std::optional<Json>(scripted_ok(request, request_index));
  });
  Client client(server.connector(), fast_retry_options(4));
  const CallResult result = client.call("info", Json::object());
  EXPECT_TRUE(result.ok) << result.error_code << ": " << result.error_detail;
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(client.stats().refused_overloaded, 1u);
  EXPECT_EQ(client.stats().retries, 1u);
  // The 7 ms hint must raise the 1 ms base backoff, never lower it.
  EXPECT_GE(client.stats().backoff_ms_total, 7u);
}

TEST(Client, DigestMismatchIsRetriedNeverSurfaced) {
  ScriptedServer server([](const Json& request, int, int request_index) {
    if (request_index == 0) {
      // Result bytes that do not match their digest: a corrupted
      // response in flight.
      return std::optional<Json>(
          ok_response(request.at("id"), scripted_result(7), false,
                      "fnv:0000000000000000"));
    }
    return std::optional<Json>(scripted_ok(request, request_index));
  });
  Client client(server.connector(), fast_retry_options(4));
  const CallResult result = client.call("info", Json::object());
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(client.stats().digest_mismatches, 1u);
  // The surfaced result is the *verified* one, not the corrupted one.
  EXPECT_EQ(result.result_dump, scripted_result(1).dump());
}

TEST(Client, FatalCodesReturnImmediately) {
  ScriptedServer server([](const Json& request, int, int) {
    return std::optional<Json>(error_response(
        request.at("id"), kErrInvalidParams, "no such instance"));
  });
  Client client(server.connector(), fast_retry_options(5));
  const CallResult result = client.call("check_coloring", Json::object());
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error_code, kErrInvalidParams);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(client.stats().retries, 0u);
}

TEST(Client, ExhaustedRetriesReportLastError) {
  ScriptedServer server([](const Json& request, int, int) {
    return std::optional<Json>(error_response(
        request.at("id"), kErrOverloaded, "queue full", "", 1));
  });
  Client client(server.connector(), fast_retry_options(3));
  const CallResult result = client.call("info", Json::object());
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error_code, kErrOverloaded);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(client.stats().refused_overloaded, 3u);
}

TEST(Client, AttachesCheckDigestOfCanonicalPayload) {
  Json seen_check;
  ScriptedServer server(
      [&seen_check](const Json& request, int, int request_index) {
        seen_check = request.contains("check") ? request.at("check") : Json();
        return std::optional<Json>(scripted_ok(request, request_index));
      });
  Json params = Json::object();
  params["instance"] = "cycle5";
  params["k"] = 3;
  Client client(server.connector(), fast_retry_options(2));
  const CallResult result = client.call("check_coloring", params);
  EXPECT_TRUE(result.ok);
  ASSERT_TRUE(seen_check.is_string());
  EXPECT_EQ(seen_check.as_string(),
            fnv1a_hex(artifact_key("check_coloring", params)));
}

TEST(Client, TimeoutDropsConnectionAndRetriesOnAFreshOne) {
  ScriptedServer server([](const Json& request, int connection,
                           int request_index) -> std::optional<Json> {
    if (connection == 0) {
      return std::nullopt;  // stall the first connection forever
    }
    return scripted_ok(request, request_index);
  });
  ClientOptions options = fast_retry_options(4);
  options.timeout_ms = 60;  // fail the stalled attempt quickly
  Client client(server.connector(), options);
  const CallResult result = client.call("info", Json::object());
  EXPECT_TRUE(result.ok) << result.error_detail;
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(client.stats().timeouts, 1u);
  EXPECT_GE(client.stats().reconnects, 1u);
  EXPECT_EQ(server.connections(), 2);
}

}  // namespace
}  // namespace shlcp::svc

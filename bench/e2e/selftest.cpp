// shlcp_bench --self-test: the statistics and span arithmetic every
// reported number rests on, checked on synthetic inputs. Needs no
// daemon.

#include <cmath>
#include <cstdio>

#include "bench.h"

namespace shlcp::e2e {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) {
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

Span span(const char* name, std::uint64_t start, std::uint64_t end,
          std::int64_t parent, std::uint64_t request = 0,
          std::uint32_t batch = 1) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.request = request;
  s.batch = batch;
  return s;
}

void percentile_rank_rule() {
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) {
    ten.push_back(i);
  }
  expect(percentile(ten, 50) == 5, "p50 of 1..10 is the 5th value");
  expect(percentile(ten, 90) == 9, "p90 of 1..10 is the 9th value");
  expect(percentile(ten, 99) == 10, "p99 of 1..10 is the largest");
  expect(percentile(ten, 10) == 1, "p10 of 1..10 is the smallest");
  expect(percentile(ten, 51) == 6, "a rank that is not whole rounds up");
  std::vector<double> reversed(ten.rbegin(), ten.rend());
  expect(percentile(reversed, 50) == 5, "input order does not matter");
  expect(percentile({}, 50) == 0, "empty sample reads 0");
  expect(median({3, 1, 2}) == 2, "median of an odd sample is its middle");
}

void highest_percentile_rule() {
  expect(highest_supported_percentile(19) == 0, "19 samples: no percentile");
  expect(highest_supported_percentile(20) == 50, "20 samples: only p50");
  expect(highest_supported_percentile(100) == 90,
         "100 samples: p99 leaves 1 above it, p90 leaves 10");
  expect(highest_supported_percentile(999) == 90, "999 samples: p99 leaves 9");
  expect(highest_supported_percentile(1000) == 99, "1000 samples: p99");
  expect(highest_supported_percentile(10'000) == 99.9, "10k samples: p99.9");
  expect(highest_supported_percentile(100'000) == 99.99,
         "100k samples: p99.99");
}

void open_loop_accounting() {
  const OpenLoopSchedule s{1'000, 1000.0};
  expect(s.due_ns(0) == 1'000 && s.due_ns(3) == 3'001'000,
         "op i is due at start + i / rate");
  // One client; op 0 stalls the server for 5 ms. Op 1 was due at 1 ms
  // but could only be sent at 5 ms: its latency counts from 1 ms and the
  // generator ran 4 ms late.
  const OpenLoopTiming stalled =
      open_loop_timing(1'000'000, 5'000'000, 5'100'000);
  expect(near(stalled.latency_us, 4'100), "latency runs from the due time");
  expect(near(stalled.late_us, 4'000), "lateness is send minus due");
  const OpenLoopTiming on_time =
      open_loop_timing(2'000'000, 2'000'000, 2'050'000);
  expect(near(on_time.latency_us, 50) && on_time.late_us == 0,
         "an on-time op is 0 late and its latency is its service time");
  const OpenLoopTiming early =
      open_loop_timing(3'000'000, 2'999'000, 3'010'000);
  expect(early.late_us == 0 && near(early.latency_us, 10),
         "an early send is not negative lateness");
}

void window_statistics() {
  // Three 1 s windows from t = 10 s: two ops, none, three ops; CPU use
  // 0.5 s, 0, 0.3 s.
  const std::uint64_t s = 1'000'000'000;
  const Windows w = window_stats(
      {10 * s + 1, 10 * s + 2, 12 * s, 12 * s + 5, 12 * s + 9, 13 * s},
      {10, 30, 5, 7, 9, 99}, 10 * s, s, {1.0, 1.5, 1.5, 1.8});
  expect(w.rate.size() == 3 && w.rate[0] == 2 && w.rate[1] == 0 &&
             w.rate[2] == 3,
         "ops bin by completion time; one past the last window is dropped");
  expect(w.p50_us.size() == 2 && w.p50_us[0] == 10 && w.p50_us[1] == 7,
         "an empty window has no median latency");
  expect(w.cost.size() == 2 && near(w.cost[0], 250'000) &&
             near(w.cost[1], 100'000),
         "CPU per op divides each window's CPU by its ops");
}

void self_time_subtraction() {
  // root [0, 100): children A [10, 30) and B [20, 50) overlap, C
  // [90, 120) sticks out of the root, A has a grandchild [12, 15).
  const std::vector<Span> spans = {
      span("root", 0, 100, -1),   span("A", 10, 30, 0),
      span("B", 20, 50, 0),       span("C", 90, 120, 0),
      span("A.1", 12, 15, 1),
  };
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  expect(self[0] == 50,
         "root self time subtracts the union of its children, clipped");
  expect(self[1] == 17, "a child's self time subtracts its own child");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 3,
         "leaves keep their duration");

  const std::vector<Span> batched = {
      span("stages", 0, 5'000, -1, 7),
      span("cache.digest", 0, 1'000, 0, 7, 4),
      span("cache.digest", 2'000, 2'600, 0, 7, 2),
      span("cache.digest", 3'000, 3'500, -1, 7),  // a root: not a stage
      span("wire.run_decoder", 0, 900, -1, 8),
      span("wire.info", 0, 100, -1, 9),
  };
  const std::vector<double> calls = per_call_ns(batched, "cache.digest");
  expect(calls.size() == 3 && calls[0] == 250 && calls[1] == 300,
         "a batched span reports duration / batch per call");
  const auto totals = child_totals_ns(batched, "cache.digest");
  expect(totals.size() == 1 && totals.at(7) == 550,
         "per-request stage totals sum only the request's child spans");
  expect(per_call_ns(batched, "wire.*").size() == 2,
         "a trailing * matches a prefix");
}

}  // namespace

int run_self_test() {
  percentile_rank_rule();
  highest_percentile_rule();
  open_loop_accounting();
  window_statistics();
  self_time_subtraction();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace shlcp::e2e

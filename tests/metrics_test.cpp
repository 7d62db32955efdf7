// Unit tests for the observability layer: the Json helper, the metrics
// registry (counters, gauges, histograms), the trace sink's JSONL
// records, and the determinism contract that the sequential and
// parallel V(D, n) builds publish identical counter values.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "certify/degree_one.h"
#include "graph/generators.h"
#include "lcp/enumerate.h"
#include "nbhd/aviews.h"
#include "util/check.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace shlcp {
namespace {

TEST(JsonTest, DumpParseRoundTrip) {
  Json obj = Json::object();
  obj["int"] = std::int64_t{-42};
  obj["uint"] = std::uint64_t{18446744073709551615ull};
  obj["double"] = 1.5;
  obj["bool"] = true;
  obj["null"] = Json();
  obj["string"] = "line\nbreak \"quoted\" \\slash";
  Json arr = Json::array();
  arr.push_back(std::int64_t{1});
  arr.push_back("two");
  obj["array"] = std::move(arr);

  const Json parsed = Json::parse(obj.dump());
  EXPECT_EQ(parsed.at("int").as_int(), -42);
  EXPECT_EQ(parsed.at("uint").as_uint(), 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(parsed.at("double").as_double(), 1.5);
  EXPECT_TRUE(parsed.at("bool").as_bool());
  EXPECT_TRUE(parsed.at("null").is_null());
  EXPECT_EQ(parsed.at("string").as_string(),
            "line\nbreak \"quoted\" \\slash");
  EXPECT_EQ(parsed.at("array").size(), 2u);
  EXPECT_EQ(parsed.at("array").at(0).as_int(), 1);
  EXPECT_EQ(parsed.at("array").at(1).as_string(), "two");
}

TEST(JsonTest, ObjectsPreserveInsertionOrder) {
  Json obj = Json::object();
  obj["zebra"] = std::int64_t{1};
  obj["apple"] = std::int64_t{2};
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":2}");
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), CheckError);
  EXPECT_THROW(Json::parse("[1,]"), CheckError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), CheckError);
  EXPECT_THROW(Json::parse("nul"), CheckError);
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  const Json parsed = Json::parse("\"a\\u00e9\\u4e2d\"");
  EXPECT_EQ(parsed.as_string(), "a\xc3\xa9\xe4\xb8\xad");
}

TEST(CounterTest, ConcurrentAddsAreLossless) {
  metrics::Counter c;
  constexpr std::size_t kItems = 64 * 1024;
  WorkerPool pool(4);
  pool.run_plan(adaptive_plan(std::vector<std::uint64_t>(kItems, 1), 4),
                [&](std::size_t, std::size_t begin, std::size_t end) {
                  for (std::size_t i = begin; i < end; ++i) {
                    c.inc();
                  }
                  return true;
                },
                nullptr);
  EXPECT_EQ(c.value(), kItems);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAddReset) {
  metrics::Gauge g;
  g.set(7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  metrics::HistogramLayout layout;
  layout.bounds = {10, 100};
  metrics::Histogram h(layout);
  h.record(10);   // bucket 0 (<= 10)
  h.record(11);   // bucket 1
  h.record(100);  // bucket 1 (<= 100)
  h.record(101);  // overflow bucket
  EXPECT_EQ(h.num_buckets(), 3u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 10u + 11u + 100u + 101u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(1), 0u);
}

TEST(RegistryTest, SameNameReturnsSameMetric) {
  metrics::Counter& a = metrics::counter("test.registry.same");
  metrics::Counter& b = metrics::counter("test.registry.same");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
}

TEST(RegistryTest, ResetValuesZeroesButKeepsRegistration) {
  metrics::Counter& c = metrics::counter("test.registry.reset");
  c.add(5);
  metrics::reset_values();
  EXPECT_EQ(c.value(), 0u);
  const auto snap = metrics::snapshot();
  EXPECT_EQ(snap.counters.count("test.registry.reset"), 1u);
}

TEST(RegistryTest, HistogramLayoutConflictThrows) {
  metrics::histogram("test.registry.layout",
                     metrics::HistogramLayout::duration_ns());
  EXPECT_THROW(metrics::histogram("test.registry.layout",
                                  metrics::HistogramLayout::bytes()),
               CheckError);
}

TEST(SnapshotTest, ToJsonCarriesAllSections) {
  metrics::counter("test.snapshot.c").add(3);
  metrics::gauge("test.snapshot.g").set(-1);
  metrics::histogram("test.snapshot.h").record(2'000'000);
  const Json j = metrics::snapshot().to_json();
  EXPECT_EQ(j.at("counters").at("test.snapshot.c").as_uint(), 3u);
  EXPECT_EQ(j.at("gauges").at("test.snapshot.g").as_int(), -1);
  const Json& h = j.at("histograms").at("test.snapshot.h");
  EXPECT_EQ(h.at("count").as_uint(), 1u);
  EXPECT_EQ(h.at("counts").size(), h.at("bounds").size() + 1);
}

#ifndef SHLCP_NO_TRACE
TEST(TraceTest, SpanAndEventRecordsRoundTripThroughJson) {
  const std::string path = ::testing::TempDir() + "/shlcp_trace_test.jsonl";
  trace::enable(path);
  ASSERT_TRUE(trace::enabled());
  {
    trace::Span span("test.span");
    span.note("answer", std::int64_t{42});
    trace::event("test.event", {{"repro", "replay --seed 7"}});
  }
  trace::disable();
  EXPECT_FALSE(trace::enabled());

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    contents.append(buf, got);
  }
  std::fclose(f);
  std::remove(path.c_str());

  std::map<std::string, Json> by_name;
  std::size_t start = 0;
  while (start < contents.size()) {
    const std::size_t nl = contents.find('\n', start);
    ASSERT_NE(nl, std::string::npos);
    Json record = Json::parse(contents.substr(start, nl - start));
    by_name.emplace(record.at("name").as_string(), std::move(record));
    start = nl + 1;
  }

  ASSERT_EQ(by_name.count("test.span"), 1u);
  const Json& span = by_name.at("test.span");
  EXPECT_EQ(span.at("type").as_string(), "span");
  EXPECT_EQ(span.at("attrs").at("answer").as_int(), 42);
  EXPECT_GE(span.at("dur_ns").as_uint(), 0u);

  ASSERT_EQ(by_name.count("test.event"), 1u);
  const Json& event = by_name.at("test.event");
  EXPECT_EQ(event.at("type").as_string(), "event");
  EXPECT_EQ(event.at("attrs").at("repro").as_string(), "replay --seed 7");
}
#endif  // SHLCP_NO_TRACE

// The determinism contract from nbhd/nbhd_graph.h: a sequential build
// and a parallel build of the same V(D, n) must publish identical
// nbhd.* / lcp.enumerate.* counter values (shard-local re-registrations
// must never leak into the registry).
TEST(CounterParityTest, SequentialAndParallelBuildsPublishSameCounters) {
  const DegreeOneLcp lcp;
  std::vector<Graph> graphs;
  for (int n = 2; n <= 4; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      if (lcp.in_promise(g)) {
        graphs.push_back(g);
      }
      return true;
    });
  }

  const auto parity_counters = [] {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, value] : metrics::snapshot().counters) {
      if (name.rfind("nbhd.", 0) == 0 ||
          name.rfind("lcp.enumerate.", 0) == 0) {
        out.emplace(name, value);
      }
    }
    return out;
  };

  metrics::reset_values();
  const auto seq_nbhd =
      build(BuildSource::exhaustive(lcp, graphs), one_thread()).take();
  const auto seq = parity_counters();

  ParallelEnumOptions par_options;
  par_options.num_threads = 4;
  metrics::reset_values();
  const auto par_nbhd =
      build(BuildSource::exhaustive(lcp, graphs), par_options).take();
  const auto par = parity_counters();

  EXPECT_EQ(seq_nbhd.num_views(), par_nbhd.num_views());
  EXPECT_EQ(seq, par);
  EXPECT_EQ(seq.at("nbhd.build.views"),
            static_cast<std::uint64_t>(seq_nbhd.num_views()));
  EXPECT_GT(seq.at("lcp.enumerate.frames"), 0u);
  EXPECT_GT(seq.at("lcp.enumerate.instances"), 0u);
}

}  // namespace
}  // namespace shlcp

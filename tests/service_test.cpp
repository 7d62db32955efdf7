// Dispatcher, cache, and pipe-server tests for the certification
// service. The load-bearing claims pinned here:
//
//   * every endpoint's response equals what the direct library call
//     computes (the bench re-checks this under load);
//   * a cached replay is byte-identical to the first computation;
//   * the error-code contract (unknown_op, invalid_params,
//     invalid_request, deadline_exceeded, draining) with the lcp/audit
//     repro string echoed for concrete runs;
//   * LRU eviction, on-disk persistence, and corrupt-entry tolerance of
//     the artifact cache;
//   * the pipe server's request/response framing and its drain
//     behavior: after a cancel trip, no request is ever answered ok.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "certify/degree_one.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "lcp/audit.h"
#include "nbhd/checkpoint.h"
#include "nbhd/witness.h"
#include "service/cache.h"
#include "service/server.h"
#include "service/service.h"
#include "util/budget.h"
#include "util/metrics.h"

namespace shlcp::svc {
namespace {

namespace fs = std::filesystem;

Json make_request(std::int64_t id, const std::string& op, Json params) {
  Json req = Json::object();
  req["id"] = id;
  req["op"] = op;
  req["params"] = std::move(params);
  return req;
}

Json ok_result(const Json& response) {
  EXPECT_TRUE(response.at("ok").as_bool()) << response.dump();
  return response.at("result");
}

std::string error_code(const Json& response) {
  EXPECT_FALSE(response.at("ok").as_bool()) << response.dump();
  return response.at("error").at("code").as_string();
}

Instance pool_instance(const std::string& name) {
  for (const NamedInstance& named : audit_instance_pool()) {
    if (named.name == name) {
      return named.inst;
    }
  }
  ADD_FAILURE() << "no pool instance " << name;
  return Instance();
}

// ---------------------------------------------------------------------
// Endpoints vs direct library calls.

TEST(ServiceEndpoints, RunDecoderMatchesDirectRun) {
  Service service;
  Json params = Json::object();
  params["lcp"] = "degree-one";
  params["instance"] = "path5";
  params["labels"] = "honest";
  const Json response = service.handle(make_request(1, "run_decoder", params));
  const Json& result = ok_result(response);

  DegreeOneLcp lcp;
  Instance inst = pool_instance("path5");
  inst.labels = *lcp.prove(inst.g, inst.ports, inst.ids);
  const FaultyRunResult direct =
      run_decoder_distributed_faulty(lcp.decoder(), inst, FaultPlan{});

  ASSERT_EQ(result.at("verdicts").size(),
            static_cast<std::size_t>(inst.num_nodes()));
  for (std::size_t v = 0; v < direct.verdicts.size(); ++v) {
    EXPECT_EQ(result.at("verdicts").at(v).as_bool(), direct.verdicts[v]);
  }
  EXPECT_TRUE(result.at("accepts_all").as_bool());
  EXPECT_EQ(result.at("stats").at("messages").as_uint(),
            static_cast<std::uint64_t>(direct.stats.messages));
  EXPECT_EQ(result.at("repro").as_string(),
            make_repro("degree-one", "path5", "honest", FaultPlan{}));
}

TEST(ServiceEndpoints, RunDecoderHonoursFaultPlanDescriptor) {
  Service service;
  FaultPlan plan;
  plan.label = "droppy";
  plan.seed = 7;
  plan.drop_permille = 400;
  Json params = Json::object();
  params["lcp"] = "degree-one";
  params["instance"] = "path5";
  params["labels"] = "honest";
  params["plan"] = plan.describe();
  const Json& result =
      ok_result(service.handle(make_request(2, "run_decoder", params)));

  DegreeOneLcp lcp;
  Instance inst = pool_instance("path5");
  inst.labels = *lcp.prove(inst.g, inst.ports, inst.ids);
  const FaultyRunResult direct =
      run_decoder_distributed_faulty(lcp.decoder(), inst,
                                     FaultPlan::parse(plan.describe()));
  EXPECT_EQ(result.at("faults").at("dropped").as_uint(),
            static_cast<std::uint64_t>(direct.faults.dropped));
  for (std::size_t v = 0; v < direct.verdicts.size(); ++v) {
    EXPECT_EQ(result.at("verdicts").at(v).as_bool(), direct.verdicts[v]);
  }
}

TEST(ServiceEndpoints, CheckColoringVerifyNamesViolatingEdge) {
  Service service;
  Json good = Json::object();
  good["graph"] = graph_to_json(make_cycle(4));
  good["k"] = 2;
  Json& colors = (good["colors"] = Json::array());
  for (const int c : {0, 1, 0, 1}) {
    colors.push_back(c);
  }
  const Json& proper =
      ok_result(service.handle(make_request(3, "check_coloring", good)));
  EXPECT_EQ(proper.at("mode").as_string(), "verify");
  EXPECT_TRUE(proper.at("proper").as_bool());
  EXPECT_TRUE(proper.at("violation").is_null());

  Json bad = good;
  Json& bad_colors = (bad["colors"] = Json::array());
  for (const int c : {0, 0, 0, 1}) {  // edge (0, 1) monochromatic
    bad_colors.push_back(c);
  }
  const Json& improper =
      ok_result(service.handle(make_request(4, "check_coloring", bad)));
  EXPECT_FALSE(improper.at("proper").as_bool());
  EXPECT_EQ(improper.at("violation").at(std::size_t{0}).as_int(), 0);
  EXPECT_EQ(improper.at("violation").at(std::size_t{1}).as_int(), 1);
}

TEST(ServiceEndpoints, CheckColoringSolveMatchesLibrary) {
  Service service;
  for (const int k : {2, 3}) {
    Json params = Json::object();
    params["instance"] = "cycle5";
    params["k"] = k;
    const Json& result =
        ok_result(service.handle(make_request(5, "check_coloring", params)));
    EXPECT_EQ(result.at("mode").as_string(), "solve");
    EXPECT_EQ(result.at("colorable").as_bool(), k == 3);  // C5 is odd
    const std::optional<std::vector<int>> direct =
        k_coloring(pool_instance("cycle5").g, k);
    EXPECT_EQ(result.at("colorable").as_bool(), direct.has_value());
    if (direct) {
      for (std::size_t v = 0; v < direct->size(); ++v) {
        EXPECT_EQ(result.at("coloring").at(v).as_int(), (*direct)[v]);
      }
    }
  }
}

TEST(ServiceEndpoints, SearchWitnessMatchesDirectSearch) {
  Service service;
  Json params = Json::object();
  params["family"] = "degree-one";
  params["max_n"] = 4;
  const Json& result =
      ok_result(service.handle(make_request(6, "search_witness", params)));

  DegreeOneLcp lcp;
  const std::vector<Instance> instances = degree_one_witnesses(4);
  const NbhdGraph direct =
      build(BuildSource::instances(lcp.decoder(), instances, 2), one_thread())
          .take();
  const std::optional<std::vector<int>> cycle = direct.odd_cycle();
  EXPECT_EQ(result.at("hiding").as_bool(), cycle.has_value());
  EXPECT_EQ(result.at("num_views").as_uint(),
            static_cast<std::uint64_t>(direct.num_views()));
  if (cycle) {
    EXPECT_EQ(result.at("odd_cycle").size(), cycle->size());
  } else {
    EXPECT_TRUE(result.at("odd_cycle").is_null());
  }
}

TEST(ServiceEndpoints, BuildNbhdMatchesDirectBuild) {
  Service service;
  Json params = Json::object();
  params["lcp"] = "degree-one";
  Json& graphs = (params["graphs"] = Json::array());
  graphs.push_back("path:4");
  params["build"] = "proved";
  const Json& result =
      ok_result(service.handle(make_request(7, "build_nbhd", params)));

  DegreeOneLcp lcp;
  const NbhdGraph direct =
      build(BuildSource::proved(lcp, {make_path(4)}), one_thread()).take();
  EXPECT_EQ(result.at("num_views").as_uint(),
            static_cast<std::uint64_t>(direct.num_views()));
  EXPECT_EQ(result.at("num_edges").as_uint(),
            static_cast<std::uint64_t>(direct.num_edges()));
  EXPECT_EQ(result.at("k_colorable").as_bool(), direct.k_colorable(2));
}

// ---------------------------------------------------------------------
// Error-code contract.

TEST(ServiceErrors, ErrorCodeContract) {
  Service service;
  EXPECT_EQ(error_code(service.handle(
                make_request(1, "frobnicate", Json::object()))),
            kErrUnknownOp);

  Json bad_lcp = Json::object();
  bad_lcp["lcp"] = "no-such-scheme";
  bad_lcp["instance"] = "path5";
  EXPECT_EQ(error_code(service.handle(make_request(2, "run_decoder", bad_lcp))),
            kErrInvalidParams);

  // Envelope typo: unknown member, rejected before dispatch.
  Json typo = make_request(3, "info", Json::object());
  typo["dedline_ms"] = 5;
  EXPECT_EQ(error_code(service.handle(typo)), kErrInvalidRequest);

  // Queue delay past the deadline.
  Json timed = make_request(4, "info", Json::object());
  timed["deadline_ms"] = 5;
  EXPECT_EQ(error_code(service.handle(timed, /*elapsed_ms=*/50)),
            kErrDeadline);

  // handle_text on unparseable bytes: an error response, not a throw.
  const Json garbage = Json::parse(service.handle_text("{nope"));
  EXPECT_EQ(error_code(garbage), kErrInvalidRequest);
}

// A plan descriptor whose numbers do not parse completely is refused,
// never replayed with the bad field read as 0.
TEST(ServiceErrors, MalformedPlanDescriptorIsInvalidParams) {
  Service service;
  for (const char* plan : {
           "x;seed=0x1;drop=abc;dup=0;corrupt=0;crash=-@0;byz=-",
           "x;seed=0x1zz;drop=0;dup=0;corrupt=0;crash=-@0;byz=-",
           "x;seed=0x1;drop=0;dup=0;corrupt=0;crash=-@2r;byz=-",
       }) {
    Json params = Json::object();
    params["lcp"] = "degree-one";
    params["instance"] = "path5";
    params["labels"] = "honest";
    params["plan"] = plan;
    const Json response =
        service.handle(make_request(1, "run_decoder", params));
    EXPECT_EQ(error_code(response), kErrInvalidParams) << plan;
  }
}

// Any client can send any op name. An unknown one must be refused
// before a per-op metric is registered, or distinct bogus names would
// grow the metric registry without bound.
TEST(ServiceErrors, UnknownOpsRegisterNoMetrics) {
  Service service;
  const std::uint64_t errors_before =
      metrics::counter("service.errors").value();
  for (int i = 0; i < 500; ++i) {
    const std::string op = "bogus_op_" + std::to_string(i);
    const Json response = service.handle(make_request(i, op, Json::object()));
    EXPECT_EQ(error_code(response), kErrUnknownOp);
    EXPECT_EQ(response.at("error").at("message").as_string(),
              "unknown op '" + op + "'");
  }
  EXPECT_EQ(metrics::counter("service.errors").value() - errors_before, 500u);
  const metrics::Snapshot snap = metrics::snapshot();
  std::vector<std::string> names;
  for (const auto& [name, value] : snap.counters) {
    names.push_back(name);
  }
  for (const auto& [name, value] : snap.gauges) {
    names.push_back(name);
  }
  for (const auto& [name, hist] : snap.histograms) {
    names.push_back(name);
  }
  for (const std::string& name : names) {
    EXPECT_NE(name.rfind("service.bogus_op_", 0), 0u) << name;
  }
}

// Admission order: a corrupted request is refused with "integrity"
// even when its op is also unknown, as before the op table existed.
TEST(ServiceErrors, IntegrityIsCheckedBeforeTheOpLookup) {
  Service service;
  Json req = make_request(1, "frobnicate", Json::object());
  req["check"] = "fnv:0000000000000000";
  EXPECT_EQ(error_code(service.handle(req)), kErrIntegrity);
  req["check"] = fnv1a_hex(artifact_key("frobnicate", Json::object()));
  EXPECT_EQ(error_code(service.handle(req)), kErrUnknownOp);
}

// A frame of ~2M nested '[' fits the 4 MiB frame cap; the parser's
// depth limit must turn it into an error response instead of letting
// the recursion overflow the stack and kill the daemon.
TEST(ServiceErrors, DeeplyNestedFrameIsErrorResponseNotCrash) {
  Service service;
  const Json bomb = Json::parse(service.handle_text(
      std::string(2u << 20, '[')));
  EXPECT_EQ(error_code(bomb), kErrInvalidRequest);
}

// stoi-parsed grid dimensions whose product overflows int must be
// rejected up front, not wrap around the 16-node bound (UB).
TEST(ServiceErrors, GridDimensionOverflowRejected) {
  Service service;
  for (const char* spec :
       {"grid:65536x65536", "grid:46341x92681", "grid:0x5", "grid:5x0"}) {
    Json params = Json::object();
    params["lcp"] = "degree-one";
    Json& graphs = (params["graphs"] = Json::array());
    graphs.push_back(spec);
    EXPECT_EQ(error_code(service.handle(
                  make_request(1, "build_nbhd", params))),
              kErrInvalidParams)
        << spec;
  }
}

// A CHECK failure inside a build reaches the client as its error
// message. The message names the failing file by basename, never by the
// path of the tree that was built, so two builds of one commit answer
// the same request with the same bytes.
TEST(ServiceErrors, CheckMessagesNameNoBuildTreePath) {
  Service service;
  Json params = Json::object();
  params["lcp"] = "degree-one";
  Json& graphs = (params["graphs"] = Json::array());
  graphs.push_back("path:4");
  params["build"] = "exhaustive";
  params["max_labelings_per_frame"] = 1;
  const Json response = service.handle(make_request(1, "build_nbhd", params));
  EXPECT_EQ(error_code(response), kErrInvalidParams);
  const std::string message =
      response.at("error").at("message").as_string();
  EXPECT_NE(message.find("SHLCP_CHECK failed"), std::string::npos) << message;
  EXPECT_NE(message.find("max_labelings_per_frame"), std::string::npos)
      << message;
  EXPECT_EQ(message.find(" at /"), std::string::npos) << message;
}

// Cancel-at-boundary deadline enforcement: a build too large for its
// deadline_ms budget is refused with deadline_exceeded at the next
// frame boundary -- a truncated V(D, n) is never answered. One frame
// per graph: three exhaustive 8-9-node enumerations are far past a
// 1 ms budget by the first boundary, yet each individual frame is
// small, so the call both expires reliably and returns promptly.
TEST(ServiceErrors, DeadlineExpiresMidBuildAtFrameBoundary) {
  Service service;
  Json params = Json::object();
  params["lcp"] = "degree-one";
  Json& graphs = (params["graphs"] = Json::array());
  for (const char* spec : {"path:8", "cycle:8", "path:9"}) {
    graphs.push_back(spec);
  }
  params["build"] = "exhaustive";
  Json req = make_request(1, "build_nbhd", params);
  req["deadline_ms"] = 1;
  const Json response = service.handle(req);
  EXPECT_EQ(error_code(response), kErrDeadline);
  EXPECT_NE(response.at("error").at("message").as_string().find("deadline"),
            std::string::npos)
      << response.dump();
}

TEST(ServiceErrors, DrainRefusesEverything) {
  Service service;
  EXPECT_FALSE(service.draining());
  service.begin_drain();
  EXPECT_TRUE(service.draining());
  const Json refused =
      service.handle(make_request(1, "info", Json::object()));
  EXPECT_EQ(error_code(refused), kErrDraining);
  EXPECT_EQ(refused.at("id").as_int(), 1);  // id still echoed
}

// ---------------------------------------------------------------------
// Artifact cache.

TEST(ServiceCache, CachedReplayIsBitIdentical) {
  Service service;
  Json params = Json::object();
  params["instance"] = "cycle5";
  params["k"] = 3;
  const Json first =
      service.handle(make_request(1, "check_coloring", params));
  EXPECT_FALSE(first.at("cached").as_bool());

  // Same payload, different member order: canonical keying must hit.
  Json reordered = Json::object();
  reordered["k"] = 3;
  reordered["instance"] = "cycle5";
  const Json second =
      service.handle(make_request(2, "check_coloring", reordered));
  EXPECT_TRUE(second.at("cached").as_bool());
  EXPECT_EQ(second.at("result").dump(), first.at("result").dump());
  EXPECT_GE(service.cache_stats().hits, 1u);
}

// One request of each cacheable op, cheap enough to compute in a test.
std::vector<Json> cacheable_requests() {
  Json run = Json::object();
  run["lcp"] = "degree-one";
  run["instance"] = "path5";
  run["labels"] = "honest";
  Json coloring = Json::object();
  coloring["instance"] = "cycle5";
  coloring["k"] = 3;
  Json witness = Json::object();
  witness["family"] = "degree-one";
  witness["max_n"] = 4;
  Json nbhd = Json::object();
  nbhd["lcp"] = "degree-one";
  nbhd["graphs"] = Json::array();
  nbhd["graphs"].push_back("path:4");
  nbhd["build"] = "proved";
  return {make_request(1, "run_decoder", run),
          make_request(2, "check_coloring", coloring),
          make_request(3, "search_witness", witness),
          make_request(4, "build_nbhd", nbhd)};
}

// A miss's response text as a hit must send it: only "cached" differs.
std::string as_cached(std::string miss) {
  const std::string uncached = "\"cached\":false";
  const std::size_t at = miss.find(uncached);
  EXPECT_NE(at, std::string::npos) << miss;
  if (at != std::string::npos) {
    miss.replace(at, uncached.size(), "\"cached\":true");
  }
  return miss;
}

// A hit splices the stored result bytes into the response. For every
// cacheable op, the miss, the memory hit and the disk hit (a fresh
// Service on the same directory) must send the same text but "cached".
TEST(ServiceCache, MissMemoryHitAndDiskHitAreByteIdentical) {
  const fs::path dir = fs::path(::testing::TempDir()) / "shlcp_cache_bytes";
  fs::remove_all(dir);
  ServiceConfig config;
  config.cache.directory = dir.string();
  Service warm(config);
  for (const Json& request : cacheable_requests()) {
    const std::string body = request.dump();
    SCOPED_TRACE(body);
    const std::string miss = warm.handle_text(body);
    EXPECT_TRUE(Json::parse(miss).at("ok").as_bool()) << miss;
    const std::string hit = warm.handle_text(body);
    Service cold(config);
    const std::string disk_hit = cold.handle_text(body);
    EXPECT_EQ(cold.cache_stats().disk_hits, 1u);

    EXPECT_EQ(hit, as_cached(miss));
    EXPECT_EQ(disk_hit, as_cached(miss));
    EXPECT_EQ(warm.handle(request).dump(),
              Json::parse(warm.handle_text(body)).dump());
  }
  EXPECT_EQ(warm.cache_stats().misses, 4u);
  EXPECT_EQ(warm.cache_stats().hits, 3u * 4u);
}

// handle_text runs concurrently across the server's WorkerPool. Four
// threads over shared keys, with a cache small enough to evict, must
// each get exactly the bytes a single-threaded Service sends.
TEST(ServiceCache, ConcurrentHitsAndMissesAreByteIdentical) {
  std::vector<std::string> bodies;
  for (const char* instance : {"path5", "path6", "star5", "cycle5", "cycle6",
                               "grid23"}) {
    for (const int k : {2, 3}) {
      Json params = Json::object();
      params["instance"] = instance;
      params["k"] = k;
      bodies.push_back(
          make_request(static_cast<std::int64_t>(bodies.size()),
                       "check_coloring", params)
              .dump());
    }
    Json params = Json::object();
    params["lcp"] = "degree-one";
    params["instance"] = instance;
    params["labels"] = "honest";
    bodies.push_back(make_request(static_cast<std::int64_t>(bodies.size()),
                                  "run_decoder", params)
                         .dump());
  }
  std::vector<std::string> oracle;
  {
    Service reference;
    for (const std::string& body : bodies) {
      oracle.push_back(reference.handle_text(body));
    }
  }

  ServiceConfig config;
  config.cache.max_bytes = 2048;
  Service service(config);
  constexpr int kThreads = 4;
  constexpr int kRounds = 40;
  std::vector<std::vector<std::string>> wrong(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < bodies.size(); ++i) {
          // Each thread walks the keys from its own offset.
          const std::size_t k = (i + static_cast<std::size_t>(t) * 5) %
                                bodies.size();
          const std::string reply = service.handle_text(bodies[k]);
          if (reply != oracle[k] && reply != as_cached(oracle[k])) {
            wrong[static_cast<std::size_t>(t)].push_back(reply);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const std::vector<std::string>& replies : wrong) {
    EXPECT_TRUE(replies.empty()) << replies.size() << " wrong replies, first "
                                 << (replies.empty() ? "" : replies.front());
  }
  const CacheStats stats = service.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(ServiceCache, LruEvictionUnderByteBudget) {
  CacheConfig config;
  config.max_bytes = 64;
  ArtifactCache cache(config);
  cache.insert("fnv:aaaa", std::string(40, 'x'));
  cache.insert("fnv:bbbb", std::string(40, 'y'));  // evicts aaaa
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.get("fnv:aaaa").has_value());
  EXPECT_TRUE(cache.get("fnv:bbbb").has_value());
  EXPECT_LE(cache.stats().bytes, config.max_bytes);

  // Touching an entry protects it: refresh bbbb, insert cccc, and the
  // budget still holds one entry -- the freshest insert.
  cache.insert("fnv:cccc", std::string(40, 'z'));
  EXPECT_TRUE(cache.get("fnv:cccc").has_value());
  EXPECT_FALSE(cache.get("fnv:bbbb").has_value());
}

TEST(ServiceCache, PersistsAcrossInstances) {
  const fs::path dir = fs::path(::testing::TempDir()) / "shlcp_cache_persist";
  fs::remove_all(dir);
  fs::create_directories(dir);
  CacheConfig config;
  config.directory = dir.string();

  const std::string key = artifact_key("check_coloring", Json::parse("{}"));
  {
    ArtifactCache warm(config);
    warm.insert(key, "{\"answer\":42}");
  }
  ArtifactCache cold(config);
  const std::optional<std::string> loaded = cold.get(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "{\"answer\":42}");
  EXPECT_EQ(cold.stats().disk_hits, 1u);
  EXPECT_EQ(cold.stats().misses, 0u);

  // Promoted to memory: the second lookup is an in-memory hit.
  EXPECT_TRUE(cold.get(key).has_value());
  EXPECT_EQ(cold.stats().hits, 1u);
}

TEST(ServiceCache, CreatesMissingDirectoryAndSurvivesUnwritableOne) {
  // A daemon pointed at a fresh --cache-dir must not require an
  // out-of-band mkdir: construction creates the directory.
  const fs::path dir = fs::path(::testing::TempDir()) / "shlcp_cache_mkdir" /
                       "nested" / "deeper";
  fs::remove_all(fs::path(::testing::TempDir()) / "shlcp_cache_mkdir");
  CacheConfig config;
  config.directory = dir.string();

  const std::string key = artifact_key("info", Json::parse("{}"));
  {
    ArtifactCache fresh(config);
    EXPECT_TRUE(fs::is_directory(dir));
    fresh.insert(key, "payload");
    EXPECT_EQ(fresh.stats().store_failures, 0u);
  }
  ArtifactCache cold(config);
  EXPECT_TRUE(cold.get(key).has_value());

  // An unwritable "directory" (here: the path names a regular file, so
  // creation fails) degrades stores to counted non-fatal failures --
  // the computed value stays served from memory, never an exception.
  const fs::path blocker = fs::path(::testing::TempDir()) / "shlcp_cache_file";
  fs::remove_all(blocker);
  { std::ofstream out(blocker); out << "in the way"; }
  CacheConfig bad;
  bad.directory = blocker.string();
  ArtifactCache degraded(bad);
  degraded.insert(key, "payload");
  EXPECT_EQ(degraded.stats().store_failures, 1u);
  const std::optional<std::string> served = degraded.get(key);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(*served, "payload");
}

TEST(ServiceCache, CorruptDiskEntryIsMissNotError) {
  const fs::path dir = fs::path(::testing::TempDir()) / "shlcp_cache_corrupt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  CacheConfig config;
  config.directory = dir.string();

  const std::string key = artifact_key("info", Json::parse("{}"));
  {
    ArtifactCache warm(config);
    warm.insert(key, "payload");
  }
  // Entry files are "<dir>/<hex of fnv1a(key), colon stripped>.json".
  const std::string digest = fnv1a_hex(key);
  const fs::path file =
      dir / (digest.substr(digest.find(':') + 1) + ".json");
  ASSERT_TRUE(fs::exists(file));

  const auto write_entry = [&](const std::string& stored_key,
                               const std::string& stored_digest) {
    Json entry = Json::object();
    entry["schema"] = kCacheFileSchema;
    entry["key"] = stored_key;
    entry["digest"] = stored_digest;
    entry["result"] = "payload";
    std::ofstream out(file, std::ios::trunc);
    out << entry.dump();
  };

  {  // Outright garbage.
    std::ofstream out(file, std::ios::trunc);
    out << "not json at all";
  }
  ArtifactCache c1(config);
  EXPECT_FALSE(c1.get(key).has_value());

  // Well-formed but digest-mismatched (torn result).
  write_entry(key, "fnv:0000000000000000");
  ArtifactCache c2(config);
  EXPECT_FALSE(c2.get(key).has_value());

  // Right digest, wrong key: a filename (hash) collision must be a
  // miss, never another request's artifact replayed as a hit.
  write_entry(artifact_key("info", Json::parse(R"({"x":1})")),
              fnv1a_hex("payload"));
  ArtifactCache c3(config);
  EXPECT_FALSE(c3.get(key).has_value());

  // Torn write: a kill -9 mid-write leaves a short prefix of a valid
  // entry on disk. Must be a miss (never an abort), and a subsequent
  // insert repairs the entry in place.
  write_entry(key, fnv1a_hex("payload"));
  fs::resize_file(file, 10);
  ArtifactCache c4(config);
  EXPECT_FALSE(c4.get(key).has_value());
  c4.insert(key, "payload");
  ArtifactCache c5(config);
  EXPECT_TRUE(c5.get(key).has_value());
}

// Two requests must never share an entry unless their canonical
// payloads are identical: the key *is* the payload, so op, schema, and
// every parameter byte participate in the match.
TEST(ServiceCache, KeysMatchExactPayloadsOnly) {
  const Json params = Json::parse(R"({"instance":"path5","k":2})");
  EXPECT_EQ(artifact_key("check_coloring", params),
            artifact_key("check_coloring",
                         Json::parse(R"({"k":2,"instance":"path5"})")));
  EXPECT_NE(artifact_key("check_coloring", params),
            artifact_key("run_decoder", params));
  EXPECT_NE(artifact_key("check_coloring", params),
            artifact_key("check_coloring",
                         Json::parse(R"({"instance":"path5","k":3})")));

  ArtifactCache cache;
  cache.insert(artifact_key("check_coloring", params), "A");
  EXPECT_FALSE(
      cache.get(artifact_key("run_decoder", params)).has_value());
}

// ---------------------------------------------------------------------
// Pipe server end to end.

struct Pipe {
  int read_fd = -1;
  int write_fd = -1;
  Pipe() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::pipe(fds), 0);
    read_fd = fds[0];
    write_fd = fds[1];
  }
  ~Pipe() {
    if (read_fd >= 0) {
      ::close(read_fd);
    }
    if (write_fd >= 0) {
      ::close(write_fd);
    }
  }
};

/// Pipe mode over two pipes: the server reads to_server, writes
/// from_server.
TransportSpec pipe_spec(const Pipe& to_server, const Pipe& from_server) {
  TransportSpec spec;
  spec.pipe_in = to_server.read_fd;
  spec.pipe_out = from_server.write_fd;
  return spec;
}

/// Reads one frame from fd, polling up to timeout_ms. Returns nullopt
/// on timeout or EOF.
std::optional<std::string> read_frame(int fd, FrameReader& reader,
                                      int timeout_ms = 10000) {
  std::string frame;
  std::string error;
  while (true) {
    const FrameReader::Next next = reader.next(&frame, &error);
    if (next == FrameReader::Next::kFrame) {
      return frame;
    }
    EXPECT_NE(next, FrameReader::Next::kError) << error;
    struct pollfd pfd = {fd, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) {
      return std::nullopt;
    }
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) {
      return std::nullopt;
    }
    reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

TEST(PipeServer, AnswersRequestsAndExitsCleanlyOnEof) {
  Pipe to_server;
  Pipe from_server;
  CancelToken token;
  ServerOptions options;
  options.cancel = &token;
  options.num_threads = 2;

  int exit_code = -1;
  const TransportSpec spec = pipe_spec(to_server, from_server);
  std::thread server([&] { exit_code = serve_transports(spec, options); });

  FrameReader reader;
  const Json info = make_request(1, "info", Json::object());
  ASSERT_TRUE(write(to_server.write_fd, encode_frame(info.dump()).data(),
                    encode_frame(info.dump()).size()) > 0);
  std::optional<std::string> body = read_frame(from_server.read_fd, reader);
  ASSERT_TRUE(body.has_value());
  const Json info_resp = Json::parse(*body);
  EXPECT_EQ(info_resp.at("id").as_int(), 1);
  EXPECT_TRUE(ok_result(info_resp).at("ops").is_array());

  // A second request through the same stream, batched-path compute.
  Json params = Json::object();
  params["instance"] = "cycle5";
  params["k"] = 3;
  const std::string frame2 =
      encode_frame(make_request(2, "check_coloring", params).dump());
  ASSERT_TRUE(write(to_server.write_fd, frame2.data(), frame2.size()) > 0);
  body = read_frame(from_server.read_fd, reader);
  ASSERT_TRUE(body.has_value());
  const Json col_resp = Json::parse(*body);
  EXPECT_EQ(col_resp.at("id").as_int(), 2);
  EXPECT_TRUE(ok_result(col_resp).at("colorable").as_bool());

  ::close(to_server.write_fd);  // EOF ends the server
  to_server.write_fd = -1;
  server.join();
  EXPECT_EQ(exit_code, 0);
}

TEST(PipeServer, MalformedFrameGetsBadFrameResponse) {
  Pipe to_server;
  Pipe from_server;
  ServerOptions options;
  CancelToken token;
  options.cancel = &token;

  int exit_code = -1;
  const TransportSpec spec = pipe_spec(to_server, from_server);
  std::thread server([&] { exit_code = serve_transports(spec, options); });

  const std::string garbage = "???\n{}\n";
  ASSERT_TRUE(write(to_server.write_fd, garbage.data(), garbage.size()) > 0);
  FrameReader reader;
  const std::optional<std::string> body =
      read_frame(from_server.read_fd, reader);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(error_code(Json::parse(*body)), kErrBadFrame);

  server.join();  // framing lost ends pipe mode
  EXPECT_EQ(exit_code, 0);
}

// After a cancel trip the server must never answer a request ok: a late
// frame is either refused with "draining" or not read at all, and the
// server still exits 0.
TEST(PipeServer, DrainsOnCancelWithoutAcceptingNewWork) {
  Pipe to_server;
  Pipe from_server;
  CancelToken token;
  ServerOptions options;
  options.cancel = &token;

  int exit_code = -1;
  const TransportSpec spec = pipe_spec(to_server, from_server);
  std::thread server([&] { exit_code = serve_transports(spec, options); });

  FrameReader reader;
  const std::string warmup =
      encode_frame(make_request(1, "info", Json::object()).dump());
  ASSERT_TRUE(write(to_server.write_fd, warmup.data(), warmup.size()) > 0);
  ASSERT_TRUE(read_frame(from_server.read_fd, reader).has_value());

  token.request_stop(StopReason::kCancelRequested);
  const std::string late =
      encode_frame(make_request(2, "info", Json::object()).dump());
  ASSERT_TRUE(write(to_server.write_fd, late.data(), late.size()) > 0);
  server.join();
  EXPECT_EQ(exit_code, 0);

  // Whatever made it out for request 2 must be a draining refusal.
  while (true) {
    const std::optional<std::string> body =
        read_frame(from_server.read_fd, reader, /*timeout_ms=*/0);
    if (!body.has_value()) {
      break;
    }
    EXPECT_EQ(error_code(Json::parse(*body)), kErrDraining);
  }
}

// The pipe is the daemon's only client: once its reader is gone, no
// reply can be delivered, and the server reports a transport failure.
TEST(PipeServer, ClosedOutputExitsOne) {
  Pipe to_server;
  Pipe from_server;
  CancelToken token;
  ServerOptions options;
  options.cancel = &token;
  ::close(from_server.read_fd);
  from_server.read_fd = -1;

  int exit_code = -1;
  const TransportSpec spec = pipe_spec(to_server, from_server);
  std::thread server([&] { exit_code = serve_transports(spec, options); });

  const std::string frame =
      encode_frame(make_request(1, "info", Json::object()).dump());
  ASSERT_EQ(::write(to_server.write_fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  server.join();
  EXPECT_EQ(exit_code, 1);
}

// ---------------------------------------------------------------------
// Overload shedding (DESIGN.md §14).

/// Writes `count` pipelined info requests as ONE atomic pipe write, so
/// the server's read loop ingests the whole burst in one gulp and the
/// admission policy sees it at once (deterministic shed counts).
void write_burst(int fd, std::int64_t count) {
  std::string burst;
  for (std::int64_t id = 1; id <= count; ++id) {
    burst += encode_frame(make_request(id, "info", Json::object()).dump());
  }
  ASSERT_LT(burst.size(), 4096u);  // PIPE_BUF: single-write atomicity
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
}

TEST(PipeServer, ShedsPastQueueCapWithRetryAfterHint) {
  Pipe to_server;
  Pipe from_server;
  CancelToken token;
  ServerOptions options;
  options.cancel = &token;
  options.num_threads = 2;
  options.queue_max = 2;
  options.conn_inflight_max = 0;

  int exit_code = -1;
  const TransportSpec spec = pipe_spec(to_server, from_server);
  std::thread server([&] { exit_code = serve_transports(spec, options); });

  write_burst(to_server.write_fd, 5);
  FrameReader reader;
  int oks = 0;
  int shed = 0;
  for (int i = 0; i < 5; ++i) {
    const std::optional<std::string> body =
        read_frame(from_server.read_fd, reader);
    ASSERT_TRUE(body.has_value()) << i;
    const Json resp = Json::parse(*body);
    if (resp.at("ok").as_bool()) {
      ++oks;
    } else {
      ++shed;
      EXPECT_EQ(resp.at("error").at("code").as_string(), kErrOverloaded);
      // The refusal carries a positive backpressure hint.
      EXPECT_GT(resp.at("error").at("retry_after_ms").as_int(), 0)
          << resp.dump();
    }
  }
  EXPECT_EQ(oks, 2);  // exactly queue_max admitted
  EXPECT_EQ(shed, 3);

  // The health op reports the episode: cap, admissions, sheds.
  const std::string probe =
      encode_frame(make_request(9, "health", Json::object()).dump());
  ASSERT_EQ(::write(to_server.write_fd, probe.data(), probe.size()),
            static_cast<ssize_t>(probe.size()));
  const std::optional<std::string> body =
      read_frame(from_server.read_fd, reader);
  ASSERT_TRUE(body.has_value());
  const Json health = ok_result(Json::parse(*body));
  EXPECT_FALSE(health.at("draining").as_bool());
  EXPECT_EQ(health.at("queue").at("max").as_uint(), 2u);
  EXPECT_EQ(health.at("queue").at("admitted").as_uint(), 3u);  // 2 + probe
  EXPECT_EQ(health.at("queue").at("shed").as_uint(), 3u);
  EXPECT_TRUE(health.at("cache").contains("hit_rate"));

  ::close(to_server.write_fd);
  to_server.write_fd = -1;
  server.join();
  EXPECT_EQ(exit_code, 0);
}

TEST(PipeServer, ShedsPastConnectionInflightCap) {
  Pipe to_server;
  Pipe from_server;
  CancelToken token;
  ServerOptions options;
  options.cancel = &token;
  options.queue_max = 0;       // the global cap must not be the trigger
  options.conn_inflight_max = 1;

  int exit_code = -1;
  const TransportSpec spec = pipe_spec(to_server, from_server);
  std::thread server([&] { exit_code = serve_transports(spec, options); });

  write_burst(to_server.write_fd, 3);
  FrameReader reader;
  int oks = 0;
  int shed = 0;
  for (int i = 0; i < 3; ++i) {
    const std::optional<std::string> body =
        read_frame(from_server.read_fd, reader);
    ASSERT_TRUE(body.has_value()) << i;
    const Json resp = Json::parse(*body);
    if (resp.at("ok").as_bool()) {
      ++oks;
    } else {
      ++shed;
      EXPECT_EQ(resp.at("error").at("code").as_string(), kErrOverloaded);
      EXPECT_NE(resp.at("error").at("message").as_string().find("in-flight"),
                std::string::npos)
          << resp.dump();
    }
  }
  EXPECT_EQ(oks, 1);
  EXPECT_EQ(shed, 2);

  // A shed is per-frame, not per-connection: once the in-flight request
  // is answered, the stream accepts work again.
  const std::string more =
      encode_frame(make_request(7, "info", Json::object()).dump());
  ASSERT_EQ(::write(to_server.write_fd, more.data(), more.size()),
            static_cast<ssize_t>(more.size()));
  const std::optional<std::string> body =
      read_frame(from_server.read_fd, reader);
  ASSERT_TRUE(body.has_value());
  EXPECT_TRUE(Json::parse(*body).at("ok").as_bool());

  ::close(to_server.write_fd);
  to_server.write_fd = -1;
  server.join();
  EXPECT_EQ(exit_code, 0);
}

// ---------------------------------------------------------------------
// Socket server end to end.

/// Connects to the unix socket at `path`, retrying while the server
/// thread has not bound it yet. Returns -1 if it never comes up.
int connect_unix(const std::string& path) {
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  for (int attempt = 0; attempt < 250; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0 &&
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    if (fd >= 0) {
      ::close(fd);
    }
    ::usleep(20'000);  // server may not have bound yet
  }
  return -1;
}

TEST(SocketServer, ServesSequentialConnectionsAndExitsOnCancel) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "shlcp_test.sock").string();
  CancelToken token;
  ServerOptions options;
  options.cancel = &token;
  options.num_threads = 2;

  int exit_code = -1;
  TransportSpec spec;
  spec.unix_path = path;
  std::thread server([&] { exit_code = serve_transports(spec, options); });

  // Sequential connect/request/disconnect rounds: round 2+ exercises
  // accept after earlier slots were closed and reclaimed.
  for (std::int64_t round = 0; round < 3; ++round) {
    const int fd = connect_unix(path);
    ASSERT_GE(fd, 0);
    const std::string frame =
        encode_frame(make_request(round, "info", Json::object()).dump());
    ASSERT_GT(::write(fd, frame.data(), frame.size()), 0);
    FrameReader reader;
    const std::optional<std::string> body = read_frame(fd, reader);
    ASSERT_TRUE(body.has_value());
    const Json resp = Json::parse(*body);
    EXPECT_EQ(resp.at("id").as_int(), round);
    EXPECT_TRUE(ok_result(resp).at("ops").is_array());
    ::close(fd);
  }

  token.request_stop(StopReason::kCancelRequested);
  server.join();
  EXPECT_EQ(exit_code, 0);
  EXPECT_FALSE(fs::exists(path));  // unlinked on exit
}

/// Sends one request on `fd` and reads its reply.
Json call_on(int fd, const Json& request) {
  const std::string frame = encode_frame(request.dump());
  EXPECT_EQ(::write(fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  FrameReader reader;
  const std::optional<std::string> body = read_frame(fd, reader);
  EXPECT_TRUE(body.has_value());
  return body.has_value() ? Json::parse(*body) : Json();
}

// The per-connection session cap belongs to a connection, not to its
// slot in the loop: closing connection a must neither lift b's cap nor
// hand b's sessions to the next connection that takes b's old slot.
TEST(SocketServer, SessionCapFollowsTheConnectionNotItsSlot) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "shlcp_owner.sock").string();
  CancelToken token;
  ServerOptions options;
  options.cancel = &token;
  options.num_threads = 1;
  options.service.sessions.per_conn_max = 2;

  int exit_code = -1;
  TransportSpec spec;
  spec.unix_path = path;
  std::thread server([&] { exit_code = serve_transports(spec, options); });

  const auto open_on = [](int fd, const std::string& id) {
    Json params = Json::object();
    params["session"] = id;
    params["instance"] = "cycle6";
    params["k"] = 2;
    params["rounds"] = 1;
    return call_on(fd, make_request(1, "session_open", std::move(params)));
  };
  const auto info_on = [](int fd) {
    ok_result(call_on(fd, make_request(0, "info", Json::object())));
  };

  const int a = connect_unix(path);
  ASSERT_GE(a, 0);
  info_on(a);  // a is accepted first
  const int b = connect_unix(path);
  ASSERT_GE(b, 0);
  ok_result(open_on(b, "b1"));
  ok_result(open_on(b, "b2"));
  ::close(a);
  // Give the loop time to see a's EOF and compact its slots before b's
  // next open. Owner ids make the outcome independent of that timing;
  // slot owners changed hands exactly here.
  ::usleep(50'000);
  info_on(b);
  // Checked without throwing, so a failure still reaches the teardown.
  const Json refused = open_on(b, "b3");
  EXPECT_FALSE(refused.at("ok").as_bool()) << refused.dump();
  if (refused.contains("error")) {
    EXPECT_EQ(refused.at("error").at("code").as_string(), kErrOverloaded);
  }
  const int c = connect_unix(path);
  ASSERT_GE(c, 0);
  const Json fresh = open_on(c, "fresh");
  EXPECT_TRUE(fresh.at("ok").as_bool()) << fresh.dump();
  ::close(b);
  ::close(c);

  token.request_stop(StopReason::kCancelRequested);
  server.join();
  EXPECT_EQ(exit_code, 0);
}

// ---------------------------------------------------------------------
// One poll loop per thread (DESIGN.md §15).

/// A dispatcher that lets a test hold one loop busy. A request whose
/// params carry "gate" waits until the test opens the gate, or for
/// kGateTimeout, and its result says whether the gate was opened in
/// time. `health` answers the loops' queue counters. Connection closes
/// are counted.
class GatedDispatcher final : public Dispatcher {
 public:
  static constexpr std::chrono::seconds kGateTimeout{5};

  GatedDispatcher() : Dispatcher("gated") {}

  /// Blocks until a gated request is being served.
  bool wait_gated() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kGateTimeout, [&] { return gated_; });
  }

  void open_gate() {
    const std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  /// Blocks until `count` connections have been closed.
  bool wait_closed(int count) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kGateTimeout, [&] { return closed_ >= count; });
  }

  void connection_closed(std::int64_t /*conn*/) override {
    const std::lock_guard<std::mutex> lock(mu_);
    ++closed_;
    cv_.notify_all();
  }

 private:
  std::string serve(Admitted& request) override {
    Json result = Json::object();
    if (request.op.route == OpRoute::kFanOutHealth) {
      result["queue"] = queue_health();
    } else if (request.req.params.contains("gate")) {
      std::unique_lock<std::mutex> lock(mu_);
      gated_ = true;
      cv_.notify_all();
      result["opened"] =
          cv_.wait_for(lock, kGateTimeout, [&] { return open_; });
    }
    return ok_response(request.req.id, std::move(result), false).dump();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool gated_ = false;
  bool open_ = false;
  int closed_ = 0;
};

Json gated_request(std::int64_t id) {
  Json params = Json::object();
  params["gate"] = true;
  return make_request(id, "info", std::move(params));
}

/// A two-loop unix-socket server behind a GatedDispatcher.
class TwoLoops : public ::testing::Test {
 protected:
  void start(std::size_t queue_max = 512) {
    path_ = (fs::path(::testing::TempDir()) / "shlcp_loops.sock").string();
    options_.cancel = &token_;
    options_.dispatcher = &gated_;
    options_.num_threads = 2;
    options_.queue_max = queue_max;
    options_.conn_inflight_max = 0;
    TransportSpec spec;
    spec.unix_path = path_;
    server_ = std::thread([this, spec] {
      exit_code_ = serve_transports(spec, options_);
    });
  }

  /// A connection that has been answered once, so it is placed.
  int connect() {
    const int fd = connect_unix(path_);
    EXPECT_GE(fd, 0);
    EXPECT_TRUE(call_on(fd, make_request(0, "info", Json::object()))
                    .at("ok")
                    .as_bool());
    fds_.push_back(fd);
    return fd;
  }

  void TearDown() override {
    gated_.open_gate();
    token_.request_stop(StopReason::kCancelRequested);
    if (server_.joinable()) {
      server_.join();
    }
    EXPECT_EQ(exit_code_, 0);
    for (const int fd : fds_) {
      ::close(fd);
    }
  }

  GatedDispatcher gated_;
  CancelToken token_;
  ServerOptions options_;
  std::string path_;
  std::thread server_;
  int exit_code_ = -1;
  std::vector<int> fds_;
};

void write_frames(int fd, const std::vector<Json>& requests) {
  std::string burst;
  for (const Json& request : requests) {
    burst += encode_frame(request.dump());
  }
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
}

/// Reads the next reply on fd (a fresh reader: replies arrive one frame
/// per read here, as the test waits for each before the next is sent).
Json next_reply(int fd, FrameReader& reader) {
  const std::optional<std::string> body = read_frame(fd, reader);
  EXPECT_TRUE(body.has_value());
  return body.has_value() ? Json::parse(*body) : Json();
}

// A request that takes long holds only its own loop: connection b, on
// the other loop, is answered while a's request is still running.
TEST_F(TwoLoops, ASlowRequestDoesNotHoldTheOtherLoop) {
  start();
  const int a = connect();
  const int b = connect();
  write_frames(a, {gated_request(1)});
  ASSERT_TRUE(gated_.wait_gated());
  EXPECT_TRUE(call_on(b, make_request(2, "info", Json::object()))
                  .at("ok")
                  .as_bool());
  gated_.open_gate();
  FrameReader reader;
  const Json held = next_reply(a, reader);
  EXPECT_TRUE(ok_result(held).at("opened").as_bool())
      << "b was answered only after a's request gave up";
}

// Accepting never waits for a request: a connection opened while a
// request is held on one loop is accepted and answered by the other,
// also once the loops tie on live connections.
TEST_F(TwoLoops, ConnectionsOpenedWhileALoopIsHeldAreServed) {
  start();
  const int a = connect();
  write_frames(a, {gated_request(1)});
  ASSERT_TRUE(gated_.wait_gated());
  connect();  // b: the other loop has fewer live connections
  connect();  // c: one each now; the idle loop accepted it and keeps it
  gated_.open_gate();
  FrameReader reader;
  EXPECT_TRUE(ok_result(next_reply(a, reader)).at("opened").as_bool())
      << "a new connection waited for the held request";
}

// Each loop has its own queue, but queue_max caps their sum, and the
// health counters are exact sums over the loops.
TEST_F(TwoLoops, QueueCapIsGlobalAndHealthSumsTheLoops) {
  start(/*queue_max=*/3);
  const int a = connect();
  const int b = connect();  // 2 admitted so far
  // a's loop reads all three at once, admits them and holds the first:
  // two of a's requests stay queued.
  write_frames(a, {gated_request(1), make_request(2, "info", Json::object()),
                   make_request(3, "info", Json::object())});
  ASSERT_TRUE(gated_.wait_gated());
  // b's loop sees a global depth of 2: it admits one more and sheds two.
  write_frames(b, {make_request(4, "health", Json::object()),
                   make_request(5, "info", Json::object()),
                   make_request(6, "info", Json::object())});
  FrameReader b_reader;
  const Json during = next_reply(b, b_reader);
  const Json queue = ok_result(during).at("queue");
  EXPECT_EQ(queue.at("depth").as_uint(), 2u) << during.dump();
  EXPECT_EQ(queue.at("max").as_uint(), 3u);
  for (const std::int64_t id : {5, 6}) {
    const Json shed = next_reply(b, b_reader);
    EXPECT_EQ(shed.at("id").as_int(), id);
    EXPECT_EQ(error_code(shed), kErrOverloaded) << shed.dump();
  }
  gated_.open_gate();
  FrameReader a_reader;
  for (const std::int64_t id : {1, 2, 3}) {
    const Json reply = next_reply(a, a_reader);
    EXPECT_EQ(reply.at("id").as_int(), id);
    EXPECT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  }
  const Json after = ok_result(
      call_on(b, make_request(7, "health", Json::object())))
                         .at("queue");
  EXPECT_EQ(after.at("depth").as_uint(), 0u);
  EXPECT_EQ(after.at("admitted").as_uint(), 7u);  // 2 + 3 + 1 + 1
  EXPECT_EQ(after.at("shed").as_uint(), 2u);
}

// Placement counts live connections: a short-lived connection accepted
// between two long-lived ones does not put them on the same loop.
TEST_F(TwoLoops, LongLivedConnectionsLandOnDifferentLoops) {
  start();
  const int a = connect();
  const int brief = connect();
  ::close(brief);
  fds_.pop_back();
  ASSERT_TRUE(gated_.wait_closed(1));
  const int b = connect();
  write_frames(a, {gated_request(1)});
  ASSERT_TRUE(gated_.wait_gated());
  EXPECT_TRUE(call_on(b, make_request(2, "info", Json::object()))
                  .at("ok")
                  .as_bool());
  gated_.open_gate();
  FrameReader reader;
  EXPECT_TRUE(ok_result(next_reply(a, reader)).at("opened").as_bool())
      << "a and b share a loop";
}

// One end-of-stream rule for every connection: a client that pipelines
// a burst spanning several server reads, then half-closes, gets exactly
// one reply per request (ok or "overloaded") before the server closes.
// Parameter: true = unix socket, false = pipe.
class HalfClose : public ::testing::TestWithParam<bool> {};

TEST_P(HalfClose, EveryPipelinedRequestIsAnsweredOnce) {
  constexpr std::int64_t kRequests = 4000;
  std::string burst;
  for (std::int64_t id = 0; id < kRequests; ++id) {
    burst += encode_frame(make_request(id, "health", Json::object()).dump());
  }
  ASSERT_GT(burst.size(), 64u << 10);  // more than one server read

  const bool socket_mode = GetParam();
  const std::string path =
      (fs::path(::testing::TempDir()) / "shlcp_half.sock").string();
  Pipe to_server;
  Pipe from_server;
  CancelToken token;
  ServerOptions options;
  options.cancel = &token;
  options.num_threads = 2;
  TransportSpec spec = pipe_spec(to_server, from_server);
  if (socket_mode) {
    spec = TransportSpec{};
    spec.unix_path = path;
  }

  int exit_code = -1;
  std::thread server([&] { exit_code = serve_transports(spec, options); });
  const int fd = socket_mode ? connect_unix(path) : -1;
  if (socket_mode) {
    ASSERT_GE(fd, 0);
  }
  const int write_fd = socket_mode ? fd : to_server.write_fd;
  const int read_fd = socket_mode ? fd : from_server.read_fd;

  // The socket client reads only after its half-close, so its replies
  // pile up in the server's write buffer when the EOF arrives. The
  // pipe's writes block, so its client must read while it writes.
  std::thread writer([&] {
    std::size_t off = 0;
    while (off < burst.size()) {
      const ssize_t n =
          ::write(write_fd, burst.data() + off, burst.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
    if (socket_mode) {
      ::shutdown(fd, SHUT_WR);
    } else {
      ::close(to_server.write_fd);
      to_server.write_fd = -1;
    }
  });

  if (socket_mode) {
    writer.join();
  }

  std::vector<int> answers(kRequests, 0);
  FrameReader reader;
  std::int64_t received = 0;
  while (received < kRequests) {
    const std::optional<std::string> body = read_frame(read_fd, reader);
    if (!body.has_value()) {
      break;
    }
    const Json resp = Json::parse(*body);
    const std::int64_t id = resp.at("id").as_int();
    ASSERT_TRUE(id >= 0 && id < kRequests) << resp.dump();
    ++answers[static_cast<std::size_t>(id)];
    ++received;
    if (!resp.at("ok").as_bool()) {
      EXPECT_EQ(error_code(resp), kErrOverloaded);
    }
  }
  if (writer.joinable()) {
    writer.join();
  }
  EXPECT_EQ(received, kRequests);
  const auto not_once = std::count_if(answers.begin(), answers.end(),
                                      [](int n) { return n != 1; });
  EXPECT_EQ(not_once, 0) << "ids not answered exactly once";

  if (socket_mode) {
    token.request_stop(StopReason::kCancelRequested);
  }
  server.join();  // the pipe's EOF ends the server by itself
  EXPECT_EQ(exit_code, 0);
  if (fd >= 0) {
    ::close(fd);
  }
}

INSTANTIATE_TEST_SUITE_P(PipeAndSocket, HalfClose, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "UnixSocket" : "Pipe";
                         });

TEST(TransportServer, PortFileIsPublishedWhileServingAndRemovedOnDrain) {
  // The --port-file readiness handshake, both directions: published
  // (atomically) once the listeners are bound, removed again on a
  // graceful drain. The reverse direction is what makes a *leftover*
  // port file a truthful crash marker for the supervisor -- a clean
  // exit never leaves one behind.
  const std::string sock =
      (fs::path(::testing::TempDir()) / "shlcp_pf.sock").string();
  const std::string port_file =
      (fs::path(::testing::TempDir()) / "shlcp_pf.ports.json").string();
  fs::remove(port_file);

  CancelToken token;
  ServerOptions options;
  options.cancel = &token;
  options.num_threads = 2;
  TransportSpec spec;
  spec.unix_path = sock;
  spec.port_file = port_file;

  int exit_code = -1;
  std::thread server([&] { exit_code = serve_transports(spec, options); });

  bool published = false;
  for (int attempt = 0; attempt < 250; ++attempt) {
    if (fs::exists(port_file)) {
      published = true;
      break;
    }
    ::usleep(20'000);
  }
  ASSERT_TRUE(published) << "port file never published";
  {
    std::ifstream in(port_file);
    std::ostringstream buf;
    buf << in.rdbuf();
    const Json ports = Json::parse(buf.str());
    EXPECT_EQ(ports.at("unix").as_string(), sock);
  }

  token.request_stop(StopReason::kCancelRequested);
  server.join();
  EXPECT_EQ(exit_code, 0);
  EXPECT_FALSE(fs::exists(port_file))  // the satellite assertion
      << "graceful exit must remove the port file";
  EXPECT_FALSE(fs::exists(sock));
}

// Binds happen before serving: a listener that cannot bind fails the
// whole call at once, publishes no port file, and leaves no socket file
// from the listeners that did bind.
TEST(TransportServer, ListenerThatCannotBindFailsFast) {
  const int holder = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(holder, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(holder, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(holder, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(holder, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  const std::string sock =
      (fs::path(::testing::TempDir()) / "shlcp_busy.sock").string();
  const std::string port_file =
      (fs::path(::testing::TempDir()) / "shlcp_busy.ports.json").string();
  fs::remove(port_file);
  CancelToken token;
  ServerOptions options;
  options.cancel = &token;
  TransportSpec spec;
  spec.unix_path = sock;
  spec.tcp = "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));
  spec.port_file = port_file;

  const auto start = std::chrono::steady_clock::now();
  std::future<int> code = std::async(
      std::launch::async, [&] { return serve_transports(spec, options); });
  const bool returned =
      code.wait_for(std::chrono::seconds(1)) == std::future_status::ready;
  EXPECT_TRUE(returned) << "serve_transports kept running";
  if (!returned) {
    token.request_stop(StopReason::kCancelRequested);
  }
  EXPECT_EQ(code.get(), 1);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(1));
  EXPECT_FALSE(fs::exists(port_file));
  EXPECT_FALSE(fs::exists(sock));
  ::close(holder);
}

}  // namespace
}  // namespace shlcp::svc

#include "util/trace.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "util/check.h"
#include "util/clock.h"
#include "util/format.h"

namespace shlcp::trace {

namespace {

// Sink state. g_enabled is the fast-path flag; the FILE* and its mutex
// are only touched when a record is actually written.
std::atomic<bool> g_enabled{false};
std::mutex g_sink_mu;
std::FILE* g_sink = nullptr;

std::uint64_t trace_epoch() noexcept {
  static const std::uint64_t epoch = mono_ns();
  return epoch;
}

Json make_record(const char* type, const char* name, unsigned tid) {
  Json rec = Json::object();
  rec["type"] = type;
  rec["name"] = name;
  rec["tid"] = static_cast<std::uint64_t>(tid);
  return rec;
}

void write_line(const Json& rec) {
  const std::string line = rec.dump(-1);
  std::lock_guard<std::mutex> lock(g_sink_mu);
  if (g_sink == nullptr) {
    return;  // disable() raced with an in-flight span; drop the record
  }
  std::fwrite(line.data(), 1, line.size(), g_sink);
  std::fputc('\n', g_sink);
}

#ifndef SHLCP_NO_TRACE
// Honor SHLCP_TRACE=<path> from the environment before main() runs, so
// any binary (bench, example, test) can be traced without code changes.
struct EnvEnable {
  EnvEnable() {
    const char* path = std::getenv("SHLCP_TRACE");
    if (path != nullptr && *path != '\0') {
      enable(path);
    }
  }
};
const EnvEnable g_env_enable;
#endif

}  // namespace

#ifndef SHLCP_NO_TRACE
bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
#endif

void enable(const std::string& path) {
#ifdef SHLCP_NO_TRACE
  (void)path;
#else
  trace_epoch();  // pin the epoch before the first record
  std::lock_guard<std::mutex> lock(g_sink_mu);
  if (g_sink != nullptr) {
    std::fclose(g_sink);
    g_sink = nullptr;
    g_enabled.store(false, std::memory_order_relaxed);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  SHLCP_CHECK_MSG(f != nullptr,
                  format("trace::enable: cannot open '%s'", path.c_str()));
  g_sink = f;
  g_enabled.store(true, std::memory_order_relaxed);
#endif
}

void disable() {
  std::lock_guard<std::mutex> lock(g_sink_mu);
  g_enabled.store(false, std::memory_order_relaxed);
  if (g_sink != nullptr) {
    std::fclose(g_sink);
    g_sink = nullptr;
  }
}

std::uint64_t now_ns() noexcept { return mono_ns() - trace_epoch(); }

unsigned thread_id() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace detail {

void write_span(const char* name, unsigned tid, std::uint64_t t0_ns,
                std::uint64_t dur_ns,
                const std::vector<std::pair<std::string, Json>>& attrs) {
  Json rec = make_record("span", name, tid);
  rec["t0_ns"] = t0_ns;
  rec["dur_ns"] = dur_ns;
  Json& a = rec["attrs"] = Json::object();
  for (const auto& [k, v] : attrs) {
    a[k] = v;
  }
  write_line(rec);
}

void write_event(const char* name, unsigned tid, std::uint64_t t_ns,
                 const std::vector<std::pair<std::string, Json>>& attrs) {
  Json rec = make_record("event", name, tid);
  rec["t_ns"] = t_ns;
  Json& a = rec["attrs"] = Json::object();
  for (const auto& [k, v] : attrs) {
    a[k] = v;
  }
  write_line(rec);
}

}  // namespace detail

}  // namespace shlcp::trace

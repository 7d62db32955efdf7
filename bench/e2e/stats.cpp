#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "bench.h"

namespace shlcp::e2e {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  // The epsilon keeps exact products (p = 50, n = 10) from rounding up a
  // rank through floating-point noise.
  const double rank = std::ceil(p / 100.0 * n - 1e-9);
  const std::size_t i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return xs[std::min(i, xs.size() - 1)];
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

double highest_supported_percentile(std::size_t n) {
  for (const double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    if (static_cast<double>(n) - rank >= 10.0) {
      return p;
    }
  }
  return 0.0;
}

Windows window_stats(const std::vector<std::uint64_t>& done_ns,
                     const std::vector<double>& latency_us,
                     std::uint64_t start_ns, std::uint64_t window_ns,
                     const std::vector<double>& cpu_s) {
  const std::size_t count = cpu_s.empty() ? 0 : cpu_s.size() - 1;
  std::vector<std::vector<double>> latencies(count);
  for (std::size_t i = 0; i < done_ns.size(); ++i) {
    if (done_ns[i] < start_ns) {
      continue;
    }
    const std::uint64_t k = (done_ns[i] - start_ns) / window_ns;
    if (k < count) {
      latencies[k].push_back(latency_us[i]);
    }
  }
  Windows w;
  for (std::size_t k = 0; k < count; ++k) {
    const double ops = static_cast<double>(latencies[k].size());
    w.rate.push_back(ops * 1e9 / static_cast<double>(window_ns));
    if (!latencies[k].empty()) {
      w.p50_us.push_back(median(latencies[k]));
      w.cost.push_back((cpu_s[k + 1] - cpu_s[k]) * 1e6 / ops);
    }
  }
  return w;
}

std::uint64_t OpenLoopSchedule::due_ns(std::uint64_t i) const {
  return start_ns +
         static_cast<std::uint64_t>(static_cast<double>(i) * 1e9 / rate);
}

OpenLoopTiming open_loop_timing(std::uint64_t due_ns, std::uint64_t sent_ns,
                                std::uint64_t done_ns) {
  OpenLoopTiming t;
  t.latency_us = static_cast<double>(done_ns - std::min(due_ns, done_ns)) / 1e3;
  t.late_us = sent_ns > due_ns ? static_cast<double>(sent_ns - due_ns) / 1e3
                               : 0.0;
  return t;
}

std::int64_t SpanLog::open(std::string_view name, std::int64_t parent,
                           std::uint64_t request) {
  Span s;
  s.name = std::string(name);
  s.parent = parent;
  s.request = request;
  s.start_ns = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::close(std::int64_t index) {
  const std::uint64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

void SpanLog::record(std::string_view name, std::int64_t parent,
                     std::uint64_t request, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::uint32_t batch) {
  Span s;
  s.name = std::string(name);
  s.parent = parent;
  s.request = request;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.batch = batch;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Span> SpanLog::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    Json line = Json::object();
    line["name"] = s.name;
    line["start_ns"] = s.start_ns;
    line["end_ns"] = s.end_ns;
    line["parent"] = s.parent;
    line["request"] = s.request;
    line["batch"] = static_cast<std::uint64_t>(s.batch);
    const std::string text = line.dump();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
  }
  return std::fclose(f) == 0;
}

std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::uint64_t duration = s.end_ns - std::min(s.start_ns, s.end_ns);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = s.start_ns;  // end of the union so far
    for (auto [b, e] : kids) {
      b = std::clamp(b, s.start_ns, s.end_ns);
      e = std::clamp(e, s.start_ns, s.end_ns);
      b = std::max(b, cursor);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    self[i] = duration - std::min(covered, duration);
  }
  return self;
}

std::vector<double> per_call_ns(const std::vector<Span>& spans,
                                std::string_view name) {
  const bool prefix = !name.empty() && name.back() == '*';
  if (prefix) {
    name.remove_suffix(1);
  }
  std::vector<double> out;
  for (const Span& s : spans) {
    if (prefix ? std::string_view(s.name).substr(0, name.size()) != name
               : s.name != name) {
      continue;
    }
    out.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                  static_cast<double>(std::max<std::uint32_t>(s.batch, 1)));
  }
  return out;
}

std::map<std::uint64_t, double> child_totals_ns(const std::vector<Span>& spans,
                                                std::string_view name) {
  std::map<std::uint64_t, double> totals;
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.name == name) {
      totals[s.request] +=
          static_cast<double>(s.end_ns - s.start_ns) /
          static_cast<double>(std::max<std::uint32_t>(s.batch, 1));
    }
  }
  return totals;
}

}  // namespace shlcp::e2e

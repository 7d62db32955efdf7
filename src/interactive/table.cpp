#include "interactive/table.h"

#include <utility>
#include <vector>

#include "util/check.h"
#include "util/clock.h"

namespace shlcp::ia {

SessionTable::SessionTable(SessionLimits limits,
                           std::function<std::uint64_t()> now_ms)
    : limits_(limits),
      now_ms_(now_ms ? std::move(now_ms) : mono_ms) {}

void SessionTable::retire_locked(
    std::unordered_map<std::string, Entry>::iterator it) {
  const std::int64_t owner = it->second.owner;
  if (owner >= 0) {
    auto po = per_owner_.find(owner);
    if (po != per_owner_.end() && --po->second == 0) {
      per_owner_.erase(po);
    }
  }
  sessions_.erase(it);
}

std::size_t SessionTable::sweep_locked() {
  const std::uint64_t now = now_ms_();
  std::vector<std::string> overdue;
  for (const auto& [id, entry] : sessions_) {
    if (now - entry.last_touch_ms > limits_.ttl_ms) {
      overdue.push_back(id);
    }
  }
  for (const std::string& id : overdue) {
    retire_locked(sessions_.find(id));
    ++counters_.expired;
  }
  return overdue.size();
}

std::size_t SessionTable::sweep() {
  const std::lock_guard<std::mutex> lock(mu_);
  return sweep_locked();
}

SessionTable::Refusal SessionTable::open(
    const std::string& id, std::int64_t owner,
    const std::function<std::unique_ptr<InteractiveSession>()>& make) {
  const std::lock_guard<std::mutex> lock(mu_);
  sweep_locked();
  if (sessions_.count(id) != 0) {
    return Refusal::kExists;
  }
  if (sessions_.size() >= limits_.global_max) {
    ++counters_.refused;
    return Refusal::kGlobalCap;
  }
  if (owner >= 0 && per_owner_[owner] >= limits_.per_owner_max) {
    if (per_owner_[owner] == 0) {
      per_owner_.erase(owner);
    }
    ++counters_.refused;
    return Refusal::kOwnerCap;
  }
  Entry entry;
  entry.session = make();
  SHLCP_CHECK_MSG(entry.session != nullptr,
                  "SessionTable: protocol returned no session");
  entry.owner = owner;
  entry.last_touch_ms = now_ms_();
  sessions_.emplace(id, std::move(entry));
  if (owner >= 0) {
    ++per_owner_[owner];
  }
  ++counters_.opened;
  return Refusal::kNone;
}

SessionTable::StepResult SessionTable::step(const std::string& id,
                                            const Json& msg) {
  const std::lock_guard<std::mutex> lock(mu_);
  sweep_locked();
  StepResult res;
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return res;
  }
  res.found = true;
  it->second.last_touch_ms = now_ms_();
  try {
    res.reply = it->second.session->step(msg);
  } catch (const StateError& e) {
    res.state_error = true;
    res.error = e.what();
    return res;
  }
  ++counters_.steps;
  if (it->second.session->done()) {
    // Retire on verdict: the reply carries it, the slot is freed.
    retire_locked(it);
    ++counters_.completed;
    res.completed = true;
  }
  return res;
}

SessionTable::CloseResult SessionTable::close(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mu_);
  sweep_locked();
  CloseResult res;
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return res;
  }
  res.found = true;
  res.final_state = it->second.session->describe();
  retire_locked(it);
  ++counters_.aborted;
  return res;
}

void SessionTable::release_owner(std::int64_t owner) {
  if (owner < 0) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (per_owner_.erase(owner) == 0) {
    return;  // no live session of this owner
  }
  for (auto& [id, entry] : sessions_) {
    if (entry.owner == owner) {
      entry.owner = -1;
    }
  }
}

Json SessionTable::describe(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? Json() : it->second.session->describe();
}

SessionCounters SessionTable::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  SessionCounters c = counters_;
  c.live = sessions_.size();
  return c;
}

}  // namespace shlcp::ia

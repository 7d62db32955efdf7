#include "sim/message.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace shlcp {

std::size_t encoded_size(const NodeRecord& record) {
  // id(4) + completeness flag(1) + certificate (bit count(4) +
  // field count(4) + 4 per field) + edge count(4) + 3 ints per edge.
  // Explicit 64-bit arithmetic: the fault layer feeds adversarial record
  // shapes through here, so the totals are guarded against overflow
  // instead of silently wrapping.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const auto fields = static_cast<std::uint64_t>(record.cert.fields.size());
  const auto edges = static_cast<std::uint64_t>(record.edges.size());
  SHLCP_CHECK_MSG(fields <= (kMax - 17) / 4,
                  "certificate field count overflows traffic accounting");
  const std::uint64_t base = 17 + 4 * fields;
  SHLCP_CHECK_MSG(edges <= (kMax - base) / 12,
                  "edge count overflows traffic accounting");
  const std::uint64_t total = base + 12 * edges;
  SHLCP_CHECK_MSG(
      total <= static_cast<std::uint64_t>(
                   std::numeric_limits<std::size_t>::max()),
      "record size exceeds std::size_t");
  return static_cast<std::size_t>(total);
}

std::size_t Message::byte_size() const {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t total = 4;  // record count
  for (const auto& r : records) {
    const auto size = static_cast<std::uint64_t>(encoded_size(r));
    SHLCP_CHECK_MSG(size <= kMax - total, "message size overflow");
    total += size;
  }
  SHLCP_CHECK_MSG(
      total <= static_cast<std::uint64_t>(
                   std::numeric_limits<std::size_t>::max()),
      "message size exceeds std::size_t");
  return static_cast<std::size_t>(total);
}

std::size_t Knowledge::lower_bound(Ident id) const {
  return static_cast<std::size_t>(
      std::lower_bound(records_.begin(), records_.end(), id,
                       [](const NodeRecord& r, Ident want) {
                         return r.id < want;
                       }) -
      records_.begin());
}

void Knowledge::merge_record(const NodeRecord& record) {
  const std::size_t i = lower_bound(record.id);
  if (i == records_.size() || records_[i].id != record.id) {
    records_.insert(records_.begin() + static_cast<std::ptrdiff_t>(i),
                    record);
    return;
  }
  if (!records_[i].complete && record.complete) {
    records_[i] = record;
  }
}

void Knowledge::merge(const Message& message) {
  for (const auto& r : message.records) {
    merge_record(r);
  }
}

NodeRecord& Knowledge::find_or_insert(Ident id, const Certificate& cert) {
  const std::size_t i = lower_bound(id);
  if (i == records_.size() || records_[i].id != id) {
    return *records_.insert(records_.begin() + static_cast<std::ptrdiff_t>(i),
                            NodeRecord{id, cert, {}, false});
  }
  return records_[i];
}

int Knowledge::index_of(Ident id) const {
  const std::size_t i = lower_bound(id);
  return i < records_.size() && records_[i].id == id ? static_cast<int>(i)
                                                      : -1;
}

const NodeRecord* Knowledge::find(Ident id) const {
  const int i = index_of(id);
  return i < 0 ? nullptr : &records_[static_cast<std::size_t>(i)];
}

void Knowledge::snapshot_into(Message& out) const { out.records = records_; }

}  // namespace shlcp

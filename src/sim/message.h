// Wire format of the LOCAL simulator.
//
// The simulator runs the classic full-information protocol on a
// port-numbered, identified network: in round 1 every node announces
// (id, certificate, own port) over each incident edge; from round 2 on it
// forwards its entire knowledge base. Knowledge is a set of NodeRecords; a
// record is *complete* once it carries the node's full incident edge list
// (achieved by its owner after round 1) and *partial* while only
// (id, certificate) are known. After r rounds a node's knowledge contains
// complete records of everything within distance r - 1 and partial
// records of the distance-r boundary -- exactly the information content of
// the paper's radius-r view (Section 2.2), including the invisibility of
// edges between two boundary nodes.
//
// Records are serialized to a flat byte count so the engine can report
// message/byte totals (experiment E13).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/ids.h"
#include "graph/labeling.h"
#include "graph/ports.h"

namespace shlcp {

/// One incident edge of a node, from that node's perspective.
struct EdgeInfo {
  Port self_port = 0;  // port at the record's owner
  Ident far_id = -1;   // identifier across the edge
  Port far_port = 0;   // port at the far end

  friend bool operator==(const EdgeInfo&, const EdgeInfo&) = default;
};

/// Everything a node may know about one node of the network.
struct NodeRecord {
  Ident id = -1;
  Certificate cert;
  /// Incident edges; meaningful only when `complete`.
  std::vector<EdgeInfo> edges;
  /// True once `edges` lists the owner's full incidence.
  bool complete = false;

  friend bool operator==(const NodeRecord&, const NodeRecord&) = default;
};

/// Serialized size of a record in bytes (4 bytes per integer field; used
/// for the engine's traffic accounting, not for actual transport).
/// Computed in explicit 64-bit arithmetic; throws CheckError instead of
/// wrapping on adversarially large record shapes.
std::size_t encoded_size(const NodeRecord& record);

/// A message: a bag of records.
struct Message {
  std::vector<NodeRecord> records;

  /// Total serialized size; overflow-checked like encoded_size.
  [[nodiscard]] std::size_t byte_size() const;
};

/// A node's knowledge base: one flat vector of records, sorted by
/// identifier. Merging keeps the most complete record per identifier.
class Knowledge {
 public:
  /// Inserts or upgrades a record.
  void merge_record(const NodeRecord& record);

  /// Merges a whole message.
  void merge(const Message& message);

  /// The record for `id`, inserted as the partial record (id, cert) if
  /// absent (what merge_record does with a partial record, without
  /// building one). A node extends its own record in place in round 1.
  NodeRecord& find_or_insert(Ident id, const Certificate& cert);

  /// Record for `id`, or nullptr.
  [[nodiscard]] const NodeRecord* find(Ident id) const;

  /// Position of `id` in records(), or -1.
  [[nodiscard]] int index_of(Ident id) const;

  /// All records, sorted by identifier (deterministic iteration).
  [[nodiscard]] std::span<const NodeRecord> records() const {
    return records_;
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Reserves room for `n` records.
  void reserve(std::size_t n) { records_.reserve(n); }

  /// Overwrites `out` with a snapshot of the knowledge as a message
  /// (what full-information forwarding sends), reusing out's buffers.
  void snapshot_into(Message& out) const;

 private:
  /// Position of the first record with identifier >= id.
  [[nodiscard]] std::size_t lower_bound(Ident id) const;

  // Sorted by id; tiny sizes make a flat vector the right structure.
  std::vector<NodeRecord> records_;
};

}  // namespace shlcp

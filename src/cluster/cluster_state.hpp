// Mutable view of free/used devices during a scheduling decision. The Hadar
// DP mutates and rolls back this state along include/exclude branches, so it
// supports cheap snapshot/restore, an O(1) undo log for branch rollback, and
// an incrementally maintained hash for memoization.
//
// Layout is structure-of-arrays: alongside the dense used_[node*ntypes+type]
// counters the state maintains per-type free totals, per-node free counts,
// the cluster-wide free total, and a dense table of usable (node, type)
// slots (available node, capacity > 0). total_free_of_type()/total_free()/
// is_full() are therefore O(1) instead of full scans, and FIND_ALLOC gathers
// candidate slots from the usable table without probing dead cells.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/allocation.hpp"
#include "cluster/cluster_spec.hpp"

namespace hadar::cluster {

/// Free-capacity tracker over a ClusterSpec. Not thread-safe by design: a
/// scheduling decision is a single-threaded search.
class ClusterState {
 public:
  explicit ClusterState(const ClusterSpec* spec);

  const ClusterSpec& spec() const { return *spec_; }

  int free_count(NodeId h, GpuTypeId r) const;
  int used_count(NodeId h, GpuTypeId r) const;

  /// Whether node h is live in the underlying (possibly masked) spec.
  bool node_available(NodeId h) const { return spec_->node(h).available; }

  /// Cluster-wide free devices of type r. O(1) (maintained).
  int total_free_of_type(GpuTypeId r) const;
  /// Cluster-wide free devices across all types. O(1) (maintained).
  int total_free() const { return total_free_; }
  /// Free devices on node h across all types. O(1) (maintained).
  int node_free(NodeId h) const;
  /// The paper's gamma_h^r(t): allocated count on (h, r).
  int gamma(NodeId h, GpuTypeId r) const { return used_count(h, r); }

  bool is_full() const { return total_free_ == 0; }

  /// One (node, type) cell with capacity on a live node. `cell` indexes the
  /// dense used/capacity arrays (node * num_types + type).
  struct UsableSlot {
    NodeId node;
    GpuTypeId type;
    std::int32_t cell;
  };
  /// Dense table of usable cells, ascending (node, type). Rebuilt by clear()
  /// from the (possibly re-masked) spec; allocate/release never change it.
  const std::vector<UsableSlot>& usable_slots() const { return usable_; }
  /// Free devices in a dense cell index (no bounds check; hot path).
  int free_in_cell(std::size_t cell) const {
    return cap_[cell] - used_[cell];
  }
  /// Capacity of a dense cell index, as cached by clear() (no bounds check).
  int capacity_in_cell(std::size_t cell) const { return cap_[cell]; }

  /// Claims the placements of `alloc`. Throws std::runtime_error when
  /// capacity would be exceeded (callers must check with can_allocate()).
  void allocate(const JobAllocation& alloc);

  /// allocate() without the feasibility check, for replaying placement
  /// sequences already validated on an identical usage trajectory (the DP's
  /// branch reconstruction). Still recorded in the undo log when enabled.
  void allocate_unchecked(const JobAllocation& alloc);

  /// Releases the placements of `alloc` (exact inverse of allocate()).
  void release(const JobAllocation& alloc);

  bool can_allocate(const JobAllocation& alloc) const;

  /// Resets to all-free and re-reads the spec: cached capacities, the usable
  /// slot table, and all aggregates are rebuilt. Required because masked
  /// specs are rewritten in place on topology changes.
  void clear();

  /// Snapshot/restore for search rollback; snapshots are value types.
  using Snapshot = std::vector<int>;
  Snapshot snapshot() const { return used_; }
  void restore(const Snapshot& snap);

  // ---- undo log: O(touched cells) rollback for the DP's branch search ----
  /// Enables/disables recording. Disabling clears the log. Off by default so
  /// long-lived states (the simulator's refit state) never grow a log.
  void set_undo_enabled(bool on);
  bool undo_enabled() const { return undo_enabled_; }
  using UndoMark = std::size_t;
  /// Position in the log; pass to rollback() to revert to this point.
  UndoMark mark() const { return undo_.size(); }
  /// Reverts every mutation recorded after `m` (reverse order), restoring
  /// counters, aggregates, and the hash exactly.
  void rollback(UndoMark m);

  /// Incrementally maintained hash of the usage vector (XOR-fold of mixed
  /// per-cell terms, so updates are O(1) per touched cell and the value is
  /// independent of mutation order). Memoization key for the DP.
  std::uint64_t hash() const { return hash_; }
  /// Same hash computed from scratch on a snapshot, so the DP can key a
  /// state without restoring it first; agrees with hash() by construction.
  static std::uint64_t hash(const Snapshot& snap);

 private:
  std::size_t index(NodeId h, GpuTypeId r) const;
  /// Writes used_[cell] = v and updates aggregates + hash (not the undo log).
  void set_cell(std::size_t cell, int v);
  /// set_cell that records the previous value when undo is enabled.
  void mutate_cell(std::size_t cell, int v);

  const ClusterSpec* spec_;
  int num_nodes_ = 0;
  int num_types_ = 0;
  std::vector<int> used_;  // dense [node][type]
  std::vector<int> cap_;   // dense cached capacities (snapshot of the spec)
  std::vector<int> free_of_type_;
  std::vector<int> node_free_;
  int total_free_ = 0;
  std::uint64_t hash_ = 0;
  std::vector<UsableSlot> usable_;

  bool undo_enabled_ = false;
  std::vector<std::pair<std::uint32_t, int>> undo_;  // (cell, previous value)
};

}  // namespace hadar::cluster

// Independent per-round output checker. It re-derives every constraint a
// round's decision must satisfy from the ClusterSpec's raw per-node
// capacities and the job set the benchmark itself fed in, with its own
// arithmetic — it never calls the program's own validators:
//   - no (node, type) is used beyond its capacity;
//   - every placed job holds exactly its gang of num_workers devices;
//   - no job is placed twice;
//   - only admitted, unfinished jobs are placed.
#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/allocation.hpp"
#include "cluster/cluster_spec.hpp"

namespace perfbench {

using Placed = std::vector<std::pair<hadar::JobId, hadar::cluster::JobAllocation>>;

class AllocationChecker {
 public:
  explicit AllocationChecker(const hadar::cluster::ClusterSpec& spec);

  /// The job may be placed from now on, with a gang of `num_workers`.
  void admit(hadar::JobId id, int num_workers);
  /// The job finished: it may no longer be placed.
  void finish(hadar::JobId id);
  std::size_t live_jobs() const { return gang_.size(); }

  /// Empty when the decision is valid, else a description of the first
  /// violation found.
  std::string check(const Placed& placed) const;
  std::string check(const hadar::cluster::AllocationMap& m) const;

 private:
  int num_types_ = 0;
  std::vector<int> capacity_;  // [node * num_types + type]
  std::unordered_map<hadar::JobId, int> gang_;
  mutable std::vector<int> used_;
  mutable std::vector<std::size_t> touched_;
};

}  // namespace perfbench

#include "checker.hpp"

#include <unordered_set>

namespace perfbench {

AllocationChecker::AllocationChecker(const hadar::cluster::ClusterSpec& spec)
    : num_types_(spec.num_types()) {
  const std::size_t cells = static_cast<std::size_t>(spec.num_nodes()) * num_types_;
  capacity_.assign(cells, 0);
  used_.assign(cells, 0);
  for (int h = 0; h < spec.num_nodes(); ++h) {
    const auto& caps = spec.nodes()[static_cast<std::size_t>(h)].gpu_capacity;
    for (int r = 0; r < num_types_ && r < static_cast<int>(caps.size()); ++r) {
      capacity_[static_cast<std::size_t>(h) * num_types_ + r] = caps[static_cast<std::size_t>(r)];
    }
  }
}

void AllocationChecker::admit(hadar::JobId id, int num_workers) { gang_[id] = num_workers; }

void AllocationChecker::finish(hadar::JobId id) { gang_.erase(id); }

std::string AllocationChecker::check(const hadar::cluster::AllocationMap& m) const {
  Placed placed(m.begin(), m.end());
  return check(placed);
}

std::string AllocationChecker::check(const Placed& placed) const {
  std::string err;
  std::unordered_set<hadar::JobId> seen;
  const std::size_t cells = capacity_.size();
  for (const auto& [id, alloc] : placed) {
    if (!seen.insert(id).second) {
      err = "job " + std::to_string(id) + " placed twice";
      break;
    }
    const auto it = gang_.find(id);
    if (it == gang_.end()) {
      err = "job " + std::to_string(id) + " placed but not admitted or already finished";
      break;
    }
    long long workers = 0;
    for (const auto& p : alloc.placements()) {
      const long long cell = static_cast<long long>(p.node) * num_types_ + p.type;
      if (p.node < 0 || p.type < 0 || p.type >= num_types_ ||
          cell >= static_cast<long long>(cells)) {
        err = "job " + std::to_string(id) + " placed on an unknown node or type";
        break;
      }
      if (p.count <= 0) {
        err = "job " + std::to_string(id) + " has a non-positive placement count";
        break;
      }
      workers += p.count;
      const std::size_t c = static_cast<std::size_t>(cell);
      if (used_[c] == 0) touched_.push_back(c);
      used_[c] += p.count;
    }
    if (!err.empty()) break;
    if (workers != it->second) {
      err = "job " + std::to_string(id) + " holds " + std::to_string(workers) +
            " devices, gang is " + std::to_string(it->second);
      break;
    }
  }
  if (err.empty()) {
    for (const std::size_t c : touched_) {
      if (used_[c] > capacity_[c]) {
        err = "node " + std::to_string(c / num_types_) + " type " +
              std::to_string(c % num_types_) + " over capacity: " + std::to_string(used_[c]) +
              " > " + std::to_string(capacity_[c]);
        break;
      }
    }
  }
  for (const std::size_t c : touched_) used_[c] = 0;
  touched_.clear();
  return err;
}

}  // namespace perfbench

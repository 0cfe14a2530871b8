#include "service/daemon.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/env.hpp"
#include "obs/trace.hpp"
#include "service/snapshot.hpp"

namespace hadar::service {

namespace {

/// Rotation round encoded in a changelog file name ("...changelog_N.wal"),
/// or 0 when the name does not match (genesis).
long long rotation_round_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  long long r = 0;
  if (std::sscanf(base.c_str(), "changelog_%lld.wal", &r) == 1 && r >= 0) return r;
  return 0;
}

}  // namespace

ServiceConfig ServiceConfig::from_env() { return from_env(ServiceConfig{}); }

ServiceConfig ServiceConfig::from_env(ServiceConfig base) {
  base.dir = common::env_str("HADAR_SERVICE_DIR", base.dir);
  base.snapshot_interval = common::env_int(
      "HADAR_SERVICE_SNAPSHOT_INTERVAL", static_cast<int>(base.snapshot_interval), 0);
  base.queue_depth = static_cast<std::size_t>(common::env_int(
      "HADAR_SERVICE_QUEUE_DEPTH", static_cast<int>(base.queue_depth), 1));
  base.fsync = fsync_mode_from_env("HADAR_SERVICE_FSYNC", base.fsync);
  return base;
}

SchedulerDaemon::SchedulerDaemon(const cluster::ClusterSpec* spec,
                                 sim::SchedulerPtr scheduler, ServiceConfig cfg)
    : spec_(spec),
      cfg_(std::move(cfg)),
      scheduler_(std::move(scheduler)),
      engine_(spec_, cfg_.sim),
      queue_(cfg_.queue_depth) {
  scheduler_->reset();
  recovery_ = recover(cfg_.dir, engine_, *scheduler_);
  last_rotation_round_ = rotation_round_of(recovery_.active_changelog);
  wal_ = std::make_unique<ChangelogWriter>(recovery_.active_changelog, cfg_.fsync,
                                           /*append=*/true);
}

bool SchedulerDaemon::submit(const workload::JobSpec& job) {
  // A spec RoundEngine::admit would refuse must never reach the queue: once
  // drained it would throw out of every later run_round().
  try {
    job.validate(spec_->num_types());
  } catch (const std::invalid_argument&) {
    obs::count("service.invalid");
    return false;
  }
  return queue_.try_push(job);
}

bool SchedulerDaemon::idle() const {
  return !engine_.has_runnable() && pending_.empty() && queue_.size() == 0;
}

std::optional<sim::RoundOutcome> SchedulerDaemon::run_round() {
  HADAR_TRACE_SCOPE("service", "service.round");

  // 1. Pull new submissions into the (arrival-sorted) pending buffer.
  std::vector<workload::JobSpec> fresh = queue_.drain();
  if (!fresh.empty()) {
    pending_.insert(pending_.end(), std::make_move_iterator(fresh.begin()),
                    std::make_move_iterator(fresh.end()));
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const workload::JobSpec& a, const workload::JobSpec& b) {
                       return a.arrival < b.arrival;
                     });
  }

  // 2. Admit everything due at the current boundary; if nothing is runnable,
  // skip the idle gap to the earliest pending arrival (same policy as the
  // batch driver in Simulator::run).
  std::vector<workload::JobSpec> admitted;
  auto admit_due = [&]() {
    std::size_t n = 0;
    while (n < pending_.size() && pending_[n].arrival <= engine_.now() + 1e-9) ++n;
    for (std::size_t i = 0; i < n; ++i) {
      engine_.admit(pending_[i]);
      admitted.push_back(std::move(pending_[i]));
    }
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(n));
  };
  admit_due();
  if (!engine_.has_runnable()) {
    if (pending_.empty()) return std::nullopt;  // nothing to do at all
    engine_.skip_to(pending_.front().arrival);
    admit_due();
  }

  // 3. Execute the round, then make it durable: the record carries the
  // events admitted at this boundary, so an event is durable exactly when
  // its round commits (a crash in between loses the submission and the
  // producer must resubmit).
  RoundRecord rec;
  rec.round = engine_.rounds_completed();
  rec.start = engine_.now();
  rec.rng_before = engine_.rng_state();
  rec.admitted = std::move(admitted);
  sim::RoundOutcome out = engine_.step(*scheduler_);
  rec.rng_after = engine_.rng_state();
  rec.allocations = out.allocations;
  wal_->append(rec.encode());
  obs::count("service.rounds");

  maybe_snapshot();
  return out;
}

long long SchedulerDaemon::run_until_idle() {
  long long n = 0;
  while (run_round().has_value()) ++n;
  return n;
}

void SchedulerDaemon::maybe_snapshot() {
  if (cfg_.snapshot_interval <= 0) return;
  const long long r = engine_.rounds_completed();
  if (r - last_rotation_round_ < cfg_.snapshot_interval) return;
  HADAR_TRACE_SCOPE("service", "service.snapshot");
  write_snapshot(snapshot_path(cfg_.dir, r), engine_, *scheduler_,
                 cfg_.fsync != FsyncMode::kNone);
  // Rotate: the old changelog's rounds are folded into the snapshot; new
  // records land in a fresh file paired with it.
  if (cfg_.fsync == FsyncMode::kRotate) wal_->sync();
  wal_->close();
  wal_ = std::make_unique<ChangelogWriter>(changelog_path(cfg_.dir, r), cfg_.fsync,
                                           /*append=*/false);
  last_rotation_round_ = r;
  obs::count("service.snapshots");
}

}  // namespace hadar::service

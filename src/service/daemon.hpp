// The long-running scheduler service: an event-driven daemon that ingests
// job submissions through a bounded admission queue and drives a RoundEngine
// one round at a time with any IScheduler policy. Every executed round is
// made durable before the daemon moves on — the admitted events, RNG stream
// positions, and the allocation decision are appended to a write-ahead
// changelog — and every `snapshot_interval` rounds the full engine +
// scheduler state is snapshotted and the changelog rotated. Constructing a
// daemon over a directory with prior state runs crash recovery first
// (snapshot restore + changelog replay, see recovery.hpp), so a process kill
// at any point resumes bit-identically.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "service/admission_queue.hpp"
#include "service/changelog.hpp"
#include "service/recovery.hpp"
#include "sim/round_engine.hpp"
#include "sim/scheduler.hpp"

namespace hadar::service {

struct ServiceConfig {
  /// Durable-state directory (changelogs + snapshots). Created if missing.
  std::string dir = "hadar-service";
  /// Rounds between snapshots / changelog rotations; <= 0 disables both
  /// (one ever-growing changelog, replayed from genesis on recovery).
  long long snapshot_interval = 50;
  /// Admission-queue capacity; submissions beyond it are rejected.
  std::size_t queue_depth = 1024;
  FsyncMode fsync = FsyncMode::kNone;
  /// Engine configuration (round length, seed, failures, noise, ...).
  sim::SimConfig sim;

  /// Overlays HADAR_SERVICE_DIR / HADAR_SERVICE_SNAPSHOT_INTERVAL /
  /// HADAR_SERVICE_QUEUE_DEPTH / HADAR_SERVICE_FSYNC onto `base`.
  static ServiceConfig from_env(ServiceConfig base);
  static ServiceConfig from_env();
};

class SchedulerDaemon {
 public:
  /// Runs recovery against cfg.dir before returning: a daemon constructed
  /// over a crashed predecessor's directory (same spec/config/policy) starts
  /// exactly where the predecessor durably left off. `spec` must outlive
  /// the daemon; `scheduler` is reset() before recovery.
  SchedulerDaemon(const cluster::ClusterSpec* spec, sim::SchedulerPtr scheduler,
                  ServiceConfig cfg);

  const ServiceConfig& config() const { return cfg_; }
  const RecoveryReport& recovery() const { return recovery_; }
  const sim::RoundEngine& engine() const { return engine_; }
  sim::IScheduler& scheduler() { return *scheduler_; }
  AdmissionQueue& queue() { return queue_; }

  /// Thread-safe submission entry point. Returns false, enqueueing nothing,
  /// when the spec is invalid for this cluster (JobSpec::validate against
  /// its GPU types; counted as service.invalid) or the queue is full.
  bool submit(const workload::JobSpec& job);

  /// Submissions drained from the queue but not yet due (future arrivals).
  std::size_t pending_arrivals() const { return pending_.size(); }
  /// True when nothing is runnable, queued, or pending.
  bool idle() const;

  /// Executes one round: drains the queue, admits due arrivals, skips idle
  /// gaps to the next pending arrival, steps the scheduler, and commits the
  /// round to the changelog (snapshotting/rotating on the configured
  /// cadence). Returns std::nullopt without advancing anything when there is
  /// no work at all (idle()).
  std::optional<sim::RoundOutcome> run_round();

  /// run_round() until idle; returns the number of rounds executed.
  long long run_until_idle();

  /// Flushes and fsyncs the active changelog (e.g. before a planned stop).
  void sync() { wal_->sync(); }

  /// Aggregate metrics so far (see RoundEngine::finalize).
  sim::SimResult result(std::size_t ftf_population = 0, bool truncated = false) const {
    return engine_.finalize(ftf_population, truncated);
  }

 private:
  void maybe_snapshot();

  const cluster::ClusterSpec* spec_;
  ServiceConfig cfg_;
  sim::SchedulerPtr scheduler_;
  sim::RoundEngine engine_;
  AdmissionQueue queue_;
  RecoveryReport recovery_;
  std::unique_ptr<ChangelogWriter> wal_;
  /// Drained-but-not-due submissions, sorted by arrival (stable: equal
  /// arrivals keep submission order, matching the batch driver's trace
  /// order). NOT yet durable — durability starts at round commit.
  std::vector<workload::JobSpec> pending_;
  long long last_rotation_round_ = 0;
};

}  // namespace hadar::service

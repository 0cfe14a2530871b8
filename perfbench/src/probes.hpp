// Measurement from outside the program: forwarding decorators around the
// public scheduler and stage interfaces. They time each call and forward
// everything else (name, reset, save/restore) unchanged, so a decorated
// scheduler makes exactly the decisions of an undecorated one — the traced
// run's schedule digest checks that.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/hadar_scheduler.hpp"
#include "obs/trace.hpp"
#include "pipeline/staged_scheduler.hpp"
#include "sim/sharded.hpp"

namespace perfbench {

/// Seconds each of the five StageSet slots took in the latest schedule().
struct StageTimes {
  std::array<double, 5> last{};
  double total() const { return last[0] + last[1] + last[2] + last[3] + last[4]; }
};

/// Wraps every slot of `inner` in a timing decorator writing into `times`.
hadar::pipeline::StageSet time_stages(const hadar::pipeline::StageSet& inner,
                                      std::shared_ptr<StageTimes> times);

/// IScheduler decorator timing schedule(). Start/end are now_s() stamps.
class TimedScheduler final : public hadar::sim::IScheduler {
 public:
  /// `label` (a string literal) names the call's spans.
  explicit TimedScheduler(hadar::sim::SchedulerPtr inner,
                          const char* label = "IScheduler::schedule")
      : inner_(std::move(inner)), label_(label) {}

  std::string name() const override { return inner_->name(); }
  hadar::cluster::AllocationMap schedule(const hadar::sim::SchedulerContext& ctx) override;
  void reset() override { inner_->reset(); }
  void save_state(hadar::common::BinaryWriter& w) const override { inner_->save_state(w); }
  void restore_state(hadar::common::BinaryReader& r) override { inner_->restore_state(r); }

  double last_start() const { return start_; }
  double last_end() const { return end_; }
  double last_seconds() const { return end_ - start_; }
  long long calls() const { return calls_; }

 private:
  hadar::sim::SchedulerPtr inner_;
  const char* label_;
  double start_ = 0.0;
  double end_ = 0.0;
  long long calls_ = 0;
};

/// Handles onto one timed staged scheduler (owned by its SchedulerPtr).
struct StagedProbe {
  TimedScheduler* timed = nullptr;
  std::shared_ptr<StageTimes> stages;
  /// Set for Hadar assemblies: DP statistics and the round counter.
  std::shared_ptr<hadar::core::HadarPipelineState> hadar;
  long long seen_calls = 0;

  /// True when schedule() ran since the last call to this function.
  bool ran_since_last_look() {
    const bool ran = timed->calls() != seen_calls;
    seen_calls = timed->calls();
    return ran;
  }
  /// Whether the latest Hadar round was a full re-solve.
  bool full_resolve() const {
    return hadar && hadar->round % hadar->cfg.full_recompute_period == 0;
  }
};

/// Hadar (default config) as StagedScheduler("Hadar", make_hadar_stages)
/// with timed slots, wrapped in a TimedScheduler.
hadar::sim::SchedulerPtr make_timed_hadar(StagedProbe* probe);
/// Gavel (default config) likewise, over make_gavel_stages.
hadar::sim::SchedulerPtr make_timed_gavel(StagedProbe* probe);

/// A ShardedScheduler factory producing timed Hadar instances; keeps a
/// probe per instance (per cell, plus the unsharded passthrough one).
class CellProbes {
 public:
  hadar::sim::ShardedScheduler::Factory factory();
  /// Probes of the instances that ran since the previous call.
  std::vector<StagedProbe*> ran_this_round();

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<StagedProbe>> probes_;
};

/// Adds one round of Hadar layer samples (pipeline slots, scaffold, DP
/// states) summed over the instances that ran it — one for a flat
/// scheduler, one per cell when sharded.
void tally_hadar_round(const std::vector<StagedProbe*>& ran, LayerTally& t);

/// The counters the program already keeps, read through an installed
/// obs::TraceSession (detail 0). Nothing else of the obs API is used, so a
/// change to it touches only this class.
class ProgramCounters {
 public:
  enum Id { kFindAllocCalls, kFindAllocCandidates, kLpSolves, kWarmHits, kColdSolves,
            kDenseFallbacks, kCount };
  using Values = std::array<double, kCount>;

  ProgramCounters();
  ~ProgramCounters();
  ProgramCounters(const ProgramCounters&) = delete;
  ProgramCounters& operator=(const ProgramCounters&) = delete;

  Values read() const;
  /// Drops the spans the session recorded meanwhile (call between rounds).
  void drop_events() { session_.clear(); }

 private:
  mutable hadar::obs::TraceSession session_;
};

}  // namespace perfbench

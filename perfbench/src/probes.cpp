#include "probes.hpp"

#include "baselines/gavel.hpp"
#include "common.hpp"

namespace perfbench {

namespace pl = hadar::pipeline;

namespace {

/// Forwards the IStage surface of one slot and times its work call.
template <class Iface>
class TimedStage : public Iface {
 public:
  TimedStage(std::shared_ptr<Iface> inner, std::shared_ptr<StageTimes> times, int slot)
      : inner_(std::move(inner)), times_(std::move(times)), slot_(slot) {}

  std::string name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }
  void save_state(hadar::common::BinaryWriter& w) const override { inner_->save_state(w); }
  void restore_state(hadar::common::BinaryReader& r) override { inner_->restore_state(r); }

 protected:
  template <class Fn>
  void timed(Fn&& fn) {
    static const char* const kSlots[] = {"stage.admission", "stage.priority",
                                         "stage.allocation", "stage.placement",
                                         "stage.preemption"};
    const double t0 = now_s();
    fn(*inner_);
    const double t1 = now_s();
    times_->last[static_cast<std::size_t>(slot_)] = t1 - t0;
    span(kSlots[slot_], t0, t1);
  }

 private:
  std::shared_ptr<Iface> inner_;
  std::shared_ptr<StageTimes> times_;
  int slot_;
};

class TimedAdmission final : public TimedStage<pl::IAdmissionStage> {
 public:
  using TimedStage::TimedStage;
  void admit(pl::RoundState& rs) override {
    timed([&](pl::IAdmissionStage& s) { s.admit(rs); });
  }
};

class TimedPriority final : public TimedStage<pl::IPriorityStage> {
 public:
  using TimedStage::TimedStage;
  void prioritize(pl::RoundState& rs) override {
    timed([&](pl::IPriorityStage& s) { s.prioritize(rs); });
  }
};

class TimedAllocation final : public TimedStage<pl::IAllocationStage> {
 public:
  using TimedStage::TimedStage;
  void allocate(pl::RoundState& rs) override {
    timed([&](pl::IAllocationStage& s) { s.allocate(rs); });
  }
};

class TimedPlacement final : public TimedStage<pl::IPlacementStage> {
 public:
  using TimedStage::TimedStage;
  void place(pl::RoundState& rs) override {
    timed([&](pl::IPlacementStage& s) { s.place(rs); });
  }
};

class TimedPreemption final : public TimedStage<pl::IPreemptionStage> {
 public:
  using TimedStage::TimedStage;
  void preempt(pl::RoundState& rs) override {
    timed([&](pl::IPreemptionStage& s) { s.preempt(rs); });
  }
};

hadar::sim::SchedulerPtr make_timed_staged(const std::string& name, const pl::StageSet& set,
                                           StagedProbe* probe) {
  probe->stages = std::make_shared<StageTimes>();
  auto staged = std::make_unique<pl::StagedScheduler>(name, time_stages(set, probe->stages));
  auto timed = std::make_unique<TimedScheduler>(std::move(staged));
  probe->timed = timed.get();
  return timed;
}

}  // namespace

pl::StageSet time_stages(const pl::StageSet& inner, std::shared_ptr<StageTimes> times) {
  pl::StageSet out;
  out.admission = std::make_shared<TimedAdmission>(inner.admission, times, 0);
  out.priority = std::make_shared<TimedPriority>(inner.priority, times, 1);
  out.allocation = std::make_shared<TimedAllocation>(inner.allocation, times, 2);
  out.placement = std::make_shared<TimedPlacement>(inner.placement, times, 3);
  out.preemption = std::make_shared<TimedPreemption>(inner.preemption, times, 4);
  return out;
}

hadar::cluster::AllocationMap TimedScheduler::schedule(const hadar::sim::SchedulerContext& ctx) {
  start_ = now_s();
  hadar::cluster::AllocationMap out = inner_->schedule(ctx);
  end_ = now_s();
  ++calls_;
  span(label_, start_, end_);
  return out;
}

hadar::sim::SchedulerPtr make_timed_hadar(StagedProbe* probe) {
  const pl::StageSet set = hadar::core::make_hadar_stages({}, &probe->hadar);
  return make_timed_staged("Hadar", set, probe);
}

hadar::sim::SchedulerPtr make_timed_gavel(StagedProbe* probe) {
  return make_timed_staged("Gavel", hadar::baselines::make_gavel_stages({}), probe);
}

hadar::sim::ShardedScheduler::Factory CellProbes::factory() {
  return [this] {
    auto probe = std::make_unique<StagedProbe>();
    hadar::sim::SchedulerPtr s = make_timed_hadar(probe.get());
    std::lock_guard<std::mutex> lock(mu_);
    probes_.push_back(std::move(probe));
    return s;
  };
}

std::vector<StagedProbe*> CellProbes::ran_this_round() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StagedProbe*> out;
  for (auto& p : probes_) {
    if (p->ran_since_last_look()) out.push_back(p.get());
  }
  return out;
}

void tally_hadar_round(const std::vector<StagedProbe*>& ran, LayerTally& t) {
  if (ran.empty()) return;
  std::array<double, 5> slots{};
  double scaffold = 0.0, full = 0.0, incr = 0.0, dp_states = 0.0;
  bool any_full = false, any_incr = false;
  for (const StagedProbe* p : ran) {
    for (std::size_t i = 0; i < slots.size(); ++i) slots[i] += p->stages->last[i];
    scaffold += p->timed->last_seconds() - p->stages->total();
    if (p->full_resolve()) {
      full += p->stages->last[2];
      any_full = true;
    } else {
      incr += p->stages->last[2];
      any_incr = true;
    }
    if (p->hadar) dp_states += p->hadar->last_stats.states_explored;
  }
  t.add("pipeline.admission_ms", slots[0] * 1e3);
  t.add("pipeline.priority_ms", slots[1] * 1e3);
  t.add("pipeline.placement_ms", slots[3] * 1e3);
  t.add("pipeline.preemption_ms", slots[4] * 1e3);
  t.add("pipeline.scaffold_ms", scaffold * 1e3);
  if (any_full) t.add("pipeline.allocation_full_ms", full * 1e3);
  if (any_incr) t.add("pipeline.allocation_incr_ms", incr * 1e3);
  t.add("hadar.allocation_s", slots[2]);
  t.add("core.dp_states", dp_states);
}

ProgramCounters::ProgramCounters() : session_(hadar::obs::TraceConfig{true, 0, ""}) {
  session_.install();
}

ProgramCounters::~ProgramCounters() { session_.uninstall(); }

ProgramCounters::Values ProgramCounters::read() const {
  static const char* const kNames[kCount] = {
      "find_alloc.calls", "find_alloc.candidates_scanned", "lp.solves",
      "solver.warm_hits", "solver.cold_solves",            "lp.dense_fallbacks"};
  Values v{};
  for (int i = 0; i < kCount; ++i) {
    v[static_cast<std::size_t>(i)] =
        static_cast<double>(session_.metrics().counter(kNames[i]).value());
  }
  return v;
}

}  // namespace perfbench

#include "core/hadar_scheduler.hpp"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "common/binary.hpp"
#include "obs/trace.hpp"
#include "pipeline/stages.hpp"

namespace hadar::core {

HadarPipelineState::HadarPipelineState(HadarConfig c) : cfg(std::move(c)) {
  if (cfg.full_recompute_period < 1) cfg.full_recompute_period = 1;
}

// ------------------------------------------------------------ admission ---

void HadarAdmissionStage::admit(pipeline::RoundState& rs) {
  HadarPipelineState& s = *st_;
  const sim::SchedulerContext& ctx = *rs.ctx;
  ++s.round;

  // Optionally swap in profiled throughput estimates. The common
  // (estimator-off) configuration keeps rs.jobs pointing at the context's
  // jobs; the estimator path repoints it at a per-round clone held in the
  // shared core (storage reused across rounds).
  if (s.cfg.use_estimator) {
    if (!s.estimator_bound) {
      // bind() keeps any tracks restore_state() brought back.
      s.estimator.bind(&ctx.spec->types(), s.cfg.estimator);
      s.estimator_bound = true;
    }
    s.estimator.observe(ctx);
    s.estimated.assign(ctx.jobs.begin(), ctx.jobs.end());
    for (auto& j : s.estimated) j.throughput = s.estimator.estimate(j);
    rs.jobs = std::span<const sim::JobView>(s.estimated);
  }

  s.utility = UtilityFunction(s.cfg.utility, static_cast<double>(rs.jobs.size()));

  // ---- incremental update: pin running jobs between full recomputes ----
  const bool full_recompute = !s.cfg.sticky || (s.round % s.cfg.full_recompute_period == 0);
  rs.queue.reserve(rs.jobs.size());
  for (const auto& j : rs.jobs) {
    if (!full_recompute && !j.current_allocation.empty() &&
        rs.state->can_allocate(j.current_allocation)) {
      rs.state->allocate(j.current_allocation);
      rs.result.emplace(j.id(), j.current_allocation);
    } else {
      rs.queue.push_back(&j);
    }
  }
}

void HadarAdmissionStage::reset() {
  st_->round = 0;
  st_->estimator.reset();
  st_->estimator_bound = false;
}

void HadarAdmissionStage::save_state(common::BinaryWriter& w) const {
  w.i64(st_->round);
  st_->estimator.save(w);
}

void HadarAdmissionStage::restore_state(common::BinaryReader& r) {
  st_->round = r.i64();
  st_->estimator.restore(r);
  st_->estimator_bound = false;  // re-bind to the live registry on the next round
}

// ------------------------------------------------------------- priority ---

void HadarPricingStage::prioritize(pipeline::RoundState& rs) {
  HadarPipelineState& s = *st_;
  const sim::SchedulerContext& ctx = *rs.ctx;

  // Recompute the dual price bounds from the live queue (Eqs. 6-8).
  if (!s.prices.ready()) s.prices = PriceBook(ctx.spec->num_types(), s.cfg.pricing);
  {
    HADAR_TRACE_SCOPE("hadar", "hadar.price_bounds", 1);
    s.prices.compute_bounds(*ctx.spec, rs.jobs, ctx.now, ctx.round_length, s.utility);
  }

  // ---- objective-specific priority order (see UtilityFunction::priority) --
  // Keys are computed once per job; the comparator and so the order are
  // those of comparing priority() directly.
  std::vector<std::pair<double, const sim::JobView*>> keyed;
  keyed.reserve(rs.queue.size());
  for (const sim::JobView* j : rs.queue) keyed.emplace_back(s.utility.priority(*j, ctx.now), j);
  std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second->id() < b.second->id();
  });
  for (std::size_t i = 0; i < keyed.size(); ++i) rs.queue[i] = keyed[i].second;
}

void HadarPricingStage::reset() { st_->prices = PriceBook(); }

// ----------------------------------------------------------- allocation ---

void HadarDpStage::allocate(pipeline::RoundState& rs) {
  HadarPipelineState& s = *st_;
  DpResult dp;
  {
    obs::ScopedSpan dp_span("hadar", "hadar.dp", 1);
    if (dp_span.active()) dp_span.arg("queue", static_cast<double>(rs.queue.size()));
    dp = dp_allocation(rs.queue, *rs.state, s.prices, s.utility, rs.ctx->now,
                       rs.ctx->network, s.cfg.dp);
    if (dp_span.active()) {
      dp_span.arg("states_explored", static_cast<double>(dp.stats.states_explored));
      dp_span.arg("allocated", static_cast<double>(dp.allocs.size()));
      obs::count("hadar.dp_states", static_cast<std::uint64_t>(dp.stats.states_explored));
    }
  }
  s.last_stats = dp.stats;
  rs.proposed.reserve(dp.allocs.size());
  for (auto& [id, alloc] : dp.allocs) rs.proposed.emplace_back(id, std::move(alloc));
}

void HadarDpStage::reset() { st_->last_stats = DpStats{}; }

// ----------------------------------------------------------- preemption ---

void HadarGuardStage::preempt(pipeline::RoundState& rs) {
  HadarPipelineState& s = *st_;
  if (!s.cfg.ensure_progress || !rs.result.empty() || rs.queue.empty()) return;
  for (const sim::JobView* j : rs.queue) {
    const auto cand = find_alloc(*j, *rs.state, s.prices, s.utility, rs.ctx->now,
                                 rs.ctx->network, s.cfg.dp.find_alloc);
    if (cand) {
      rs.state->allocate(cand->alloc);
      rs.result.emplace(j->id(), cand->alloc);
      break;
    }
  }
}

// ------------------------------------------------------------- assembly ---

pipeline::StageSet hadar_stages_for(const std::shared_ptr<HadarPipelineState>& st) {
  pipeline::StageSet set;
  set.admission = std::make_shared<HadarAdmissionStage>(st);
  set.priority = std::make_shared<HadarPricingStage>(st);
  set.allocation = std::make_shared<HadarDpStage>(st);
  set.placement = std::make_shared<pipeline::GreedyPlacementStage>();
  set.preemption = std::make_shared<HadarGuardStage>(st);
  return set;
}

pipeline::StageSet make_hadar_stages(HadarConfig cfg,
                                     std::shared_ptr<HadarPipelineState>* state) {
  auto st = std::make_shared<HadarPipelineState>(std::move(cfg));
  if (state != nullptr) *state = st;
  return hadar_stages_for(st);
}

HadarScheduler::HadarScheduler(HadarConfig cfg)
    : HadarScheduler(std::make_shared<HadarPipelineState>(std::move(cfg))) {}

HadarScheduler::HadarScheduler(std::shared_ptr<HadarPipelineState> st)
    : StagedScheduler("Hadar", hadar_stages_for(st)), st_(std::move(st)) {}

}  // namespace hadar::core

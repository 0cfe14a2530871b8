#include "layers.hpp"

#include <algorithm>
#include <cmath>

#include "common/binary.hpp"

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},          {"rounds_per_s", "1/s"}, {"round_p50_ms", "ms"},
    {"round_tail_ms", "ms"},   {"recovery_s", "s"},     {"peak_rss_mb", "MB"},
    {"avg_jct_h", "sim_h"},    {"makespan_h", "sim_h"},
};

const std::vector<MetricDef> kPerLayer = {
    {"workload.trace_gen_ms", "ms"},
    {"cluster.partition_ms", "ms"},
    {"sim.admit_us", "us/job"},
    {"sim.warmup_ms", "ms"},
    {"sim.step_ms", "ms"},
    {"sim.engine_ms", "ms"},
    {"sim.shard_schedule_ms", "ms"},
    {"sim.shard_cell_ms", "ms"},
    {"sim.shard_cell_max_ms", "ms"},
    {"sim.shard_overhead_ms", "ms"},
    {"sim.shard_lane_busy", "ratio"},
    {"pipeline.admission_ms", "ms"},
    {"pipeline.priority_ms", "ms"},
    {"pipeline.allocation_full_ms", "ms"},
    {"pipeline.allocation_incr_ms", "ms"},
    {"pipeline.placement_ms", "ms"},
    {"pipeline.preemption_ms", "ms"},
    {"pipeline.scaffold_ms", "ms"},
    {"core.dp_states", "count/round"},
    {"core.find_alloc_calls", "count/round"},
    {"core.find_alloc_candidates", "count/round"},
    {"core.find_alloc_us", "us/call"},
    {"solver.gavel_allocation_ms", "ms"},
    {"solver.lp_solves", "count"},
    {"solver.warm_hits", "count"},
    {"solver.cold_solves", "count"},
    {"solver.dense_fallbacks", "count"},
    {"baselines.gavel_round_us", "us"},
    {"baselines.tiresias_round_us", "us"},
    {"baselines.yarn_round_us", "us"},
    {"service.submit_us", "us/job"},
    {"service.round_overhead_ms", "ms"},
    {"service.snapshot_round_ms", "ms"},
    {"service.wal_bytes_per_round", "B"},
    {"service.snapshot_bytes", "B"},
    {"service.replayed_rounds", "count"},
    {"service.replay_ms_per_round", "ms"},
    {"obs.trace_overhead_pct", "%"},
};

const hadar::workload::ModelZoo& paper_zoo() {
  static const hadar::workload::ModelZoo zoo = hadar::workload::ModelZoo::paper_default();
  return zoo;
}

hadar::sim::SimConfig paper_sim_config(std::uint64_t seed) {
  hadar::sim::SimConfig c;
  c.round_length = 360.0;
  c.flat_reallocation_penalty = 10.0;
  c.seed = seed;
  return c;
}

void tally_counters(ProgramCounters& counters, const ProgramCounters::Values& before,
                    bool hadar_round, LayerTally& t) {
  using C = ProgramCounters;
  const C::Values after = counters.read();
  auto delta = [&](C::Id id) {
    return after[static_cast<std::size_t>(id)] - before[static_cast<std::size_t>(id)];
  };
  if (hadar_round) {
    t.add("core.find_alloc_calls", delta(C::kFindAllocCalls));
    t.add("core.find_alloc_candidates", delta(C::kFindAllocCandidates));
  }
  t.add("solver.lp_solves", delta(C::kLpSolves));
  t.add("solver.warm_hits", delta(C::kWarmHits));
  t.add("solver.cold_solves", delta(C::kColdSolves));
  t.add("solver.dense_fallbacks", delta(C::kDenseFallbacks));
  counters.drop_events();
}

namespace {

double min_jct(const hadar::workload::JobSpec& j) {
  double x = 0.0;
  for (const double v : j.throughput) x = std::max(x, v);
  return static_cast<double>(j.epochs) * static_cast<double>(j.chunks_per_epoch) /
         (static_cast<double>(j.num_workers) * x);
}

}  // namespace

void check_min_jct(const hadar::workload::Trace& trace, const hadar::sim::SimResult& res,
                   bool require_all, Report& rep) {
  for (const auto& o : res.jobs) {
    if (o.id < 0 || static_cast<std::size_t>(o.id) >= trace.jobs.size() ||
        trace.jobs[static_cast<std::size_t>(o.id)].id != o.id) {
      rep.fail("outcome for unknown job " + std::to_string(o.id));
      continue;
    }
    if (!o.finished()) {
      if (require_all) rep.fail("job " + std::to_string(o.id) + " never finished");
      continue;
    }
    const double bound = min_jct(trace.jobs[static_cast<std::size_t>(o.id)]);
    if (o.finish - o.arrival < bound * (1.0 - 1e-9)) {
      rep.fail("job " + std::to_string(o.id) + " finished faster than its raw-field bound");
    }
  }
  if (require_all && res.jobs.size() != trace.jobs.size()) {
    rep.fail("result covers " + std::to_string(res.jobs.size()) + " of " +
             std::to_string(trace.jobs.size()) + " jobs");
  }
}

double makespan_lower_bound(const hadar::workload::Trace& trace, int total_gpus) {
  double device_seconds = 0.0;
  for (const auto& j : trace.jobs) device_seconds += j.num_workers * min_jct(j);
  return device_seconds / total_gpus;
}

void quality_of_first(const hadar::sim::SimResult& res, int count, Report& rep) {
  std::vector<const hadar::sim::JobOutcome*> done;
  for (const auto& o : res.jobs) {
    if (o.finished()) done.push_back(&o);
  }
  if (static_cast<int>(done.size()) < count) {
    rep.fail("only " + std::to_string(done.size()) + " completions, quality needs " +
             std::to_string(count));
    return;
  }
  std::sort(done.begin(), done.end(), [](const auto* a, const auto* b) {
    return a->finish != b->finish ? a->finish < b->finish : a->id < b->id;
  });
  double jct = 0.0, last = 0.0;
  for (int i = 0; i < count; ++i) {
    jct += done[static_cast<std::size_t>(i)]->jct();
    last = std::max(last, done[static_cast<std::size_t>(i)]->finish);
  }
  rep.metrics["avg_jct_h"] = jct / count / 3600.0;
  rep.metrics["makespan_h"] = last / 3600.0;
}

void layers_to_metrics(const LayerTally& t, Report& rep) {
  static const char* const kTotals[] = {"solver.lp_solves", "solver.warm_hits",
                                        "solver.cold_solves", "solver.dense_fallbacks"};
  for (const MetricDef& m : kPerLayer) {
    if (rep.metrics.count(m.name) != 0) continue;
    const bool total = std::any_of(std::begin(kTotals), std::end(kTotals),
                                   [&](const char* n) { return std::string(n) == m.name; });
    rep.metrics[m.name] = total ? t.sum(m.name) : t.mean(m.name);
  }
  const double calls = t.sum("core.find_alloc_calls");
  rep.metrics["core.find_alloc_us"] =
      calls > 0.0 ? t.sum("hadar.allocation_s") * 1e6 / calls : 0.0;
}

double time_repeated(const std::function<void()>& fn, int min_samples, double min_total_s,
                     double min_batch_s) {
  double t0 = now_s();
  fn();
  const double one = now_s() - t0;
  const int batch = static_cast<int>(
      std::clamp(std::ceil(min_batch_s / std::max(one, 1e-7)), 1.0, 1000.0));
  std::vector<double> per_call;
  double total = one;
  while (static_cast<int>(per_call.size()) < min_samples ||
         (total < min_total_s && per_call.size() < 200)) {
    t0 = now_s();
    for (int i = 0; i < batch; ++i) fn();
    const double d = now_s() - t0;
    total += d;
    per_call.push_back(d / batch);
  }
  return median(per_call);
}

Restored RestoreSampler::restore_one() const {
  Restored r = fresh_();
  r.sched->reset();
  hadar::common::BinaryReader in(image_);
  r.engine->restore(in);
  r.sched->restore_state(in);
  return r;
}

void RestoreSampler::sample() {
  double busy = 0.0;
  for (int i = 0; i < batch_; ++i) {
    last_ = Restored{};  // freed untimed, so memory holds one rebuilt pair
    const double t0 = now_s();
    last_ = restore_one();
    busy += now_s() - t0;
  }
  per_call_.push_back(busy / batch_);
}

std::string save_image(const hadar::sim::RoundEngine& engine,
                       const hadar::sim::IScheduler& sched) {
  hadar::common::BinaryWriter w;
  engine.save(w);
  sched.save_state(w);
  return w.take();
}

}  // namespace perfbench

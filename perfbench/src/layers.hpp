// The metric catalogue and the helpers the workloads share: paper inputs,
// counter tallies, schedule-quality readouts and the raw-field JCT bounds.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "probes.hpp"
#include "sim/metrics.hpp"
#include "sim/round_engine.hpp"
#include "sim/sim_config.hpp"
#include "workload/job.hpp"
#include "workload/model_zoo.hpp"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run (BENCHMARK.json "end_to_end").
extern const std::vector<MetricDef> kEndToEnd;
/// Printed by every traced run (BENCHMARK.json "per_layer"); a layer a
/// workload does not run reads 0.
extern const std::vector<MetricDef> kPerLayer;

const hadar::workload::ModelZoo& paper_zoo();
/// The paper's simulation settings: 6-minute rounds, flat 10 s
/// reallocation penalty, no noise or failures.
hadar::sim::SimConfig paper_sim_config(std::uint64_t seed);

/// Running solver totals and, for a Hadar round, the per-round deltas of
/// the find_alloc counters.
void tally_counters(ProgramCounters& counters, const ProgramCounters::Values& before,
                    bool hadar_round, LayerTally& t);

/// Fails `rep` when a finished job beat its raw-field lower bound
/// epochs * chunks_per_epoch / (num_workers * max_r throughput[r]), or — with
/// `require_all` — when any job did not finish.
void check_min_jct(const hadar::workload::Trace& trace, const hadar::sim::SimResult& res,
                   bool require_all, Report& rep);
/// Lower bound on a trace's makespan: sum of num_workers * the JCT bound
/// above, spread over every GPU.
double makespan_lower_bound(const hadar::workload::Trace& trace, int total_gpus);

/// avg_jct_h and makespan_h over the first `count` completions (by finish
/// time, ties by id): their mean JCT and the time the last of them finished.
void quality_of_first(const hadar::sim::SimResult& res, int count, Report& rep);

/// Median seconds per call of `fn`, timed in batches of at least
/// `min_batch_s` so no sample rests on one sub-millisecond interval.
double time_repeated(const std::function<void()>& fn, int min_samples = 7,
                     double min_total_s = 0.3, double min_batch_s = 0.005);

/// A simulation rebuilt from its saved image.
struct Restored {
  std::unique_ptr<hadar::sim::RoundEngine> engine;
  hadar::sim::SchedulerPtr sched;
};
/// recovery_s on the simulation workloads: the seconds to construct a fresh
/// engine + scheduler pair and restore it from a saved image
/// (RoundEngine::save then IScheduler::save_state). Each sample() is the
/// mean over a fixed batch of restores, sized per workload so a batch takes
/// 3-20 ms; the workloads sample between measured rounds so the median
/// spans the whole run rather than one moment of it. Each rebuilt pair is
/// destroyed untimed before the next restore; the newest is kept for the
/// equivalence check.
class RestoreSampler {
 public:
  RestoreSampler(std::string image, std::function<Restored()> fresh, int batch)
      : image_(std::move(image)), fresh_(std::move(fresh)), batch_(batch) {}

  void sample();
  double median_s() const { return median(per_call_); }
  Restored& last() { return last_; }

 private:
  Restored restore_one() const;

  std::string image_;
  std::function<Restored()> fresh_;
  int batch_;
  std::vector<double> per_call_;
  Restored last_;
};

/// Saves `engine` and `sched` into one image.
std::string save_image(const hadar::sim::RoundEngine& engine, const hadar::sim::IScheduler& sched);

/// Moves the tallied layer samples into rep.metrics under kPerLayer names
/// (entries a workload already set are kept).
void layers_to_metrics(const LayerTally& t, Report& rep);

}  // namespace perfbench

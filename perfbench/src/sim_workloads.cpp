// static_flat_1k and sharded_10k: Hadar over a static queue, driven one
// RoundEngine::step at a time.
#include <algorithm>
#include <limits>
#include <memory>

#include "checker.hpp"
#include "cluster/cell_partition.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/hadar_scheduler.hpp"
#include "layers.hpp"
#include "probes.hpp"
#include "sim/round_engine.hpp"
#include "sim/sharded.hpp"
#include "workload/trace_gen.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace cl = hadar::cluster;
namespace sim = hadar::sim;
namespace wl = hadar::workload;

namespace {

struct StaticParams {
  int nodes_per_type;  ///< ClusterSpec::scaled(nodes_per_type): 3 types, 4 GPUs/node
  int jobs;            ///< static queue length
  bool sharded;        ///< auto-sized cells (64 at 10k nodes)
  int quality_jobs;    ///< avg_jct_h / makespan_h cover the first this many completions
  int restore_batch;   ///< restores per recovery_s sample (about 8-20 ms)
  int setup_reps;      ///< set-ups before the window, and again after it
};

constexpr StaticParams kFlat1k{334, 10000, false, 3000, 4, 3};
constexpr StaticParams kSharded10k{3334, 2500, true, 1000, 4, 2};
/// The job set is fixed; --seed only shuffles the jobs' order and so their
/// ids (every job arrives at t=0), which moves Hadar's tie-breaks. With a
/// fresh trace per seed the round where incremental rounds turn cheap moved
/// between seeds, and round_p50_ms, whose median sat on that turn, spread
/// by 25-30 % over ten seeds.
constexpr std::uint64_t kTraceSeed = 42;

void shuffle_ids(wl::Trace& trace, std::uint64_t seed) {
  hadar::common::Rng rng(seed);
  auto& jobs = trace.jobs;
  for (std::size_t i = jobs.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(jobs[i - 1], jobs[j]);
  }
  trace.finalize();  // stable by arrival (all 0): keeps the shuffle, renumbers ids
}
constexpr int kRoundsPer10s = 60;    // see window_rounds

struct Instance {
  std::unique_ptr<cl::ClusterSpec> spec;
  wl::Trace trace;
  std::unique_ptr<sim::RoundEngine> engine;
  sim::SchedulerPtr sched;
  // Traced runs only.
  std::unique_ptr<StagedProbe> flat;
  std::unique_ptr<CellProbes> cells;
  TimedScheduler* outer = nullptr;

  double trace_gen_s = 0.0;
  double admit_s = 0.0;
  double warmup_s = 0.0;
  sim::RoundOutcome warmup;
};

sim::SchedulerPtr plain_scheduler(bool sharded) {
  if (!sharded) return std::make_unique<hadar::core::HadarScheduler>();
  sim::ShardConfig cfg;
  cfg.cells = 0;
  return std::make_unique<sim::ShardedScheduler>(
      [] { return std::make_unique<hadar::core::HadarScheduler>(); }, cfg);
}

std::unique_ptr<Instance> set_up(const StaticParams& p, const Options& o, bool traced) {
  auto in = std::make_unique<Instance>();
  in->spec = std::make_unique<cl::ClusterSpec>(cl::ClusterSpec::scaled(p.nodes_per_type));
  wl::TraceGenConfig tc;
  tc.num_jobs = p.jobs;
  tc.arrivals = wl::ArrivalPattern::kStatic;
  tc.seed = kTraceSeed;
  double t = now_s();
  in->trace = wl::TraceGenerator(&paper_zoo(), &in->spec->types()).generate(tc);
  in->trace_gen_s = now_s() - t;
  span("TraceGenerator::generate", t, t + in->trace_gen_s);
  shuffle_ids(in->trace, o.seed);

  in->engine = std::make_unique<sim::RoundEngine>(in->spec.get(), paper_sim_config(o.seed));
  t = now_s();
  for (const auto& j : in->trace.jobs) in->engine->admit(j);
  in->admit_s = now_s() - t;
  span("RoundEngine::admit (all jobs)", t, t + in->admit_s);

  if (!traced) {
    in->sched = plain_scheduler(p.sharded);
  } else if (!p.sharded) {
    in->flat = std::make_unique<StagedProbe>();
    in->sched = make_timed_hadar(in->flat.get());
    in->outer = in->flat->timed;
  } else {
    in->cells = std::make_unique<CellProbes>();
    sim::ShardConfig cfg;
    cfg.cells = 0;
    auto timed = std::make_unique<TimedScheduler>(
        std::make_unique<sim::ShardedScheduler>(in->cells->factory(), cfg),
        "ShardedScheduler::schedule");
    in->outer = timed.get();
    in->sched = std::move(timed);
  }
  in->sched->reset();

  t = now_s();
  in->warmup = in->engine->step(*in->sched);
  in->warmup_s = now_s() - t;
  span("RoundEngine::step (warm-up)", t, t + in->warmup_s);
  return in;
}

void tally_shards(const std::vector<StagedProbe*>& ran, double shard_s, int threads,
                  LayerTally& t) {
  double sum = 0.0, slowest = 0.0;
  double first = std::numeric_limits<double>::infinity();
  double last = -first;
  for (const StagedProbe* p : ran) {
    sum += p->timed->last_seconds();
    slowest = std::max(slowest, p->timed->last_seconds());
    first = std::min(first, p->timed->last_start());
    last = std::max(last, p->timed->last_end());
  }
  const double span = ran.empty() ? 0.0 : last - first;
  t.add("sim.shard_schedule_ms", shard_s * 1e3);
  t.add("sim.shard_cell_ms", sum * 1e3);
  t.add("sim.shard_cell_max_ms", slowest * 1e3);
  t.add("sim.shard_overhead_ms", (shard_s - span) * 1e3);
  if (span > 0.0) t.add("sim.shard_lane_busy", sum / (threads * span));
}

Report run_static(const StaticParams& p, const Options& o, bool traced, long long rounds) {
  Report rep;
  LayerTally layers;
  std::vector<double> setups;
  std::unique_ptr<Instance> in;
  const int reps = traced ? 1 : p.setup_reps;
  for (int i = 0; i < reps; ++i) {
    in.reset();  // free the previous set-up first so peak memory is one instance
    const double t0 = now_s();
    in = set_up(p, o, traced);
    setups.push_back(now_s() - t0);
  }
  layers.add("workload.trace_gen_ms", in->trace_gen_s * 1e3);
  layers.add("sim.admit_us", in->admit_s * 1e6 / p.jobs);
  layers.add("sim.warmup_ms", in->warmup_s * 1e3);
  if (traced && p.sharded) {
    const int k = cl::auto_cells(in->spec->num_nodes());
    const double partition_s = time_repeated(
        [&] {
          const double t0 = now_s();
          cl::partition_cells(*in->spec, k);
          span("cluster::partition_cells", t0, now_s());
        },
        3, 0.0);
    layers.add("cluster.partition_ms", partition_s * 1e3);
    in->cells->ran_this_round();  // the warm-up round is not a sample
  }

  AllocationChecker checker(*in->spec);
  for (const auto& j : in->trace.jobs) checker.admit(j.id, j.num_workers);
  Digest digest;
  auto verify = [&](const sim::RoundOutcome& out) {
    const std::string err = checker.check(out.allocations);
    if (!err.empty()) rep.fail("round " + std::to_string(out.round) + ": " + err);
    for (const hadar::JobId id : out.finished) checker.finish(id);
    digest.add_round(out.round, out.allocations);
    ++rep.attempted;
  };
  verify(in->warmup);

  // recovery_s: rebuild the post-warm-up engine + scheduler from their
  // image, sampled before every full re-solve of the window.
  std::unique_ptr<RestoreSampler> restore;
  if (!traced) {
    restore = std::make_unique<RestoreSampler>(save_image(*in->engine, *in->sched), [&] {
      return Restored{
          std::make_unique<sim::RoundEngine>(in->spec.get(), paper_sim_config(o.seed)),
          plain_scheduler(p.sharded)};
    }, p.restore_batch);
  }
  hadar::cluster::AllocationMap first_measured;

  std::unique_ptr<ProgramCounters> counters;
  if (traced) counters = std::make_unique<ProgramCounters>();
  const int threads = hadar::common::ThreadPool::configured_concurrency();
  const long long target =
      rounds > 0 ? rounds : window_rounds(kRoundsPer10s, o.seconds, kPeriod);
  std::vector<double> samples;
  while (static_cast<long long>(samples.size()) < target) {
    if (!in->engine->has_runnable()) {
      rep.fail("static queue drained inside the measured window");
      break;
    }
    ProgramCounters::Values c0{};
    if (counters) c0 = counters->read();
    const double t0 = now_s();
    const sim::RoundOutcome out = in->engine->step(*in->sched);
    const double dt = now_s() - t0;
    span("RoundEngine::step", t0, t0 + dt);
    samples.push_back(dt);
    if (traced) {
      const double sched_s = in->outer->last_seconds();
      layers.add("sim.step_ms", dt * 1e3);
      layers.add("sim.engine_ms", (dt - sched_s) * 1e3);
      if (p.sharded) {
        const std::vector<StagedProbe*> ran = in->cells->ran_this_round();
        tally_shards(ran, sched_s, threads, layers);
        tally_hadar_round(ran, layers);
      } else {
        tally_hadar_round({in->flat.get()}, layers);
      }
      tally_counters(*counters, c0, /*hadar_round=*/true, layers);
    }
    verify(out);
    if (samples.size() == 1) first_measured = out.allocations;
    // The warm-up was Hadar's round 1, so the next round is a full
    // re-solve when samples + 2 is a multiple of the period.
    if (restore && (samples.size() + 2) % kPeriod == 0) restore->sample();
  }
  counters.reset();
  rep.measured_rounds = static_cast<long long>(samples.size());
  rep.digest = digest.value();

  const sim::SimResult res = in->engine->finalize();
  check_min_jct(in->trace, res, /*require_all=*/false, rep);
  quality_of_first(res, p.quality_jobs, rep);

  double busy = 0.0;
  for (const double s : samples) busy += s;
  rep.metrics["rounds_per_s"] = static_cast<double>(samples.size()) / busy;
  rep.metrics["round_p50_ms"] = median(samples) * 1e3;
  rep.metrics["round_tail_ms"] = tail_value(samples) * 1e3;
  rep.metrics["peak_rss_mb"] = peak_rss_mb();

  if (restore) {
    rep.metrics["recovery_s"] = restore->median_s();
    // A restored pair must make the decision the live pair made next.
    Restored& back = restore->last();
    if (back.engine->step(*back.sched).allocations != first_measured) {
      rep.fail("engine restored from its saved image diverged from the live engine");
    }
  }
  if (!traced) {
    // As many set-ups again after the window: within one run they moved as
    // much as between runs (0.28-0.31 s before the window, 0.31-0.41 s
    // after it), so the median spans the run, not its first seconds.
    restore.reset();
    in.reset();
    for (int i = 0; i < reps; ++i) {
      const double t0 = now_s();
      const auto late = set_up(p, o, false);
      setups.push_back(now_s() - t0);
    }
  }
  rep.metrics["setup_s"] = median(setups);
  if (traced) layers_to_metrics(layers, rep);
  return rep;
}

}  // namespace

Report run_static_flat(const Options& opts, bool traced, long long rounds) {
  return run_static(kFlat1k, opts, traced, rounds);
}

Report run_sharded(const Options& opts, bool traced, long long rounds) {
  return run_static(kSharded10k, opts, traced, rounds);
}

}  // namespace perfbench

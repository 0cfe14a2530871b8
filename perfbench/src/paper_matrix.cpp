// paper_matrix: Hadar, Gavel, Tiresias and YARN-CS each run to completion on
// the paper's static and continuous (60 jobs/h) traces of 480 jobs on the
// 15-node / 60-GPU cluster. The driver loop mirrors Simulator::run (admit
// due arrivals, skip idle gaps, step) so every round can be timed and
// checked. The inputs are the paper's seed-42 traces whatever --seed is:
// with a fresh trace per seed, the 11th-slowest Hadar round (round_tail_ms)
// spread by 27 % over five seeds, more than any bound the benchmark may
// set. A run repeats the whole matrix once per 20 s of --seconds, at least
// once.
#include <algorithm>
#include <memory>
#include <optional>

#include "baselines/gavel.hpp"
#include "baselines/tiresias.hpp"
#include "baselines/yarn_cs.hpp"
#include "checker.hpp"
#include "core/hadar_scheduler.hpp"
#include "layers.hpp"
#include "probes.hpp"
#include "runner/scenarios.hpp"
#include "sim/round_engine.hpp"
#include "workload/trace_gen.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace rn = hadar::runner;
namespace sim = hadar::sim;
namespace wl = hadar::workload;

namespace {

constexpr int kJobs = 480;
constexpr double kJobsPerHour = 60.0;
constexpr std::uint64_t kTraceSeed = 42;
constexpr int kSetupBatches = 8;  // before the matrix, and again after it
constexpr int kSetupBatch = 10;  // about 6 ms of set-ups per batch
/// The first pass saves the Hadar static simulation after this many
/// rounds; recovery_s restores that image once every kRestoreEvery rounds
/// (of any simulation) from then on, so its samples span the pass.
constexpr long long kImageRound = 200;
constexpr long long kRestoreEvery = 250;
constexpr int kRestoreBatch = 16;  // about 3 ms of restores per sample

enum class Policy { kHadar, kGavel, kTiresias, kYarn };
constexpr Policy kPolicies[] = {Policy::kHadar, Policy::kGavel, Policy::kTiresias, Policy::kYarn};

struct Inputs {
  rn::ExperimentConfig statik;
  rn::ExperimentConfig continuous;
};

Inputs make_inputs() {
  return {rn::paper_static(kJobs, kTraceSeed),
          rn::paper_continuous(kJobsPerHour, kJobs, kTraceSeed)};
}

sim::SchedulerPtr plain(Policy p) {
  switch (p) {
    case Policy::kHadar: return std::make_unique<hadar::core::HadarScheduler>();
    case Policy::kGavel: return std::make_unique<hadar::baselines::GavelScheduler>();
    case Policy::kTiresias: return std::make_unique<hadar::baselines::TiresiasScheduler>();
    case Policy::kYarn: return std::make_unique<hadar::baselines::YarnCsScheduler>();
  }
  return nullptr;
}

/// One simulation's scheduler plus the handles traced runs read.
struct Sched {
  sim::SchedulerPtr ptr;
  std::unique_ptr<StagedProbe> staged;  // Hadar / Gavel, traced
  TimedScheduler* timed = nullptr;      // every policy, traced
};

Sched make_sched(Policy p, bool traced) {
  Sched s;
  if (!traced) {
    s.ptr = plain(p);
  } else if (p == Policy::kHadar || p == Policy::kGavel) {
    s.staged = std::make_unique<StagedProbe>();
    s.ptr = p == Policy::kHadar ? make_timed_hadar(s.staged.get())
                                : make_timed_gavel(s.staged.get());
    s.timed = s.staged->timed;
  } else {
    auto t = std::make_unique<TimedScheduler>(plain(p));
    s.timed = t.get();
    s.ptr = std::move(t);
  }
  return s;
}

/// Everything the matrix accumulates across its simulations.
struct Tally {
  std::vector<double> hadar_rounds;  // step seconds, Hadar rounds only
  double busy = 0.0;                 // timed driver seconds, all policies
  long long rounds = 0;
  Digest digest;
  LayerTally layers;
  // First pass: the Hadar static image and the decision that followed it.
  std::unique_ptr<RestoreSampler> restore;
  hadar::cluster::AllocationMap after_image;
};

const char* round_metric(Policy p) {
  switch (p) {
    case Policy::kGavel: return "baselines.gavel_round_us";
    case Policy::kTiresias: return "baselines.tiresias_round_us";
    case Policy::kYarn: return "baselines.yarn_round_us";
    case Policy::kHadar: break;
  }
  return nullptr;
}

/// Runs one policy over one experiment to completion, timing and checking
/// every round.
sim::SimResult simulate(const rn::ExperimentConfig& exp, Policy policy, bool traced,
                        bool take_image, ProgramCounters* counters, Tally& t, Report& rep) {
  const auto& trace = exp.trace.jobs;
  Sched s = make_sched(policy, traced);
  s.ptr->reset();
  sim::RoundEngine engine(&exp.spec, exp.sim);
  AllocationChecker checker(exp.spec);

  std::size_t next = 0;
  while (next < trace.size() || engine.unfinished_admitted() > 0) {
    const std::size_t first_new = next;
    const double t0 = now_s();
    while (next < trace.size() && trace[next].arrival <= engine.now() + 1e-9) {
      engine.admit(trace[next]);
      ++next;
    }
    if (!engine.has_runnable()) {
      if (next >= trace.size()) break;
      engine.skip_to(trace[next].arrival);
      t.busy += now_s() - t0;
      continue;
    }
    ProgramCounters::Values c0{};
    if (counters) c0 = counters->read();
    const double ts = now_s();
    const sim::RoundOutcome out = engine.step(*s.ptr);
    const double te = now_s();
    span("RoundEngine::step", ts, te);
    t.busy += te - t0;
    ++t.rounds;

    for (std::size_t i = first_new; i < next; ++i) checker.admit(trace[i].id, trace[i].num_workers);
    if (policy == Policy::kHadar) t.hadar_rounds.push_back(te - ts);
    if (traced) {
      if (policy == Policy::kHadar) {
        t.layers.add("sim.step_ms", (te - ts) * 1e3);
        t.layers.add("sim.engine_ms", (te - ts - s.timed->last_seconds()) * 1e3);
        tally_hadar_round({s.staged.get()}, t.layers);
      } else {
        t.layers.add(round_metric(policy), s.timed->last_seconds() * 1e6);
        if (policy == Policy::kGavel) {
          t.layers.add("solver.gavel_allocation_ms", s.staged->stages->last[2] * 1e3);
        }
      }
      tally_counters(*counters, c0, policy == Policy::kHadar, t.layers);
    }
    const std::string err = checker.check(out.allocations);
    if (!err.empty()) rep.fail(s.ptr->name() + " round " + std::to_string(out.round) + ": " + err);
    for (const hadar::JobId id : out.finished) checker.finish(id);
    t.digest.add_round(out.round, out.allocations);

    // Every job of the static trace arrives at t=0, so replaying from the
    // image needs no admissions.
    if (take_image) {
      if (engine.rounds_completed() == kImageRound) {
        t.restore = std::make_unique<RestoreSampler>(save_image(engine, *s.ptr), [&exp] {
          return Restored{std::make_unique<sim::RoundEngine>(&exp.spec, exp.sim),
                          plain(Policy::kHadar)};
        }, kRestoreBatch);
      } else if (engine.rounds_completed() == kImageRound + 1) {
        t.after_image = out.allocations;
      }
    }
    if (t.restore && !traced && t.rounds % kRestoreEvery == 0) t.restore->sample();
  }

  const sim::SimResult res = engine.finalize(trace.size(), false);
  check_min_jct(exp.trace, res, /*require_all=*/true, rep);
  const double bound = makespan_lower_bound(exp.trace, exp.spec.total_gpus());
  if (res.makespan < bound * (1.0 - 1e-9)) {
    rep.fail(s.ptr->name() + " makespan below the work-conserving lower bound");
  }
  return res;
}

}  // namespace

Report run_paper_matrix(const Options& o, bool traced, long long rounds) {
  Report rep;
  // A set-up takes about half a millisecond, so setup_s is the median of
  // batch means, never one sub-millisecond interval. The batches are fixed
  // in number and size, so the heap history that recovery_s restores into
  // does not depend on how fast they ran. Half run after the matrix: batch
  // means taken only at the start read 0.38-0.44 ms in some runs and
  // 0.56-0.63 ms in others.
  std::optional<Inputs> in;
  std::vector<double> setups;
  auto set_up_batches = [&](int batches) {
    for (int b = 0; b < batches; ++b) {
      const double t0 = now_s();
      for (int i = 0; i < kSetupBatch; ++i) {
        in = make_inputs();
        for (const Policy p : kPolicies) make_sched(p, traced).ptr->reset();
      }
      setups.push_back((now_s() - t0) / kSetupBatch);
    }
  };
  set_up_batches(kSetupBatches);

  std::unique_ptr<ProgramCounters> counters;
  if (traced) counters = std::make_unique<ProgramCounters>();
  Tally t;
  long long passes = 0;
  const long long target =
      rounds > 0 ? rounds : std::max(1LL, static_cast<long long>(o.seconds / 20.0));
  do {
    const bool first = passes == 0;
    for (const Policy p : kPolicies) {
      const bool image = first && p == Policy::kHadar;
      const sim::SimResult st = simulate(in->statik, p, traced, image, counters.get(), t, rep);
      const sim::SimResult ct = simulate(in->continuous, p, traced, false, counters.get(), t, rep);
      rep.attempted += 2;
      if (first && p == Policy::kHadar) {
        double jct = 0.0;
        for (const auto* r : {&st, &ct}) {
          for (const auto& j : r->jobs) jct += j.jct();
        }
        rep.metrics["avg_jct_h"] = jct / (2.0 * kJobs) / 3600.0;
        rep.metrics["makespan_h"] = st.makespan / 3600.0;
      }
    }
    ++passes;
  } while (passes < target);
  counters.reset();
  if (traced) {
    // The generator behind runner::paper_static / paper_continuous.
    wl::TraceGenConfig st;
    st.num_jobs = kJobs;
    st.seed = kTraceSeed;
    wl::TraceGenConfig ct = st;
    ct.arrivals = wl::ArrivalPattern::kContinuous;
    ct.jobs_per_hour = kJobsPerHour;
    const wl::TraceGenerator gen(&paper_zoo(), &in->statik.spec.types());
    const double gen_s = time_repeated([&] {
      const double t0 = now_s();
      gen.generate(st);
      gen.generate(ct);
      span("TraceGenerator::generate (both traces)", t0, now_s());
    });
    t.layers.add("workload.trace_gen_ms", gen_s * 1e3);
  }
  rep.measured_rounds = passes;
  rep.digest = t.digest.value();

  rep.metrics["rounds_per_s"] = static_cast<double>(t.rounds) / t.busy;
  rep.metrics["round_p50_ms"] = median(t.hadar_rounds) * 1e3;
  rep.metrics["round_tail_ms"] = tail_value(t.hadar_rounds) * 1e3;
  rep.metrics["peak_rss_mb"] = peak_rss_mb();

  if (!traced) {
    // A pair rebuilt from the image must make the decision that followed it.
    if (!t.restore) {
      rep.fail("the Hadar static simulation ended before its recovery image");
    } else {
      rep.metrics["recovery_s"] = t.restore->median_s();
      Restored& back = t.restore->last();
      if (back.engine->step(*back.sched).allocations != t.after_image) {
        rep.fail("Hadar restored from its image diverged from the live simulation");
      }
    }
    set_up_batches(kSetupBatches);
  }
  rep.metrics["setup_s"] = median(setups);
  if (traced) layers_to_metrics(t.layers, rep);
  return rep;
}

}  // namespace perfbench

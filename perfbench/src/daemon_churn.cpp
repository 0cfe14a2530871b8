// daemon_churn: a durable SchedulerDaemon (flat Hadar, changelog fsync none,
// snapshots every 50 rounds) on 102 nodes under Poisson arrivals at 30
// jobs/h. One producer submits each round's due jobs, then calls
// run_round(). Every 50-round interval ends 45 rounds after a snapshot; there,
// outside the timed rounds, the live directory is copied as a simulated
// crash and a daemon is recovered from the copy (timed), and the eight
// malformed-submission probes run. The daemon recovered at the last
// interval must then make the live daemon's next decisions.
#include <filesystem>
#include <limits>
#include <memory>

#include "checker.hpp"
#include "common/rng.hpp"
#include "core/hadar_scheduler.hpp"
#include "layers.hpp"
#include "probes.hpp"
#include "service/daemon.hpp"
#include "workload/trace_gen.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace cl = hadar::cluster;
namespace fs = std::filesystem;
namespace sim = hadar::sim;
namespace svc = hadar::service;
namespace wl = hadar::workload;

namespace {

constexpr int kNodesPerType = 34;        // 102 nodes, 408 GPUs
constexpr double kJobsPerHour = 30.0;    // ~3 arrivals per 6-minute round
constexpr long long kSnapshotEvery = 50;
constexpr long long kCrashOffset = 45;   // rounds after the last snapshot
constexpr int kSetupReps = 3;  // before the window, and again after it
constexpr int kVerifyRounds = 5;
constexpr int kQualityJobs = 300;
constexpr int kRoundsPer10s = 600;
constexpr int kProbes = 8;
/// The arrival stream is fixed; --seed sets its phase against the round
/// clock (an offset in [0, one round) added to every arrival), so every
/// seed sees the same jobs admitted at slightly different boundaries.
constexpr std::uint64_t kStreamSeed = 42;

svc::ServiceConfig service_config(const std::string& dir, std::uint64_t seed) {
  svc::ServiceConfig c;
  c.dir = dir;
  c.snapshot_interval = kSnapshotEvery;
  c.queue_depth = 1 << 16;
  c.fsync = svc::FsyncMode::kNone;
  c.sim = paper_sim_config(seed);
  return c;
}

/// One producer + daemon pair. The producer submits every stream job whose
/// arrival is due at the daemon's current boundary (or, when the daemon has
/// nothing at all, the next job, so run_round() skips the idle gap).
struct Live {
  std::unique_ptr<cl::ClusterSpec> spec;
  std::unique_ptr<wl::TraceStream> stream;
  std::unique_ptr<svc::SchedulerDaemon> daemon;
  StagedProbe probe;  // traced runs only
  double phase = 0.0;  // seconds added to every arrival
  wl::JobSpec next;
  std::vector<wl::JobSpec> submitted;
  std::vector<double> submit_s;

  void submit_due(Report& rep) {
    const double now = daemon->engine().now();
    bool any = daemon->idle();
    while (next.arrival <= now + 1e-9 || any) {
      any = false;
      const double t0 = now_s();
      const bool ok = daemon->submit(next);
      const double t1 = now_s();
      submit_s.push_back(t1 - t0);
      span("SchedulerDaemon::submit", t0, t1);
      if (!ok) rep.fail("admission queue refused a valid job");
      submitted.push_back(next);
      pull();
    }
  }

  void pull() {
    next = stream->next();
    next.arrival += phase;
  }
};

sim::SchedulerPtr daemon_scheduler(bool traced, StagedProbe* probe) {
  if (traced) return make_timed_hadar(probe);
  return std::make_unique<hadar::core::HadarScheduler>();
}

wl::TraceGenConfig arrivals(int num_jobs) {
  wl::TraceGenConfig tc;
  tc.num_jobs = num_jobs;
  tc.arrivals = wl::ArrivalPattern::kContinuous;
  tc.jobs_per_hour = kJobsPerHour;
  tc.seed = kStreamSeed;
  return tc;
}

std::unique_ptr<Live> set_up(const Options& o, const std::string& dir, bool traced) {
  auto lv = std::make_unique<Live>();
  lv->spec = std::make_unique<cl::ClusterSpec>(cl::ClusterSpec::scaled(kNodesPerType));
  lv->stream = std::make_unique<wl::TraceStream>(&paper_zoo(), &lv->spec->types(),
                                                 arrivals(0));
  lv->phase = hadar::common::Rng(o.seed).uniform(0.0, paper_sim_config(o.seed).round_length);
  lv->pull();
  lv->daemon = std::make_unique<svc::SchedulerDaemon>(
      lv->spec.get(), daemon_scheduler(traced, &lv->probe), service_config(dir, o.seed));
  return lv;
}

/// The eight malformed specs: one zero-worker gang, seven non-finite fields.
/// Built from a fixed template, independent of --seed.
std::vector<wl::JobSpec> malformed_specs(const wl::JobSpec& valid) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<wl::JobSpec> out(kProbes, valid);
  out[0].num_workers = 0;
  out[1].arrival = nan;
  out[2].arrival = inf;
  out[3].throughput[0] = nan;
  out[4].throughput[0] = inf;
  out[5].checkpoint_save = -inf;
  out[6].checkpoint_load = nan;
  out[7].model_size_mb = inf;
  for (int i = 0; i < kProbes; ++i) out[static_cast<std::size_t>(i)].id = 1000 + i;
  return out;
}

/// One probe: a throwaway daemon serving two valid jobs receives `bad`. It
/// succeeds when the spec is refused and the next rounds still serve the
/// valid jobs.
bool probe_refuses(const wl::JobSpec& bad, const std::vector<wl::JobSpec>& valid,
                   const cl::ClusterSpec& spec, const std::string& dir) {
  fs::remove_all(dir);
  svc::ServiceConfig cfg = service_config(dir, 7);
  cfg.snapshot_interval = 0;
  svc::SchedulerDaemon d(&spec, std::make_unique<hadar::core::HadarScheduler>(), cfg);
  for (const auto& j : valid) d.submit(j);
  try {
    if (!d.run_round()) return false;
    const bool refused = !d.submit(bad);
    for (int r = 0; r < 2; ++r) {
      const auto out = d.run_round();
      if (!out || out->allocations.empty()) return false;
      for (const auto& [id, a] : out->allocations) {
        if (id >= 1000) return false;
      }
    }
    return refused;
  } catch (const std::exception&) {
    return false;
  }
}

bool same_result(const sim::SimResult& a, const sim::SimResult& b) {
  if (a.jobs.size() != b.jobs.size() || a.rounds != b.rounds || a.makespan != b.makespan ||
      a.avg_jct != b.avg_jct || a.total_preemptions != b.total_preemptions ||
      a.total_reallocations != b.total_reallocations || a.gpu_utilization != b.gpu_utilization) {
    return false;
  }
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const auto& x = a.jobs[i];
    const auto& y = b.jobs[i];
    if (x.id != y.id || x.arrival != y.arrival || x.first_start != y.first_start ||
        x.finish != y.finish || x.gpu_seconds != y.gpu_seconds || x.rounds_run != y.rounds_run ||
        x.preemptions != y.preemptions || x.reallocations != y.reallocations) {
      return false;
    }
  }
  return true;
}

/// Total size of the changelog files in `dir`.
std::uintmax_t changelog_bytes(const fs::path& dir) {
  std::uintmax_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().rfind("changelog_", 0) == 0) total += e.file_size();
  }
  return total;
}

}  // namespace

Report run_daemon_churn(const Options& o, bool traced, long long rounds) {
  Report rep;
  LayerTally layers;
  const fs::path root = fs::path(o.scratch_dir) / (traced ? "daemon-traced" : "daemon");
  fs::remove_all(root);
  fs::create_directories(root);

  // ---- set-up: daemon construction + kCrashOffset warm-up rounds ----
  std::vector<double> setups;
  auto timed_set_up = [&](const std::string& dir, std::vector<sim::RoundOutcome>* warm) {
    const double t0 = now_s();
    auto live = set_up(o, dir, traced);
    while (live->daemon->engine().rounds_completed() < kCrashOffset) {
      live->submit_due(rep);
      auto out = live->daemon->run_round();
      if (!out) {
        rep.fail("daemon idle during warm-up");
        break;
      }
      if (warm != nullptr) warm->push_back(std::move(*out));
    }
    setups.push_back(now_s() - t0);
    return live;
  };
  std::unique_ptr<Live> lv;
  const int reps = traced ? 1 : kSetupReps;
  std::string live_dir;
  std::vector<sim::RoundOutcome> warm;
  for (int i = 0; i < reps; ++i) {
    lv.reset();
    if (!live_dir.empty()) fs::remove_all(live_dir);
    live_dir = (root / ("live-" + std::to_string(i))).string();
    warm.clear();
    lv = timed_set_up(live_dir, &warm);
  }

  // Jobs become placeable once submitted and due at a round's start.
  AllocationChecker checker(*lv->spec);
  std::size_t admitted = 0;
  Digest digest;
  auto verify = [&](const sim::RoundOutcome& out) {
    while (admitted < lv->submitted.size() &&
           lv->submitted[admitted].arrival <= out.start + 1e-9) {
      checker.admit(lv->submitted[admitted].id, lv->submitted[admitted].num_workers);
      ++admitted;
    }
    const std::string err = checker.check(out.allocations);
    if (!err.empty()) rep.fail("daemon round " + std::to_string(out.round) + ": " + err);
    for (const hadar::JobId id : out.finished) checker.finish(id);
    digest.add_round(out.round, out.allocations);
  };
  for (const auto& out : warm) verify(out);

  // ---- measured window: whole snapshot intervals, then the crash ----
  wl::TraceGenConfig probe_tc;
  probe_tc.num_jobs = 2;
  probe_tc.seed = 7;
  const cl::ClusterSpec probe_spec = cl::ClusterSpec::simulation_default();
  const wl::Trace probe_valid =
      wl::TraceGenerator(&paper_zoo(), &probe_spec.types()).generate(probe_tc);
  const std::vector<wl::JobSpec> bad = malformed_specs(probe_valid.jobs[0]);

  std::unique_ptr<ProgramCounters> counters;
  if (traced) counters = std::make_unique<ProgramCounters>();
  std::vector<double> samples;
  std::vector<double> recoveries;
  std::unique_ptr<svc::SchedulerDaemon> recovered;
  double busy = 0.0;
  const std::size_t submit_mark = lv->submit_s.size();
  const long long target =
      rounds > 0 ? rounds : window_rounds(kRoundsPer10s, o.seconds, kSnapshotEvery);
  long long n = 0;
  while (n < target) {
    const double s0 = now_s();
    lv->submit_due(rep);
    const double s1 = now_s();
    ProgramCounters::Values c0{};
    if (counters) c0 = counters->read();
    const double t0 = now_s();
    const auto out = lv->daemon->run_round();
    const double dt = now_s() - t0;
    span("SchedulerDaemon::run_round", t0, t0 + dt);
    if (!out) {
      rep.fail("daemon idle inside the measured window");
      break;
    }
    samples.push_back(dt);
    busy += dt + (s1 - s0);
    if (traced) {
      const double overhead = dt - lv->probe.timed->last_seconds();
      layers.add("service.round_overhead_ms", overhead * 1e3);
      if (lv->daemon->engine().rounds_completed() % kSnapshotEvery == 0) {
        layers.add("service.snapshot_round_ms", overhead * 1e3);
      }
      tally_hadar_round({&lv->probe}, layers);
      tally_counters(*counters, c0, /*hadar_round=*/true, layers);
    }
    verify(*out);
    ++n;
    if (n % kSnapshotEvery == 0) {
      // One interval done, 45 rounds after its snapshot: crash and recover.
      recovered.reset();
      const fs::path copy = root / "crash";
      fs::remove_all(copy);
      fs::copy(live_dir, copy, fs::copy_options::recursive);
      const double r0 = now_s();
      recovered = std::make_unique<svc::SchedulerDaemon>(
          lv->spec.get(), std::make_unique<hadar::core::HadarScheduler>(),
          service_config(copy.string(), o.seed));
      recoveries.push_back(now_s() - r0);
      span("service::recover (SchedulerDaemon over the crashed directory)", r0,
           recoveries.back() + r0);
      const svc::RecoveryReport& rr = recovered->recovery();
      if (rr.replayed_rounds != kCrashOffset) {
        rep.fail("recovery replayed " + std::to_string(rr.replayed_rounds) +
                 " rounds, expected " + std::to_string(kCrashOffset));
      }
      layers.add("service.replayed_rounds", static_cast<double>(rr.replayed_rounds));
      layers.add("service.replay_ms_per_round", rr.seconds * 1e3 / kCrashOffset);
      // The interval's 50 rounds plus the eight probes.
      rep.attempted += kSnapshotEvery + kProbes;
      for (const auto& b : bad) {
        if (!probe_refuses(b, probe_valid.jobs, probe_spec, (root / "probe").string())) {
          ++rep.failed;
        }
      }
    }
  }
  counters.reset();
  fs::remove_all(root / "probe");
  rep.measured_rounds = n;
  rep.digest = digest.value();

  const sim::SimResult res = lv->daemon->result();
  check_min_jct(wl::Trace{lv->submitted}, res, /*require_all=*/false, rep);
  quality_of_first(res, kQualityJobs, rep);
  const double rounds_done = static_cast<double>(lv->daemon->engine().rounds_completed());
  layers.add("service.wal_bytes_per_round",
             static_cast<double>(changelog_bytes(live_dir)) / rounds_done);
  const long long last_snapshot =
      lv->daemon->engine().rounds_completed() / kSnapshotEvery * kSnapshotEvery;
  layers.add("service.snapshot_bytes",
             static_cast<double>(fs::file_size(svc::snapshot_path(live_dir, last_snapshot))));
  if (traced) {
    // The generator behind the arrival stream, for as many jobs as arrived.
    const wl::TraceGenConfig tc = arrivals(static_cast<int>(lv->submitted.size()));
    const wl::TraceGenerator gen(&paper_zoo(), &lv->spec->types());
    const double gen_s = time_repeated(
        [&] {
          const double t0 = now_s();
          gen.generate(tc);
          span("TraceGenerator::generate", t0, now_s());
        },
        3, 0.0);
    layers.add("workload.trace_gen_ms", gen_s * 1e3);
  }
  for (std::size_t i = submit_mark; i < lv->submit_s.size(); ++i) {
    layers.add("service.submit_us", lv->submit_s[i] * 1e6);
  }

  rep.metrics["peak_rss_mb"] = peak_rss_mb();

  // The recovered daemon must make the live daemon's next decisions.
  for (int r = 0; r < kVerifyRounds; ++r) {
    const std::size_t before = lv->submitted.size();
    lv->submit_due(rep);
    for (std::size_t i = before; i < lv->submitted.size(); ++i) recovered->submit(lv->submitted[i]);
    const auto a = lv->daemon->run_round();
    const auto b = recovered->run_round();
    if (!a || !b || a->allocations != b->allocations) {
      rep.fail("recovered daemon diverged from the live daemon");
      break;
    }
    verify(*a);
  }
  if (!same_result(lv->daemon->result(), recovered->result())) {
    rep.fail("recovered daemon's result() differs from the live daemon's");
  }

  recovered.reset();
  lv.reset();
  if (!traced) {
    // As many set-ups again after the window, each in a fresh directory:
    // within one run they moved as much as between runs (0.35-0.45 s), so
    // the median spans the run, not its first seconds.
    for (int i = 0; i < reps; ++i) {
      const std::string dir = (root / ("late-" + std::to_string(i))).string();
      timed_set_up(dir, nullptr);
      fs::remove_all(dir);
    }
  }

  rep.metrics["setup_s"] = median(setups);
  rep.metrics["rounds_per_s"] = static_cast<double>(samples.size()) / busy;
  rep.metrics["round_p50_ms"] = median(samples) * 1e3;
  rep.metrics["round_tail_ms"] = tail_value(samples) * 1e3;
  rep.metrics["recovery_s"] = median(recoveries);
  if (traced) layers_to_metrics(layers, rep);
  fs::remove_all(root);
  return rep;
}

}  // namespace perfbench

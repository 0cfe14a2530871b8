// Durability-layer tests: changelog framing and torn-tail truncation,
// snapshot round-trips, daemon-vs-batch-simulator bit-identity, admission
// backpressure, and the crash-point sweep — kill the daemon after every
// changelog record boundary, recover, and require the completed run to be
// bit-identical to an uninterrupted one (plus torn-write / bit-flip /
// randomized-corruption variants).
//
// "Killing" the daemon = destroying it. The changelog flushes stdio buffers
// after every append, so the bytes on disk at any instant between appends
// equal the bytes after a destructor close — destruction reproduces exactly
// the file state a SIGKILL at that boundary would leave.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/binary.hpp"
#include "common/env.hpp"
#include "runner/experiment.hpp"
#include "service/admission_queue.hpp"
#include "service/changelog.hpp"
#include "service/daemon.hpp"
#include "service/recovery.hpp"
#include "service/snapshot.hpp"
#include "sim/simulator.hpp"
#include "workload/model_zoo.hpp"
#include "workload/trace_gen.hpp"

namespace hadar::service {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string d = ::testing::TempDir() + "hadar_service_" + name;
  fs::remove_all(d);
  return d;
}

// --------------------------------------------------------------- fixture ----

struct Scenario {
  cluster::ClusterSpec spec;
  workload::Trace trace;
  sim::SimConfig sim;
};

/// Small continuous trace of short jobs: enough rounds to cross several
/// snapshot/rotation boundaries, cheap enough to sweep every crash point.
/// Jitter, stragglers, and observation noise are on so replay exercises all
/// three RNG stream families.
Scenario small_scenario(std::uint64_t seed = 5, int num_jobs = 14) {
  static const workload::ModelZoo zoo = workload::ModelZoo::paper_default();
  Scenario s;
  s.spec = cluster::ClusterSpec::simulation_default();
  workload::TraceGenConfig t;
  t.num_jobs = num_jobs;
  t.arrivals = workload::ArrivalPattern::kContinuous;
  t.jobs_per_hour = 40.0;  // arrivals spread over several round boundaries
  t.seed = seed;
  t.small_lo = 0.05;
  t.small_hi = 0.4;
  t.medium_lo = 0.4;
  t.medium_hi = 2.5;
  t.large_weight = 0.0;
  t.xlarge_weight = 0.0;
  s.trace = workload::TraceGenerator(&zoo, &s.spec.types()).generate(t);
  s.sim.seed = seed;
  s.sim.throughput_jitter = 0.05;
  s.sim.straggler.probability = 0.1;
  s.sim.observation_noise = 0.05;
  s.sim.enable_event_log = true;
  return s;
}

ServiceConfig service_config(const Scenario& s, const std::string& dir,
                             long long snapshot_interval = 7) {
  ServiceConfig cfg;
  cfg.dir = dir;
  cfg.snapshot_interval = snapshot_interval;
  cfg.queue_depth = 256;
  cfg.sim = s.sim;
  return cfg;
}

void submit_all(SchedulerDaemon& d, const workload::Trace& trace, std::size_t from = 0) {
  for (std::size_t i = from; i < trace.jobs.size(); ++i) {
    ASSERT_TRUE(d.submit(trace.jobs[i])) << "queue rejected job " << i;
  }
}

/// Bit-exact SimResult comparison minus the one wall-clock field
/// (scheduler_seconds measures host time, not simulated state).
void expect_same_result(const sim::SimResult& a, const sim::SimResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const auto& x = a.jobs[i];
    const auto& y = b.jobs[i];
    EXPECT_EQ(x.id, y.id) << i;
    EXPECT_EQ(x.arrival, y.arrival) << i;
    EXPECT_EQ(x.first_start, y.first_start) << i;
    EXPECT_EQ(x.finish, y.finish) << i;
    EXPECT_EQ(x.gpu_seconds, y.gpu_seconds) << i;
    EXPECT_EQ(x.compute_gpu_seconds, y.compute_gpu_seconds) << i;
    EXPECT_EQ(x.rounds_run, y.rounds_run) << i;
    EXPECT_EQ(x.preemptions, y.preemptions) << i;
    EXPECT_EQ(x.reallocations, y.reallocations) << i;
    EXPECT_EQ(x.failure_kills, y.failure_kills) << i;
    EXPECT_EQ(x.lost_gpu_seconds, y.lost_gpu_seconds) << i;
    EXPECT_EQ(x.ftf, y.ftf) << i;
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.avg_jct, b.avg_jct);
  EXPECT_EQ(a.median_jct, b.median_jct);
  EXPECT_EQ(a.min_jct, b.min_jct);
  EXPECT_EQ(a.max_jct, b.max_jct);
  EXPECT_EQ(a.p95_jct, b.p95_jct);
  EXPECT_EQ(a.avg_queueing_delay, b.avg_queueing_delay);
  EXPECT_EQ(a.gpu_utilization, b.gpu_utilization);
  EXPECT_EQ(a.avg_job_utilization, b.avg_job_utilization);
  EXPECT_EQ(a.avg_ftf, b.avg_ftf);
  EXPECT_EQ(a.max_ftf, b.max_ftf);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_reallocations, b.total_reallocations);
  EXPECT_EQ(a.total_preemptions, b.total_preemptions);
  EXPECT_EQ(a.num_never_started, b.num_never_started);
  EXPECT_EQ(a.num_unfinished, b.num_unfinished);
  EXPECT_EQ(a.num_node_failures, b.num_node_failures);
  EXPECT_EQ(a.num_node_recoveries, b.num_node_recoveries);
  EXPECT_EQ(a.num_gpu_degrades, b.num_gpu_degrades);
  EXPECT_EQ(a.total_failure_kills, b.total_failure_kills);
  EXPECT_EQ(a.lost_gpu_seconds, b.lost_gpu_seconds);
  EXPECT_EQ(a.goodput, b.goodput);
  EXPECT_EQ(a.realloc_round_fraction, b.realloc_round_fraction);
  EXPECT_EQ(a.scheduler_calls, b.scheduler_calls);
}

struct GoldenRun {
  sim::SimResult result;
  std::vector<sim::Event> events;
  long long rounds = 0;
};

/// Uninterrupted daemon run over the whole trace.
GoldenRun golden_run(const Scenario& s, const std::string& scheduler,
                     const std::string& dir, long long snapshot_interval = 7) {
  SchedulerDaemon d(&s.spec, runner::make_scheduler(scheduler), service_config(s, dir, snapshot_interval));
  submit_all(d, s.trace);
  GoldenRun g;
  g.rounds = d.run_until_idle();
  g.result = d.result(s.trace.jobs.size());
  g.events = d.engine().event_log().sorted();
  return g;
}

/// Recovers a daemon over `dir`, re-feeds the not-yet-admitted suffix of the
/// trace (the producer's resubmission of non-durable events), runs to
/// completion, and checks bit-identity with the golden run.
void recover_and_finish(const Scenario& s, const std::string& scheduler,
                        const std::string& dir, const GoldenRun& golden,
                        long long snapshot_interval = 7) {
  SchedulerDaemon d(&s.spec, runner::make_scheduler(scheduler), service_config(s, dir, snapshot_interval));
  submit_all(d, s.trace, d.engine().jobs_admitted());
  d.run_until_idle();
  expect_same_result(d.result(s.trace.jobs.size()), golden.result);
  EXPECT_EQ(d.engine().event_log().sorted(), golden.events);
}

/// Runs a fresh daemon for exactly `rounds` rounds and "crashes" (destroys)
/// it, leaving the durable directory as a kill at that record boundary would.
void run_and_crash(const Scenario& s, const std::string& scheduler,
                   const std::string& dir, long long rounds,
                   long long snapshot_interval = 7) {
  fs::remove_all(dir);
  SchedulerDaemon d(&s.spec, runner::make_scheduler(scheduler), service_config(s, dir, snapshot_interval));
  submit_all(d, s.trace);
  for (long long i = 0; i < rounds; ++i) ASSERT_TRUE(d.run_round().has_value());
}

std::string active_changelog_of(const std::string& dir) {
  long long best = -1;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    long long r = -1;
    if (std::sscanf(name.c_str(), "changelog_%lld.wal", &r) == 1 && r > best) best = r;
  }
  EXPECT_GE(best, 0) << "no changelog in " << dir;
  return changelog_path(dir, best);
}

void append_bytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
}

// ------------------------------------------------------------- changelog ----

TEST(Changelog, AppendScanRoundtrip) {
  const std::string dir = fresh_dir("clg_roundtrip");
  fs::create_directories(dir);
  const std::string path = dir + "/log.wal";
  {
    ChangelogWriter w(path);
    w.append("alpha");
    w.append("");
    w.append(std::string(1000, 'x'));
    EXPECT_EQ(w.records_appended(), 3);
  }
  const ChangelogScan scan = scan_changelog(path);
  EXPECT_TRUE(scan.clean());
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0], "alpha");
  EXPECT_EQ(scan.records[1], "");
  EXPECT_EQ(scan.records[2], std::string(1000, 'x'));
  ASSERT_EQ(scan.record_ends.size(), 3u);
  EXPECT_EQ(scan.record_ends.back(), scan.valid_bytes);
}

TEST(Changelog, AppendModeContinuesExistingFile) {
  const std::string dir = fresh_dir("clg_append");
  fs::create_directories(dir);
  const std::string path = dir + "/log.wal";
  { ChangelogWriter(path).append("one"); }
  {
    ChangelogWriter w(path, FsyncMode::kNone, /*append=*/true);
    w.append("two");
  }
  const ChangelogScan scan = scan_changelog(path);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[1], "two");
}

TEST(Changelog, TornTailIsDetectedAndTruncated) {
  const std::string dir = fresh_dir("clg_torn");
  fs::create_directories(dir);
  const std::string path = dir + "/log.wal";
  {
    ChangelogWriter w(path);
    w.append("first");
    w.append("second");
  }
  append_bytes(path, "\x13\x00\x00\x00partial");  // header promises more than exists
  ChangelogScan scan = scan_changelog(path);
  EXPECT_FALSE(scan.clean());
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_GT(scan.torn_bytes, 0u);
  truncate_changelog(path, scan.valid_bytes);
  scan = scan_changelog(path);
  EXPECT_TRUE(scan.clean());
  EXPECT_EQ(scan.records.size(), 2u);
}

TEST(Changelog, BitFlipFailsCrcAndKeepsPrefix) {
  const std::string dir = fresh_dir("clg_flip");
  fs::create_directories(dir);
  const std::string path = dir + "/log.wal";
  {
    ChangelogWriter w(path);
    w.append("aaaaaaaa");
    w.append("bbbbbbbb");
  }
  const ChangelogScan before = scan_changelog(path);
  ASSERT_EQ(before.records.size(), 2u);
  flip_byte(path, before.record_ends[0] + 10);  // inside record 1's payload
  const ChangelogScan after = scan_changelog(path);
  EXPECT_FALSE(after.clean());
  ASSERT_EQ(after.records.size(), 1u);
  EXPECT_EQ(after.records[0], "aaaaaaaa");
  EXPECT_EQ(after.valid_bytes, before.record_ends[0]);
}

TEST(Changelog, GarbageFileHasBadMagic) {
  const std::string dir = fresh_dir("clg_magic");
  fs::create_directories(dir);
  const std::string path = dir + "/log.wal";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a changelog at all", f);
  std::fclose(f);
  const ChangelogScan scan = scan_changelog(path);
  EXPECT_TRUE(scan.bad_magic);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_TRUE(scan_changelog(dir + "/absent.wal").missing);
}

TEST(Changelog, RoundRecordEncodeDecodeRoundtrip) {
  const Scenario s = small_scenario();
  RoundRecord rec;
  rec.round = 42;
  rec.start = 15120.0;
  rec.rng_before = 0xdeadbeefcafe1234ull;
  rec.rng_after = 0x1122334455667788ull;
  rec.admitted = {s.trace.jobs[0], s.trace.jobs[1]};
  cluster::JobAllocation a;
  rec.allocations.emplace(7, a);
  const RoundRecord back = RoundRecord::decode(rec.encode());
  EXPECT_EQ(back.round, rec.round);
  EXPECT_EQ(back.start, rec.start);
  EXPECT_EQ(back.rng_before, rec.rng_before);
  EXPECT_EQ(back.rng_after, rec.rng_after);
  EXPECT_EQ(back.admitted, rec.admitted);
  EXPECT_EQ(back.allocations.size(), 1u);
  EXPECT_THROW(RoundRecord::decode(rec.encode() + "junk"), std::runtime_error);
}

// -------------------------------------------------------------- snapshot ----

TEST(Snapshot, RoundtripRestoresBitExactState) {
  const Scenario s = small_scenario();
  const std::string dir = fresh_dir("snap_roundtrip");
  SchedulerDaemon d(&s.spec, runner::make_scheduler("hadar"), service_config(s, dir));
  submit_all(d, s.trace);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(d.run_round().has_value());

  const std::string path = dir + "/probe.snap";
  write_snapshot(path, d.engine(), d.scheduler(), /*fsync=*/false);

  sim::RoundEngine fresh(&s.spec, s.sim);
  auto sched = runner::make_scheduler("hadar");
  sched->reset();
  ASSERT_TRUE(read_snapshot(path, fresh, *sched));

  common::BinaryWriter a;
  common::BinaryWriter b;
  d.engine().save(a);
  fresh.save(b);
  EXPECT_EQ(a.take(), b.take());
  common::BinaryWriter sa;
  common::BinaryWriter sb;
  d.scheduler().save_state(sa);
  sched->save_state(sb);
  EXPECT_EQ(sa.take(), sb.take());
}

TEST(Snapshot, CorruptOrMissingSnapshotIsRejected) {
  const Scenario s = small_scenario();
  const std::string dir = fresh_dir("snap_corrupt");
  SchedulerDaemon d(&s.spec, runner::make_scheduler("tiresias"), service_config(s, dir));
  submit_all(d, s.trace);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(d.run_round().has_value());
  const std::string path = dir + "/probe.snap";
  write_snapshot(path, d.engine(), d.scheduler(), false);

  sim::RoundEngine fresh(&s.spec, s.sim);
  auto sched = runner::make_scheduler("tiresias");
  sched->reset();
  EXPECT_FALSE(read_snapshot(dir + "/absent.snap", fresh, *sched));
  flip_byte(path, 64);
  EXPECT_FALSE(read_snapshot(path, fresh, *sched));
  EXPECT_EQ(fresh.rounds_completed(), 0);  // untouched on rejection
}

// ---------------------------------------------------------- daemon basics ----

TEST(AdmissionQueueTest, BackpressureRejectsBeyondCapacity) {
  AdmissionQueue q(4);
  workload::JobSpec j;
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(j));
  EXPECT_FALSE(q.try_push(j));
  EXPECT_FALSE(q.try_push(j));
  EXPECT_EQ(q.accepted(), 4u);
  EXPECT_EQ(q.rejected(), 2u);
  EXPECT_EQ(q.drain().size(), 4u);
  EXPECT_TRUE(q.try_push(j));  // space again after drain
  EXPECT_THROW(AdmissionQueue(0), std::invalid_argument);
}

TEST(Daemon, BackpressureSurfacesThroughSubmit) {
  const Scenario s = small_scenario();
  ServiceConfig cfg = service_config(s, fresh_dir("daemon_bp"));
  cfg.queue_depth = 3;
  SchedulerDaemon d(&s.spec, runner::make_scheduler("yarn"), cfg);
  int accepted = 0;
  for (const auto& j : s.trace.jobs) accepted += d.submit(j) ? 1 : 0;
  EXPECT_EQ(accepted, 3);
  EXPECT_EQ(d.queue().rejected(), s.trace.jobs.size() - 3);
}

/// Malformed specs are refused at submit() and never enqueued, so the daemon
/// keeps serving: one zero-worker gang and seven non-finite fields.
TEST(Daemon, RejectsMalformedSpecsAndKeepsServing) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::function<void(workload::JobSpec&)>> breakers = {
      [](workload::JobSpec& j) { j.num_workers = 0; },
      [&](workload::JobSpec& j) { j.arrival = nan; },
      [&](workload::JobSpec& j) { j.arrival = inf; },
      [&](workload::JobSpec& j) { j.throughput[0] = nan; },
      [&](workload::JobSpec& j) { j.throughput[0] = inf; },
      [&](workload::JobSpec& j) { j.checkpoint_save = -inf; },
      [&](workload::JobSpec& j) { j.checkpoint_load = nan; },
      [&](workload::JobSpec& j) { j.model_size_mb = inf; },
  };
  const Scenario s = small_scenario(5, 4);
  for (std::size_t i = 0; i < breakers.size(); ++i) {
    SCOPED_TRACE("malformed spec " + std::to_string(i));
    ServiceConfig cfg = service_config(s, fresh_dir("daemon_bad_" + std::to_string(i)), 0);
    SchedulerDaemon d(&s.spec, runner::make_scheduler("hadar"), cfg);
    for (auto j : s.trace.jobs) {
      j.arrival = 0.0;
      ASSERT_TRUE(d.submit(j));
    }
    ASSERT_TRUE(d.run_round().has_value());
    workload::JobSpec bad = s.trace.jobs[0];
    bad.id = 1000;
    breakers[i](bad);
    EXPECT_FALSE(d.submit(bad));
    EXPECT_EQ(d.queue().size(), 0u);
    EXPECT_EQ(d.queue().rejected(), 0u);  // refused before the queue
    for (int r = 0; r < 2; ++r) {
      std::optional<sim::RoundOutcome> out;
      ASSERT_NO_THROW(out = d.run_round());
      ASSERT_TRUE(out.has_value());
      EXPECT_FALSE(out->allocations.empty());
      for (const auto& [id, a] : out->allocations) EXPECT_LT(id, 1000);
    }
  }
}

TEST(Daemon, IdleWithoutWorkAndConfigFromEnv) {
  const Scenario s = small_scenario();
  SchedulerDaemon d(&s.spec, runner::make_scheduler("srtf"),
                    service_config(s, fresh_dir("daemon_idle")));
  EXPECT_TRUE(d.idle());
  EXPECT_FALSE(d.run_round().has_value());
  EXPECT_FALSE(d.recovery().recovered);

  ServiceConfig def = ServiceConfig::from_env();
  EXPECT_EQ(def.snapshot_interval, 50);
  EXPECT_EQ(def.queue_depth, 1024u);
  EXPECT_EQ(def.fsync, FsyncMode::kNone);
  EXPECT_THROW(parse_fsync_mode("sometimes"), std::invalid_argument);

  // Env knobs never crash: a bad HADAR_SERVICE_FSYNC warns and falls back.
  ::setenv("HADAR_SERVICE_FSYNC", "banana", 1);
  EXPECT_EQ(ServiceConfig::from_env().fsync, FsyncMode::kNone);
  EXPECT_EQ(fsync_mode_from_env("HADAR_SERVICE_FSYNC", FsyncMode::kRotate),
            FsyncMode::kRotate);
  ::unsetenv("HADAR_SERVICE_FSYNC");
}

/// The daemon and the batch Simulator drive the same engine: identical
/// results and event timelines for every scheduler.
TEST(Daemon, MatchesBatchSimulatorForEveryScheduler) {
  const Scenario s = small_scenario();
  for (const char* name : {"hadar", "gavel", "tiresias", "yarn"}) {
    SCOPED_TRACE(name);
    sim::Simulator batch(s.sim);
    auto batch_sched = runner::make_scheduler(name);
    const sim::SimResult expected = batch.run(s.spec, s.trace, *batch_sched);

    SchedulerDaemon d(&s.spec, runner::make_scheduler(name),
                      service_config(s, fresh_dir(std::string("daemon_eq_") + name)));
    submit_all(d, s.trace);
    d.run_until_idle();
    expect_same_result(d.result(s.trace.jobs.size()), expected);
    EXPECT_EQ(d.engine().event_log().sorted(), batch.event_log().sorted());
  }
}

// ------------------------------------------------------------- recovery ----

TEST(Recovery, FreshDirectoryStartsAtGenesis) {
  const std::string dir = fresh_dir("rec_fresh");
  const Scenario s = small_scenario();
  sim::RoundEngine engine(&s.spec, s.sim);
  auto sched = runner::make_scheduler("hadar");
  sched->reset();
  const RecoveryReport rep = recover(dir, engine, *sched);
  EXPECT_FALSE(rep.recovered);
  EXPECT_EQ(rep.snapshot_round, -1);
  EXPECT_EQ(rep.replayed_rounds, 0);
  EXPECT_EQ(rep.active_changelog, changelog_path(dir, 0));
  EXPECT_FALSE(rep.to_string().empty());
}

/// Kill the daemon after EVERY changelog record boundary; each recovery must
/// finish the run bit-identically to the uninterrupted one. Covers record
/// replay, snapshot restore, rotation boundaries, and the re-feed of
/// non-durable queued submissions — for all four schedulers.
TEST(Recovery, CrashPointSweepIsBitIdenticalForEveryScheduler) {
  const Scenario s = small_scenario();
  for (const char* name : {"hadar", "gavel", "tiresias", "yarn"}) {
    SCOPED_TRACE(name);
    const std::string base = std::string("sweep_") + name;
    const GoldenRun golden = golden_run(s, name, fresh_dir(base + "_golden"));
    ASSERT_GT(golden.rounds, 10) << "scenario too small to be interesting";
    const std::string dir = fresh_dir(base);
    for (long long crash = 0; crash <= golden.rounds; ++crash) {
      SCOPED_TRACE("crash after round " + std::to_string(crash));
      run_and_crash(s, name, dir, crash);
      recover_and_finish(s, name, dir, golden);
    }
  }
}

TEST(Recovery, CrashPointSweepWithFaultInjection) {
  Scenario s = small_scenario(11);
  s.sim.failure.node_mttf = 4000.0;
  s.sim.failure.node_mttr = 1800.0;
  s.sim.failure.seed = 99;
  const GoldenRun golden = golden_run(s, "hadar", fresh_dir("sweep_fail_golden"));
  const std::string dir = fresh_dir("sweep_fail");
  for (long long crash = 0; crash <= golden.rounds; crash += 3) {
    SCOPED_TRACE("crash after round " + std::to_string(crash));
    run_and_crash(s, "hadar", dir, crash);
    recover_and_finish(s, "hadar", dir, golden);
  }
}

TEST(Recovery, TornWriteIsTruncatedAndRunCompletes) {
  const Scenario s = small_scenario();
  const GoldenRun golden = golden_run(s, "gavel", fresh_dir("torn_golden"));
  const std::string dir = fresh_dir("torn");
  const long long crash = golden.rounds / 2;
  run_and_crash(s, "gavel", dir, crash);
  // A record torn mid-write by the crash: header + half the payload.
  append_bytes(active_changelog_of(dir),
               std::string("\xF0\x00\x00\x00\x99\x99\x99\x99", 8) + "only-half");

  SchedulerDaemon d(&s.spec, runner::make_scheduler("gavel"), service_config(s, dir));
  EXPECT_TRUE(d.recovery().torn_tail);
  EXPECT_GT(d.recovery().truncated_bytes, 0u);
  submit_all(d, s.trace, d.engine().jobs_admitted());
  d.run_until_idle();
  expect_same_result(d.result(s.trace.jobs.size()), golden.result);
  EXPECT_EQ(d.engine().event_log().sorted(), golden.events);
}

TEST(Recovery, BitFlippedTailRecordIsDroppedAndReExecuted) {
  const Scenario s = small_scenario();
  const GoldenRun golden = golden_run(s, "tiresias", fresh_dir("flip_golden"));
  const std::string dir = fresh_dir("flip");
  long long crash = golden.rounds / 2;
  if (crash % 7 == 0) ++crash;  // rotation boundary leaves an empty active file
  ASSERT_LE(crash, golden.rounds);
  run_and_crash(s, "tiresias", dir, crash);
  const std::string active = active_changelog_of(dir);
  const ChangelogScan scan = scan_changelog(active);
  ASSERT_FALSE(scan.records.empty());
  // Corrupt the last record's payload: CRC must reject it, recovery must
  // truncate to the previous boundary and deterministically re-execute.
  const std::uint64_t prev_end = scan.records.size() > 1
                                     ? scan.record_ends[scan.records.size() - 2]
                                     : kMagicSize;
  flip_byte(active, prev_end + 12);

  SchedulerDaemon d(&s.spec, runner::make_scheduler("tiresias"), service_config(s, dir));
  EXPECT_TRUE(d.recovery().torn_tail);
  EXPECT_EQ(d.engine().rounds_completed(), crash - 1);
  submit_all(d, s.trace, d.engine().jobs_admitted());
  d.run_until_idle();
  expect_same_result(d.result(s.trace.jobs.size()), golden.result);
  EXPECT_EQ(d.engine().event_log().sorted(), golden.events);
}

TEST(Recovery, CorruptSnapshotFallsBackToReplay) {
  const Scenario s = small_scenario();
  const GoldenRun golden = golden_run(s, "hadar", fresh_dir("snapfall_golden"));
  const std::string dir = fresh_dir("snapfall");
  const long long crash = std::min<long long>(golden.rounds, 16);  // past 2 snapshots
  run_and_crash(s, "hadar", dir, crash);
  // Corrupt every snapshot: recovery must fall back to genesis and replay
  // the full changelog chain.
  long long snaps = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".snap") {
      flip_byte(e.path().string(), 32);
      ++snaps;
    }
  }
  ASSERT_GT(snaps, 0);
  SchedulerDaemon d(&s.spec, runner::make_scheduler("hadar"), service_config(s, dir));
  EXPECT_EQ(d.recovery().snapshot_round, -1);
  EXPECT_EQ(d.recovery().discarded_snapshots, snaps);
  EXPECT_EQ(d.engine().rounds_completed(), crash);
  submit_all(d, s.trace, d.engine().jobs_admitted());
  d.run_until_idle();
  expect_same_result(d.result(s.trace.jobs.size()), golden.result);
}

/// Randomized corruption fuzz: crash at a random round, apply a random
/// mutation to the durable directory, recover, re-feed, finish, and demand
/// bit-identity. Iteration count scales via HADAR_RECOVERY_FUZZ_ITERS (CI
/// runs a deeper sweep than the default developer loop).
TEST(Recovery, RandomizedCorruptionFuzz) {
  const Scenario s = small_scenario();
  const GoldenRun golden = golden_run(s, "hadar", fresh_dir("fuzz_golden"));
  const int iters = common::env_int("HADAR_RECOVERY_FUZZ_ITERS", 4, 1);
  for (int it = 0; it < iters; ++it) {
    SCOPED_TRACE("fuzz iteration " + std::to_string(it));
    std::mt19937 rng(0xf00d + static_cast<unsigned>(it));
    const std::string dir = fresh_dir("fuzz");
    const long long crash =
        std::uniform_int_distribution<long long>(0, golden.rounds)(rng);
    run_and_crash(s, "hadar", dir, crash);

    const std::string active = active_changelog_of(dir);
    const ChangelogScan scan = scan_changelog(active);
    switch (std::uniform_int_distribution<int>(0, 3)(rng)) {
      case 0:
        break;  // clean kill
      case 1: {  // torn append of random garbage
        std::string junk(std::uniform_int_distribution<std::size_t>(1, 64)(rng), '\0');
        for (auto& c : junk) c = static_cast<char>(rng());
        append_bytes(active, junk);
        break;
      }
      case 2: {  // flip a random byte anywhere past the magic
        if (scan.valid_bytes > kMagicSize) {
          flip_byte(active, std::uniform_int_distribution<std::uint64_t>(
                                kMagicSize, scan.valid_bytes - 1)(rng));
        }
        break;
      }
      case 3: {  // rip off a random tail (mid-record truncation)
        if (scan.valid_bytes > kMagicSize) {
          truncate_changelog(active, std::uniform_int_distribution<std::uint64_t>(
                                         kMagicSize, scan.valid_bytes - 1)(rng));
        }
        break;
      }
    }
    recover_and_finish(s, "hadar", dir, golden);
  }
}

}  // namespace
}  // namespace hadar::service

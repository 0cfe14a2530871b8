// Unit tests for the workload substrate: job specs, the Table II model zoo,
// the synthetic Philly-style trace generator, and CSV trace round-trips.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "common/binary.hpp"
#include "workload/model_zoo.hpp"
#include "workload/trace_gen.hpp"
#include "workload/trace_io.hpp"

namespace hadar::workload {
namespace {

cluster::GpuTypeRegistry sim_reg() { return cluster::GpuTypeRegistry::simulation_default(); }

// ------------------------------------------------------------- JobSpec ----

TEST(JobSpec, RuntimeBounds) {
  JobSpec j;
  j.num_workers = 2;
  j.epochs = 10;
  j.chunks_per_epoch = 100;            // 1000 iterations total
  j.throughput = {10.0, 5.0, 0.0};     // K80-incompatible
  EXPECT_DOUBLE_EQ(j.total_iterations(), 1000.0);
  EXPECT_DOUBLE_EQ(j.max_throughput(), 10.0);
  EXPECT_DOUBLE_EQ(j.min_throughput(), 5.0);                  // zero excluded
  EXPECT_DOUBLE_EQ(j.min_runtime(), 1000.0 / (10.0 * 2));     // t_min (Eq. 8)
  EXPECT_DOUBLE_EQ(j.max_runtime(), 1000.0 / (5.0 * 2));      // t_max (Eq. 8)
}

TEST(JobSpec, ValidateCatchesBadFields) {
  JobSpec j;
  j.num_workers = 1;
  j.epochs = 1;
  j.chunks_per_epoch = 1;
  j.throughput = {1.0, 1.0, 1.0};
  EXPECT_NO_THROW(j.validate(3));
  JobSpec bad = j;
  bad.num_workers = 0;
  EXPECT_THROW(bad.validate(3), std::invalid_argument);
  bad = j;
  bad.throughput = {0.0, 0.0, 0.0};
  EXPECT_THROW(bad.validate(3), std::invalid_argument);
  bad = j;
  bad.throughput = {1.0};  // arity
  EXPECT_THROW(bad.validate(3), std::invalid_argument);
  bad = j;
  bad.arrival = -1.0;
  EXPECT_THROW(bad.validate(3), std::invalid_argument);
  bad = j;
  bad.checkpoint_load = -0.1;
  EXPECT_THROW(bad.validate(3), std::invalid_argument);
}

// Non-finite values are rejected field by field: NaN passes every ordered
// comparison (so "negative" checks miss it) and +/-inf poisons runtimes.
JobSpec valid_spec() {
  JobSpec j;
  j.num_workers = 1;
  j.epochs = 1;
  j.chunks_per_epoch = 1;
  j.throughput = {1.0, 1.0, 1.0};
  return j;
}

template <typename Mutate>
void expect_rejects_non_finite(Mutate mutate) {
  for (double v : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    JobSpec bad = valid_spec();
    mutate(bad, v);
    EXPECT_THROW(bad.validate(3), std::invalid_argument) << "value " << v;
  }
}

TEST(JobSpec, ValidateRejectsNonFiniteArrival) {
  expect_rejects_non_finite([](JobSpec& j, double v) { j.arrival = v; });
}

TEST(JobSpec, ValidateRejectsNonFiniteThroughputEntry) {
  for (std::size_t r = 0; r < 3; ++r) {
    expect_rejects_non_finite([r](JobSpec& j, double v) { j.throughput[r] = v; });
  }
}

TEST(JobSpec, ValidateRejectsNonFiniteCheckpointSave) {
  expect_rejects_non_finite([](JobSpec& j, double v) { j.checkpoint_save = v; });
}

TEST(JobSpec, ValidateRejectsNonFiniteCheckpointLoad) {
  expect_rejects_non_finite([](JobSpec& j, double v) { j.checkpoint_load = v; });
}

TEST(JobSpec, ValidateRejectsNonFiniteModelSize) {
  expect_rejects_non_finite([](JobSpec& j, double v) { j.model_size_mb = v; });
}

TEST(JobSpec, ValidateRejectsNonFiniteDeadline) {
  expect_rejects_non_finite([](JobSpec& j, double v) { j.deadline = v; });
  JobSpec ok = valid_spec();
  ok.deadline = -1.0;  // finite and <= 0: no deadline
  EXPECT_NO_THROW(ok.validate(3));
}

TEST(Trace, FinalizeSortsAndReindexes) {
  Trace t;
  JobSpec a;
  a.model = "late";
  a.arrival = 100.0;
  a.num_workers = 1;
  a.epochs = 1;
  a.chunks_per_epoch = 1;
  a.throughput = {1.0};
  JobSpec b = a;
  b.model = "early";
  b.arrival = 5.0;
  t.jobs = {a, b};
  t.finalize();
  EXPECT_EQ(t.jobs[0].model, "early");
  EXPECT_EQ(t.jobs[0].id, 0);
  EXPECT_EQ(t.jobs[1].id, 1);
}

// ------------------------------------------------------------ ModelZoo ----

TEST(ModelZoo, CarriesTableTwo) {
  const auto zoo = ModelZoo::paper_default();
  for (const char* name : {"ResNet-50", "ResNet-18", "LSTM", "CycleGAN", "Transformer"}) {
    EXPECT_NE(zoo.find(name), nullptr) << name;
  }
  EXPECT_EQ(zoo.find("ResNet-50")->size_class, SizeClass::kXLarge);
  EXPECT_EQ(zoo.find("ResNet-18")->size_class, SizeClass::kSmall);
  EXPECT_EQ(zoo.find("nope"), nullptr);
}

TEST(ModelZoo, ResNet50HasTenXHeterogeneity) {
  // The published spread the paper's intro quotes: ~10x V100 : K80.
  const auto zoo = ModelZoo::paper_default();
  const auto xs = zoo.throughput_vector(*zoo.find("ResNet-50"), sim_reg());
  EXPECT_NEAR(xs[0] / xs[2], 10.0, 1.0);
}

TEST(ModelZoo, A3cHasTwoXHeterogeneity) {
  const auto zoo = ModelZoo::paper_default();
  const auto xs = zoo.throughput_vector(*zoo.find("A3C"), sim_reg());
  EXPECT_NEAR(xs[0] / xs[2], 2.0, 0.2);
}

TEST(ModelZoo, ThroughputVectorZeroForUnknownTypes) {
  const auto zoo = ModelZoo::paper_default();
  cluster::GpuTypeRegistry reg({{"V100", 10.0}, {"TPUv4", 20.0}});
  const auto xs = zoo.throughput_vector(*zoo.find("LSTM"), reg);
  EXPECT_GT(xs[0], 0.0);
  EXPECT_EQ(xs[1], 0.0);
}

TEST(ModelZoo, MakeJobSizesWorkToIdealRuntime) {
  const auto zoo = ModelZoo::paper_default();
  const auto reg = sim_reg();
  const JobSpec j = zoo.make_job("LSTM", reg, 4, 3600.0);
  // Running 4 workers on the fastest type should take ~an hour.
  EXPECT_NEAR(j.min_runtime(), 3600.0, 0.05 * 3600.0);
  EXPECT_EQ(j.num_workers, 4);
  EXPECT_NO_THROW(j.validate(reg.size()));
}

TEST(ModelZoo, MakeJobRejectsBadArguments) {
  const auto zoo = ModelZoo::paper_default();
  const auto reg = sim_reg();
  EXPECT_THROW(zoo.make_job("nope", reg, 1, 60.0), std::invalid_argument);
  EXPECT_THROW(zoo.make_job("LSTM", reg, 0, 60.0), std::invalid_argument);
  EXPECT_THROW(zoo.make_job("LSTM", reg, 1, -5.0), std::invalid_argument);
}

TEST(ModelZoo, CheckpointCostsMatchTableFour) {
  // Table IV, 6-minute rounds: overhead w/ realloc = (save+load)/360,
  // w/o = save/360.
  const auto zoo = ModelZoo::paper_default();
  const auto* resnet50 = zoo.find("ResNet-50");
  EXPECT_NEAR((resnet50->checkpoint_save + resnet50->checkpoint_load) / 360.0, 0.021, 0.002);
  EXPECT_NEAR(resnet50->checkpoint_save / 360.0, 0.0033, 0.0005);
  const auto* lstm = zoo.find("LSTM");
  EXPECT_NEAR((lstm->checkpoint_save + lstm->checkpoint_load) / 360.0, 0.0201, 0.002);
}

// ------------------------------------------------------- TraceGenerator ----

class TraceGenTest : public ::testing::Test {
 protected:
  ModelZoo zoo_ = ModelZoo::paper_default();
  cluster::GpuTypeRegistry reg_ = sim_reg();
};

TEST_F(TraceGenTest, DeterministicForSameSeed) {
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.num_jobs = 50;
  cfg.seed = 9;
  const Trace a = gen.generate(cfg);
  const Trace b = gen.generate(cfg);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].model, b.jobs[i].model);
    EXPECT_EQ(a.jobs[i].epochs, b.jobs[i].epochs);
    EXPECT_DOUBLE_EQ(a.jobs[i].arrival, b.jobs[i].arrival);
  }
}

TEST_F(TraceGenTest, DifferentSeedsDiffer) {
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.num_jobs = 50;
  cfg.seed = 1;
  const Trace a = gen.generate(cfg);
  cfg.seed = 2;
  const Trace b = gen.generate(cfg);
  int diffs = 0;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    if (a.jobs[i].epochs != b.jobs[i].epochs) ++diffs;
  }
  EXPECT_GT(diffs, 10);
}

TEST_F(TraceGenTest, StaticArrivalsAllZero) {
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.num_jobs = 30;
  const Trace t = gen.generate(cfg);
  for (const auto& j : t.jobs) EXPECT_DOUBLE_EQ(j.arrival, 0.0);
}

TEST_F(TraceGenTest, ContinuousArrivalsMatchPoissonRate) {
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.num_jobs = 2000;
  cfg.arrivals = ArrivalPattern::kContinuous;
  cfg.jobs_per_hour = 120.0;
  const Trace t = gen.generate(cfg);
  // Arrivals sorted, mean inter-arrival ~ 30 s.
  double last = 0.0, sum = 0.0;
  for (const auto& j : t.jobs) {
    EXPECT_GE(j.arrival, last);
    sum += j.arrival - last;
    last = j.arrival;
  }
  EXPECT_NEAR(sum / cfg.num_jobs, 30.0, 3.0);
}

TEST_F(TraceGenTest, GpuHoursRespectSizeClasses) {
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.num_jobs = 300;
  cfg.seed = 3;
  const Trace t = gen.generate(cfg);
  std::map<SizeClass, int> count;
  for (const auto& j : t.jobs) {
    const double gpu_hours = j.min_runtime() * j.num_workers / 3600.0;
    ++count[j.size_class];
    switch (j.size_class) {
      case SizeClass::kSmall: EXPECT_LE(gpu_hours, 1.3); break;
      case SizeClass::kMedium:
        EXPECT_GE(gpu_hours, 0.8);
        EXPECT_LE(gpu_hours, 12.0);
        break;
      case SizeClass::kLarge:
        EXPECT_GE(gpu_hours, 8.0);
        EXPECT_LE(gpu_hours, 60.0);
        break;
      case SizeClass::kXLarge:
        EXPECT_GE(gpu_hours, 50.0);
        EXPECT_LE(gpu_hours, 120.0);
        break;
    }
  }
  // Uniform class sampling: every class present in a 300-job trace.
  EXPECT_EQ(count.size(), 4u);
  for (const auto& [cls, n] : count) EXPECT_GT(n, 30) << to_string(cls);
}

TEST_F(TraceGenTest, DiurnalModulationConcentratesArrivals) {
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.num_jobs = 12000;  // ~2 days at the mean rate
  cfg.arrivals = ArrivalPattern::kContinuous;
  cfg.jobs_per_hour = 240.0;
  cfg.diurnal_amplitude = 0.9;
  cfg.seed = 31;
  const Trace t = gen.generate(cfg);
  // Over COMPLETE days only: the sin-positive half (first 12 h of each day)
  // must hold clearly more arrivals than the sin-negative half, and the
  // whole-day rate must stay near the configured mean.
  const double full_days = std::floor(t.jobs.back().arrival / 86400.0);
  ASSERT_GE(full_days, 1.0);
  int peak = 0, trough = 0, in_days = 0;
  for (const auto& j : t.jobs) {
    if (j.arrival >= full_days * 86400.0) continue;
    ++in_days;
    (std::fmod(j.arrival, 86400.0) < 43200.0 ? peak : trough) += 1;
  }
  EXPECT_GT(peak, trough * 2);
  EXPECT_NEAR(in_days / (full_days * 24.0), 240.0, 40.0);
}

TEST_F(TraceGenTest, DiurnalAmplitudeValidated) {
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.arrivals = ArrivalPattern::kContinuous;
  cfg.diurnal_amplitude = 1.0;
  EXPECT_THROW(gen.generate(cfg), std::invalid_argument);
  cfg.diurnal_amplitude = -0.1;
  EXPECT_THROW(gen.generate(cfg), std::invalid_argument);
}

TEST_F(TraceGenTest, ModelSizePropagates) {
  const JobSpec j = zoo_.make_job("Transformer", reg_, 1, 3600.0);
  EXPECT_NEAR(j.model_size_mb, 240.0, 1e-9);
}

TEST_F(TraceGenTest, FixedModelOverridesSampling) {
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.num_jobs = 20;
  cfg.fixed_model = "LSTM";
  const Trace t = gen.generate(cfg);
  for (const auto& j : t.jobs) EXPECT_EQ(j.model, "LSTM");
  cfg.fixed_model = "nope";
  EXPECT_THROW(gen.generate(cfg), std::invalid_argument);
}

TEST_F(TraceGenTest, RejectsBadConfig) {
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.num_jobs = 0;
  EXPECT_THROW(gen.generate(cfg), std::invalid_argument);
  cfg.num_jobs = 5;
  cfg.arrivals = ArrivalPattern::kContinuous;
  cfg.jobs_per_hour = 0.0;
  EXPECT_THROW(gen.generate(cfg), std::invalid_argument);
}

TEST_F(TraceGenTest, PrototypeWorkloadHasTenTableTwoJobs) {
  const auto reg = cluster::GpuTypeRegistry::aws_prototype();
  TraceGenerator gen(&zoo_, &reg);
  const Trace t = gen.prototype_workload();
  EXPECT_EQ(t.jobs.size(), 10u);
  std::map<std::string, int> models;
  for (const auto& j : t.jobs) ++models[j.model];
  EXPECT_EQ(models.size(), 5u);
  for (const auto& [m, n] : models) EXPECT_EQ(n, 2) << m;
}

// -------------------------------------------------------------- trace IO ----

TEST_F(TraceGenTest, CsvRoundTripPreservesEverything) {
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.num_jobs = 25;
  cfg.arrivals = ArrivalPattern::kContinuous;
  cfg.jobs_per_hour = 60;
  const Trace a = gen.generate(cfg);
  const Trace b = trace_from_csv(trace_to_csv(a, reg_), reg_);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].model, b.jobs[i].model);
    EXPECT_EQ(a.jobs[i].num_workers, b.jobs[i].num_workers);
    EXPECT_EQ(a.jobs[i].epochs, b.jobs[i].epochs);
    EXPECT_EQ(a.jobs[i].chunks_per_epoch, b.jobs[i].chunks_per_epoch);
    EXPECT_EQ(a.jobs[i].size_class, b.jobs[i].size_class);
    EXPECT_NEAR(a.jobs[i].arrival, b.jobs[i].arrival, 1e-3);
    for (int r = 0; r < reg_.size(); ++r) {
      EXPECT_NEAR(a.jobs[i].throughput_on(r), b.jobs[i].throughput_on(r), 1e-6);
    }
  }
}

TEST_F(TraceGenTest, CsvRoundTripsDeadlinesAndTenants) {
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.num_jobs = 40;
  cfg.seed = 5;
  cfg.deadline_fraction = 0.5;
  cfg.num_tenants = 4;
  const Trace a = gen.generate(cfg);
  int with_deadline = 0, tenants_seen = 0;
  std::map<int, int> per_tenant;
  for (const auto& j : a.jobs) {
    if (j.has_deadline()) ++with_deadline;
    ++per_tenant[j.tenant];
  }
  tenants_seen = static_cast<int>(per_tenant.size());
  EXPECT_GT(with_deadline, 5);  // ~half the trace
  EXPECT_LT(with_deadline, 35);
  EXPECT_EQ(tenants_seen, 4);

  const Trace b = trace_from_csv(trace_to_csv(a, reg_), reg_);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].tenant, b.jobs[i].tenant) << "job " << i;
    EXPECT_EQ(a.jobs[i].has_deadline(), b.jobs[i].has_deadline()) << "job " << i;
    EXPECT_NEAR(a.jobs[i].deadline, b.jobs[i].deadline, 1e-3) << "job " << i;
  }
}

TEST_F(TraceGenTest, LegacyCsvWithoutSloColumnsLoadsWithDefaults) {
  // CSVs written before the deadline_s/tenant columns existed must still
  // load: no deadline, tenant 0.
  const std::string csv =
      "id,model,arrival_s,workers,epochs,chunks_per_epoch,size_class,"
      "ckpt_save_s,ckpt_load_s,model_size_mb,x_V100,x_P100,x_K80\n"
      "0,LSTM,0,1,1,1,S,1,1,1,10,4,1\n"
      "1,LSTM,5,2,1,1,S,1,1,1,10,4,1\n";
  const Trace t = trace_from_csv(csv, reg_);
  ASSERT_EQ(t.jobs.size(), 2u);
  for (const auto& j : t.jobs) {
    EXPECT_FALSE(j.has_deadline());
    EXPECT_DOUBLE_EQ(j.deadline, 0.0);
    EXPECT_EQ(j.tenant, 0);
  }
}

TEST_F(TraceGenTest, SloKnobsOffKeepTraceByteIdentical) {
  // The salted per-job SLO streams must not perturb the base trace: with the
  // knobs at their defaults the generated jobs match a config that never
  // heard of deadlines, field for field.
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.num_jobs = 30;
  cfg.seed = 99;
  const Trace plain = gen.generate(cfg);
  TraceGenConfig slo = cfg;
  slo.deadline_fraction = 0.5;
  slo.num_tenants = 3;
  const Trace tagged = gen.generate(slo);
  ASSERT_EQ(plain.jobs.size(), tagged.jobs.size());
  for (std::size_t i = 0; i < plain.jobs.size(); ++i) {
    JobSpec stripped = tagged.jobs[i];
    stripped.deadline = 0.0;
    stripped.tenant = 0;
    EXPECT_EQ(stripped, plain.jobs[i]) << "job " << i;
  }
}

TEST_F(TraceGenTest, DeadlinesLandInsideTheSlackBand) {
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.num_jobs = 60;
  cfg.seed = 8;
  cfg.deadline_fraction = 1.0;
  cfg.deadline_slack_lo = 2.0;
  cfg.deadline_slack_hi = 3.0;
  const Trace t = gen.generate(cfg);
  for (const auto& j : t.jobs) {
    ASSERT_TRUE(j.has_deadline());
    const double slack = (j.deadline - j.arrival) / j.min_runtime();
    EXPECT_GE(slack, 2.0 - 1e-9);
    EXPECT_LE(slack, 3.0 + 1e-9);
  }
}

TEST_F(TraceGenTest, JobSpecBinaryRoundTripsSloFields) {
  JobSpec a;
  a.id = 3;
  a.model = "LSTM";
  a.arrival = 12.0;
  a.num_workers = 2;
  a.epochs = 4;
  a.chunks_per_epoch = 10;
  a.throughput = {10.0, 4.0, 1.0};
  a.deadline = 4321.0;
  a.tenant = 7;
  common::BinaryWriter w;
  a.save(w);
  const std::string blob = w.take();
  common::BinaryReader r(blob);
  const JobSpec b = JobSpec::restore(r);
  EXPECT_EQ(a, b);
}

TEST_F(TraceGenTest, RejectsBadSloConfig) {
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.num_jobs = 5;
  cfg.deadline_fraction = 1.5;
  EXPECT_THROW(gen.generate(cfg), std::invalid_argument);
  cfg.deadline_fraction = 0.5;
  cfg.deadline_slack_lo = 0.0;
  EXPECT_THROW(gen.generate(cfg), std::invalid_argument);
  cfg.deadline_slack_lo = 3.0;
  cfg.deadline_slack_hi = 2.0;  // hi < lo
  EXPECT_THROW(gen.generate(cfg), std::invalid_argument);
  cfg.deadline_slack_hi = 4.0;
  cfg.num_tenants = 0;
  EXPECT_THROW(gen.generate(cfg), std::invalid_argument);
}

TEST_F(TraceGenTest, CsvRejectsMissingColumns) {
  EXPECT_THROW(trace_from_csv("id,model\n0,LSTM\n", reg_), std::runtime_error);
}

TEST_F(TraceGenTest, CsvRejectsMalformedNumbers) {
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.num_jobs = 1;
  std::string csv = trace_to_csv(gen.generate(cfg), reg_);
  const auto pos = csv.find("\n") + 1;  // first data row
  csv = csv.substr(0, pos) + "x,LSTM,abc,1,1,1,S,1,1,1,1,1,1\n";
  EXPECT_THROW(trace_from_csv(csv, reg_), std::runtime_error);
}

TEST_F(TraceGenTest, CsvRejectsBadSizeClass) {
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.num_jobs = 1;
  std::string csv = trace_to_csv(gen.generate(cfg), reg_);
  // Replace the valid size-class token with garbage, keeping the row shape.
  const auto pos = csv.find("\n") + 1;
  csv = csv.substr(0, pos) + "0,LSTM,0,1,1,1,HUGE,1,1,1,1,1,1\n";
  EXPECT_THROW(trace_from_csv(csv, reg_), std::runtime_error);
}

TEST_F(TraceGenTest, CsvRejectsTrailingGarbageInNumber) {
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.num_jobs = 1;
  std::string csv = trace_to_csv(gen.generate(cfg), reg_);
  // "12abc" parses a prefix via stod but must still be rejected.
  const auto pos = csv.find("\n") + 1;
  csv = csv.substr(0, pos) + "0,LSTM,12abc,1,1,1,S,1,1,1,1,1,1\n";
  EXPECT_THROW(trace_from_csv(csv, reg_), std::runtime_error);
}

TEST_F(TraceGenTest, CsvRejectsMalformedWorkerCount) {
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.num_jobs = 1;
  std::string csv = trace_to_csv(gen.generate(cfg), reg_);
  const auto pos = csv.find("\n") + 1;
  csv = csv.substr(0, pos) + "0,LSTM,0,two,1,1,S,1,1,1,1,1,1\n";
  EXPECT_THROW(trace_from_csv(csv, reg_), std::runtime_error);
}

TEST_F(TraceGenTest, CsvRejectsMissingThroughputColumn) {
  // All scalar columns present, but no x_<type> columns for the registry.
  const std::string csv =
      "id,model,arrival_s,workers,epochs,chunks_per_epoch,size_class,"
      "ckpt_save_s,ckpt_load_s,model_size_mb\n"
      "0,LSTM,0,1,1,1,S,1,1,1\n";
  EXPECT_THROW(trace_from_csv(csv, reg_), std::runtime_error);
}

// Regression for the step-invariance bug: arrival streams used to share one
// RNG, so job k's attributes depended on how many draws jobs 0..k-1 made and
// a stream resumed from a cursor diverged from batch generation. Every job
// now forks its own stream from (seed, index).
TEST_F(TraceGenTest, StreamMatchesBatchGeneration) {
  TraceGenConfig cfg;
  cfg.num_jobs = 40;
  cfg.arrivals = ArrivalPattern::kContinuous;
  cfg.jobs_per_hour = 90.0;
  cfg.seed = 1234;
  const Trace batch = TraceGenerator(&zoo_, &reg_).generate(cfg);
  TraceStream stream(&zoo_, &reg_, cfg);
  for (int i = 0; i < cfg.num_jobs; ++i) {
    EXPECT_EQ(stream.next(), batch.jobs[static_cast<std::size_t>(i)]) << "job " << i;
  }
}

TEST_F(TraceGenTest, StreamResumedFromSavedCursorIsIdentical) {
  TraceGenConfig cfg;
  cfg.num_jobs = 30;
  cfg.arrivals = ArrivalPattern::kContinuous;
  cfg.jobs_per_hour = 120.0;
  cfg.diurnal_amplitude = 0.4;
  cfg.seed = 77;
  TraceStream full(&zoo_, &reg_, cfg);
  TraceStream head(&zoo_, &reg_, cfg);
  std::vector<JobSpec> expected;
  for (int i = 0; i < 30; ++i) expected.push_back(full.next());
  for (int i = 0; i < 11; ++i) EXPECT_EQ(head.next(), expected[static_cast<std::size_t>(i)]);

  common::BinaryWriter w;
  head.save(w);
  const std::string blob = w.take();
  // A crash between job 11 and 12: a fresh stream restored from the durable
  // cursor must emit the identical suffix.
  TraceStream resumed(&zoo_, &reg_, cfg);
  common::BinaryReader r(blob);
  resumed.restore(r);
  EXPECT_EQ(resumed.index(), 11);
  for (int i = 11; i < 30; ++i) {
    EXPECT_EQ(resumed.next(), expected[static_cast<std::size_t>(i)]) << "job " << i;
  }
}

TEST_F(TraceGenTest, ReadTraceFileRejectsMissingPath) {
  EXPECT_THROW(read_trace_file(::testing::TempDir() + "/no-such-trace.csv", reg_),
               std::runtime_error);
}

TEST_F(TraceGenTest, FileRoundTrip) {
  TraceGenerator gen(&zoo_, &reg_);
  TraceGenConfig cfg;
  cfg.num_jobs = 5;
  const Trace a = gen.generate(cfg);
  const std::string path = ::testing::TempDir() + "/trace.csv";
  ASSERT_TRUE(write_trace_file(path, a, reg_));
  const Trace b = read_trace_file(path, reg_);
  EXPECT_EQ(a.jobs.size(), b.jobs.size());
  EXPECT_THROW(read_trace_file("/nonexistent/nope.csv", reg_), std::runtime_error);
}

}  // namespace
}  // namespace hadar::workload

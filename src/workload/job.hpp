// DNN training job model (Table I of the paper): a job j arrives at a_j,
// requests W_j workers, trains E_j epochs of N_j data chunks each, and runs
// at X_j^r iterations/second per worker on a type-r accelerator.
#pragma once

#include <string>
#include <vector>

#include "cluster/gpu_type.hpp"
#include "common/types.hpp"

namespace hadar::common {
class BinaryWriter;
class BinaryReader;
}  // namespace hadar::common

namespace hadar::workload {

/// GPU-time size classes used to synthesize the Microsoft trace workloads
/// (Sec. IV-A): Small 0-1, Medium 1-10, Large 10-50, XLarge 60-100 GPU-hours.
enum class SizeClass { kSmall, kMedium, kLarge, kXLarge };

const char* to_string(SizeClass c);

/// Immutable description of one training job.
struct JobSpec {
  JobId id = kInvalidJob;
  std::string model;                 ///< Table II model name, e.g. "ResNet-50"
  Seconds arrival = 0.0;             ///< a_j
  int num_workers = 1;               ///< W_j (gang size)
  std::int64_t epochs = 1;           ///< E_j
  std::int64_t chunks_per_epoch = 1; ///< N_j (iterations per epoch)
  std::vector<double> throughput;    ///< X_j^r, iterations/s per worker, per type id
  Seconds checkpoint_save = 1.0;     ///< periodic checkpoint cost per round
  Seconds checkpoint_load = 9.0;     ///< extra cost when the allocation changed
  double model_size_mb = 100.0;      ///< DNN parameter size (network/ckpt models)
  SizeClass size_class = SizeClass::kSmall;
  Seconds deadline = 0.0;            ///< absolute completion deadline; <= 0 means none
  int tenant = 0;                    ///< owning tenant id (quota accounting); 0 = default

  /// True when the job carries an SLO deadline.
  bool has_deadline() const { return deadline > 0.0; }

  /// Total work E_j * N_j in iterations.
  double total_iterations() const {
    return static_cast<double>(epochs) * static_cast<double>(chunks_per_epoch);
  }

  double throughput_on(GpuTypeId r) const {
    return (r >= 0 && static_cast<std::size_t>(r) < throughput.size())
               ? throughput[static_cast<std::size_t>(r)]
               : 0.0;
  }

  /// Fastest / slowest per-worker rate across types with nonzero rate.
  double max_throughput() const;
  double min_throughput() const;

  /// t_j^min / t_j^max (Eq. 8): runtime with all W_j workers on the fastest /
  /// slowest device type.
  Seconds min_runtime() const;
  Seconds max_runtime() const;

  /// Throws std::invalid_argument when any field is inconsistent (W<=0,
  /// no positive throughput, a non-finite value, ...). Called by the trace
  /// loaders, RoundEngine::admit and SchedulerDaemon::submit.
  void validate(int num_types) const;

  /// Bit-exact persistence (changelog records, engine snapshots).
  void save(common::BinaryWriter& w) const;
  static JobSpec restore(common::BinaryReader& r);

  friend bool operator==(const JobSpec&, const JobSpec&) = default;
};

/// A trace is an arrival-ordered list of jobs with dense ids.
struct Trace {
  std::vector<JobSpec> jobs;

  /// Sorts by arrival and reassigns dense ids in arrival order.
  void finalize();

  /// Sum over jobs of W_j * ideal runtime, in GPU-hours (load indicator).
  double total_gpu_hours() const;
};

}  // namespace hadar::workload

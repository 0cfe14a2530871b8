#include "workload/job.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/binary.hpp"

namespace hadar::workload {

const char* to_string(SizeClass c) {
  switch (c) {
    case SizeClass::kSmall: return "S";
    case SizeClass::kMedium: return "M";
    case SizeClass::kLarge: return "L";
    case SizeClass::kXLarge: return "XL";
  }
  return "?";
}

double JobSpec::max_throughput() const {
  double x = 0.0;
  for (double v : throughput) x = std::max(x, v);
  return x;
}

double JobSpec::min_throughput() const {
  double x = 0.0;
  bool seen = false;
  for (double v : throughput) {
    if (v > 0.0) {
      x = seen ? std::min(x, v) : v;
      seen = true;
    }
  }
  return seen ? x : 0.0;
}

Seconds JobSpec::min_runtime() const {
  const double x = max_throughput();
  if (x <= 0.0 || num_workers <= 0) return kInfiniteTime;
  return total_iterations() / (x * num_workers);
}

Seconds JobSpec::max_runtime() const {
  const double x = min_throughput();
  if (x <= 0.0 || num_workers <= 0) return kInfiniteTime;
  return total_iterations() / (x * num_workers);
}

void JobSpec::validate(int num_types) const {
  if (num_workers <= 0) throw std::invalid_argument("JobSpec: num_workers <= 0");
  if (epochs <= 0) throw std::invalid_argument("JobSpec: epochs <= 0");
  if (chunks_per_epoch <= 0) throw std::invalid_argument("JobSpec: chunks_per_epoch <= 0");
  if (!std::isfinite(arrival)) throw std::invalid_argument("JobSpec: non-finite arrival");
  if (arrival < 0.0) throw std::invalid_argument("JobSpec: negative arrival");
  if (throughput.size() != static_cast<std::size_t>(num_types)) {
    throw std::invalid_argument("JobSpec: throughput arity != num GPU types");
  }
  for (double v : throughput) {
    if (!std::isfinite(v)) throw std::invalid_argument("JobSpec: non-finite throughput");
  }
  if (max_throughput() <= 0.0) {
    throw std::invalid_argument("JobSpec: no device type with positive throughput");
  }
  for (double v : throughput) {
    if (v < 0.0) throw std::invalid_argument("JobSpec: negative throughput");
  }
  if (!std::isfinite(checkpoint_save) || !std::isfinite(checkpoint_load)) {
    throw std::invalid_argument("JobSpec: non-finite checkpoint cost");
  }
  if (checkpoint_save < 0.0 || checkpoint_load < 0.0) {
    throw std::invalid_argument("JobSpec: negative checkpoint cost");
  }
  if (!std::isfinite(model_size_mb)) throw std::invalid_argument("JobSpec: non-finite model size");
  if (model_size_mb < 0.0) throw std::invalid_argument("JobSpec: negative model size");
  if (!std::isfinite(deadline)) throw std::invalid_argument("JobSpec: non-finite deadline");
  if (has_deadline() && deadline < arrival) {
    throw std::invalid_argument("JobSpec: deadline before arrival");
  }
  if (tenant < 0) throw std::invalid_argument("JobSpec: negative tenant id");
}

void JobSpec::save(common::BinaryWriter& w) const {
  w.i32(id);
  w.str(model);
  w.f64(arrival);
  w.i32(num_workers);
  w.i64(epochs);
  w.i64(chunks_per_epoch);
  common::write_f64_vector(w, throughput);
  w.f64(checkpoint_save);
  w.f64(checkpoint_load);
  w.f64(model_size_mb);
  w.u8(static_cast<std::uint8_t>(size_class));
  w.f64(deadline);
  w.i32(tenant);
}

JobSpec JobSpec::restore(common::BinaryReader& r) {
  JobSpec j;
  j.id = r.i32();
  j.model = r.str();
  j.arrival = r.f64();
  j.num_workers = r.i32();
  j.epochs = r.i64();
  j.chunks_per_epoch = r.i64();
  j.throughput = common::read_f64_vector(r);
  j.checkpoint_save = r.f64();
  j.checkpoint_load = r.f64();
  j.model_size_mb = r.f64();
  j.size_class = static_cast<SizeClass>(r.u8());
  j.deadline = r.f64();
  j.tenant = r.i32();
  return j;
}

void Trace::finalize() {
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const JobSpec& a, const JobSpec& b) { return a.arrival < b.arrival; });
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].id = static_cast<JobId>(i);
}

double Trace::total_gpu_hours() const {
  double s = 0.0;
  for (const auto& j : jobs) {
    const double rt = j.min_runtime();
    if (rt != kInfiniteTime) s += rt * j.num_workers / 3600.0;
  }
  return s;
}

}  // namespace hadar::workload

// Shared plumbing for the perfbench workloads: wall clock, sample statistics,
// the run report (end-to-end and per-layer metrics plus operation counts),
// and the schedule digest that ties a traced run to its untraced twin.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/allocation.hpp"
#include "common/stats.hpp"

namespace perfbench {

/// Monotonic wall time in seconds; comparable across threads.
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The spans a traced run records around each public call it times. They
/// stay in memory and are written out as Chrome trace JSON when the run
/// ends. Untraced runs install none, and span() is then one atomic load.
class SpanLog {
 public:
  static SpanLog* active() { return active_.load(std::memory_order_acquire); }
  static void install(SpanLog* log) { active_.store(log, std::memory_order_release); }

  /// `name` must be a string literal. Thread-safe.
  void record(const char* name, double start, double end);
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int tid;
  };
  static std::atomic<SpanLog*> active_;
  const double origin_ = now_s();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

inline void span(const char* name, double start, double end) {
  if (SpanLog* log = SpanLog::active()) log->record(name, start, end);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the daemon workload may create its service directories in.
  std::string scratch_dir;
  /// Where a traced run writes its spans (Chrome trace JSON); may be empty.
  std::string span_file;
};

/// Means of per-round (or per-call) layer samples, keyed by metric name.
class LayerTally {
 public:
  void add(const std::string& name, double value) {
    auto& e = sums_[name];
    e.first += value;
    e.second += 1;
  }
  double mean(const std::string& name) const {
    const auto it = sums_.find(name);
    return it == sums_.end() || it->second.second == 0 ? 0.0
                                                       : it->second.first / it->second.second;
  }
  double sum(const std::string& name) const {
    const auto it = sums_.find(name);
    return it == sums_.end() ? 0.0 : it->second.first;
  }

 private:
  std::map<std::string, std::pair<double, long long>> sums_;
};

/// What one workload run hands back to main().
struct Report {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> errors;
  /// End-to-end metrics (untraced runs) or per-layer metrics (traced runs).
  std::map<std::string, double> metrics;
  /// Schedule digest over every checked round, for traced/untraced equality.
  std::uint64_t digest = 0;
  /// Measured rounds (matrix passes on paper_matrix): the traced pass
  /// replays exactly this many.
  long long measured_rounds = 0;

  void fail(const std::string& msg) {
    if (errors.size() < 8) errors.push_back(msg);
    correct = false;
  }
};

using hadar::common::median;
/// The highest percentile of `v` that still has at least `beyond` samples
/// above it: the value at sorted index n - beyond - 1.
double tail_value(std::vector<double> v, int beyond = 10);
double peak_rss_mb();

/// FNV-1a over every round's decision, in round order.
class Digest {
 public:
  void add(std::uint64_t v);
  void add_round(long long round, const hadar::cluster::AllocationMap& m);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Rounds a window covers: whole periods of Hadar's full re-solve cadence.
inline constexpr int kPeriod = 5;
/// Minimum measured rounds so round_tail_ms has >= 10 samples beyond it that
/// all fall in the full re-solve mode (one round in five).
inline constexpr int kMinRounds = 60;

/// Measured rounds for a run of `seconds`: `per_10s` rounds per ten seconds
/// (about what the reference machine completes), rounded up to whole
/// `period`s and at least kMinRounds. The count depends on --seconds only,
/// never on how fast rounds run, so every commit measures the same work.
long long window_rounds(double per_10s, double seconds, int period);

}  // namespace perfbench

#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::atomic<SpanLog*> SpanLog::active_{nullptr};

void SpanLog::record(const char* name, double start, double end) {
  static std::atomic<int> next_tid{0};
  thread_local const int tid = next_tid++;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, end, tid});
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}%s\n",
                 s.name, s.tid, (s.start - origin_) * 1e6, (s.end - s.start) * 1e6,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

long long window_rounds(double per_10s, double seconds, int period) {
  const double want = std::max<double>(kMinRounds, per_10s * seconds / 10.0);
  return static_cast<long long>(std::ceil(want / period)) * period;
}

double tail_value(std::vector<double> v, int beyond) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const long long idx = static_cast<long long>(v.size()) - beyond - 1;
  return v[static_cast<std::size_t>(std::max(0LL, idx))];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

void Digest::add_round(long long round, const hadar::cluster::AllocationMap& m) {
  add(static_cast<std::uint64_t>(round));
  add(m.size());
  for (const auto& [id, alloc] : m) {
    add(static_cast<std::uint64_t>(id));
    for (const auto& p : alloc.placements()) {
      add(static_cast<std::uint64_t>(p.node));
      add(static_cast<std::uint64_t>(p.type));
      add(static_cast<std::uint64_t>(p.count));
    }
  }
}

}  // namespace perfbench

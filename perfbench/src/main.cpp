// perfbench: runs one workload and prints its metrics. The last stdout line
// is one JSON object {"correct", "attempted", "failed", "metrics"}; with
// --trace 1 the metrics are the per-layer ones, else the end-to-end ones.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch-dir <dir> [--span-file <path>]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "layers.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Report;
using Runner = Report (*)(const perfbench::Options&, bool, long long);

const std::map<std::string, Runner> kWorkloads = {
    {"static_flat_1k", perfbench::run_static_flat},
    {"sharded_10k", perfbench::run_sharded},
    {"daemon_churn", perfbench::run_daemon_churn},
    {"paper_matrix", perfbench::run_paper_matrix},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <%s> --seed <n> --seconds <s> --trace <0|1> "
               "--scratch-dir <dir> [--span-file <path>]\n",
               argv0, "static_flat_1k|sharded_10k|daemon_churn|paper_matrix");
  return 2;
}

void print(const Report& r, const std::vector<perfbench::MetricDef>& defs) {
  Report out = r;
  std::string json = "{\"metrics\": {";
  bool first = true;
  for (const auto& d : defs) {
    const auto it = r.metrics.find(d.name);
    double v = it == r.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      out.fail(std::string("metric ") + d.name + " is not finite");
      v = 0.0;
    }
    std::printf("%-30s %16.6f %s\n", d.name, v, d.unit);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  first ? "" : ", ", d.name, v, d.unit);
    json += buf;
    first = false;
  }
  json += "}";
  for (const auto& e : out.errors) std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  std::printf("attempted %lld, failed %lld, correct %s\n", out.attempted, out.failed,
              out.correct ? "yes" : "no");
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, %s}\n",
              out.correct ? "true" : "false", out.attempted, out.failed, json.c_str() + 1);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      o.seconds = std::atof(v);
      have_seconds = o.seconds > 0.0;
    } else if (k == "--trace") {
      trace = std::atoi(v);
    } else if (k == "--scratch-dir") {
      o.scratch_dir = v;
    } else if (k == "--span-file") {
      o.span_file = v;
    } else {
      return usage(argv[0]);
    }
  }
  const auto it = kWorkloads.find(o.workload);
  if (argc % 2 == 0 || it == kWorkloads.end() || !have_seed || !have_seconds ||
      (trace != 0 && trace != 1) || o.scratch_dir.empty()) {
    return usage(argv[0]);
  }
  o.trace = trace == 1;

  try {
    Report untraced = it->second(o, false, 0);
    if (!o.trace) {
      print(untraced, perfbench::kEndToEnd);
      return 0;
    }
    // Traced twin: the same inputs and the same number of measured rounds,
    // with the decorators and counters in place. Its schedule must match.
    perfbench::SpanLog spans;
    perfbench::SpanLog::install(&spans);
    Report traced = it->second(o, true, untraced.measured_rounds);
    perfbench::SpanLog::install(nullptr);
    if (!o.span_file.empty() && !spans.write_chrome_json(o.span_file)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.span_file.c_str());
    }
    if (traced.digest != untraced.digest) {
      traced.fail("traced schedule digest differs from the untraced run");
    }
    for (const auto& e : untraced.errors) traced.fail("untraced pass: " + e);
    traced.attempted += untraced.attempted;
    traced.failed += untraced.failed;
    traced.metrics["obs.trace_overhead_pct"] =
        100.0 * (1.0 - traced.metrics["rounds_per_s"] / untraced.metrics["rounds_per_s"]);
    print(traced, perfbench::kPerLayer);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
}

// The four workloads. Each runs in its own process. `traced` adds the
// per-layer decorators and counters; `rounds` > 0 replays exactly that many
// measured rounds (the traced twin of an untraced run) instead of the
// window opts.seconds sets.
#pragma once

#include "common.hpp"

namespace perfbench {

Report run_static_flat(const Options& opts, bool traced, long long rounds);
Report run_sharded(const Options& opts, bool traced, long long rounds);
Report run_daemon_churn(const Options& opts, bool traced, long long rounds);
Report run_paper_matrix(const Options& opts, bool traced, long long rounds);

}  // namespace perfbench

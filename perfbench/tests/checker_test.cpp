// Self-test of the benchmark's output checker: a valid decision passes and
// each hand-corrupted one (over capacity, partial gang, duplicate job,
// unknown or finished job) is rejected. Exits non-zero on any miss.
#include <cstdio>
#include <string>

#include "checker.hpp"

namespace {

using hadar::cluster::JobAllocation;
using hadar::cluster::TaskPlacement;

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%-44s %s\n", what, ok ? "ok" : "FAILED");
  if (!ok) ++failures;
}

JobAllocation alloc(std::initializer_list<TaskPlacement> p) { return JobAllocation(p); }

}  // namespace

int main() {
  // 15 nodes, 4 GPUs each; nodes 0-4 hold type 0.
  const auto spec = hadar::cluster::ClusterSpec::simulation_default();
  perfbench::AllocationChecker checker(spec);
  checker.admit(1, 4);
  checker.admit(2, 2);
  checker.admit(3, 1);

  const perfbench::Placed valid = {{1, alloc({{0, 0, 4}})}, {2, alloc({{1, 0, 2}})}};
  expect(checker.check(valid).empty(), "valid decision accepted");

  const perfbench::Placed over = {{1, alloc({{0, 0, 4}})}, {2, alloc({{0, 0, 2}})}};
  expect(!checker.check(over).empty(), "over-capacity node rejected");

  const perfbench::Placed wrong_type = {{2, alloc({{0, 1, 2}})}};
  expect(!checker.check(wrong_type).empty(), "device type absent on node rejected");

  const perfbench::Placed partial = {{1, alloc({{0, 0, 3}})}};
  expect(!checker.check(partial).empty(), "partial gang rejected");

  const perfbench::Placed oversized = {{3, alloc({{2, 0, 1}, {3, 0, 1}})}};
  expect(!checker.check(oversized).empty(), "gang larger than num_workers rejected");

  const perfbench::Placed twice = {{3, alloc({{2, 0, 1}})}, {3, alloc({{3, 0, 1}})}};
  expect(!checker.check(twice).empty(), "duplicate job rejected");

  const perfbench::Placed unknown = {{9, alloc({{2, 0, 1}})}};
  expect(!checker.check(unknown).empty(), "never-admitted job rejected");

  checker.finish(3);
  const perfbench::Placed finished = {{3, alloc({{2, 0, 1}})}};
  expect(!checker.check(finished).empty(), "finished job rejected");

  const perfbench::Placed bad_node = {{2, alloc({{99, 0, 2}})}};
  expect(!checker.check(bad_node).empty(), "unknown node rejected");

  // The checker's scratch must not leak between calls.
  expect(checker.check(valid).empty(), "valid decision accepted again");

  std::printf("%s\n", failures == 0 ? "checker self-test: ok" : "checker self-test: FAILED");
  return failures == 0 ? 0 : 1;
}

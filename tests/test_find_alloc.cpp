// Tests for FIND_ALLOC (Algorithm 2 lines 22-34): feasibility, gang sizing,
// bottleneck-aware candidate choice, slowest-eligible-first filling,
// consolidation preferences, communication costs, config ablations, and a
// differential check against the reference implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/find_alloc.hpp"
#include "find_alloc_reference.hpp"
#include "test_util.hpp"

namespace hadar::core {
namespace {

using cluster::ClusterSpec;
using cluster::ClusterState;
using cluster::GpuTypeRegistry;
using cluster::JobAllocation;
using test::ContextBuilder;

struct Fixture {
  explicit Fixture(ClusterSpec s) : spec(std::move(s)), builder(&spec), state(&spec) {}

  std::optional<AllocCandidate> run(const sim::JobView& job,
                                    const FindAllocConfig& cfg = {},
                                    UtilityKind kind = UtilityKind::kEffectiveThroughput) {
    const UtilityFunction u(kind, 4.0);
    PriceBook book(spec.num_types(), PricingConfig{});
    auto ctx = builder.build();
    book.compute_bounds(ctx, u);
    return find_alloc(job, state, book, u, /*now=*/0.0, sim::NetworkModel{}, cfg);
  }

  ClusterSpec spec;
  ContextBuilder builder;
  ClusterState state;
};

TEST(FindAlloc, ReturnsGangSizedAllocation) {
  Fixture f(ClusterSpec::simulation_default());
  f.builder.add_job(4, 10000.0, {10.0, 5.0, 1.0});
  const auto ctx = f.builder.build();
  const auto cand = f.run(ctx.jobs[0]);
  ASSERT_TRUE(cand.has_value());
  EXPECT_EQ(cand->alloc.total_workers(), 4);
  EXPECT_GT(cand->payoff, 0.0);
}

TEST(FindAlloc, PrefersFastTypeOnEmptyCluster) {
  Fixture f(ClusterSpec::simulation_default());
  f.builder.add_job(4, 10000.0, {10.0, 5.0, 1.0});
  const auto ctx = f.builder.build();
  const auto cand = f.run(ctx.jobs[0]);
  ASSERT_TRUE(cand.has_value());
  // All four workers on V100s (type 0): nothing beats stretch 1.
  EXPECT_EQ(cand->alloc.workers_of_type(0), 4);
  EXPECT_EQ(cand->alloc.types_used(), 1);
}

TEST(FindAlloc, MixesTypesWhenFastOnesAreScarce) {
  // 2 V100 free; job wants 3 workers and runs nearly as fast on P100.
  Fixture f(ClusterSpec::simulation_default());
  f.builder.add_job(3, 10000.0, {10.0, 9.5, 1.0});
  const auto ctx = f.builder.build();
  // Occupy 18 of 20 V100s.
  for (NodeId h = 0; h < 4; ++h) f.state.allocate(JobAllocation({{h, 0, 4}}));
  f.state.allocate(JobAllocation({{4, 0, 2}}));
  const auto cand = f.run(ctx.jobs[0]);
  ASSERT_TRUE(cand.has_value());
  EXPECT_EQ(cand->alloc.total_workers(), 3);
  // P100-level bottleneck (stretch ~1.05) beats waiting; workers must avoid
  // the K80 (bottleneck 1.0 -> stretch 10).
  EXPECT_EQ(cand->alloc.workers_of_type(2), 0);
}

TEST(FindAlloc, SlowestEligibleFirstLeavesFastGpusFree) {
  // Job 0 runs equally well everywhere => the bottleneck is identical for
  // any placement. With a V100-hungry job in the queue (raising the V100
  // price via Eq. 6), the fill must avoid the V100s and leave them for the
  // job that can exploit them.
  Fixture f(ClusterSpec::simulation_default());
  f.builder.add_job(4, 1000.0, {2.0, 2.0, 2.0});
  f.builder.add_job(4, 100000.0, {30.0, 5.0, 1.0});  // values V100 30x
  const auto ctx = f.builder.build();
  const auto cand = f.run(ctx.jobs[0]);
  ASSERT_TRUE(cand.has_value());
  EXPECT_EQ(cand->alloc.workers_of_type(0), 0);
}

TEST(FindAlloc, InfeasibleWhenGangCannotFit) {
  Fixture f(ClusterSpec::simulation_default());
  f.builder.add_job(61, 1000.0, {1.0, 1.0, 1.0});  // cluster has 60 GPUs
  const auto ctx = f.builder.build();
  EXPECT_FALSE(f.run(ctx.jobs[0]).has_value());
}

TEST(FindAlloc, InfeasibleOnFullCluster) {
  Fixture f(ClusterSpec::simulation_default());
  f.builder.add_job(1, 1000.0, {1.0, 1.0, 1.0});
  const auto ctx = f.builder.build();
  for (NodeId h = 0; h < f.spec.num_nodes(); ++h) {
    for (GpuTypeId r = 0; r < 3; ++r) {
      const int free = f.state.free_count(h, r);
      if (free > 0) f.state.allocate(JobAllocation({{h, r, free}}));
    }
  }
  EXPECT_FALSE(f.run(ctx.jobs[0]).has_value());
}

TEST(FindAlloc, SkipsIncompatibleTypes) {
  // Job can only run on K80s (type 2).
  Fixture f(ClusterSpec::simulation_default());
  f.builder.add_job(4, 1000.0, {0.0, 0.0, 3.0});
  const auto ctx = f.builder.build();
  const auto cand = f.run(ctx.jobs[0]);
  ASSERT_TRUE(cand.has_value());
  EXPECT_EQ(cand->alloc.workers_of_type(2), 4);
  EXPECT_EQ(cand->alloc.types_used(), 1);
}

TEST(FindAlloc, ConsolidatesWithinANodeWhenPossible) {
  Fixture f(ClusterSpec::simulation_default());
  f.builder.add_job(4, 10000.0, {10.0, 5.0, 1.0});
  const auto ctx = f.builder.build();
  const auto cand = f.run(ctx.jobs[0]);
  ASSERT_TRUE(cand.has_value());
  EXPECT_EQ(cand->alloc.nodes_used(), 1);  // a 4-GPU node fits the gang
}

TEST(FindAlloc, MultiNodePaysCommunicationCost) {
  // 8 workers cannot fit one 4-GPU node: the candidate spans nodes and its
  // cost must exceed the pure device cost.
  Fixture f(ClusterSpec::simulation_default());
  f.builder.add_job(8, 10000.0, {10.0, 5.0, 1.0});
  const auto ctx = f.builder.build();
  FindAllocConfig cfg;
  cfg.comm_cost_weight = 0.5;
  const auto with_comm = f.run(ctx.jobs[0], cfg);
  cfg.comm_cost_weight = 0.0;
  const auto without = f.run(ctx.jobs[0], cfg);
  ASSERT_TRUE(with_comm.has_value());
  ASSERT_TRUE(without.has_value());
  EXPECT_GT(with_comm->alloc.nodes_used(), 1);
  EXPECT_GT(with_comm->cost, without->cost);
}

TEST(FindAlloc, DisallowMultiNodeRestrictsToOneNode) {
  Fixture f(ClusterSpec::simulation_default());
  f.builder.add_job(8, 10000.0, {10.0, 5.0, 1.0});
  const auto ctx = f.builder.build();
  FindAllocConfig cfg;
  cfg.allow_multi_node = false;
  // 8 workers cannot fit any single 4-GPU node.
  EXPECT_FALSE(f.run(ctx.jobs[0], cfg).has_value());
}

TEST(FindAlloc, DisallowMixedTypesForcesHomogeneity) {
  // 2 V100 + 2 P100 free in total; a 3-worker job must mix or fail.
  auto spec = ClusterSpec::from_counts(GpuTypeRegistry::simulation_default(),
                                       {{std::vector<int>{2, 2, 0}}});
  Fixture f(std::move(spec));
  f.builder.add_job(3, 1000.0, {10.0, 9.0, 1.0});
  const auto ctx = f.builder.build();
  FindAllocConfig strict;
  strict.allow_mixed_types = false;
  EXPECT_FALSE(f.run(ctx.jobs[0], strict).has_value());
  FindAllocConfig loose;
  const auto cand = f.run(ctx.jobs[0], loose);
  ASSERT_TRUE(cand.has_value());
  EXPECT_EQ(cand->alloc.types_used(), 2);
}

TEST(FindAlloc, CurrentAllocationIsACandidate) {
  Fixture f(ClusterSpec::simulation_default());
  f.builder.add_job(2, 10000.0, {10.0, 5.0, 1.0});
  auto ctx = f.builder.build();
  ctx.jobs[0].current_allocation = JobAllocation({{0, 0, 2}});
  const UtilityFunction u;
  PriceBook book(3, PricingConfig{});
  book.compute_bounds(ctx, u);
  const auto cand =
      find_alloc(ctx.jobs[0], f.state, book, u, 0.0, sim::NetworkModel{}, FindAllocConfig{});
  ASSERT_TRUE(cand.has_value());
  // The current placement is already optimal (V100s, one node): keep it.
  EXPECT_EQ(cand->alloc, ctx.jobs[0].current_allocation);
}

TEST(FindAlloc, EstimatedDurationReflectsBottleneck) {
  Fixture f(ClusterSpec::simulation_default());
  f.builder.add_job(4, 8000.0, {10.0, 5.0, 1.0});
  const auto ctx = f.builder.build();
  const auto cand = f.run(ctx.jobs[0]);
  ASSERT_TRUE(cand.has_value());
  // 8000 iters / (4 workers * 10 it/s) = 200 s on V100s.
  EXPECT_NEAR(cand->est_duration, 200.0, 1e-6);
}

TEST(FindAlloc, HigherUtilizationRaisesCost) {
  Fixture busy(ClusterSpec::simulation_default());
  busy.builder.add_job(4, 10000.0, {10.0, 5.0, 1.0});
  const auto ctx = busy.builder.build();
  const auto before = busy.run(ctx.jobs[0]);
  // Fill 16 of the 20 V100s.
  for (NodeId h = 0; h < 4; ++h) busy.state.allocate(JobAllocation({{h, 0, 4}}));
  const auto after = busy.run(ctx.jobs[0]);
  ASSERT_TRUE(before.has_value());
  ASSERT_TRUE(after.has_value());
  EXPECT_GT(after->cost, before->cost);
}

// ---------------------------------------------------- differential oracle ---
// find_alloc against the reference (gather every slot, price each, std::sort
// into fill order): same placement and the same bits of cost, utility,
// payoff and est_duration over seeded random clusters, states and jobs.

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// Returns the number of feasible candidates compared.
int expect_matches_reference(const sim::SchedulerContext& ctx, const ClusterState& state,
                             const PriceBook& book, const UtilityFunction& u,
                             const sim::NetworkModel& net, const FindAllocConfig& cfg,
                             const std::string& where) {
  int feasible = 0;
  for (const auto& job : ctx.jobs) {
    SCOPED_TRACE(where + " job " + std::to_string(job.id()));
    const auto got = find_alloc(job, state, book, u, ctx.now, net, cfg);
    const auto want = reference::find_alloc(job, state, book, u, ctx.now, net, cfg);
    EXPECT_EQ(got.has_value(), want.has_value());
    if (!got || !want) continue;
    ++feasible;
    EXPECT_EQ(got->alloc, want->alloc);
    EXPECT_EQ(bits(got->cost), bits(want->cost));
    EXPECT_EQ(bits(got->utility), bits(want->utility));
    EXPECT_EQ(bits(got->payoff), bits(want->payoff));
    EXPECT_EQ(bits(got->est_duration), bits(want->est_duration));
  }
  return feasible;
}

// A registry of `R` synthetic types (names only matter for display).
GpuTypeRegistry synthetic_types(int R) {
  std::vector<cluster::GpuTypeInfo> types;
  for (int r = 0; r < R; ++r) {
    std::string name = "T";
    name += std::to_string(r);
    types.push_back({std::move(name), 1.0 + R - r});
  }
  return GpuTypeRegistry(std::move(types));
}

// Per-type rates with zeros (incompatible types) and deliberate ties.
std::vector<double> random_rates(common::Rng& rng, int R) {
  std::vector<double> rates(static_cast<std::size_t>(R));
  const double shared = rng.uniform(0.5, 20.0);
  const int mode = static_cast<int>(rng.uniform_int(0, 2));
  for (auto& x : rates) {
    const double p = rng.uniform();
    if (mode == 0) {
      x = shared;  // every type equally fast
    } else if (p < 0.2) {
      x = 0.0;
    } else if (mode == 1 && p < 0.6) {
      x = shared;
    } else {
      x = rng.uniform(0.5, 20.0);
    }
  }
  if (*std::max_element(rates.begin(), rates.end()) <= 0.0) rates[0] = shared;
  return rates;
}

// Claims used devices cell by cell. Modes: 0 uniform, 1 most cells full and
// a few empty (cluster fraction above node fraction), 2 lightly used.
void random_fill(common::Rng& rng, const ClusterSpec& spec, ClusterState& state, int mode) {
  for (NodeId h = 0; h < spec.num_nodes(); ++h) {
    for (GpuTypeId r = 0; r < spec.num_types(); ++r) {
      const int cap = state.free_count(h, r);
      if (cap <= 0) continue;
      int used = 0;
      if (mode == 0) {
        used = static_cast<int>(rng.uniform_int(0, cap));
      } else if (mode == 1) {
        used = rng.uniform() < 0.8 ? cap : 0;
      } else {
        used = rng.uniform() < 0.3 ? static_cast<int>(rng.uniform_int(0, cap)) : 0;
      }
      if (used > 0) state.allocate(JobAllocation({{h, r, used}}));
    }
  }
}

// Gives some jobs a current allocation: a draw of free cells (which may or
// may not still fit once other cells are claimed).
void random_current(common::Rng& rng, const ClusterSpec& spec, sim::SchedulerContext& ctx) {
  for (auto& job : ctx.jobs) {
    if (rng.uniform() < 0.6) continue;
    std::vector<cluster::TaskPlacement> ps;
    int need = job.spec->num_workers;
    for (int tries = 0; need > 0 && tries < 8; ++tries) {
      const auto h = static_cast<NodeId>(rng.uniform_int(0, spec.num_nodes() - 1));
      const auto r = static_cast<GpuTypeId>(rng.uniform_int(0, spec.num_types() - 1));
      const int cap = spec.node(h).capacity(r);
      if (cap <= 0) continue;
      bool dup = false;
      for (const auto& p : ps) dup = dup || (p.node == h && p.type == r);
      if (dup) continue;
      const int take = std::min(need, static_cast<int>(rng.uniform_int(1, cap)));
      ps.push_back({h, r, take});
      need -= take;
    }
    if (need == 0) job.current_allocation = JobAllocation(ps);
  }
}

TEST(FindAllocOracle, RandomClustersMatchReference) {
  common::Rng rng(20240517);
  int feasible = 0;
  for (int c = 0; c < 300; ++c) {
    const int R = static_cast<int>(rng.uniform_int(1, 4));
    const int H = static_cast<int>(rng.uniform_int(1, 14));
    const bool single_type_nodes = rng.uniform() < 0.3;
    std::vector<std::vector<int>> counts(static_cast<std::size_t>(H),
                                         std::vector<int>(static_cast<std::size_t>(R), 0));
    static constexpr int kCaps[] = {0, 1, 2, 3, 4, 8};
    for (auto& node : counts) {
      if (single_type_nodes) {
        node[static_cast<std::size_t>(rng.uniform_int(0, R - 1))] =
            kCaps[rng.uniform_int(1, 5)];
      } else {
        for (auto& cap : node) cap = kCaps[rng.uniform_int(0, 5)];
      }
      if (*std::max_element(node.begin(), node.end()) == 0) node[0] = 4;
    }
    ClusterSpec spec = ClusterSpec::from_counts(synthetic_types(R), counts);
    if (rng.uniform() < 0.25) {  // a dead node and a degraded device
      cluster::AvailabilityMask mask(spec);
      mask.set_node_up(static_cast<NodeId>(rng.uniform_int(0, H - 1)), false);
      mask.degrade(static_cast<NodeId>(rng.uniform_int(0, H - 1)),
                   static_cast<GpuTypeId>(rng.uniform_int(0, R - 1)), 1);
      spec = spec.masked(mask);
    }
    Fixture w(std::move(spec));
    const int jobs = static_cast<int>(rng.uniform_int(1, 6));
    for (int j = 0; j < jobs; ++j) {
      w.builder.add_job(static_cast<int>(rng.uniform_int(1, 12)), rng.uniform(500.0, 5e5),
                        random_rates(rng, R), rng.uniform(0.0, 1800.0));
      if (rng.uniform() < 0.3) w.builder.with_progress(rng.uniform(0.0, 400.0));
      w.builder.with_model_size(rng.uniform(10.0, 2000.0));
    }
    random_fill(rng, w.spec, w.state, static_cast<int>(rng.uniform_int(0, 2)));
    auto ctx = w.builder.build(rng.uniform(1800.0, 7200.0));
    random_current(rng, w.spec, ctx);

    const auto kind = static_cast<UtilityKind>(rng.uniform_int(0, 2));
    const UtilityFunction u(kind, static_cast<double>(jobs));
    PricingConfig pc;
    pc.eta = rng.uniform(0.2, 3.0);
    PriceBook book(R, pc);
    book.compute_bounds(ctx, u);
    if (rng.uniform() < 0.1) {  // an estimator view's unusable NaN rate
      auto& xs = ctx.jobs[static_cast<std::size_t>(rng.uniform_int(0, jobs - 1))].throughput;
      xs[static_cast<std::size_t>(rng.uniform_int(0, R - 1))] =
          std::numeric_limits<double>::quiet_NaN();
    }
    sim::NetworkModel net;
    net.parameter_server = rng.uniform() < 0.3;
    FindAllocConfig cfg;
    cfg.comm_cost_weight = rng.uniform(0.0, 1.5);
    cfg.allow_mixed_types = rng.uniform() < 0.7;
    cfg.allow_multi_node = rng.uniform() < 0.7;
    feasible += expect_matches_reference(ctx, w.state, book, u, net, cfg,
                                         "case " + std::to_string(c));
  }
  EXPECT_GT(feasible, 300);  // the comparison is not vacuous
}

// Slots of different capacities tie on (rate, free, price) when the
// cluster-wide fraction dominates both node fractions: cap 4 with 2 used and
// cap 8 with 6 used both have 2 free and price at the cluster fraction. Two
// types with equal rates tie across types as well.
TEST(FindAllocOracle, PriceTiesAcrossCapacitiesAndTypesMatchReference) {
  // Capacities alternate by node, so a tie broken by anything but node id
  // shows up in the fill order.
  std::vector<std::vector<int>> counts;
  for (int h = 0; h < 12; ++h) counts.push_back(h % 2 == 0 ? std::vector{4, 4} : std::vector{8, 8});
  Fixture w(ClusterSpec::from_counts(synthetic_types(2), counts));
  for (NodeId h = 0; h < 12; ++h) {
    const int cap = h % 2 == 0 ? 4 : 8;
    for (GpuTypeId r = 0; r < 2; ++r) {
      // Every third node full, the others at 2 free: cluster fraction 0.78
      // is above the cap-4 nodes' 0.5 and the cap-8 nodes' 0.75.
      w.state.allocate(JobAllocation({{h, r, h % 3 == 0 ? cap : cap - 2}}));
    }
  }
  for (int workers : {1, 2, 3, 5, 8}) {
    w.builder.add_job(workers, 40000.0, {6.0, 6.0});
    w.builder.add_job(workers, 40000.0, {6.0, 3.0});
  }
  const auto ctx = w.builder.build(600.0);
  for (int k = 0; k < 3; ++k) {
    const UtilityFunction u(static_cast<UtilityKind>(k), 10.0);
    PriceBook book(2, PricingConfig{});
    book.compute_bounds(ctx, u);
    for (bool mixed : {true, false}) {
      FindAllocConfig cfg;
      cfg.allow_mixed_types = mixed;
      EXPECT_GT(expect_matches_reference(ctx, w.state, book, u, sim::NetworkModel{}, cfg,
                                         "utility " + std::to_string(k)),
                0);
    }
  }
}

// The benchmark-scale cluster (1,002 single-type nodes) half full, with a
// queue of mixed gangs, some holding a current allocation.
TEST(FindAllocOracle, HalfFilledScaledClusterMatchesReference) {
  common::Rng rng(334);
  Fixture w(ClusterSpec::scaled(334));
  const int half = w.spec.total_gpus() / 2;
  int claimed = 0;
  while (claimed < half) {
    const auto h = static_cast<NodeId>(rng.uniform_int(0, w.spec.num_nodes() - 1));
    for (GpuTypeId r = 0; r < w.spec.num_types(); ++r) {
      const int free = w.state.free_count(h, r);
      if (free <= 0) continue;
      const int take = std::min(free, static_cast<int>(rng.uniform_int(1, 4)));
      w.state.allocate(JobAllocation({{h, r, take}}));
      claimed += take;
    }
  }
  for (int j = 0; j < 40; ++j) {
    w.builder.add_job(static_cast<int>(rng.uniform_int(1, 16)), rng.uniform(1e3, 1e6),
                      random_rates(rng, w.spec.num_types()));
  }
  auto ctx = w.builder.build(3600.0);
  random_current(rng, w.spec, ctx);
  const UtilityFunction u(UtilityKind::kEffectiveThroughput, 40.0);
  PriceBook book(w.spec.num_types(), PricingConfig{});
  book.compute_bounds(ctx, u);
  for (bool multi : {true, false}) {
    FindAllocConfig cfg;
    cfg.allow_multi_node = multi;
    EXPECT_GT(expect_matches_reference(ctx, w.state, book, u, sim::NetworkModel{}, cfg,
                                       multi ? "multi-node" : "single-node"),
              multi ? 30 : 5);  // gangs above 4 workers fit no single node
  }
}

}  // namespace
}  // namespace hadar::core

// Micro-benchmarks of the core building blocks plus the DESIGN.md ablation
// targets: price evaluation, FIND_ALLOC (and its cluster-size sweep),
// DP_allocation (beam vs greedy, mixing on/off), pool dispatch overhead, DP
// branch bookkeeping (snapshot copy vs undo log), the LP and filling max-min
// solvers, and trace generation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>

#include "common/thread_pool.hpp"
#include "core/dp_allocation.hpp"
#include "core/hadar_scheduler.hpp"
#include "solver/maxmin.hpp"
#include "workload/model_zoo.hpp"
#include "workload/trace_gen.hpp"

using namespace hadar;

namespace {

struct World {
  cluster::ClusterSpec spec = cluster::ClusterSpec::simulation_default();
  workload::Trace trace;
  sim::SchedulerContext ctx;
  core::UtilityFunction utility;
  core::PriceBook book;

  explicit World(int jobs) : utility(core::UtilityKind::kEffectiveThroughput, jobs) {
    static const workload::ModelZoo zoo = workload::ModelZoo::paper_default();
    workload::TraceGenerator gen(&zoo, &spec.types());
    workload::TraceGenConfig cfg;
    cfg.num_jobs = jobs;
    cfg.seed = 99;
    trace = gen.generate(cfg);
    ctx.spec = &spec;
    ctx.round_length = 360.0;
    for (const auto& j : trace.jobs) {
      sim::JobView v;
      v.spec = &j;
      v.throughput = j.throughput;
      v.rounds_on_type.assign(3, 0);
      ctx.jobs.push_back(std::move(v));
    }
    book = core::PriceBook(3, core::PricingConfig{});
    book.compute_bounds(ctx, utility);
  }
};

void BM_PriceBounds(benchmark::State& state) {
  World w(static_cast<int>(state.range(0)));
  core::PriceBook book(3, core::PricingConfig{});
  for (auto _ : state) {
    book.compute_bounds(w.ctx, w.utility);
    benchmark::DoNotOptimize(book.alpha());
  }
}
BENCHMARK(BM_PriceBounds)->Arg(64)->Arg(512);

void BM_MarginalPrice(benchmark::State& state) {
  World w(32);
  cluster::ClusterState st(&w.spec);
  st.allocate(cluster::JobAllocation({{0, 0, 2}}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.book.marginal_price(st, 0, 0));
  }
}
BENCHMARK(BM_MarginalPrice);

void BM_FindAlloc(benchmark::State& state) {
  World w(32);
  cluster::ClusterState st(&w.spec);
  st.allocate(cluster::JobAllocation({{0, 0, 4}, {5, 1, 4}}));  // some load
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::find_alloc(w.ctx.jobs[0], st, w.book, w.utility, 0.0,
                                              sim::NetworkModel{}, core::FindAllocConfig{}));
  }
}
BENCHMARK(BM_FindAlloc);

// FIND_ALLOC against cluster size: ClusterSpec::scaled(n) (3n nodes of one
// type each, 4 GPUs per node) half full, node h holding h % 5 used devices.
// That gives twelve (type, used) slot groups at every size, so the per-call
// cost shows what still grows with the node count.
void BM_FindAllocScaled(benchmark::State& state) {
  World w(32);
  const auto spec = cluster::ClusterSpec::scaled(static_cast<int>(state.range(0)));
  cluster::ClusterState st(&spec);
  for (NodeId h = 0; h < spec.num_nodes(); ++h) {
    for (GpuTypeId r = 0; r < spec.num_types(); ++r) {
      const int cap = spec.node(h).capacity(r);
      const int used = std::min(cap, h % 5);
      if (used > 0) st.allocate(cluster::JobAllocation({{h, r, used}}));
    }
  }
  std::size_t j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::find_alloc(w.ctx.jobs[j], st, w.book, w.utility, 0.0,
                                              sim::NetworkModel{}, core::FindAllocConfig{}));
    j = (j + 1) % w.ctx.jobs.size();
  }
  state.counters["nodes"] = spec.num_nodes();
}
BENCHMARK(BM_FindAllocScaled)->Arg(34)->Arg(334)->Arg(3334);

void BM_DpAllocation(benchmark::State& state) {
  World w(static_cast<int>(state.range(0)));
  cluster::ClusterState st(&w.spec);
  std::vector<const sim::JobView*> queue;
  for (const auto& j : w.ctx.jobs) queue.push_back(&j);
  core::DpConfig cfg;
  cfg.beam_width = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::dp_allocation(queue, st, w.book, w.utility, 0.0, sim::NetworkModel{}, cfg));
  }
  state.SetLabel(cfg.beam_width == 1 ? "greedy" : "beam");
}
BENCHMARK(BM_DpAllocation)->Args({64, 1})->Args({64, 64})->Args({256, 64})
    ->Unit(benchmark::kMillisecond);

void BM_HadarFullRound(benchmark::State& state) {
  World w(static_cast<int>(state.range(0)));
  core::HadarScheduler sched;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.schedule(w.ctx));
  }
  state.SetLabel("ablation: full Hadar");
}
BENCHMARK(BM_HadarFullRound)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_HadarNoMixRound(benchmark::State& state) {
  World w(static_cast<int>(state.range(0)));
  core::HadarConfig cfg;
  cfg.dp.find_alloc.allow_mixed_types = false;
  core::HadarScheduler sched(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.schedule(w.ctx));
  }
  state.SetLabel("ablation: homogeneous placements only");
}
BENCHMARK(BM_HadarNoMixRound)->Arg(128)->Unit(benchmark::kMillisecond);

solver::MaxMinProblem maxmin_problem(int jobs) {
  World w(jobs);
  solver::MaxMinProblem p;
  p.cap = {20.0, 20.0, 20.0};
  for (const auto& j : w.ctx.jobs) {
    std::vector<double> row;
    for (GpuTypeId r = 0; r < 3; ++r) {
      row.push_back(j.throughput_on(r) * j.spec->num_workers);
    }
    p.rate.push_back(row);
    p.demand.push_back(j.spec->num_workers);
    p.scale.push_back(j.max_throughput() * j.spec->num_workers);
  }
  return p;
}

void BM_MaxMinLp(benchmark::State& state) {
  const auto p = maxmin_problem(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver::solve_max_min_lp(p));
  }
}
BENCHMARK(BM_MaxMinLp)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_MaxMinFilling(benchmark::State& state) {
  const auto p = maxmin_problem(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver::solve_max_min_filling(p));
  }
}
BENCHMARK(BM_MaxMinFilling)->Arg(64)->Arg(512)->Unit(benchmark::kMicrosecond);

// Cost of fanning a trivial 64-way parallel_for across a private pool: the
// DP dispatches one of these per beam level, so enqueue overhead (now a
// single refcounted run descriptor instead of a std::function per lane) is
// hot-path relevant.
void BM_PoolDispatch(benchmark::State& state) {
  common::ThreadPool pool(static_cast<int>(state.range(0)) - 1);
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    common::parallel_for(
        64, [&](std::size_t i) { sink.fetch_add(i, std::memory_order_relaxed); }, &pool);
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_PoolDispatch)->Arg(1)->Arg(4);

// DP branch bookkeeping, old way: materialize a snapshot, restore it into a
// scratch state, hash it from scratch.
void BM_DpBranchSnapshotCopy(benchmark::State& state) {
  World w(8);
  cluster::ClusterState st(&w.spec);
  const cluster::JobAllocation alloc({{0, 0, 2}, {1, 1, 1}});
  for (auto _ : state) {
    cluster::ClusterState scratch(&w.spec);
    scratch.restore(st.snapshot());
    scratch.allocate(alloc);
    const auto snap = scratch.snapshot();
    benchmark::DoNotOptimize(cluster::ClusterState::hash(snap));
    scratch.restore(st.snapshot());
  }
}
BENCHMARK(BM_DpBranchSnapshotCopy);

// DP branch bookkeeping, new way: undo-log mark/rollback with the
// incrementally maintained O(1) hash.
void BM_DpBranchUndo(benchmark::State& state) {
  World w(8);
  cluster::ClusterState st(&w.spec);
  st.set_undo_enabled(true);
  const cluster::JobAllocation alloc({{0, 0, 2}, {1, 1, 1}});
  for (auto _ : state) {
    const auto m = st.mark();
    st.allocate_unchecked(alloc);
    benchmark::DoNotOptimize(st.hash());
    st.rollback(m);
  }
}
BENCHMARK(BM_DpBranchUndo);

void BM_TraceGeneration(benchmark::State& state) {
  const auto spec = cluster::ClusterSpec::simulation_default();
  static const workload::ModelZoo zoo = workload::ModelZoo::paper_default();
  workload::TraceGenerator gen(&zoo, &spec.types());
  workload::TraceGenConfig cfg;
  cfg.num_jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate(cfg));
  }
}
BENCHMARK(BM_TraceGeneration)->Arg(480)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

// The reference FIND_ALLOC the library's implementation is checked against:
// per call it gathers every free usable slot, prices each one, sorts them
// all into fill order with std::sort and builds per-node lists over every
// node id. It is the straightforward reading of the fill order; the
// library groups, counting-sorts and memoizes instead, and must return the
// same placement with the same cost, utility, payoff and duration bits.
// Its only state is per call (no thread-local scratch, no metrics).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/find_alloc.hpp"

namespace hadar::core::reference {

// One free device pool a job could draw from. `price` caches the marginal
// Eq. 5 price of (node, type) once per find_alloc call — the pools repeat
// across bottleneck levels, so re-querying the PriceBook per candidate would
// redo the same exponentials dozens of times per job.
struct Slot {
  NodeId node;
  GpuTypeId type;
  int free;
  double rate;   // X_j^r
  double price;  // marginal price of the first device in the pool
};

// Fill order for a gang draw. The bottleneck throughput is fixed by the
// slowest eligible type, so the efficient fill draws the SLOWEST types
// first — faster devices add nothing to this gang and are left free for
// jobs that can actually exploit them. Within a rate, denser pools come
// first (fewer nodes spanned), then cheaper, then stable ids. Distinct
// slots never compare equal ((node, type) is unique), so this is a strict
// total order and every pool filtered from a fill-ordered list is itself
// fill-ordered — fill() never needs to re-sort.
inline bool fill_order(const Slot& a, const Slot& b) {
  if (a.rate != b.rate) return a.rate < b.rate;    // slowest eligible first
  if (a.free != b.free) return a.free > b.free;    // consolidate
  if (a.price != b.price) return a.price < b.price;
  return a.node != b.node ? a.node < b.node : a.type < b.type;
}

// Fill a gang of `workers` from `pool`, which must already be in fill
// order; `total` is the pool's precomputed free sum (suffix tables). Type
// diversity is tracked with a bitmask (types are small dense ids); the rare
// registry with >64 types falls back to a linear scan. On success the
// placements are left in `scratch` in fill order.
inline bool fill(std::span<const Slot* const> pool, int workers, int total,
                 bool allow_mixed_types, std::vector<cluster::TaskPlacement>& scratch) {
  if (total < workers) return false;

  scratch.clear();
  int need = workers;
  std::uint64_t type_mask = 0;
  int distinct_types = 0;
  for (const Slot* s : pool) {
    if (need == 0) break;
    const int take = std::min(need, s->free);
    scratch.push_back({s->node, s->type, take});
    need -= take;
    if (s->type < 64) {
      const std::uint64_t bit = std::uint64_t{1} << s->type;
      if ((type_mask & bit) == 0) {
        type_mask |= bit;
        ++distinct_types;
      }
    } else {
      bool seen = false;
      for (std::size_t i = 0; i + 1 < scratch.size(); ++i) {
        if (scratch[i].type == s->type) { seen = true; break; }
      }
      if (!seen) ++distinct_types;
    }
  }
  if (need != 0) return false;
  if (!allow_mixed_types && distinct_types > 1) return false;
  return true;
}

// Scalars of one evaluated candidate (the JobAllocation itself is only
// materialized for the winner, at the end of the call).
struct EvalOut {
  double cost = 0.0;
  double utility = 0.0;
  double payoff = 0.0;
  Seconds est_duration = 0.0;
};

// Evaluates a normalized placement span into (cost, utility, payoff):
// workers/nodes_used/bottleneck from the normalized order, cost summed in
// that order, then the communication surcharge.
inline EvalOut evaluate_span(const sim::JobView& job,
                             std::span<const cluster::TaskPlacement> placements,
                             const cluster::ClusterState& state, const PriceBook& prices,
                             PriceCache& cache, const UtilityFunction& utility, Seconds now,
                             const sim::NetworkModel& network, const FindAllocConfig& cfg) {
  int workers = 0;
  int nodes_used = 0;
  double bottleneck = std::numeric_limits<double>::infinity();
  const auto& xs = job.throughput;
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const auto& p = placements[i];
    workers += p.count;
    if (i == 0 || p.node != placements[i - 1].node) ++nodes_used;
    const auto r = static_cast<std::size_t>(p.type);
    bottleneck = std::min(bottleneck, r < xs.size() ? xs[r] : 0.0);
  }
  if (placements.empty()) bottleneck = 0.0;

  const int extra_nodes = nodes_used - 1;
  const double x = network.effective_rate(bottleneck, nodes_used, job.spec->model_size_mb);

  const double rate = x * workers;
  EvalOut out;
  out.est_duration = rate > 0.0 ? job.remaining_iterations() / rate : kInfiniteTime;
  out.utility = rate > 0.0 ? utility(job, out.est_duration, now) : 0.0;

  out.cost = prices.allocation_cost(state, placements, &cache);
  if (extra_nodes > 0 && workers > 0) {
    // Explicit communication surcharge (Algorithm 2 line 27): a fraction of
    // the mean per-device price, per extra node spanned, per worker.
    const double mean_price = out.cost / workers;
    out.cost += cfg.comm_cost_weight * mean_price * extra_nodes * workers;
  }
  out.payoff = out.utility - out.cost;
  return out;
}

// Per-call working set.
struct FaScratch {
  std::vector<Slot> slots;
  std::vector<const Slot*> all;            // slots in fill order
  std::vector<int> all_suffix_free;        // [i] = free in all[i..N), [N] = 0
  std::vector<std::uint32_t> node_start;   // CSR offsets into by_node_flat
  std::vector<std::uint32_t> node_cursor;  // build-time fill cursors
  std::vector<const Slot*> by_node_flat;   // per-node lists, each fill-ordered
  std::vector<int> node_suffix_free;       // [j] = free from j to its node's end
  std::vector<double> thresholds;
  std::vector<cluster::TaskPlacement> scratch;
  std::vector<cluster::TaskPlacement> best_placements;
  PriceCache cache;
};

inline std::optional<AllocCandidate> find_alloc(const sim::JobView& job,
                                                const cluster::ClusterState& state,
                                                const PriceBook& prices,
                                                const UtilityFunction& utility, Seconds now,
                                                const sim::NetworkModel& network,
                                                const FindAllocConfig& cfg) {
  const cluster::ClusterSpec& spec = state.spec();
  const int H = spec.num_nodes();
  const int R = spec.num_types();
  const int W = job.spec->num_workers;

  FaScratch fa;
  fa.cache.sync(prices);

  // Free pools usable by this job, gathered from the state's usable-slot
  // table (dead nodes and capacity-less cells are never probed), priced in
  // one flat pass, and sorted into fill order once. Every candidate pool
  // below is a rate-threshold suffix of these lists (rate is the primary
  // sort key), so the per-threshold work drops from "scan + sort all slots"
  // to a lower_bound.
  auto& slots = fa.slots;
  slots.clear();
  for (const auto& us : state.usable_slots()) {
    const int free = state.free_in_cell(static_cast<std::size_t>(us.cell));
    const double rate = job.throughput_on(us.type);
    if (free > 0 && rate > 0.0) slots.push_back(Slot{us.node, us.type, free, rate, 0.0});
  }
  if (slots.empty()) return std::nullopt;
  for (auto& s : slots) s.price = prices.marginal_price(state, s.node, s.type, &fa.cache);
  std::sort(slots.begin(), slots.end(), fill_order);
  const std::size_t N = slots.size();

  // CSR per-node lists plus the all-slots list, each with suffix free sums
  // so a pool's feasibility check is O(1) instead of a rescan.
  auto& all = fa.all;
  auto& all_suffix = fa.all_suffix_free;
  all.resize(N);
  all_suffix.assign(N + 1, 0);
  for (std::size_t i = 0; i < N; ++i) all[i] = &slots[i];
  for (std::size_t i = N; i-- > 0;) all_suffix[i] = all_suffix[i + 1] + slots[i].free;

  auto& node_start = fa.node_start;
  node_start.assign(static_cast<std::size_t>(H) + 1, 0);
  for (const auto& s : slots) ++node_start[static_cast<std::size_t>(s.node) + 1];
  for (std::size_t h = 0; h < static_cast<std::size_t>(H); ++h) {
    node_start[h + 1] += node_start[h];
  }
  auto& cursor = fa.node_cursor;
  cursor.assign(node_start.begin(), node_start.end() - 1);
  auto& by_node = fa.by_node_flat;
  by_node.resize(N);
  for (const auto& s : slots) by_node[cursor[static_cast<std::size_t>(s.node)]++] = &s;
  auto& node_suffix = fa.node_suffix_free;
  node_suffix.assign(N, 0);
  for (std::size_t h = 0; h < static_cast<std::size_t>(H); ++h) {
    int acc = 0;
    for (std::size_t j = node_start[h + 1]; j-- > node_start[h];) {
      acc += by_node[j]->free;
      node_suffix[j] = acc;
    }
  }

  // Distinct usable rates, fastest first: each defines a bottleneck level k
  // (Algorithm 2 line 23's descending-throughput sweep).
  auto& thresholds = fa.thresholds;
  thresholds.clear();
  for (GpuTypeId r = 0; r < R; ++r) {
    const double x = job.throughput_on(r);
    if (x > 0.0) thresholds.push_back(x);
  }
  std::sort(thresholds.begin(), thresholds.end(), std::greater<>());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()), thresholds.end());

  bool have_best = false;
  bool best_is_current = false;
  EvalOut best{};
  auto consider = [&](const EvalOut& e, bool is_current) {
    if (!have_best || e.payoff > best.payoff + 1e-12 ||
        (e.payoff > best.payoff - 1e-12 && e.cost < best.cost)) {
      have_best = true;
      best = e;
      best_is_current = is_current;
      if (!is_current) fa.best_placements.assign(fa.scratch.begin(), fa.scratch.end());
    }
  };
  auto try_pool = [&](std::span<const Slot* const> pool, int total) {
    if (!fill(pool, W, total, cfg.allow_mixed_types, fa.scratch)) return;
    // Normalize in place: (node, type) keys are unique within a pool, so a
    // plain sort reproduces JobAllocation's canonical order exactly.
    std::sort(fa.scratch.begin(), fa.scratch.end(),
              [](const cluster::TaskPlacement& a, const cluster::TaskPlacement& b) {
                return a.node != b.node ? a.node < b.node : a.type < b.type;
              });
    consider(evaluate_span(job, fa.scratch, state, prices, fa.cache, utility, now,
                           network, cfg),
             /*is_current=*/false);
  };
  // Rate-ascending lists make "rate >= threshold" a suffix.
  auto suffix_begin = [](const Slot* const* first, const Slot* const* last, double t) {
    return std::lower_bound(first, last, t,
                            [](const Slot* s, double th) { return s->rate < th; });
  };

  // ---- consolidated candidates: all W workers on one node (line 24),
  // one candidate per (node, bottleneck level) ----
  for (NodeId h = 0; h < H; ++h) {
    const std::size_t s0 = node_start[static_cast<std::size_t>(h)];
    const std::size_t s1 = node_start[static_cast<std::size_t>(h) + 1];
    if (s0 == s1) continue;
    for (double threshold : thresholds) {
      const Slot* const* lo =
          suffix_begin(by_node.data() + s0, by_node.data() + s1, threshold);
      if (lo == by_node.data() + s1) continue;
      const std::size_t j = static_cast<std::size_t>(lo - by_node.data());
      try_pool({lo, s1 - j}, node_suffix[j]);
    }
  }

  // ---- cluster-wide candidates per bottleneck level (line 25) ----
  if (cfg.allow_multi_node) {
    for (double threshold : thresholds) {
      const Slot* const* lo = suffix_begin(all.data(), all.data() + N, threshold);
      if (lo == all.data() + N) continue;
      const std::size_t i = static_cast<std::size_t>(lo - all.data());
      try_pool({lo, N - i}, all_suffix[i]);
    }
  }

  // ---- the job's current placement, if it still fits ----
  if (!job.current_allocation.empty() && state.can_allocate(job.current_allocation)) {
    consider(evaluate_span(job, job.current_allocation.placements(), state, prices,
                           fa.cache, utility, now, network, cfg),
             /*is_current=*/true);
  }

  if (!have_best) return std::nullopt;

  AllocCandidate cand;
  cand.alloc = best_is_current ? job.current_allocation
                               : cluster::JobAllocation(fa.best_placements);
  cand.cost = best.cost;
  cand.utility = best.utility;
  cand.payoff = best.payoff;
  cand.est_duration = best.est_duration;
  return cand;
}

}  // namespace hadar::core::reference

#include "core/find_alloc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "obs/trace.hpp"

namespace hadar::core {
namespace {

// One free device pool a job could draw from: the free devices of one
// (node, type) cell. `group` indexes the call's slot groups (below).
struct Slot {
  NodeId node;
  GpuTypeId type;
  int free;
  std::uint32_t group;
  double rate;  // X_j^r
};

// Scalars of one evaluated candidate (the JobAllocation itself is only
// materialized for the winner, at the end of the call).
struct EvalOut {
  double cost = 0.0;
  double utility = 0.0;
  double payoff = 0.0;
  Seconds est_duration = 0.0;
};

// Slots sharing (type, cell capacity, free count), i.e. the same used count.
// The Eq. 5 price of a cell's first free device reads only its type, its
// used/capacity fraction and the type's cluster-wide fraction, so every slot
// of a group has the same free count, rate and marginal price — and a gang
// drawn whole from any one of them has the same cost, utility and payoff
// (`memo`).
struct SlotGroup {
  GpuTypeId type = 0;
  int capacity = 0;
  int free = 0;
  NodeId first_node = 0;
  double rate = 0.0;
  double price = 0.0;
  std::uint32_t size = 0;
  std::uint32_t rank = 0;
  bool memo_valid = false;
  EvalOut memo;
};

// Open-addressing index entry from (type, capacity, free) to a group, valid
// for one call: entries from earlier calls carry an older stamp.
struct GroupKey {
  std::uint32_t stamp = 0;
  std::uint32_t group = 0;
};

std::size_t group_hash(GpuTypeId type, int capacity, int free) {
  std::uint64_t x = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(type)) << 32) ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(capacity)) << 16) ^
                    static_cast<std::uint64_t>(static_cast<std::uint32_t>(free));
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return static_cast<std::size_t>(x);
}

// Fill order for a gang draw. The bottleneck throughput is fixed by the
// slowest eligible type, so the efficient fill draws the SLOWEST types
// first — faster devices add nothing to this gang and are left free for
// jobs that can actually exploit them. Within a rate, denser pools come
// first (fewer nodes spanned), then cheaper, then stable ids (node, type).
// This orders the groups' (rate, free, price) triples; equal triples share
// a rank, and the final tie-break on (node, type) is the gather order, which
// a stable counting sort by rank keeps.
bool group_order(const SlotGroup& a, const SlotGroup& b) {
  if (a.rate != b.rate) return a.rate < b.rate;    // slowest eligible first
  if (a.free != b.free) return a.free > b.free;    // consolidate
  return a.price < b.price;
}
bool same_triple(const SlotGroup& a, const SlotGroup& b) {
  return a.rate == b.rate && a.free == b.free && a.price == b.price;
}

// Fill a gang of `workers` from `pool`, which must already be in fill
// order; `total` is the pool's precomputed free sum (suffix tables). Type
// diversity is tracked with a bitmask (types are small dense ids); the rare
// registry with >64 types falls back to a linear scan. On success the
// placements are left in `scratch` in fill order; a single placement is
// always drawn from pool[0].
bool fill(std::span<const Slot> pool, int workers, int total, bool allow_mixed_types,
          std::vector<cluster::TaskPlacement>& scratch) {
  if (total < workers) return false;

  scratch.clear();
  int need = workers;
  std::uint64_t type_mask = 0;
  int distinct_types = 0;
  for (const Slot& s : pool) {
    if (need == 0) break;
    const int take = std::min(need, s.free);
    scratch.push_back({s.node, s.type, take});
    need -= take;
    if (s.type < 64) {
      const std::uint64_t bit = std::uint64_t{1} << s.type;
      if ((type_mask & bit) == 0) {
        type_mask |= bit;
        ++distinct_types;
      }
    } else {
      bool seen = false;
      for (std::size_t i = 0; i + 1 < scratch.size(); ++i) {
        if (scratch[i].type == s.type) { seen = true; break; }
      }
      if (!seen) ++distinct_types;
    }
  }
  if (need != 0) return false;
  if (!allow_mixed_types && distinct_types > 1) return false;
  return true;
}

// Evaluates a normalized placement span into (cost, utility, payoff):
// workers/nodes_used/bottleneck from the normalized order, cost summed in
// that order, then the communication surcharge.
EvalOut evaluate_span(const sim::JobView& job,
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

// Per-thread scratch reused across calls: the hot loop (one call per job per
// beam branch) allocates nothing once the vectors reach steady-state size.
struct FaScratch {
  std::vector<Slot> gathered;              // free usable slots, by node
  std::vector<std::uint32_t> node_start;   // CSR: node m's slots in gathered
  std::vector<SlotGroup> groups;
  std::vector<GroupKey> group_index;       // power-of-two open-addressing table
  std::uint32_t stamp = 0;
  std::vector<std::uint32_t> group_order;  // group ids sorted by triple
  std::vector<std::uint32_t> rank_start;   // counting-sort offsets per rank
  std::vector<Slot> all;                   // gathered slots in fill order
  std::vector<int> all_suffix_free;        // [i] = free in all[i..N), [N] = 0
  std::vector<int> node_suffix_free;       // [j] = free from j to its node's end
  std::vector<cluster::TaskPlacement> scratch;
  std::vector<cluster::TaskPlacement> best_placements;
  PriceCache cache;

  // Starts a call's group index sized for up to `max_groups` groups.
  void begin_groups(std::size_t max_groups) {
    groups.clear();
    std::size_t want = 16;
    while (want < 2 * max_groups) want <<= 1;
    if (group_index.size() < want) {
      group_index.assign(want, GroupKey{});
      stamp = 0;
    }
    if (++stamp == 0) {  // wrapped: no entry may carry the live stamp
      std::fill(group_index.begin(), group_index.end(), GroupKey{});
      stamp = 1;
    }
  }

  // The group of (type, capacity, free), created on first sight.
  std::uint32_t group_of(GpuTypeId type, int capacity, int free, NodeId node,
                         double rate) {
    const std::size_t mask = group_index.size() - 1;
    for (std::size_t i = group_hash(type, capacity, free) & mask;; i = (i + 1) & mask) {
      GroupKey& k = group_index[i];
      if (k.stamp != stamp) {
        k = GroupKey{stamp, static_cast<std::uint32_t>(groups.size())};
        SlotGroup& grp = groups.emplace_back();
        grp.type = type;
        grp.capacity = capacity;
        grp.free = free;
        grp.first_node = node;
        grp.rate = rate;
        return k.group;
      }
      const SlotGroup& grp = groups[k.group];
      if (grp.type == type && grp.capacity == capacity && grp.free == free) return k.group;
    }
  }
};

}  // namespace

std::optional<AllocCandidate> find_alloc(const sim::JobView& job,
                                         const cluster::ClusterState& state,
                                         const PriceBook& prices,
                                         const UtilityFunction& utility, Seconds now,
                                         const sim::NetworkModel& network,
                                         const FindAllocConfig& cfg) {
  const int W = job.spec->num_workers;

  static thread_local FaScratch fa;
  fa.cache.sync(prices);

  // Free pools usable by this job, gathered from the state's usable-slot
  // table (dead nodes and capacity-less cells are never probed) in ascending
  // (node, type) order. Each slot joins its (type, capacity, free) group;
  // each node's slots are contiguous, and `node_start` marks where every
  // node with a free usable slot begins.
  const auto& usable = state.usable_slots();
  auto& gathered = fa.gathered;
  auto& node_start = fa.node_start;
  gathered.clear();
  node_start.clear();
  fa.begin_groups(usable.size());
  NodeId last_node = -1;
  for (const auto& us : usable) {
    const auto cell = static_cast<std::size_t>(us.cell);
    const int free = state.free_in_cell(cell);
    const double rate = job.throughput_on(us.type);
    if (free <= 0 || !(rate > 0.0)) continue;
    if (us.node != last_node) {
      last_node = us.node;
      node_start.push_back(static_cast<std::uint32_t>(gathered.size()));
    }
    const std::uint32_t g =
        fa.group_of(us.type, state.capacity_in_cell(cell), free, us.node, rate);
    ++fa.groups[g].size;
    gathered.push_back(Slot{us.node, us.type, free, g, rate});
  }
  if (gathered.empty()) return std::nullopt;
  const std::size_t N = gathered.size();
  const std::size_t num_nodes = node_start.size();
  node_start.push_back(static_cast<std::uint32_t>(N));

  // Price once per group, then rank the groups' distinct (rate, free, price)
  // triples in fill order.
  auto& groups = fa.groups;
  auto& order = fa.group_order;
  order.resize(groups.size());
  for (std::uint32_t g = 0; g < groups.size(); ++g) {
    SlotGroup& grp = groups[g];
    grp.price = prices.marginal_price(state, grp.first_node, grp.type, &fa.cache);
    order[g] = g;
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return group_order(groups[a], groups[b]);
  });
  auto& rank_start = fa.rank_start;
  rank_start.assign(order.size() + 1, 0);
  std::uint32_t rank = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    SlotGroup& grp = groups[order[i]];
    if (i > 0 && !same_triple(groups[order[i - 1]], grp)) ++rank;
    grp.rank = rank;
    rank_start[rank + 1] += grp.size;
  }
  for (std::uint32_t k = 0; k <= rank; ++k) rank_start[k + 1] += rank_start[k];

  // Stable counting sort by rank: within a rank, gather order is ascending
  // (node, type), the comparator's final tie-break — so `all` is exactly
  // the fill order, with suffix free sums for O(1) pool feasibility.
  auto& all = fa.all;
  all.resize(N);
  for (const Slot& s : gathered) all[rank_start[groups[s.group].rank]++] = s;
  auto& all_suffix = fa.all_suffix_free;
  all_suffix.assign(N + 1, 0);
  for (std::size_t i = N; i-- > 0;) all_suffix[i] = all_suffix[i + 1] + all[i].free;

  // Per-node lists in fill order: each node's few slots (at most one per
  // type) are stably insertion-sorted by rank in place, which keeps type
  // order within a rank — the fill order restricted to the node.
  auto& node_suffix = fa.node_suffix_free;
  node_suffix.resize(N);
  for (std::size_t m = 0; m < num_nodes; ++m) {
    Slot* first = gathered.data() + node_start[m];
    Slot* last = gathered.data() + node_start[m + 1];
    for (Slot* i = first + 1; i < last; ++i) {
      const Slot s = *i;
      const std::uint32_t r = groups[s.group].rank;
      Slot* j = i;
      for (; j > first && groups[(j - 1)->group].rank > r; --j) *j = *(j - 1);
      *j = s;
    }
    int acc = 0;
    for (std::size_t j = node_start[m + 1]; j-- > node_start[m];) {
      acc += gathered[j].free;
      node_suffix[j] = acc;
    }
  }

  bool have_best = false;
  bool best_is_current = false;
  EvalOut best{};
  // Candidates are tallied locally and published once per call: find_alloc
  // runs inside parallel beam lanes, so per-candidate registry traffic would
  // serialize the lanes on the metrics mutex.
  std::uint64_t candidates_scanned = 0;
  auto consider = [&](const EvalOut& e, bool is_current) {
    if (!have_best || e.payoff > best.payoff + 1e-12 ||
        (e.payoff > best.payoff - 1e-12 && e.cost < best.cost)) {
      have_best = true;
      best = e;
      best_is_current = is_current;
      if (!is_current) fa.best_placements.assign(fa.scratch.begin(), fa.scratch.end());
    }
  };
  auto try_pool = [&](std::span<const Slot> pool, int total) {
    ++candidates_scanned;
    if (!fill(pool, W, total, cfg.allow_mixed_types, fa.scratch)) return;
    if (fa.scratch.size() == 1) {
      // A gang drawn whole from one slot is priced by its group alone.
      SlotGroup& grp = groups[pool[0].group];
      if (!grp.memo_valid) {
        grp.memo = evaluate_span(job, fa.scratch, state, prices, fa.cache, utility, now,
                                 network, cfg);
        grp.memo_valid = true;
      }
      consider(grp.memo, /*is_current=*/false);
      return;
    }
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
  // Bottleneck levels, fastest first (Algorithm 2 line 23's descending-
  // throughput sweep). In a rate-ascending list the pool of level "rate >=
  // x" is the suffix starting at the first slot of rate x, so walking the
  // list backwards and trying the suffix at each run start visits every
  // level's pool once. A level with no slot of its own rate in the list
  // would offer the next faster level's pool again, right after it, where
  // its consider() would be a no-op; it is not visited.
  auto sweep_levels = [&](const Slot* first, const Slot* last, const int* suffix_free) {
    for (const Slot* lo = last; lo != first;) {
      --lo;
      if (lo != first && (lo - 1)->rate == lo->rate) continue;
      try_pool({lo, last}, suffix_free[lo - first]);
    }
  };

  // ---- consolidated candidates: all W workers on one node (line 24),
  // one candidate per (node, distinct bottleneck-level pool) ----
  for (std::size_t m = 0; m < num_nodes; ++m) {
    sweep_levels(gathered.data() + node_start[m], gathered.data() + node_start[m + 1],
                 node_suffix.data() + node_start[m]);
  }

  // ---- cluster-wide candidates per bottleneck level (line 25) ----
  if (cfg.allow_multi_node) sweep_levels(all.data(), all.data() + N, all_suffix.data());

  // ---- the job's current placement, if it still fits ----
  if (!job.current_allocation.empty() && state.can_allocate(job.current_allocation)) {
    ++candidates_scanned;
    consider(evaluate_span(job, job.current_allocation.placements(), state, prices,
                           fa.cache, utility, now, network, cfg),
             /*is_current=*/true);
  }

  if (obs::tracing()) {
    obs::count("find_alloc.calls");
    obs::count("find_alloc.candidates_scanned", candidates_scanned);
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

}  // namespace hadar::core

// Prefix-based maximal matching via deterministic reservations — the
// implementation behind Figure 2 and Figure 4.
//
// A window holds the prefix_size earliest unresolved edges. Each round has
// two barrier-separated phases (the reserve/commit pattern of the paper's
// companion "internally deterministic" framework [2]):
//
//   reserve: an edge with a matched endpoint resolves to Out; otherwise it
//            priority-writes its rank into both endpoints' reservation
//            slots (atomic write-min).
//   commit:  an edge that holds *both* its endpoints' slots is the
//            earliest unresolved edge at both, which is exactly the greedy
//            acceptance condition — it enters the matching. Winners reset
//            the slots they hold; losers retry next round.
//
// Resolved edges leave the window and the next edges of the ordering
// refill it: one pass moves the unresolved slots, in order, to the front of
// a second window buffer and builds the refill behind them. Commit counts
// each block's unresolved slots, so that pass needs no scan of its own.
//
// Slot state. A window slot carries (e, u, v, rank, resolved). The refill
// gathers the endpoints from g.edge(e) once, when it appends the edge, and
// knows the rank without the rank array because rank(order.nth(i)) == i.
// Reserve and commit then read only the slot and the per-vertex arrays.
// The slot's own resolved flag replaces a per-edge status array, and a
// winner writes in_matching[e] = 1 directly, so no pass over all m edges
// is needed at the end.
//
// Because every unresolved edge earlier than a window member is itself in
// the window, holding both slots implies no earlier unresolved neighbor
// exists anywhere, so the committed matching is the sequential greedy one
// for any schedule and any worker count. Carrying the facts in the slot
// changes where they are read from, not what a round decides, so the round
// count stays a pure function of (graph, order, prefix_size).
#include <algorithm>
#include <atomic>
#include <memory>

#include "core/matching/matching.hpp"
#include "parallel/atomics.hpp"
#include "parallel/parallel_for.hpp"
#include "support/check.hpp"

namespace pargreedy {

namespace {

constexpr uint32_t kFreeSlot = 0xffffffffu;

struct Slot {
  EdgeId e;
  VertexId u;
  VertexId v;
  uint32_t rank;
  bool resolved;
};

}  // namespace

MatchResult mm_prefix(const CsrGraph& g, const EdgeOrder& order,
                      uint64_t prefix_size, ProfileLevel level) {
  const uint64_t m = g.num_edges();
  const uint64_t n = g.num_vertices();
  PG_CHECK_MSG(order.size() == m, "ordering size != edge count");
  const uint64_t window =
      std::clamp<uint64_t>(prefix_size, 1, std::max<uint64_t>(m, 1));

  MatchResult result;
  result.in_matching.assign(m, 0);
  result.matched_with.assign(n, kInvalidVertex);
  std::vector<VertexId>& mate = result.matched_with;
  RunProfile& prof = result.profile;

  // reservation[v]: smallest rank among unresolved edges bidding for v.
  std::vector<std::atomic<uint32_t>> reservation(n);
  parallel_for(0, static_cast<int64_t>(n), [&](int64_t v) {
    reservation[static_cast<std::size_t>(v)].store(kFreeSlot,
                                                   std::memory_order_relaxed);
  });

  const auto make_slot = [&](uint64_t i) {
    const EdgeId e = order.nth(i);
    const Edge ed = g.edge(e);
    return Slot{e, ed.u, ed.v, static_cast<uint32_t>(i), false};
  };

  // A round reads the window from `slots` and writes the next one into
  // `spare`; both are allocated once.
  auto slots = std::make_unique_for_overwrite<Slot[]>(window);
  auto spare = std::make_unique_for_overwrite<Slot[]>(window);
  const auto max_blocks = static_cast<std::size_t>(
      parallel_block_count(static_cast<int64_t>(window)));
  std::vector<uint64_t> block_kept(max_blocks);
  uint64_t live = std::min(window, m);
  uint64_t next = live;
  parallel_for(0, static_cast<int64_t>(live), [&](int64_t k) {
    slots[static_cast<uint64_t>(k)] = make_slot(static_cast<uint64_t>(k));
  });

  while (live > 0) {
    ++prof.rounds;
    const int64_t sz = static_cast<int64_t>(live);

    // Reserve phase.
    parallel_for(0, sz, [&](int64_t i) {
      Slot& s = slots[static_cast<uint64_t>(i)];
      if (mate[s.u] != kInvalidVertex || mate[s.v] != kInvalidVertex) {
        s.resolved = true;
        return;
      }
      atomic_write_min(reservation[s.u], s.rank);
      atomic_write_min(reservation[s.v], s.rank);
    });

    // Commit phase. Each block also counts the slots it leaves
    // unresolved, which places them in the next window.
    std::fill(block_kept.begin(), block_kept.end(), 0);
    parallel_blocks(sz, [&](int64_t b, int64_t lo, int64_t hi) {
      uint64_t kept = 0;
      for (int64_t i = lo; i < hi; ++i) {
        Slot& s = slots[static_cast<uint64_t>(i)];
        if (s.resolved) continue;
        const bool won_u =
            reservation[s.u].load(std::memory_order_relaxed) == s.rank;
        const bool won_v =
            reservation[s.v].load(std::memory_order_relaxed) == s.rank;
        if (won_u && won_v) {
          s.resolved = true;
          result.in_matching[s.e] = 1;
          mate[s.u] = s.v;
          mate[s.v] = s.u;
        } else {
          ++kept;
        }
        // Whoever holds a reservation releases it for the next round's
        // bidding.
        if (won_u)
          reservation[s.u].store(kFreeSlot, std::memory_order_relaxed);
        if (won_v)
          reservation[s.v].store(kFreeSlot, std::memory_order_relaxed);
      }
      block_kept[static_cast<std::size_t>(b)] = kept;
    });
    uint64_t kept = 0;
    for (uint64_t& c : block_kept) {
      const uint64_t block = c;
      c = kept;
      kept += block;
    }
    if (level != ProfileLevel::kNone) {
      // Work: one attempt (reserve + commit, O(1) each) per active edge.
      prof.work_items += live;
      if (level == ProfileLevel::kDetailed)
        prof.per_round.push_back(RoundProfile{live, live - kept, 0});
    }

    // The next window: the unresolved slots in order, then the next edges
    // of the ordering. Each block moves its own survivors and builds the
    // share of the refill proportional to its range.
    const uint64_t add = std::min(window - kept, m - next);
    parallel_blocks(sz, [&](int64_t b, int64_t lo, int64_t hi) {
      uint64_t pos = block_kept[static_cast<std::size_t>(b)];
      for (int64_t i = lo; i < hi; ++i)
        if (!slots[static_cast<uint64_t>(i)].resolved)
          spare[pos++] = slots[static_cast<uint64_t>(i)];
      const uint64_t first = add * static_cast<uint64_t>(lo) / live;
      const uint64_t last = add * static_cast<uint64_t>(hi) / live;
      for (uint64_t k = first; k < last; ++k)
        spare[kept + k] = make_slot(next + k);
    });
    std::swap(slots, spare);
    live = kept + add;
    next += add;
  }
  prof.steps = prof.rounds;
  return result;
}

}  // namespace pargreedy

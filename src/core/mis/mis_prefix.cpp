// Algorithm 3: prefix-based ("deterministic reservations") MIS — the
// implementation used for the paper's experiments (Section 6).
//
// A window holds the prefix_size earliest unresolved vertices of the
// ordering. Each round runs two barrier-separated phases over the window
// (the reserve/commit pattern of the paper's companion PPoPP'12
// framework [2]):
//
//   phase A (join):  a vertex whose earlier neighbors are all Out joins the
//                    MIS — it is a root of the remaining priority DAG;
//   phase B (kill):  a vertex that now sees an earlier In neighbor becomes
//                    Out — it is a child of a new root.
//
// Resolved vertices leave the window and the next vertices of the ordering
// refill it: one pass moves the unresolved slots, in order, to the front of
// a second window buffer and appends the refill behind them. Phase B counts
// each block's unresolved slots, so that pass needs no scan of its own.
//
// Slot state. A window slot carries (v, rank, cursor, end, resolved): rank
// is v's position in the ordering, known to the refill because
// rank(order.nth(i)) == i; [cursor, end) is the part of v's CSR row not yet
// cleared; resolved is the slot's own outcome. The cursor invariant:
// every neighbor before `cursor` is later than v or is Out, and Out is
// final. Phase A resumes at the cursor and advances it past later and Out
// neighbors, stopping at the first earlier neighbor that is not Out, so
// reaching `end` means exactly "all earlier neighbors are Out". Phase B
// scans from the cursor, because no neighbor before it can be In. A
// retried vertex therefore never rescans a prefix it has already cleared,
// and no phase re-gathers v's rank, row bounds or status.
//
// Why the round count is still a pure function of (graph, order,
// prefix_size): the cursor changes where a scan starts, not what it
// concludes. Phase A's all-Out test and phase B's any-In test see the same
// answer a scan from the row's start would, because the skipped prefix
// holds only neighbors the invariant rules out. Each round thus decides
// exactly what one step of Algorithm 2 decides on the window — never
// depending on the worker count — which is what makes the rounds-vs-prefix-
// size series of Figure 1(b) reproducible. With prefix_size = 1 every round
// resolves one vertex (the sequential algorithm, rounds = n); with
// prefix_size = n the round count equals the dependence length of the
// priority DAG. work_edges counts the earlier neighbors each phase
// inspects, so a prefix the cursor has cleared is counted once.
//
// When the ordering is the identity (the pre-permuted-graph setup of the
// paper's PBBS implementation, see relabel_by_rank), a neighbor's rank is
// its id, with no rank-array indirection — the identity fast path below.
// Both paths run the same round structure, so profiles and results are
// identical.
//
// Status reads race benignly with same-phase writes: phase A only writes
// kIn, and reading a fresh kIn instead of kUndecided stops the scan at the
// same neighbor; the cursor only passes kOut, which no phase A writes, so
// where it stops is schedule-independent. Phase B only writes kOut after
// the join set is sealed, and tests only for kIn. So the result equals
// mis_sequential's for any schedule and worker count. The paper's grain
// size of 256 (kDefaultGrain) governs when the window loops parallelize.
#include <algorithm>
#include <atomic>
#include <memory>

#include "core/mis/mis.hpp"
#include "parallel/parallel_for.hpp"
#include "support/check.hpp"

namespace pargreedy {

namespace {

/// How many slots ahead phase A prefetches the CSR row it will scan (on
/// G(1M, 5M) at 4 workers the prefetch cuts the kernel by about a fifth).
constexpr int64_t kPrefetchAhead = 8;

struct Slot {
  Offset cursor;
  Offset end;
  VertexId v;
  uint32_t rank;
  bool resolved;
};

inline VStatus load_status(const std::vector<uint8_t>& status, VertexId v) {
  return static_cast<VStatus>(
      std::atomic_ref<const uint8_t>(status[v]).load(
          std::memory_order_relaxed));
}

inline void store_status(std::vector<uint8_t>& status, VertexId v,
                         VStatus s) {
  std::atomic_ref<uint8_t>(status[v]).store(static_cast<uint8_t>(s),
                                            std::memory_order_relaxed);
}

/// The round loop, templated on the identity fast path so that it
/// compiles to a plain id comparison.
template <bool kIdentity>
void run_prefix_rounds(const CsrGraph& g, const VertexOrder& order,
                       uint64_t window, ProfileLevel level,
                       std::vector<uint8_t>& status, RunProfile& prof) {
  const uint64_t n = g.num_vertices();
  const std::span<const Offset> offsets = g.offsets();
  const std::span<const VertexId> adj = g.adjacency();
  const std::span<const uint32_t> rank = order.ranks();
  // w's position in the ordering.
  const auto rank_of = [&](VertexId w) {
    if constexpr (kIdentity) {
      return w;
    } else {
      return rank[w];
    }
  };
  const auto make_slot = [&](uint64_t i) {
    const VertexId v = order.nth(i);
    return Slot{offsets[v], offsets[v + 1], v, static_cast<uint32_t>(i), false};
  };

  // A round reads the window from `slots` and writes the next one into
  // `spare`; both are allocated once.
  auto slots = std::make_unique_for_overwrite<Slot[]>(window);
  auto spare = std::make_unique_for_overwrite<Slot[]>(window);
  const auto max_blocks = static_cast<std::size_t>(
      parallel_block_count(static_cast<int64_t>(window)));
  std::vector<uint64_t> block_kept(max_blocks);
  std::vector<uint64_t> block_work(max_blocks);
  uint64_t live = std::min(window, n);
  uint64_t next = live;
  parallel_for(0, static_cast<int64_t>(live), [&](int64_t k) {
    slots[static_cast<uint64_t>(k)] = make_slot(static_cast<uint64_t>(k));
  });

  while (live > 0) {
    ++prof.rounds;
    const int64_t sz = static_cast<int64_t>(live);

    // Phase A: resume each slot's scan at its cursor; a slot whose scan
    // reaches the end of its row has only Out earlier neighbors and joins.
    // Blocks that get no items leave their counters at 0.
    std::fill(block_kept.begin(), block_kept.end(), 0);
    std::fill(block_work.begin(), block_work.end(), 0);
    parallel_blocks(sz, [&](int64_t b, int64_t lo, int64_t hi) {
      uint64_t scanned = 0;
      for (int64_t i = lo; i < hi; ++i) {
        if (i + kPrefetchAhead < hi) {
          const Slot& ahead = slots[static_cast<uint64_t>(i + kPrefetchAhead)];
          __builtin_prefetch(adj.data() + ahead.cursor);
        }
        Slot& s = slots[static_cast<uint64_t>(i)];
        Offset c = s.cursor;
        for (; c < s.end; ++c) {
          const VertexId w = adj[c];
          if (rank_of(w) > s.rank) continue;
          ++scanned;
          if (load_status(status, w) != VStatus::kOut) break;
        }
        s.cursor = c;
        if (c == s.end) {
          store_status(status, s.v, VStatus::kIn);
          s.resolved = true;
        }
      }
      block_work[static_cast<std::size_t>(b)] = scanned;
    });

    // Phase B: a slot that sees an earlier In neighbor past its cursor
    // leaves; none can sit before the cursor. Each block also counts the
    // slots it leaves unresolved, which places them in the next window.
    parallel_blocks(sz, [&](int64_t b, int64_t lo, int64_t hi) {
      uint64_t kept = 0;
      uint64_t scanned = 0;
      for (int64_t i = lo; i < hi; ++i) {
        Slot& s = slots[static_cast<uint64_t>(i)];
        if (s.resolved) continue;
        for (Offset c = s.cursor; c < s.end; ++c) {
          const VertexId w = adj[c];
          if (rank_of(w) > s.rank) continue;
          ++scanned;
          if (load_status(status, w) == VStatus::kIn) {
            store_status(status, s.v, VStatus::kOut);
            s.resolved = true;
            break;
          }
        }
        kept += s.resolved ? 0 : 1;
      }
      block_kept[static_cast<std::size_t>(b)] = kept;
      block_work[static_cast<std::size_t>(b)] += scanned;
    });
    uint64_t kept = 0;
    uint64_t work = 0;
    for (std::size_t b = 0; b < block_kept.size(); ++b) {
      const uint64_t block = block_kept[b];
      block_kept[b] = kept;
      kept += block;
      work += block_work[b];
    }
    if (level != ProfileLevel::kNone) {
      prof.work_edges += work;
      prof.work_items += live;
      if (level == ProfileLevel::kDetailed)
        prof.per_round.push_back(RoundProfile{live, live - kept, work});
    }

    // The next window: the unresolved slots in order, then the next
    // vertices of the ordering. Each block moves its own survivors and
    // builds the share of the refill proportional to its range; the
    // blocks that run cover [0, live), so their shares cover the refill.
    // The window invariant — it holds the `window` earliest unresolved
    // vertices — is what lets phase A treat "no earlier Undecided in
    // sight" as "no earlier Undecided anywhere".
    const uint64_t add = std::min(window - kept, n - next);
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
}

}  // namespace

MisResult mis_prefix(const CsrGraph& g, const VertexOrder& order,
                     uint64_t prefix_size, ProfileLevel level) {
  const uint64_t n = g.num_vertices();
  PG_CHECK_MSG(order.size() == n, "ordering size != vertex count");
  const uint64_t window =
      std::clamp<uint64_t>(prefix_size, 1, std::max<uint64_t>(n, 1));
  MisResult result;
  result.in_set.assign(n, 0);
  std::vector<uint8_t>& status = result.in_set;

  if (order.is_identity()) {
    run_prefix_rounds<true>(g, order, window, level, status, result.profile);
  } else {
    run_prefix_rounds<false>(g, order, window, level, status, result.profile);
  }

  parallel_for(0, static_cast<int64_t>(n), [&](int64_t v) {
    status[static_cast<std::size_t>(v)] =
        status[static_cast<std::size_t>(v)] ==
                static_cast<uint8_t>(VStatus::kIn)
            ? 1
            : 0;
  });
  return result;
}

}  // namespace pargreedy

// Algorithm 2, step-synchronous ("naive") implementation.
//
// Each step does exactly what one recursive call of Algorithm 2 does, in
// two race-free phases over the still-undecided vertices:
//   phase A: vertices whose earlier neighbors are all Out join the MIS
//            (these are the roots of the remaining priority DAG);
//   phase B: vertices that now see an earlier In neighbor become Out
//            (the children of the new roots).
// The number of steps is therefore the *dependence length* of the priority
// DAG (Section 3) — this implementation doubles as its measurement tool.
// Work is O(m) per step, i.e. O(m log^2 n) in expectation overall; the
// linear-work alternatives are mis_rootset and mis_prefix.
#include <atomic>

#include "core/mis/mis.hpp"
#include "parallel/pack.hpp"
#include "parallel/reduce.hpp"
#include "support/check.hpp"

namespace pargreedy {

namespace {

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

}  // namespace

MisResult mis_parallel_naive(const CsrGraph& g, const VertexOrder& order,
                             ProfileLevel level) {
  const uint64_t n = g.num_vertices();
  PG_CHECK_MSG(order.size() == n, "ordering size != vertex count");
  MisResult result;
  result.in_set.assign(n, 0);
  std::vector<uint8_t>& status = result.in_set;  // reused: kIn==1 at the end
  static_assert(static_cast<uint8_t>(VStatus::kUndecided) == 0);

  UninitVector<VertexId> active(order.order().begin(), order.order().end());
  RunProfile& prof = result.profile;

  while (!active.empty()) {
    ++prof.rounds;
    const int64_t sz = static_cast<int64_t>(active.size());

    // Phase A: undecided vertices with every earlier neighbor Out join.
    const uint64_t work_a = static_cast<uint64_t>(parallel_reduce<int64_t>(
        0, sz, 0,
        [&](int64_t i) {
          const VertexId v = active[static_cast<std::size_t>(i)];
          const uint32_t rv = order.rank(v);
          int64_t scanned = 0;
          bool all_out = true;
          for (VertexId w : g.neighbors(v)) {
            if (order.rank(w) >= rv) continue;
            ++scanned;
            if (load_status(status, w) != VStatus::kOut) {
              all_out = false;
              break;
            }
          }
          if (all_out) store_status(status, v, VStatus::kIn);
          return scanned;
        },
        [](int64_t a, int64_t b) { return a + b; }));

    // Phase B: undecided vertices seeing an earlier In neighbor leave.
    const uint64_t work_b = static_cast<uint64_t>(parallel_reduce<int64_t>(
        0, sz, 0,
        [&](int64_t i) {
          const VertexId v = active[static_cast<std::size_t>(i)];
          if (load_status(status, v) != VStatus::kUndecided) return int64_t{0};
          const uint32_t rv = order.rank(v);
          int64_t scanned = 0;
          for (VertexId w : g.neighbors(v)) {
            if (order.rank(w) >= rv) continue;
            ++scanned;
            if (load_status(status, w) == VStatus::kIn) {
              store_status(status, v, VStatus::kOut);
              break;
            }
          }
          return scanned;
        },
        [](int64_t a, int64_t b) { return a + b; }));

    const UninitVector<VertexId> next =
        pack(std::span<const VertexId>(active), [&](int64_t i) {
          return load_status(status, active[static_cast<std::size_t>(i)]) ==
                 VStatus::kUndecided;
        });
    if (level != ProfileLevel::kNone) {
      prof.work_edges += work_a + work_b;
      prof.work_items += static_cast<uint64_t>(sz);
      if (level == ProfileLevel::kDetailed) {
        prof.per_round.push_back(RoundProfile{
            static_cast<uint64_t>(sz),
            static_cast<uint64_t>(sz) - next.size(), work_a + work_b});
      }
    }
    PG_CHECK_MSG(next.size() < active.size(),
                 "no progress in a step: priority DAG is inconsistent");
    active = next;
  }
  prof.steps = prof.rounds;

  // Collapse the tri-state array to the 0/1 membership convention.
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

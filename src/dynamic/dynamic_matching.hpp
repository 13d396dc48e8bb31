// DynamicMatching: a long-lived greedy (lexicographically-first) maximal
// matching under batched graph updates.
//
// Mirror image of DynamicMis, one level up: decisions live on *edges*, the
// priority DAG is the line-graph DAG (edges sharing an endpoint, directed
// earlier -> later), and repropagation pushes along incident edges. Because
// edges come and go, priorities cannot be a fixed permutation; instead
// every edge's priority is the pure PrioritySource key of its canonical
// endpoint pair and weight,
//
//   pri{u, v} = (source.edge_key({u, v}, w), (u << 32) | v),
//
// compared lexicographically (the final endpoint-pair tie-break makes the
// order total even across hash collisions and equal weights). For the
// default random-hash policy the key is hash64(seed, (u << 32) | v) — the
// paper's uniformly random order; the edge-weight policies put heavier
// edges first (weighted greedy matching). A re-inserted edge with the same
// weight therefore gets the *same* priority it had before — the solution
// depends only on (live edge set, edge weights, active vertices, policy),
// never on update history, which is what makes the from-scratch oracle
// comparison exact: edge_order_for(H) materializes the same order as an
// EdgeOrder over any CSR snapshot H (weights included), and
//
//   matched_with() == mm_sequential(H, edge_order_for(H)).matched_with
//
// where H = active_subgraph() (checked by the differential tests).
//
// Concurrency contract (machine-checked): one writer, many readers —
// identical to DynamicMis, and implemented once in the shared engine core
// (engine_core.hpp). Mutators require the engine's `writer_role_`
// capability; const queries are reader-safe between writer calls; the
// core acquires the OverlayGraph's writer role inside each mutator.
// See support/thread_annotations.hpp and docs/STATIC_ANALYSIS.md. For
// committed reads that must be safe *during* writer calls, use a
// Transaction's lock-free published view (txn/published_state.hpp,
// docs/CONCURRENCY.md).
//
// Per-edge state (membership bit, cached priority key) is keyed by
// OverlayGraph slot; compaction reassigns slots, so the core's
// compaction hook re-keys the state through the surviving matched pairs.
//
// Matched-slot index: per vertex w, in_cnt_[w] counts the incident slots
// whose membership bit is set and in_xor_[w] is the XOR of their slot
// ids, so when the count is 1 the XOR *is* w's matched slot. Every
// membership write goes through set_in_m(), which keeps both exact
// (relaxed atomic add/xor: the repropagation commit flips slots sharing
// an endpoint in parallel, and the updates commute, so the values are the
// same at any worker count). A set bit implies a live slot with both
// endpoints active (structural removals clear it eagerly), so the index
// replaces incidence scans:
//   decide(s)           per endpoint, the count excluding s is 0 (clear),
//                       1 (one earlier() test against the XOR) or >= 2 —
//                       possible only mid-round, and the one case that
//                       still scans the incidence list;
//   append_successors   a slot that joined re-seeds only the later
//                       incident slots still IN (an OUT one is blocked by
//                       it, hence consistent) — nothing when it is its
//                       endpoint's only IN slot;
//   matched_with, solution, size
//                       read at a fixpoint (count <= 1): O(1) per vertex.
// The index costs 12 bytes per vertex.
//
// Reweights: a batch edge reweight changes the slot's weight in place (no
// slot churn) and refreshes only that slot's cached key; if the key moved,
// the slot — plus, when it was matched, its incident edges (the cone's
// first layer) — seeds repropagation. Under policies whose keys ignore
// edge weights (random_hash) a reweight is a provable no-op: zero seeds,
// zero rounds. Vertex reweights never touch edge priorities; the stored
// weight just reaches future snapshots.
#pragma once

#include <cstdint>
#include <vector>

#include "core/matching/edge_order.hpp"
#include "dynamic/engine_api.hpp"
#include "dynamic/engine_core.hpp"
#include "dynamic/repropagate.hpp"
#include "dynamic/update_batch.hpp"
#include "graph/csr_graph.hpp"
#include "support/thread_annotations.hpp"

namespace pargreedy {

/// Batch-dynamic greedy maximal-matching engine (see file comment for the
/// priority scheme and the maintained invariant). The graph, activity,
/// compaction and transactional seams are the shared core's
/// (engine_core.hpp).
class DynamicMatching : public DynamicEngine<DynamicMatching> {
 public:
  /// Label value of the per-engine obs series.
  static constexpr const char* kName = "matching";

  /// Starts from `options.graph` with every vertex active; edge
  /// priorities come from `options.source` (edge_weight /
  /// weight_hash_tiebreak read the graph's edge weights — weighted greedy
  /// matching) and the initial matching is computed with the parallel
  /// rootset algorithm. This is the only constructor; build options with
  /// the EngineOptions factories (engine_api.hpp).
  explicit DynamicMatching(EngineOptions options);

  /// True iff live edge {u, v} is currently in the matching.
  [[nodiscard]] bool matched(VertexId u, VertexId v) const;

  /// v's partner in the matching, or kInvalidVertex when unmatched. O(1)
  /// (read from the matched-slot index).
  [[nodiscard]] VertexId matched_with(VertexId v) const;

  /// Per-vertex partner array over the full universe (kInvalidVertex for
  /// unmatched and inactive vertices) — comparable bit-for-bit with
  /// mm_sequential's matched_with on active_subgraph().
  [[nodiscard]] std::vector<VertexId> solution() const;

  /// The matched edges, canonical and sorted.
  [[nodiscard]] std::vector<Edge> matched_edges() const;

  /// Number of matched edges. O(n) over the matched-slot index.
  [[nodiscard]] uint64_t size() const;

  /// The cached priority key of slot s — the words earlier() compares.
  /// Checked: s is a covered slot.
  [[nodiscard]] PriorityKey cached_slot_key(EdgeSlot s) const;

  /// The priority order this engine induces on the edges of `g` (reading
  /// g's edge weights under the weighted policies) — feed to mm_sequential
  /// for the from-scratch oracle.
  [[nodiscard]] EdgeOrder edge_order_for(const CsrGraph& g) const;

 private:
  friend class DynamicEngine<DynamicMatching>;
  friend struct MmReproEngine;

  /// True iff slot s is in the matching's graph: edge live, endpoints
  /// active.
  [[nodiscard]] bool slot_in_graph(EdgeSlot s) const;

  /// Priority comparison: s strictly earlier than t.
  [[nodiscard]] bool earlier(EdgeSlot s, EdgeSlot t) const;

  [[nodiscard]] bool decide(EdgeSlot s) const;

  /// The one write path of the membership bit: stores in_m_[s] = value
  /// (which must differ from the stored bit) and updates both endpoints'
  /// in_cnt_/in_xor_ with relaxed atomics, so concurrent calls on
  /// distinct slots are safe and order-independent.
  void set_in_m(EdgeSlot s, bool value);

  /// Rebuilds in_cnt_/in_xor_ from in_m_ over the current slots.
  void rebuild_index();

  /// Grows the per-slot state arrays to cover slot s, computing fresh
  /// priority keys.
  void cover_slot(EdgeSlot s) PARGREEDY_REQUIRES(writer_role_);

  /// Recomputes slot s's cached priority key from its current endpoints
  /// and weight (needed when a re-insert changes an edge's weight);
  /// true iff the key changed.
  bool refresh_slot(EdgeSlot s) PARGREEDY_REQUIRES(writer_role_);

  // Core hooks (engine_core.hpp).
  void apply_updates(const UpdateBatch& batch, BatchStats& stats)
      PARGREEDY_REQUIRES(writer_role_, graph_.writer_role_);
  void undo_decision(uint64_t s, bool value) { set_in_m(s, value); }
  void undo_growth(std::size_t old_size);
  [[nodiscard]] std::vector<Edge> before_compact() const {
    return matched_edges();
  }
  void after_compact(std::vector<Edge> matched);

  std::vector<uint8_t> in_m_;     // per slot: edge in matching
  std::vector<uint32_t> in_cnt_;  // per vertex: incident slots in_m_ set
  std::vector<EdgeSlot> in_xor_;  // per vertex: XOR of those slot ids
};

}  // namespace pargreedy

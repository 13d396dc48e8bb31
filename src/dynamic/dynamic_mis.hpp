// DynamicMis: a long-lived lexicographically-first MIS under batched graph
// updates.
//
// Holds a graph (OverlayGraph: CSR base + mutation deltas), a vertex
// priority order pi — random by default, or produced by any PrioritySource
// policy (e.g. decreasing vertex weight for the weighted greedy MIS) —
// and the current greedy MIS. apply_batch()
// mutates the graph and repropagates greedy decisions over the priority
// DAG until the solution is again *exactly* the one mis_sequential would
// compute from scratch on the updated graph under the same pi — but
// touching only the affected cone, which for random pi is shallow
// (Theorem 3.5 / Fischer–Noever). See repropagate.hpp for the round
// structure and determinism argument.
//
// Priorities under reweights: the comparisons run on cached per-vertex
// PriorityKeys (key, id tie-break — the identical total order the
// materialized VertexOrder would give), so a batch vertex reweight only
// refreshes the affected keys and seeds the vertex plus its active
// neighbors; under policies whose keys ignore vertex weights
// (random_hash) a reweight is a provable no-op — zero seeds, zero
// rounds. Edge reweights update the stored weight for
// snapshots but never touch vertex priorities.
//
// Concurrency contract (machine-checked): one writer, many readers. The
// mutators (apply_batch, compact, the txn_* seams) may only be called by
// the single writer thread and are annotated to require the engine's
// `writer_role_` capability; the const queries are safe from any number
// of reader threads between writer calls (order() being the documented
// exception). The shared engine core (engine_core.hpp) acquires the
// OverlayGraph's writer role for the scope of each mutator — see
// support/thread_annotations.hpp and docs/STATIC_ANALYSIS.md. Readers
// that need committed state *during* writer calls should go through a
// Transaction's published view (txn/published_state.hpp,
// docs/CONCURRENCY.md), which is lock-free and safe at any time — this
// engine's own queries are not.
//
// Vertex activity: the vertex universe [0, n) is fixed at construction;
// deactivating a vertex removes it (and implicitly its incident edges)
// from the *solution's* graph without forgetting its edges, activating it
// brings it back. in_set(v) is always false for an inactive vertex.
//
// Exact-equivalence invariant (checked by the differential tests): let H
// be the live graph restricted to edges with both endpoints active, as a
// CsrGraph over all n vertices (active_subgraph()). Then for every active
// v, in_set(v) == mis_sequential(H, order()).in_set[v]; inactive vertices
// are isolated in H and report in_set == false here.
#pragma once

#include <cstdint>
#include <vector>

#include "core/mis/mis.hpp"
#include "core/mis/vertex_order.hpp"
#include "dynamic/engine_api.hpp"
#include "dynamic/engine_core.hpp"
#include "dynamic/repropagate.hpp"
#include "dynamic/update_batch.hpp"
#include "graph/csr_graph.hpp"
#include "support/thread_annotations.hpp"

namespace pargreedy {

/// Batch-dynamic lexicographically-first MIS engine (see file comment for
/// the maintained invariant). The graph, activity, compaction and
/// transactional seams are the shared core's (engine_core.hpp).
class DynamicMis : public DynamicEngine<DynamicMis> {
 public:
  /// Label value of the per-engine obs series.
  static constexpr const char* kName = "mis";

  /// Starts from `options.graph` with every vertex active; pi =
  /// options.source.vertex_order(graph) (the weighted policies read the
  /// graph's vertex weights — weighted greedy MIS) and the initial
  /// solution is computed with the parallel rootset algorithm. This is
  /// the only constructor; build options with the EngineOptions factories
  /// (engine_api.hpp).
  explicit DynamicMis(EngineOptions options);

  /// True iff v is currently in the maintained MIS.
  [[nodiscard]] bool in_set(VertexId v) const noexcept {
    return in_set_[v] != 0;
  }

  /// The current priority order pi, materialized. Rebuilt lazily after
  /// vertex reweights change priority keys (the engine itself compares
  /// cached keys; this materialization exists for oracle recomputation).
  /// Concurrency note: the rebuild mutates internal state, so unlike the
  /// other const queries this accessor must not race with them while a
  /// rebuild is pending — call it once after apply_batch (or serialize
  /// externally) before reading the engine from other threads.
  [[nodiscard]] const VertexOrder& order() const;

  /// The current solution as a membership bitmap (0 for inactive
  /// vertices) — bit-identical to the from-scratch oracle (see header
  /// comment).
  [[nodiscard]] std::vector<uint8_t> solution() const { return in_set_; }

  /// Number of vertices currently in the MIS.
  [[nodiscard]] uint64_t size() const;

  /// The cached priority key of v — the words earlier() compares.
  [[nodiscard]] PriorityKey cached_vertex_key(VertexId v) const {
    return keys_[v];
  }

 private:
  friend class DynamicEngine<DynamicMis>;
  friend struct MisReproEngine;

  [[nodiscard]] bool decide(VertexId v) const;

  /// True iff a strictly precedes b in pi: the cached keys, id
  /// tie-break — the same total order the materialized VertexOrder gives,
  /// but robust to reweights.
  [[nodiscard]] bool earlier(VertexId a, VertexId b) const {
    return keys_.earlier(a, b, [&] { return a < b; });
  }

  // Core hooks (engine_core.hpp).
  void apply_updates(const UpdateBatch& batch, BatchStats& stats)
      PARGREEDY_REQUIRES(writer_role_, graph_.writer_role_);
  void undo_decision(uint64_t v, bool value) { in_set_[v] = value ? 1 : 0; }
  // order_ may have been re-materialized mid-transaction from since-
  // rolled-back weights; rebuild it from the restored keys on next
  // order(). The rebuilt order is content-identical to the
  // pre-transaction one (vertex_order is a pure function of the weights).
  void keys_restored() { order_stale_ = true; }

  mutable VertexOrder order_;  // lazily re-materialized after reweights
  mutable bool order_stale_ = false;
  std::vector<uint8_t> in_set_;
};

}  // namespace pargreedy

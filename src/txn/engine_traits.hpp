// Engine traits for the transaction layer: the few engine-specific
// operations Transaction<Traits> needs beyond the shared txn_* seams.
//
// Each trait binds an engine type to its solution representation and
// says which solution entries a journaled decision flip can change. A
// commit patches the newest published version at exactly those entries
// (txn/transaction.hpp), reading each one's committed value in O(1).
//
//   MisTxnTraits       solution is the in_set bitmap; every membership
//                      mutation is a journaled decision flip keyed by
//                      vertex, so a flip touches its own vertex.
//   MatchingTxnTraits  solution is the matched_with partner array, but
//                      the journal logs per-slot matching bits; a flip
//                      touches both endpoints of its slot. That covers
//                      every vertex whose partner changed: a partner
//                      changes only through a flip of an incident slot
//                      (the engine's solution is unique, so at most one
//                      incident slot is matched before and after).
#pragma once

#include <cstdint>
#include <vector>

#include "dynamic/dynamic_matching.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "dynamic/engine_api.hpp"
#include "graph/types.hpp"

namespace pargreedy {

// The contract check for the unified engine surface: every engine the
// transaction layer binds to must model DynamicEngineApi
// (dynamic/engine_api.hpp). Asserted here — next to the traits that do
// the binding — so an engine drifting away from the shared API fails to
// compile at the layer that depends on it.
static_assert(DynamicEngineApi<DynamicMis>,
              "DynamicMis no longer models the unified engine API");
static_assert(DynamicEngineApi<DynamicMatching>,
              "DynamicMatching no longer models the unified engine API");

/// Transaction-layer binding for DynamicMis (see file comment).
struct MisTxnTraits {
  using Engine = DynamicMis;
  using Value = uint8_t;

  /// Label value of the per-policy `txn.*{engine=...}` obs series.
  static constexpr const char* kName = Engine::kName;

  static std::vector<Value> solution(const Engine& engine) {
    return engine.solution();
  }

  /// Calls `f(i)` for each solution index a flip of decision `item` can
  /// change.
  template <typename F>
  static void for_each_touched(const Engine& /*engine*/, uint64_t item,
                               F&& f) {
    f(item);
  }

  /// Solution entry `i` of the engine's current state. O(1).
  static Value value(const Engine& engine, uint64_t i) {
    return engine.in_set(static_cast<VertexId>(i)) ? 1 : 0;
  }
};

/// Transaction-layer binding for DynamicMatching (see file comment).
struct MatchingTxnTraits {
  using Engine = DynamicMatching;
  using Value = VertexId;

  /// Label value of the per-policy `txn.*{engine=...}` obs series.
  static constexpr const char* kName = Engine::kName;

  static std::vector<Value> solution(const Engine& engine) {
    return engine.solution();
  }

  /// `item` is an edge slot; slot ids are stable until compaction, so
  /// this must run before the commit compacts.
  template <typename F>
  static void for_each_touched(const Engine& engine, uint64_t item, F&& f) {
    const Edge e = engine.graph().slot_edge(static_cast<EdgeSlot>(item));
    f(e.u);
    f(e.v);
  }

  static Value value(const Engine& engine, uint64_t i) {
    return engine.matched_with(static_cast<VertexId>(i));
  }
};

}  // namespace pargreedy

// Engine traits for the transaction layer: the few engine-specific
// operations Transaction<Traits> needs beyond the shared txn_* seams.
//
// Each trait binds an engine type to its solution representation and
// knows how to extract a *reverse solution delta* from the engine's undo
// journal: the solution entries that changed since a journal watermark,
// valued as they were at that watermark. Commits push these deltas into
// the VersionRing, which numbers versions and backs the property tests;
// reads are served from the published full copies instead
// (txn/published_state.hpp).
//
//   MisTxnTraits       solution is the in_set bitmap; every membership
//                      mutation is a journaled decision flip keyed by
//                      vertex, so the delta is the first-logged old value
//                      per flipped vertex.
//   MatchingTxnTraits  solution is the matched_with partner array, but
//                      the journal logs per-slot matching bits; the delta
//                      derives each touched vertex's previous partner
//                      from the first-logged old bit per flipped slot
//                      (a vertex's partner can only change through a flip
//                      of an incident slot, and its pre-transaction
//                      matched slot — if any — must itself have flipped,
//                      so the journal always contains the evidence).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dynamic/dynamic_matching.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "dynamic/engine_api.hpp"
#include "dynamic/undo_log.hpp"
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
  static constexpr const char* kName = "mis";

  static std::vector<Value> solution(const Engine& engine) {
    return engine.solution();
  }

  /// Solution entries changed since `mark`, with their values at `mark`
  /// (empty when the journal span changed nothing observable).
  static std::vector<std::pair<uint64_t, Value>> reverse_delta(
      const Engine& engine, const EngineJournal& journal, std::size_t mark);
};

/// Transaction-layer binding for DynamicMatching (see file comment).
struct MatchingTxnTraits {
  using Engine = DynamicMatching;
  using Value = VertexId;

  /// Label value of the per-policy `txn.*{engine=...}` obs series.
  static constexpr const char* kName = "matching";

  static std::vector<Value> solution(const Engine& engine) {
    return engine.solution();
  }

  static std::vector<std::pair<uint64_t, Value>> reverse_delta(
      const Engine& engine, const EngineJournal& journal, std::size_t mark);
};

}  // namespace pargreedy

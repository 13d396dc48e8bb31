// DynamicMatching behavior tests: batch semantics, hash-stable edge
// priorities, activity toggles, compaction re-keying, the per-vertex
// matched-slot index, and exact agreement with the sequential greedy
// matching oracle after every batch.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/matching/matching.hpp"
#include "core/matching/verify.hpp"
#include "core/priority/priority_source.hpp"
#include "dynamic/dynamic_matching.hpp"
#include "dynamic/update_batch.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "parallel/arch.hpp"
#include "support/check.hpp"
#include "txn/transaction.hpp"

namespace pargreedy {
namespace {

/// Exact-equivalence invariant from the class header: the maintained
/// partner array equals mm_sequential's on the active-induced subgraph
/// under the engine's hash-derived edge order.
void expect_matches_oracle(const DynamicMatching& dm) {
  const CsrGraph h = dm.active_subgraph();
  const MatchResult ref = mm_sequential(h, dm.edge_order_for(h));
  ASSERT_EQ(dm.solution(), ref.matched_with);
}

/// The index-backed queries against a plain incidence scan: every
/// vertex's matched_with() is the one neighbor w with matched(v, w) (or
/// none), and size() counts each matched edge once.
void expect_index_matches_scan(const DynamicMatching& dm) {
  uint64_t matched_vertices = 0;
  for (VertexId v = 0; v < dm.num_vertices(); ++v) {
    VertexId partner = kInvalidVertex;
    uint64_t partners = 0;
    dm.graph().for_incident(v, [&](VertexId w, EdgeSlot) {
      if (dm.matched(v, w)) {
        partner = w;
        ++partners;
      }
    });
    ASSERT_LE(partners, 1u) << "vertex " << v;
    ASSERT_EQ(dm.matched_with(v), partner) << "vertex " << v;
    matched_vertices += partners;
  }
  ASSERT_EQ(dm.size(), matched_vertices / 2);
  ASSERT_EQ(dm.matched_edges().size(), dm.size());
}

void expect_exact(const DynamicMatching& dm) {
  expect_index_matches_scan(dm);
  expect_matches_oracle(dm);
}

/// A weighted rMat graph: skewed degrees give hub vertices, and coarse
/// weight levels make edge reweights move priorities under
/// weight_hash_tiebreak.
CsrGraph weighted_rmat(unsigned scale, uint64_t m, uint64_t seed) {
  CsrGraph g = CsrGraph::from_edges(rmat_graph(scale, m, seed));
  g.set_edge_weights(quantized_weights(g.num_edges(), seed + 1, 8));
  return g;
}

UpdateBatch rmat_batch(const DynamicMatching& dm, uint64_t ops,
                       uint64_t seed) {
  return UpdateBatch::random_weighted(
      dm.num_vertices(), dm.graph().live_edge_list().edges(),
      /*inserts=*/ops, /*deletes=*/ops, /*reweights=*/ops / 2,
      /*toggles=*/ops / 8, /*levels=*/8, seed);
}

TEST(DynamicMatching, InitialSolutionIsTheGreedyMatching) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(400, 1'600, 3));
  const DynamicMatching dm(EngineOptions::seeded(g, /*seed=*/21));
  const MatchResult ref = mm_sequential(g, dm.edge_order_for(g));
  EXPECT_EQ(dm.solution(), ref.matched_with);
  EXPECT_EQ(dm.size(), ref.size());
  EXPECT_TRUE(is_maximal_matching_set(g, mm_rootset(g, dm.edge_order_for(g))
                                             .in_matching));
}

TEST(DynamicMatching, QueriesAgreeWithEachOther) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(200, 700, 5));
  const DynamicMatching dm(EngineOptions::seeded(g, 8));
  uint64_t matched_vertices = 0;
  for (VertexId v = 0; v < dm.num_vertices(); ++v) {
    const VertexId partner = dm.matched_with(v);
    if (partner == kInvalidVertex) continue;
    ++matched_vertices;
    EXPECT_TRUE(dm.matched(v, partner));
    EXPECT_TRUE(dm.matched(partner, v));
    EXPECT_EQ(dm.matched_with(partner), v);
  }
  EXPECT_EQ(matched_vertices, 2 * dm.size());
  EXPECT_EQ(dm.matched_edges().size(), dm.size());
}

TEST(DynamicMatching, EmptyBatchIsANoOp) {
  DynamicMatching dm(EngineOptions::seeded(
      CsrGraph::from_edges(path_graph(10)), 1));
  const std::vector<VertexId> before = dm.solution();
  const BatchStats stats = dm.apply_batch(UpdateBatch{});
  EXPECT_EQ(stats.seeds, 0u);
  EXPECT_EQ(dm.solution(), before);
}

TEST(DynamicMatching, ReinsertedEdgeKeepsItsPriority) {
  // Deleting and re-inserting an edge must restore the identical matching:
  // priorities are pure hashes of the endpoints, not of update history.
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(300, 1'000, 4));
  DynamicMatching dm(EngineOptions::seeded(g, 33));
  const std::vector<VertexId> before = dm.solution();
  const Edge e = dm.matched_edges().front();
  dm.apply_batch(UpdateBatch{}.delete_edge(e.u, e.v));
  EXPECT_FALSE(dm.matched(e.u, e.v));
  expect_matches_oracle(dm);
  dm.apply_batch(UpdateBatch{}.insert_edge(e.u, e.v));
  EXPECT_EQ(dm.solution(), before);
}

TEST(DynamicMatching, DeletingAMatchedEdgeFreesItsEndpoints) {
  const CsrGraph g = CsrGraph::from_edges(complete_graph(6));
  DynamicMatching dm(EngineOptions::seeded(g, 2));
  const Edge e = dm.matched_edges().front();
  const BatchStats stats = dm.apply_batch(UpdateBatch{}.delete_edge(e.u, e.v));
  EXPECT_EQ(stats.deleted, 1u);
  EXPECT_GE(stats.seeds, 1u);  // freed endpoints re-open later edges
  // The remaining K6-minus-an-edge still has a maximal matching of >= 2.
  expect_matches_oracle(dm);
  EXPECT_GE(dm.size(), 2u);
}

TEST(DynamicMatching, DeletingAnUnmatchedEdgeSeedsNothing) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(200, 800, 6));
  DynamicMatching dm(EngineOptions::seeded(g, 11));
  Edge unmatched{kInvalidVertex, kInvalidVertex};
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (!dm.matched(g.edge(e).u, g.edge(e).v)) {
      unmatched = g.edge(e);
      break;
    }
  ASSERT_NE(unmatched.u, kInvalidVertex);
  const std::vector<VertexId> before = dm.solution();
  const BatchStats stats =
      dm.apply_batch(UpdateBatch{}.delete_edge(unmatched.u, unmatched.v));
  EXPECT_EQ(stats.seeds, 0u);
  EXPECT_EQ(dm.solution(), before);
}

TEST(DynamicMatching, DeactivationUnmatchesItsEdges) {
  const CsrGraph g = CsrGraph::from_edges(complete_graph(8));
  DynamicMatching dm(EngineOptions::seeded(g, 14));
  const Edge e = dm.matched_edges().front();
  dm.apply_batch(UpdateBatch{}.deactivate(e.u));
  EXPECT_EQ(dm.matched_with(e.u), kInvalidVertex);
  EXPECT_FALSE(dm.active(e.u));
  // Its former partner is free to rematch among the 6 active others.
  expect_matches_oracle(dm);
  dm.apply_batch(UpdateBatch{}.activate(e.u));
  expect_matches_oracle(dm);
  // History independence: same live graph + activity => same matching.
  const DynamicMatching fresh(EngineOptions::seeded(g, 14));
  EXPECT_EQ(dm.solution(), fresh.solution());
}

TEST(DynamicMatching, AutoCompactionPreservesTheSolution) {
  DynamicMatching dm(EngineOptions::seeded(
      CsrGraph::from_edges(random_graph_nm(250, 750, 9)), 40));
  dm.set_compaction_threshold(0.05);
  bool compacted = false;
  for (uint64_t round = 0; round < 20; ++round) {
    const UpdateBatch batch = UpdateBatch::random(
        250, dm.graph().live_edge_list().edges(), /*inserts=*/10,
        /*deletes=*/7, /*toggles=*/2, /*seed=*/9'000 + round);
    const std::vector<VertexId> want = [&] {
      DynamicMatching probe = dm;  // same state, no compaction trigger
      probe.set_compaction_threshold(0.0);
      probe.apply_batch(batch);
      return probe.solution();
    }();
    compacted = dm.apply_batch(batch).compacted || compacted;
    EXPECT_EQ(dm.solution(), want);
    expect_matches_oracle(dm);
  }
  EXPECT_TRUE(compacted);
}

TEST(DynamicMatching, ManualCompactionIsTransparent) {
  DynamicMatching dm(EngineOptions::seeded(
      CsrGraph::from_edges(random_graph_nm(150, 500, 2)), 5));
  dm.set_compaction_threshold(0.0);
  dm.apply_batch(UpdateBatch::random(
      150, dm.graph().live_edge_list().edges(), 40, 25, 4, 123));
  const std::vector<VertexId> before = dm.solution();
  dm.compact();
  EXPECT_EQ(dm.solution(), before);
  expect_matches_oracle(dm);
}

TEST(DynamicMatching, DeterministicAcrossWorkerCounts) {
  // The matched-slot index is written by parallel atomics, so beyond the
  // final solution every batch's counters must match across widths. The
  // rMat input has hubs, where many flips share one endpoint.
  const CsrGraph inputs[] = {
      CsrGraph::from_edges(random_graph_nm(600, 2'400, 7)),
      CsrGraph::from_edges(rmat_graph(12, 30'000, 7))};
  for (const CsrGraph& g : inputs) {
    std::vector<std::vector<VertexId>> runs;
    std::vector<std::vector<BatchStats>> stats;
    for (int workers : {1, 2, 4}) {
      ScopedNumWorkers guard(workers);
      DynamicMatching dm(EngineOptions::seeded(g, 55));
      stats.emplace_back();
      for (uint64_t round = 0; round < 6; ++round)
        stats.back().push_back(dm.apply_batch(UpdateBatch::random(
            g.num_vertices(), dm.graph().live_edge_list().edges(),
            g.num_edges() / 80, g.num_edges() / 120, 5, 700 + round)));
      runs.push_back(dm.solution());
    }
    for (std::size_t w = 1; w < runs.size(); ++w) {
      EXPECT_EQ(runs[0], runs[w]);
      for (std::size_t b = 0; b < stats[0].size(); ++b) {
        const BatchStats& want = stats[0][b];
        const BatchStats& got = stats[w][b];
        EXPECT_EQ(got.seeds, want.seeds) << "batch " << b;
        EXPECT_EQ(got.rounds, want.rounds) << "batch " << b;
        EXPECT_EQ(got.recomputed, want.recomputed) << "batch " << b;
        EXPECT_EQ(got.changed, want.changed) << "batch " << b;
      }
    }
  }
}

TEST(DynamicMatching, IndexStaysExactThroughTransactions) {
  // Commit, abort, rollback_to a savepoint and commit-time compaction (a
  // low threshold) all write the membership bits; after every step the
  // index-backed queries must agree with an incidence scan and the whole
  // solution with the oracle.
  for (int workers : {1, 2, 4}) {
    ScopedNumWorkers guard(workers);
    DynamicMatching dm(EngineOptions::with_source(
        weighted_rmat(10, 6'000, 17), PrioritySource::weight_hash_tiebreak(5)));
    dm.set_compaction_threshold(0.05);
    MatchingTransaction txn(dm);
    expect_exact(dm);
    uint64_t seed = 1'000;
    uint64_t compactions = 0;
    for (uint64_t round = 0; round < 8; ++round) {
      txn.begin();
      txn.apply(rmat_batch(dm, 60, ++seed));
      expect_exact(dm);
      const EngineSnapshot sp = txn.savepoint();
      txn.apply(rmat_batch(dm, 90, ++seed));
      expect_exact(dm);
      txn.rollback_to(sp);
      expect_exact(dm);
      txn.apply(rmat_batch(dm, 40, ++seed));
      expect_exact(dm);
      if (round % 3 == 2) {
        txn.abort();
      } else {
        txn.commit();
        if (dm.graph().overlay_fraction() == 0.0) ++compactions;
        EXPECT_EQ(txn.committed_solution(), dm.solution());
      }
      expect_exact(dm);
    }
    EXPECT_GT(compactions, 0u) << "workers " << workers;
  }
}

TEST(DynamicMatching, ManyHubEdgesJoiningInOneRoundSettle) {
  // Deleting a star's matched edge frees the hub: every later hub edge
  // joins in the same round (the hub's IN count goes well above 1, the
  // index's scan fallback), then all but the earliest leave again.
  constexpr uint64_t kLeaves = 600;
  const CsrGraph g = CsrGraph::from_edges(star_graph(kLeaves + 1));
  for (int workers : {1, 2, 4}) {
    ScopedNumWorkers guard(workers);
    DynamicMatching dm(EngineOptions::seeded(g, 91));
    ASSERT_EQ(dm.size(), 1u);
    const Edge e = dm.matched_edges().front();
    MatchingTransaction txn(dm);
    txn.begin();
    const BatchStats stats = txn.apply(UpdateBatch{}.delete_edge(e.u, e.v));
    expect_exact(dm);
    EXPECT_EQ(dm.size(), 1u);
    // One eager drop, the later hub edges joining, and all but the
    // earliest of those leaving.
    EXPECT_GT(stats.changed, kLeaves);
    txn.abort();
    expect_exact(dm);
    EXPECT_TRUE(dm.matched(e.u, e.v));
    txn.begin();
    txn.apply(UpdateBatch{}.delete_edge(e.u, e.v));
    txn.commit();
    expect_exact(dm);
  }
}

TEST(DynamicMatching, RejectsOutOfRangeBatch) {
  DynamicMatching dm(EngineOptions::seeded(
      CsrGraph::from_edges(path_graph(4)), 1));
  EXPECT_THROW(dm.apply_batch(UpdateBatch{}.insert_edge(2, 8)),
               CheckFailure);
}

}  // namespace
}  // namespace pargreedy

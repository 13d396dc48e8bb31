// DynamicMis behavior tests: batch semantics, repropagation cascades,
// activity toggles, compaction, and exact agreement with the sequential
// greedy oracle after every batch.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/mis/mis.hpp"
#include "core/priority/priority_source.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "dynamic/update_batch.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "parallel/arch.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

/// The exact-equivalence invariant from the class header: engine bitmap ==
/// from-scratch sequential greedy on the active-induced subgraph, masked
/// by activity (inactive vertices are isolated in the oracle graph and
/// must report 0 here).
void expect_matches_oracle(const DynamicMis& dm) {
  const CsrGraph h = dm.active_subgraph();
  std::vector<uint8_t> expect = mis_sequential(h, dm.order()).in_set;
  for (VertexId v = 0; v < dm.num_vertices(); ++v)
    if (!dm.active(v)) expect[v] = 0;
  ASSERT_EQ(dm.solution(), expect);
}

/// Options for the identity order pi = (0, 1, ..., n-1): vertex_weight
/// priorities over weights n - v, so vertex 0 is the heaviest.
EngineOptions identity_order_options(CsrGraph g) {
  const uint64_t n = g.num_vertices();
  std::vector<Weight> weights(n);
  for (uint64_t v = 0; v < n; ++v) weights[v] = static_cast<Weight>(n - v);
  g.set_vertex_weights(std::move(weights));
  return EngineOptions::with_source(std::move(g),
                                    PrioritySource::vertex_weight());
}

/// True iff the engine's materialized pi is the identity.
bool order_is_identity(const DynamicMis& dm) {
  const auto ranks = dm.order().ranks();
  for (uint64_t v = 0; v < ranks.size(); ++v)
    if (ranks[v] != v) return false;
  return true;
}

TEST(DynamicMis, InitialSolutionIsTheGreedyMis) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(500, 2'000, 3));
  const DynamicMis dm(EngineOptions::seeded(g, /*seed=*/17));
  EXPECT_EQ(dm.solution(), mis_sequential(g, dm.order()).in_set);
  EXPECT_EQ(dm.num_edges(), g.num_edges());
}

TEST(DynamicMis, EmptyBatchIsANoOp) {
  DynamicMis dm(EngineOptions::seeded(CsrGraph::from_edges(path_graph(10)), 1));
  const std::vector<uint8_t> before = dm.solution();
  const BatchStats stats = dm.apply_batch(UpdateBatch{});
  EXPECT_EQ(stats.seeds, 0u);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(dm.solution(), before);
}

TEST(DynamicMis, NoOpOperationsDoNotSeed) {
  DynamicMis dm(EngineOptions::seeded(CsrGraph::from_edges(path_graph(6)), 2));
  UpdateBatch batch;
  batch.insert_edge(0, 1);   // already present
  batch.delete_edge(0, 5);   // absent
  batch.activate(3);         // already active
  const BatchStats stats = dm.apply_batch(batch);
  EXPECT_EQ(stats.inserted, 0u);
  EXPECT_EQ(stats.deleted, 0u);
  EXPECT_EQ(stats.activated, 0u);
  EXPECT_EQ(stats.seeds, 0u);
}

TEST(DynamicMis, SingleEdgeInsertAndDeleteRoundTrip) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(200, 600, 5));
  DynamicMis dm(EngineOptions::seeded(g, 23));
  const std::vector<uint8_t> before = dm.solution();
  // Find a non-edge between two set members: inserting it must evict one.
  VertexId a = kInvalidVertex, b = kInvalidVertex;
  for (VertexId u = 0; u < 200 && a == kInvalidVertex; ++u)
    for (VertexId v = u + 1; v < 200; ++v)
      if (dm.in_set(u) && dm.in_set(v) && !dm.graph().has_edge(u, v)) {
        a = u;
        b = v;
        break;
      }
  ASSERT_NE(a, kInvalidVertex);
  dm.apply_batch(UpdateBatch{}.insert_edge(a, b));
  EXPECT_FALSE(dm.in_set(a) && dm.in_set(b));
  expect_matches_oracle(dm);
  dm.apply_batch(UpdateBatch{}.delete_edge(a, b));
  EXPECT_EQ(dm.solution(), before);  // exact reversibility
}

TEST(DynamicMis, CascadeAlongAPathReachesEveryVertex) {
  // Path with identity priorities: MIS = {0, 2, 4, ...}. Deactivating 0
  // must flip the entire alternation — the classic Theta(n) dependence
  // chain — and reactivating must restore it.
  const uint64_t n = 101;
  DynamicMis dm(identity_order_options(CsrGraph::from_edges(path_graph(n))));
  ASSERT_TRUE(order_is_identity(dm));
  for (VertexId v = 0; v < n; ++v) EXPECT_EQ(dm.in_set(v), v % 2 == 0);
  BatchStats stats = dm.apply_batch(UpdateBatch{}.deactivate(0));
  for (VertexId v = 1; v < n; ++v) EXPECT_EQ(dm.in_set(v), v % 2 == 1);
  EXPECT_FALSE(dm.in_set(0));
  // The flip walks the whole path: one round per vertex.
  EXPECT_GE(stats.rounds, n - 2);
  EXPECT_GE(stats.changed, n - 1);
  stats = dm.apply_batch(UpdateBatch{}.activate(0));
  for (VertexId v = 0; v < n; ++v) EXPECT_EQ(dm.in_set(v), v % 2 == 0);
  expect_matches_oracle(dm);
}

TEST(DynamicMis, LocalizedUpdateTouchesFewVertices) {
  // On a star, deleting one leaf edge only re-examines that leaf.
  const uint64_t n = 1'000;
  DynamicMis dm(identity_order_options(CsrGraph::from_edges(star_graph(n))));
  ASSERT_TRUE(order_is_identity(dm));
  ASSERT_TRUE(dm.in_set(0));
  const BatchStats stats = dm.apply_batch(UpdateBatch{}.delete_edge(0, 500));
  EXPECT_TRUE(dm.in_set(500));  // freed leaf joins
  EXPECT_LE(stats.recomputed, 2u);
  expect_matches_oracle(dm);
}

TEST(DynamicMis, IntraBatchPrecedenceInsertsWinActivationsWin) {
  DynamicMis dm(EngineOptions::seeded(CsrGraph::from_edges(path_graph(4)), 9));
  UpdateBatch batch;
  batch.delete_edge(1, 2).insert_edge(1, 2);  // delete applied first
  batch.deactivate(3).activate(3);            // activation applied last
  dm.apply_batch(batch);
  EXPECT_TRUE(dm.graph().has_edge(1, 2));
  EXPECT_TRUE(dm.active(3));
  expect_matches_oracle(dm);
}

TEST(DynamicMis, EdgesInsertedAtInactiveVerticesWaitForActivation) {
  DynamicMis dm(identity_order_options(CsrGraph::from_edges(path_graph(3))));
  ASSERT_TRUE(order_is_identity(dm));
  dm.apply_batch(UpdateBatch{}.deactivate(0));
  // Edge stored, but 0 is not in the graph: 1's decision unaffected.
  dm.apply_batch(UpdateBatch{}.insert_edge(0, 2));
  EXPECT_TRUE(dm.graph().has_edge(0, 2));
  EXPECT_FALSE(dm.in_set(0));
  EXPECT_TRUE(dm.in_set(1));
  expect_matches_oracle(dm);
  dm.apply_batch(UpdateBatch{}.activate(0));
  // 0 (earliest) rejoins and now suppresses both 1 and 2.
  EXPECT_TRUE(dm.in_set(0));
  EXPECT_FALSE(dm.in_set(1));
  EXPECT_FALSE(dm.in_set(2));
  expect_matches_oracle(dm);
}

TEST(DynamicMis, AutoCompactionPreservesTheSolution) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(300, 900, 8));
  DynamicMis dm(EngineOptions::seeded(g, 31));
  dm.set_compaction_threshold(0.05);
  bool compacted = false;
  for (uint64_t round = 0; round < 20; ++round) {
    const UpdateBatch batch = UpdateBatch::random(
        300, dm.graph().live_edge_list().edges(), /*inserts=*/12,
        /*deletes=*/8, /*toggles=*/0, /*seed=*/1'000 + round);
    compacted = dm.apply_batch(batch).compacted || compacted;
    expect_matches_oracle(dm);
  }
  EXPECT_TRUE(compacted);
  EXPECT_LT(dm.graph().overlay_fraction(), 0.1);
}

TEST(DynamicMis, ManualCompactionIsTransparent) {
  DynamicMis dm(EngineOptions::seeded(
      CsrGraph::from_edges(random_graph_nm(150, 400, 2)), 5));
  dm.set_compaction_threshold(0.0);  // disable auto
  dm.apply_batch(UpdateBatch::random(
      150, dm.graph().live_edge_list().edges(), 30, 20, 0, 77));
  const std::vector<uint8_t> before = dm.solution();
  dm.compact();
  EXPECT_EQ(dm.solution(), before);
  expect_matches_oracle(dm);
}

TEST(DynamicMis, DeterministicAcrossWorkerCounts) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(800, 3'200, 4));
  std::vector<std::vector<uint8_t>> runs;
  for (int workers : {1, 2, 4}) {
    ScopedNumWorkers guard(workers);
    DynamicMis dm(EngineOptions::seeded(g, 99));
    for (uint64_t round = 0; round < 6; ++round)
      dm.apply_batch(UpdateBatch::random(
          800, dm.graph().live_edge_list().edges(), 40, 30, 6,
          500 + round));
    runs.push_back(dm.solution());
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(DynamicMis, RejectsOutOfRangeBatch) {
  DynamicMis dm(EngineOptions::seeded(CsrGraph::from_edges(path_graph(4)), 1));
  EXPECT_THROW(dm.apply_batch(UpdateBatch{}.insert_edge(0, 4)),
               CheckFailure);
  EXPECT_THROW(dm.apply_batch(UpdateBatch{}.deactivate(9)), CheckFailure);
}

TEST(DynamicMis, StatsAccounting) {
  DynamicMis dm(EngineOptions::seeded(CsrGraph::from_edges(path_graph(8)), 6));
  UpdateBatch batch;
  batch.insert_edge(0, 7).delete_edge(3, 4).deactivate(5);
  const BatchStats stats = dm.apply_batch(batch);
  EXPECT_EQ(stats.inserted, 1u);
  EXPECT_EQ(stats.deleted, 1u);
  EXPECT_EQ(stats.deactivated, 1u);
  EXPECT_EQ(stats.seeds, 3u);
  EXPECT_GE(stats.recomputed, stats.seeds);
  EXPECT_FALSE(stats.summary().empty());
  expect_matches_oracle(dm);
}

}  // namespace
}  // namespace pargreedy

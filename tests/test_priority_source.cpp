// Unit tests for PrioritySource: the key encoding, the four policies, the
// materialized orders, and the weighted sequential oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/matching/matching.hpp"
#include "core/mis/mis.hpp"
#include "core/priority/priority_source.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "parallel/arch.hpp"
#include "random/hash.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

CsrGraph weighted_test_graph(uint64_t n, uint64_t m, uint64_t seed,
                             uint64_t levels) {
  CsrGraph g = CsrGraph::from_edges(random_graph_nm(n, m, seed));
  g.set_vertex_weights(quantized_weights(g.num_vertices(), seed + 1, levels));
  g.set_edge_weights(quantized_weights(g.num_edges(), seed + 2, levels));
  return g;
}

TEST(DescendingWeightBits, ReversesTheWeightOrder) {
  const std::vector<Weight> ascending = {-1e300, -5.0,   -1.5, -0.0, 0.0,
                                         1e-300, 0.5,    1.0,  1.5,  2.0,
                                         1e9,    1e300};
  for (std::size_t i = 0; i < ascending.size(); ++i)
    for (std::size_t j = 0; j < ascending.size(); ++j) {
      if (ascending[i] == ascending[j]) continue;  // -0.0 == 0.0 is a tie
      EXPECT_EQ(ascending[i] < ascending[j],
                descending_weight_bits(ascending[i]) >
                    descending_weight_bits(ascending[j]))
          << "weights " << ascending[i] << " vs " << ascending[j];
    }
  EXPECT_EQ(descending_weight_bits(1.0), descending_weight_bits(1.0));
  // Signed zeros compare equal as weights, so they must share one key.
  EXPECT_EQ(descending_weight_bits(-0.0), descending_weight_bits(0.0));
  EXPECT_THROW(
      descending_weight_bits(std::numeric_limits<Weight>::quiet_NaN()),
      CheckFailure);
}

TEST(PrioritySource, PolicyNamesAndAccessors) {
  EXPECT_STREQ(priority_policy_name(PriorityPolicy::kRandomHash),
               "random_hash");
  EXPECT_STREQ(priority_policy_name(PriorityPolicy::kVertexWeight),
               "vertex_weight");
  EXPECT_STREQ(priority_policy_name(PriorityPolicy::kEdgeWeight),
               "edge_weight");
  EXPECT_STREQ(priority_policy_name(PriorityPolicy::kWeightHashTiebreak),
               "weight_hash_tiebreak");

  EXPECT_EQ(PrioritySource::random_hash(7).seed(), 7u);
  EXPECT_FALSE(PrioritySource::random_hash(7).is_weighted());
  EXPECT_TRUE(PrioritySource::vertex_weight().is_weighted());
  EXPECT_TRUE(PrioritySource::edge_weight().is_weighted());
  EXPECT_TRUE(PrioritySource::weight_hash_tiebreak(3).is_weighted());
  EXPECT_EQ(PrioritySource().policy(), PriorityPolicy::kRandomHash);
}

TEST(PrioritySource, ContextMismatchesAreRejected) {
  EXPECT_THROW(
      static_cast<void>(PrioritySource::edge_weight().vertex_key(0, 1.0)),
      CheckFailure);
  EXPECT_THROW(static_cast<void>(
                   PrioritySource::vertex_weight().edge_key(Edge{0, 1}, 1.0)),
               CheckFailure);
}

TEST(PrioritySource, RandomHashVertexOrderMatchesVertexOrderRandom) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(500, 2'000, 11));
  for (uint64_t seed : {0u, 1u, 42u}) {
    const VertexOrder expect = VertexOrder::random(g.num_vertices(), seed);
    const VertexOrder got =
        PrioritySource::random_hash(seed).vertex_order(g);
    ASSERT_EQ(std::vector<VertexId>(got.order().begin(), got.order().end()),
              std::vector<VertexId>(expect.order().begin(),
                                    expect.order().end()));
  }
}

TEST(PrioritySource, RandomHashEdgeOrderIsTheHistoricalHashSort) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(300, 1'200, 13));
  const uint64_t seed = 5;
  const EdgeOrder got = PrioritySource::random_hash(seed).edge_order(g);
  // Reference: the pre-refactor engine order — edge ids sorted by
  // (hash64(seed, (u << 32) | v), id).
  std::vector<EdgeId> expect(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) expect[e] = e;
  std::sort(expect.begin(), expect.end(), [&](EdgeId a, EdgeId b) {
    const uint64_t ka = hash64(seed, edge_pair_key(g.edge(a)));
    const uint64_t kb = hash64(seed, edge_pair_key(g.edge(b)));
    return ka != kb ? ka < kb : a < b;
  });
  ASSERT_EQ(std::vector<EdgeId>(got.order().begin(), got.order().end()),
            expect);
}

TEST(PrioritySource, VertexWeightOrderIsDecreasingWithIdTies) {
  CsrGraph g = CsrGraph::from_edges(random_graph_nm(400, 1'000, 17));
  g.set_vertex_weights(quantized_weights(g.num_vertices(), 19, 5));
  const VertexOrder order = PrioritySource::vertex_weight().vertex_order(g);
  for (uint64_t i = 1; i < order.size(); ++i) {
    const VertexId prev = order.nth(i - 1);
    const VertexId cur = order.nth(i);
    const Weight wp = g.vertex_weight(prev);
    const Weight wc = g.vertex_weight(cur);
    ASSERT_TRUE(wp > wc || (wp == wc && prev < cur))
        << "position " << i << ": " << prev << " (w=" << wp << ") before "
        << cur << " (w=" << wc << ")";
  }
}

TEST(PrioritySource, EdgeWeightOrderIsDecreasingWithKeyTies) {
  CsrGraph g = CsrGraph::from_edges(random_graph_nm(300, 900, 23));
  g.set_edge_weights(quantized_weights(g.num_edges(), 29, 5));
  const EdgeOrder order = PrioritySource::edge_weight().edge_order(g);
  for (uint64_t i = 1; i < order.size(); ++i) {
    const EdgeId prev = order.nth(i - 1);
    const EdgeId cur = order.nth(i);
    const Weight wp = g.edge_weight(prev);
    const Weight wc = g.edge_weight(cur);
    ASSERT_TRUE(wp > wc || (wp == wc && prev < cur));
  }
}

TEST(PrioritySource, WeightHashTiebreakRespectsWeightClasses) {
  CsrGraph g = CsrGraph::from_edges(random_graph_nm(400, 1'200, 31));
  g.set_vertex_weights(quantized_weights(g.num_vertices(), 37, 3));
  const PrioritySource src = PrioritySource::weight_hash_tiebreak(41);
  const VertexOrder order = src.vertex_order(g);
  // Weights never increase along the order; equal weights are hash-ordered.
  for (uint64_t i = 1; i < order.size(); ++i) {
    const VertexId prev = order.nth(i - 1);
    const VertexId cur = order.nth(i);
    ASSERT_GE(g.vertex_weight(prev), g.vertex_weight(cur));
    if (g.vertex_weight(prev) == g.vertex_weight(cur)) {
      const uint64_t hp = hash64(src.seed(), prev);
      const uint64_t hc = hash64(src.seed(), cur);
      ASSERT_TRUE(hp < hc || (hp == hc && prev < cur));
    }
  }
}

TEST(PrioritySource, OrdersAreWorkerCountIndependent) {
  const CsrGraph g = weighted_test_graph(600, 2'400, 43, 4);
  for (const PrioritySource& src :
       {PrioritySource::random_hash(1), PrioritySource::vertex_weight(),
        PrioritySource::weight_hash_tiebreak(2)}) {
    std::vector<std::vector<VertexId>> orders;
    for (int workers : {1, 2, 4}) {
      ScopedNumWorkers guard(workers);
      const VertexOrder o = src.vertex_order(g);
      orders.emplace_back(o.order().begin(), o.order().end());
    }
    ASSERT_EQ(orders[0], orders[1]);
    ASSERT_EQ(orders[0], orders[2]);
  }
}

TEST(WeightedOracles, MisAgreesWithSequentialOnMaterializedOrder) {
  const CsrGraph g = weighted_test_graph(500, 2'000, 47, 4);
  for (const PrioritySource& src :
       {PrioritySource::random_hash(3), PrioritySource::vertex_weight(),
        PrioritySource::weight_hash_tiebreak(5)}) {
    ASSERT_EQ(mis_weighted_sequential(g, src).in_set,
              mis_sequential(g, src.vertex_order(g)).in_set)
        << priority_policy_name(src.policy());
  }
}

TEST(WeightedOracles, MatchingAgreesWithSequentialOnMaterializedOrder) {
  const CsrGraph g = weighted_test_graph(500, 2'000, 53, 4);
  for (const PrioritySource& src :
       {PrioritySource::random_hash(3), PrioritySource::edge_weight(),
        PrioritySource::weight_hash_tiebreak(5)}) {
    ASSERT_EQ(mm_weighted_sequential(g, src).matched_with,
              mm_sequential(g, src.edge_order(g)).matched_with)
        << priority_policy_name(src.policy());
  }
}

TEST(PrioritySource, RankDerivedVertexWeightsReproduceAnyFixedOrder) {
  // Any fixed pi is the vertex_weight policy over weights n - rank(v):
  // the engine's solution equals the sequential greedy MIS under pi, and
  // its materialized order is pi itself.
  CsrGraph g = CsrGraph::from_edges(random_graph_nm(60, 150, 3));
  const uint64_t n = g.num_vertices();
  const VertexOrder pi = VertexOrder::random(n, 5);
  std::vector<Weight> weights(n);
  for (VertexId v = 0; v < n; ++v)
    weights[v] = static_cast<Weight>(n - pi.rank(v));
  g.set_vertex_weights(std::move(weights));
  const DynamicMis dm(
      EngineOptions::with_source(g, PrioritySource::vertex_weight()));
  EXPECT_EQ(dm.priority_source().policy(), PriorityPolicy::kVertexWeight);
  const DynamicMis from_seed(EngineOptions::seeded(g, 5));
  EXPECT_EQ(from_seed.priority_source().policy(),
            PriorityPolicy::kRandomHash);
  EXPECT_EQ(dm.solution(), mis_sequential(g, pi).in_set);
  EXPECT_TRUE(std::equal(dm.order().ranks().begin(), dm.order().ranks().end(),
                         pi.ranks().begin(), pi.ranks().end()));
}

TEST(WeightHelpers, RandomWeightsAreDeterministicAndInRange) {
  const std::vector<Weight> a = random_weights(1'000, 7, 2.0, 5.0);
  const std::vector<Weight> b = random_weights(1'000, 7, 2.0, 5.0);
  ASSERT_EQ(a, b);
  for (const Weight w : a) {
    ASSERT_GE(w, 2.0);
    ASSERT_LT(w, 5.0);
  }
  EXPECT_NE(a, random_weights(1'000, 8, 2.0, 5.0));
  EXPECT_THROW(random_weights(10, 1, 3.0, 3.0), CheckFailure);
}

TEST(WeightHelpers, QuantizedWeightsHitEveryLevel) {
  const std::vector<Weight> w = quantized_weights(2'000, 9, 4);
  ASSERT_EQ(w, quantized_weights(2'000, 9, 4));
  std::vector<uint64_t> counts(4, 0);
  for (const Weight x : w) {
    ASSERT_GE(x, 1.0);
    ASSERT_LE(x, 4.0);
    ASSERT_EQ(x, static_cast<Weight>(static_cast<uint64_t>(x)));
    ++counts[static_cast<std::size_t>(x) - 1];
  }
  for (const uint64_t c : counts) EXPECT_GT(c, 0u);
  EXPECT_THROW(quantized_weights(10, 1, 0), CheckFailure);
}

}  // namespace
}  // namespace pargreedy

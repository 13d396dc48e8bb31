// Integration tests for the parallel maximal-matching implementations
// (Algorithm 4 naive, linear-work rootset, prefix-based): exact equality
// with the sequential greedy matching at every worker count, window size,
// and ordering.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/matching/matching.hpp"
#include "core/matching/verify.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "parallel/arch.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

EdgeList family(const std::string& name, uint64_t seed) {
  if (name == "random") return random_graph_nm(600, 2'400, seed);
  if (name == "rmat") return rmat_graph(10, 2'000, seed);
  if (name == "path") return path_graph(500);
  if (name == "cycle") return cycle_graph(501);
  if (name == "grid") return grid_graph(22, 23);
  if (name == "star") return star_graph(400);
  if (name == "complete") return complete_graph(40);
  if (name == "tree") return binary_tree(511);
  if (name == "ba") return barabasi_albert(400, 3, seed);
  if (name == "bipartite") return complete_bipartite(30, 40);
  throw std::runtime_error("unknown family " + name);
}

using Params = std::tuple<std::string, uint64_t>;

class MmVariants : public ::testing::TestWithParam<Params> {};

TEST_P(MmVariants, NaiveEqualsSequential) {
  const auto& [fam, seed] = GetParam();
  const CsrGraph g = CsrGraph::from_edges(family(fam, seed));
  const EdgeOrder order = EdgeOrder::random(g.num_edges(), seed + 31);
  const MatchResult expect = mm_sequential(g, order);
  const MatchResult got = mm_parallel_naive(g, order);
  EXPECT_EQ(got.in_matching, expect.in_matching);
  EXPECT_EQ(got.matched_with, expect.matched_with);
}

TEST_P(MmVariants, RootsetEqualsSequential) {
  const auto& [fam, seed] = GetParam();
  const CsrGraph g = CsrGraph::from_edges(family(fam, seed));
  const EdgeOrder order = EdgeOrder::random(g.num_edges(), seed + 31);
  const MatchResult expect = mm_sequential(g, order);
  const MatchResult got = mm_rootset(g, order);
  EXPECT_EQ(got.in_matching, expect.in_matching);
  EXPECT_EQ(got.matched_with, expect.matched_with);
}

TEST_P(MmVariants, PrefixEqualsSequentialAcrossWindowSizes) {
  const auto& [fam, seed] = GetParam();
  const CsrGraph g = CsrGraph::from_edges(family(fam, seed));
  const uint64_t m = g.num_edges();
  const EdgeOrder order = EdgeOrder::random(m, seed + 31);
  const MatchResult expect = mm_sequential(g, order);
  for (uint64_t window :
       {uint64_t{1}, uint64_t{2}, uint64_t{13}, m / 10 + 1, m / 2 + 1, m,
        2 * m}) {
    const MatchResult got = mm_prefix(g, order, window);
    EXPECT_EQ(got.in_matching, expect.in_matching) << "window=" << window;
    EXPECT_EQ(got.matched_with, expect.matched_with) << "window=" << window;
  }
}

TEST_P(MmVariants, AdversarialIdentityOrderStillExact) {
  const auto& [fam, seed] = GetParam();
  const CsrGraph g = CsrGraph::from_edges(family(fam, seed));
  const EdgeOrder order = EdgeOrder::identity(g.num_edges());
  const MatchResult expect = mm_sequential(g, order);
  EXPECT_EQ(mm_parallel_naive(g, order).in_matching, expect.in_matching);
  EXPECT_EQ(mm_rootset(g, order).in_matching, expect.in_matching);
  EXPECT_EQ(mm_prefix(g, order, g.num_edges() / 5 + 1).in_matching,
            expect.in_matching);
}

INSTANTIATE_TEST_SUITE_P(
    Families, MmVariants,
    ::testing::Combine(::testing::Values("random", "rmat", "path", "cycle",
                                         "grid", "star", "complete", "tree",
                                         "ba", "bipartite"),
                       ::testing::Values(0, 1, 2)),
    [](const ::testing::TestParamInfo<Params>& info) {
      return std::get<0>(info.param) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// ----------------------------------------------------------- worker sweep ---

class MmWorkers : public ::testing::TestWithParam<int> {};

TEST_P(MmWorkers, AllVariantsExactAtEveryWidth) {
  const int workers = GetParam();
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(2'000, 10'000, 3));
  const EdgeOrder order = EdgeOrder::random(g.num_edges(), 23);
  MatchResult expect;
  {
    ScopedNumWorkers guard(1);
    expect = mm_sequential(g, order);
  }
  ScopedNumWorkers guard(workers);
  EXPECT_EQ(mm_parallel_naive(g, order).in_matching, expect.in_matching);
  EXPECT_EQ(mm_rootset(g, order).in_matching, expect.in_matching);
  EXPECT_EQ(mm_prefix(g, order, 256).in_matching, expect.in_matching);
  EXPECT_EQ(mm_prefix(g, order, g.num_edges()).in_matching,
            expect.in_matching);
}

INSTANTIATE_TEST_SUITE_P(WidthSweep, MmWorkers,
                         ::testing::Values(1, 2, 3, 4, 8));

// --------------------------------------------------------------- profiles ---

TEST(MmProfiles, PrefixWindowOneIsSequential) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(500, 2'000, 4));
  const EdgeOrder order = EdgeOrder::random(g.num_edges(), 5);
  const MatchResult r = mm_prefix(g, order, 1, ProfileLevel::kCounters);
  EXPECT_EQ(r.profile.rounds, g.num_edges());
  EXPECT_EQ(r.profile.work_items, g.num_edges());
}

TEST(MmProfiles, WorkGrowsWithWindow) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(1'000, 5'000, 6));
  const EdgeOrder order = EdgeOrder::random(g.num_edges(), 7);
  uint64_t last_work = 0;
  for (uint64_t window : {uint64_t{1}, uint64_t{32}, uint64_t{1'024},
                          g.num_edges()}) {
    const MatchResult r =
        mm_prefix(g, order, window, ProfileLevel::kCounters);
    EXPECT_GE(r.profile.total_work(), last_work) << "window=" << window;
    last_work = r.profile.total_work();
  }
}

TEST(MmProfiles, RoundsShrinkWithWindow) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(1'000, 5'000, 8));
  const EdgeOrder order = EdgeOrder::random(g.num_edges(), 9);
  uint64_t last_rounds = UINT64_MAX;
  for (uint64_t window : {uint64_t{1}, uint64_t{32}, uint64_t{1'024},
                          g.num_edges()}) {
    const MatchResult r =
        mm_prefix(g, order, window, ProfileLevel::kCounters);
    EXPECT_LE(r.profile.rounds, last_rounds) << "window=" << window;
    last_rounds = r.profile.rounds;
  }
}

TEST(MmProfiles, RootsetWorkIsLinear) {
  // Lemma 5.3: O(n + m) work regardless of the dependence length.
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const CsrGraph g =
        CsrGraph::from_edges(random_graph_nm(3'000, 15'000, seed));
    const EdgeOrder order = EdgeOrder::random(g.num_edges(), seed + 13);
    const MatchResult r = mm_rootset(g, order, ProfileLevel::kCounters);
    EXPECT_LE(r.profile.work_edges,
              4 * (2 * g.num_edges()) + g.num_vertices());
  }
}

TEST(MmProfiles, DetailedRowsSumToCounters) {
  const CsrGraph g = CsrGraph::from_edges(rmat_graph(10, 3'000, 10));
  const EdgeOrder order = EdgeOrder::random(g.num_edges(), 11);
  const MatchResult r = mm_prefix(g, order, 128, ProfileLevel::kDetailed);
  ASSERT_EQ(r.profile.per_round.size(), r.profile.rounds);
  uint64_t items = 0;
  uint64_t decided = 0;
  for (const RoundProfile& round : r.profile.per_round) {
    items += round.active_items;
    decided += round.decided;
  }
  EXPECT_EQ(items, r.profile.work_items);
  EXPECT_EQ(decided, g.num_edges());
}

// ------------------------------------------------------------ edge cases ---

TEST(MmParallelEdgeCases, EmptyAndEdgeless) {
  const CsrGraph empty = CsrGraph::from_edges(EdgeList(0));
  EXPECT_EQ(mm_parallel_naive(empty, EdgeOrder::identity(0)).size(), 0u);
  EXPECT_EQ(mm_rootset(empty, EdgeOrder::identity(0)).size(), 0u);
  EXPECT_EQ(mm_prefix(empty, EdgeOrder::identity(0), 4).size(), 0u);

  const CsrGraph edgeless = CsrGraph::from_edges(EdgeList(9));
  EXPECT_EQ(mm_rootset(edgeless, EdgeOrder::identity(0)).size(), 0u);
}

TEST(MmParallelEdgeCases, HugeWindowOnEmptyAndEdgelessIsClamped) {
  // The window clamps to [1, max(m, 1)], so an unbounded request never
  // sizes anything by the request itself.
  const CsrGraph empty = CsrGraph::from_edges(EdgeList(0));
  const MatchResult none = mm_prefix(empty, EdgeOrder::identity(0),
                                     UINT64_MAX, ProfileLevel::kCounters);
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.profile.rounds, 0u);

  const CsrGraph edgeless = CsrGraph::from_edges(EdgeList(9));
  const MatchResult unmatched = mm_prefix(edgeless, EdgeOrder::identity(0),
                                          UINT64_MAX, ProfileLevel::kCounters);
  EXPECT_EQ(unmatched.size(), 0u);
  EXPECT_EQ(unmatched.matched_with, std::vector<VertexId>(9, kInvalidVertex));
  EXPECT_EQ(unmatched.profile.rounds, 0u);
}

TEST(MmParallelEdgeCases, TriangleOnlyOneEdgeMatches) {
  EdgeList el(3);
  el.add(0, 1);
  el.add(1, 2);
  el.add(0, 2);
  const CsrGraph g = CsrGraph::from_edges(el);
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const EdgeOrder order = EdgeOrder::random(3, seed);
    const MatchResult r = mm_rootset(g, order);
    EXPECT_EQ(r.size(), 1u);
    EXPECT_TRUE(r.in_matching[order.nth(0)]);  // first edge always wins
  }
}

TEST(MmParallelEdgeCases, MismatchedOrderSizeThrows) {
  const CsrGraph g = CsrGraph::from_edges(path_graph(5));
  const EdgeOrder bad = EdgeOrder::identity(3);
  EXPECT_THROW(mm_parallel_naive(g, bad), CheckFailure);
  EXPECT_THROW(mm_rootset(g, bad), CheckFailure);
  EXPECT_THROW(mm_prefix(g, bad, 2), CheckFailure);
}

TEST(MmParallelEdgeCases, ParallelEdgesCollapseBeforeMatching) {
  // Multigraph input: from_edges dedupes, so the matching never sees
  // parallel edges. Both "copies" map to the same edge id.
  EdgeList el(4);
  el.add(0, 1);
  el.add(1, 0);
  el.add(2, 3);
  const CsrGraph g = CsrGraph::from_edges(el);
  ASSERT_EQ(g.num_edges(), 2u);
  const MatchResult r = mm_rootset(g, EdgeOrder::identity(2));
  EXPECT_EQ(r.size(), 2u);
}

}  // namespace
}  // namespace pargreedy

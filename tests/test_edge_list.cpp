// Unit tests for the EdgeList representation and edge normalization
// (src/graph/edge_list.*): the path every generator output takes before it
// becomes a CsrGraph.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "graph/edge_list.hpp"
#include "parallel/arch.hpp"
#include "random/hash.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

TEST(Edge, CanonicalOrdersEndpoints) {
  EXPECT_EQ((Edge{3, 1}.canonical()), (Edge{1, 3}));
  EXPECT_EQ((Edge{1, 3}.canonical()), (Edge{1, 3}));
  EXPECT_EQ((Edge{2, 2}.canonical()), (Edge{2, 2}));
}

TEST(Edge, LoopDetection) {
  EXPECT_TRUE((Edge{4, 4}.is_loop()));
  EXPECT_FALSE((Edge{4, 5}.is_loop()));
}

TEST(Edge, OtherEndpoint) {
  const Edge e{2, 9};
  EXPECT_EQ(e.other(2), 9u);
  EXPECT_EQ(e.other(9), 2u);
}

TEST(Edge, LexicographicOrdering) {
  EXPECT_LT((Edge{0, 5}), (Edge{1, 2}));
  EXPECT_LT((Edge{1, 2}), (Edge{1, 3}));
  EXPECT_FALSE((Edge{1, 3}) < (Edge{1, 3}));
}

TEST(EdgeList, AddAndQuery) {
  EdgeList el(10);
  EXPECT_EQ(el.num_vertices(), 10u);
  EXPECT_EQ(el.num_edges(), 0u);
  el.add(0, 1);
  el.add(5, 3);
  EXPECT_EQ(el.num_edges(), 2u);
  EXPECT_EQ(el.edges()[0], (Edge{0, 1}));
  EXPECT_EQ(el.edges()[1], (Edge{5, 3}));  // add() does not canonicalize
}

TEST(EdgeList, EndpointsInRange) {
  EdgeList good(4);
  good.add(0, 3);
  EXPECT_TRUE(good.endpoints_in_range());
  EdgeList bad(4);
  bad.mutable_edges().push_back(Edge{0, 4});
  EXPECT_FALSE(bad.endpoints_in_range());
}

TEST(Normalize, DropsSelfLoops) {
  EdgeList el(5);
  el.add(1, 1);
  el.add(0, 2);
  el.add(3, 3);
  const EdgeList out = normalize_edges(el);
  ASSERT_EQ(out.num_edges(), 1u);
  EXPECT_EQ(out.edges()[0], (Edge{0, 2}));
}

TEST(Normalize, DeduplicatesBothOrientations) {
  EdgeList el(5);
  el.add(1, 2);
  el.add(2, 1);  // same undirected edge, flipped
  el.add(1, 2);  // exact duplicate
  const EdgeList out = normalize_edges(el);
  ASSERT_EQ(out.num_edges(), 1u);
  EXPECT_EQ(out.edges()[0], (Edge{1, 2}));
}

TEST(Normalize, CanonicalAndSortedOutput) {
  EdgeList el(6);
  el.add(5, 0);
  el.add(3, 1);
  el.add(2, 4);
  el.add(1, 0);
  const EdgeList out = normalize_edges(el);
  ASSERT_EQ(out.num_edges(), 4u);
  for (const Edge& e : out.edges()) EXPECT_LT(e.u, e.v);
  EXPECT_TRUE(std::is_sorted(out.edges().begin(), out.edges().end()));
}

TEST(Normalize, PreservesVertexCount) {
  EdgeList el(100);
  el.add(0, 1);
  EXPECT_EQ(normalize_edges(el).num_vertices(), 100u);
}

TEST(Normalize, EmptyInput) {
  const EdgeList out = normalize_edges(EdgeList(7));
  EXPECT_EQ(out.num_vertices(), 7u);
  EXPECT_EQ(out.num_edges(), 0u);
}

TEST(Normalize, IsIdempotent) {
  EdgeList el(50);
  for (uint32_t i = 0; i < 200; ++i) {
    el.add(static_cast<VertexId>(hash64(1, 2 * i) % 50),
           static_cast<VertexId>(hash64(1, 2 * i + 1) % 50));
  }
  const EdgeList once = normalize_edges(el);
  const EdgeList twice = normalize_edges(once);
  ASSERT_EQ(once.num_edges(), twice.num_edges());
  for (std::size_t i = 0; i < once.num_edges(); ++i)
    EXPECT_EQ(once.edges()[i], twice.edges()[i]);
}

TEST(Normalize, MatchesSetSemantics) {
  // Reference semantics: the set of canonical non-loop edges.
  ScopedNumWorkers guard(4);
  EdgeList el(1'000);
  for (uint32_t i = 0; i < 50'000; ++i) {
    el.add(static_cast<VertexId>(hash64(5, 2 * i) % 1'000),
           static_cast<VertexId>(hash64(5, 2 * i + 1) % 1'000));
  }
  std::set<std::pair<VertexId, VertexId>> expect;
  for (const Edge& e : el.edges()) {
    if (e.is_loop()) continue;
    const Edge c = e.canonical();
    expect.insert({c.u, c.v});
  }
  const EdgeList out = normalize_edges(el);
  ASSERT_EQ(out.num_edges(), expect.size());
  std::size_t i = 0;
  for (const auto& [u, v] : expect) {
    EXPECT_EQ(out.edges()[i], (Edge{u, v}));
    ++i;
  }
}

TEST(Normalize, SerialAndParallelAgree) {
  EdgeList el(500);
  for (uint32_t i = 0; i < 20'000; ++i) {
    el.add(static_cast<VertexId>(hash64(9, 2 * i) % 500),
           static_cast<VertexId>(hash64(9, 2 * i + 1) % 500));
  }
  EdgeList serial;
  {
    ScopedNumWorkers guard(1);
    serial = normalize_edges(el);
  }
  EdgeList parallel;
  {
    ScopedNumWorkers guard(4);
    parallel = normalize_edges(el);
  }
  ASSERT_EQ(serial.num_edges(), parallel.num_edges());
  for (std::size_t i = 0; i < serial.num_edges(); ++i)
    EXPECT_EQ(serial.edges()[i], parallel.edges()[i]);
}

TEST(FirstNoncanonicalEdge, NamesTheFirstDefect) {
  const std::vector<Edge> good{{0, 1}, {0, 3}, {1, 2}, {2, 3}};
  EXPECT_EQ(first_noncanonical_edge(good, 4), good.size());
  EXPECT_EQ(first_noncanonical_edge({}, 0), 0u);
  const auto with = [&](std::size_t i, Edge e) {
    std::vector<Edge> edges = good;
    edges[i] = e;
    return first_noncanonical_edge(edges, 4);
  };
  EXPECT_EQ(with(0, Edge{1, 0}), 0u);  // reversed
  EXPECT_EQ(with(2, Edge{2, 2}), 2u);  // self-loop
  EXPECT_EQ(with(3, Edge{2, 4}), 3u);  // endpoint == n
  EXPECT_EQ(with(1, Edge{0, 1}), 1u);  // duplicate of its predecessor
  EXPECT_EQ(with(2, Edge{0, 2}), 2u);  // below its predecessor
  // Two defects: the first one is named, at every worker count.
  std::vector<Edge> big;
  for (VertexId u = 0; u < 400; ++u)
    for (VertexId v = u + 1; v < u + 300; ++v) big.push_back(Edge{u, v});
  ASSERT_GT(big.size(), std::size_t{1} << 16);
  big[70'000] = Edge{5, 5};
  big[90'000] = big[89'999];
  for (const int workers : {1, 4}) {
    ScopedNumWorkers guard(workers);
    EXPECT_EQ(first_noncanonical_edge(big, 1'000), 70'000u);
  }
}

TEST(SortEdges, SortsLexicographically) {
  ScopedNumWorkers guard(4);
  UninitVector<Edge> edges;
  for (uint32_t i = 0; i < 10'000; ++i) {
    edges.push_back(Edge{static_cast<VertexId>(hash64(2, 2 * i) % 300),
                         static_cast<VertexId>(hash64(2, 2 * i + 1) % 300)});
  }
  UninitVector<Edge> expect = edges;
  std::sort(expect.begin(), expect.end());
  sort_edges(edges, 300);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
  EXPECT_EQ(edges, expect);
}

TEST(SortEdges, LargeInputsMatchStdSort) {
  // Above the 2^16 threshold of the bucketed path: a dense list (long runs
  // of one u, duplicates) and one whose ids are far sparser than its edges.
  for (const uint64_t n : {uint64_t{1'000}, uint64_t{1} << 31}) {
    UninitVector<Edge> edges;
    for (uint32_t i = 0; i < 100'000; ++i)
      edges.push_back(Edge{static_cast<VertexId>(hash64(4, 2 * i) % n),
                           static_cast<VertexId>(hash64(4, 2 * i + 1) % n)});
    UninitVector<Edge> expect = edges;
    std::sort(expect.begin(), expect.end());
    for (const int workers : {1, 4}) {
      ScopedNumWorkers guard(workers);
      UninitVector<Edge> got = edges;
      sort_edges(got, n);
      EXPECT_EQ(got, expect) << "n " << n << " workers " << workers;
    }
  }
}

TEST(SortEdges, EmptyAndSingle) {
  UninitVector<Edge> empty;
  sort_edges(empty, 10);
  EXPECT_TRUE(empty.empty());
  UninitVector<Edge> one{Edge{1, 2}};
  sort_edges(one, 10);
  EXPECT_EQ(one[0], (Edge{1, 2}));
}

}  // namespace
}  // namespace pargreedy

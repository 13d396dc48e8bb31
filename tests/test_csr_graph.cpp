// Unit tests for CsrGraph construction and accessors, and for the structural
// validator. The CSR invariants checked here (canonical sorted edge table,
// symmetric adjacency, consistent incident-edge ids) are exactly what the
// MIS/MM algorithms assume.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "graph/validate.hpp"
#include "parallel/arch.hpp"
#include "random/hash.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

CsrGraph triangle_plus_pendant() {
  // 0-1, 1-2, 0-2 (triangle) and 2-3 (pendant).
  EdgeList el(4);
  el.add(0, 1);
  el.add(1, 2);
  el.add(0, 2);
  el.add(2, 3);
  return CsrGraph::from_edges(el);
}

TEST(CsrGraph, BasicCounts) {
  const CsrGraph g = triangle_plus_pendant();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.offsets().size(), 5u);
  EXPECT_EQ(g.offsets()[4], 8u);  // 2m arcs
  EXPECT_EQ(g.adjacency().size(), 8u);
}

TEST(CsrGraph, DegreesAndNeighbors) {
  const CsrGraph g = triangle_plus_pendant();
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(3), 1u);

  auto neighbor_set = [&](VertexId v) {
    const auto nbrs = g.neighbors(v);
    return std::set<VertexId>(nbrs.begin(), nbrs.end());
  };
  EXPECT_EQ(neighbor_set(0), (std::set<VertexId>{1, 2}));
  EXPECT_EQ(neighbor_set(1), (std::set<VertexId>{0, 2}));
  EXPECT_EQ(neighbor_set(2), (std::set<VertexId>{0, 1, 3}));
  EXPECT_EQ(neighbor_set(3), (std::set<VertexId>{2}));
}

TEST(CsrGraph, EdgeTableIsCanonicalAndSorted) {
  const CsrGraph g = triangle_plus_pendant();
  ASSERT_EQ(g.edges().size(), 4u);
  for (const Edge& e : g.edges()) EXPECT_LT(e.u, e.v);
  EXPECT_TRUE(std::is_sorted(g.edges().begin(), g.edges().end()));
  EXPECT_EQ(g.edge(0), (Edge{0, 1}));
  EXPECT_EQ(g.edge(1), (Edge{0, 2}));
  EXPECT_EQ(g.edge(2), (Edge{1, 2}));
  EXPECT_EQ(g.edge(3), (Edge{2, 3}));
}

TEST(CsrGraph, IncidentEdgeIdsMatchEdgeTable) {
  const CsrGraph g = triangle_plus_pendant();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto inc = g.incident_edges(v);
    ASSERT_EQ(nbrs.size(), inc.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Edge e = g.edge(inc[i]);
      // The incident edge must connect v and the parallel neighbor slot.
      EXPECT_EQ(e.canonical(), (Edge{v, nbrs[i]}.canonical()));
    }
  }
}

TEST(CsrGraph, AdjacencyIsSymmetric) {
  const EdgeList el = random_graph_nm(500, 2'000, 17);
  const CsrGraph g = CsrGraph::from_edges(el);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId w : g.neighbors(v)) {
      const auto back = g.neighbors(w);
      EXPECT_NE(std::find(back.begin(), back.end(), v), back.end())
          << "missing reverse arc " << w << "->" << v;
    }
  }
}

TEST(CsrGraph, FromEdgesNormalizes) {
  EdgeList el(4);
  el.add(1, 0);  // flipped
  el.add(0, 1);  // duplicate of the above
  el.add(2, 2);  // loop
  el.add(3, 2);
  const CsrGraph g = CsrGraph::from_edges(el);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.edge(0), (Edge{0, 1}));
  EXPECT_EQ(g.edge(1), (Edge{2, 3}));
  EXPECT_TRUE(validate_csr(g).empty());
}

TEST(CsrGraph, CanonicalInputSkipsCleanupSafely) {
  // Canonical input is built as is, and gives the graph that normalizing
  // it first gives.
  EdgeList el(4);
  el.add(0, 1);
  el.add(0, 2);
  el.add(1, 3);
  ASSERT_EQ(first_noncanonical_edge(el.edges(), el.num_vertices()),
            el.num_edges());
  const CsrGraph fast = CsrGraph::from_edges(el);
  const CsrGraph slow = CsrGraph::from_edges(normalize_edges(el));
  EXPECT_EQ(fast.num_edges(), slow.num_edges());
  EXPECT_TRUE(validate_csr(fast).empty());
}

TEST(CsrGraph, EmptyGraph) {
  const CsrGraph g = CsrGraph::from_edges(EdgeList(0));
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
  EXPECT_TRUE(validate_csr(g).empty());
}

TEST(CsrGraph, EdgelessGraphKeepsIsolatedVertices) {
  const CsrGraph g = CsrGraph::from_edges(EdgeList(42));
  EXPECT_EQ(g.num_vertices(), 42u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (VertexId v = 0; v < 42; ++v) EXPECT_EQ(g.degree(v), 0u);
  EXPECT_TRUE(validate_csr(g).empty());
}

TEST(CsrGraph, SingleEdge) {
  EdgeList el(2);
  el.add(0, 1);
  const CsrGraph g = CsrGraph::from_edges(el);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.max_degree(), 1u);
  EXPECT_EQ(g.neighbors(0)[0], 1u);
  EXPECT_EQ(g.neighbors(1)[0], 0u);
  EXPECT_EQ(g.incident_edges(0)[0], g.incident_edges(1)[0]);
}

TEST(CsrGraph, MaxDegree) {
  EXPECT_EQ(CsrGraph::from_edges(star_graph(10)).max_degree(), 9u);
  EXPECT_EQ(CsrGraph::from_edges(path_graph(10)).max_degree(), 2u);
  EXPECT_EQ(CsrGraph::from_edges(complete_graph(7)).max_degree(), 6u);
}

TEST(CsrGraph, MemoryBytesScalesWithSize) {
  const CsrGraph small = CsrGraph::from_edges(path_graph(10));
  const CsrGraph big = CsrGraph::from_edges(path_graph(10'000));
  EXPECT_GT(small.memory_bytes(), 0u);
  EXPECT_GT(big.memory_bytes(), small.memory_bytes());
}

TEST(CsrGraph, RoundTripThroughEdgeSpan) {
  // Rebuilding from the canonical edge table reproduces the same graph.
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(300, 1'000, 5));
  EdgeList copy(g.num_vertices());
  for (const Edge& e : g.edges()) copy.add(e.u, e.v);
  ASSERT_EQ(first_noncanonical_edge(copy.edges(), copy.num_vertices()),
            copy.num_edges());
  const CsrGraph h = CsrGraph::from_edges(copy);
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) EXPECT_EQ(h.edge(e), g.edge(e));
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(h.degree(v), g.degree(v));
}

TEST(CsrGraph, BuilderSerialAndParallelAgree) {
  const EdgeList el = random_graph_nm(2'000, 20'000, 23);
  CsrGraph serial;
  {
    ScopedNumWorkers guard(1);
    serial = CsrGraph::from_edges(el);
  }
  CsrGraph parallel;
  {
    ScopedNumWorkers guard(4);
    parallel = CsrGraph::from_edges(el);
  }
  ASSERT_EQ(serial.num_edges(), parallel.num_edges());
  for (EdgeId e = 0; e < serial.num_edges(); ++e)
    EXPECT_EQ(serial.edge(e), parallel.edge(e));
  EXPECT_TRUE(std::equal(serial.adjacency().begin(), serial.adjacency().end(),
                         parallel.adjacency().begin()));
}

// A canonical edge list (u < v < n, strictly increasing) goes straight to
// the CSR build; anything else is normalized first. Each variant below
// plants exactly one defect in a canonical list longer than 2^16 edges,
// where the canonical check runs in parallel blocks, and must build the
// same graph as normalizing it first.
void expect_same_csr(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::equal(a.edges().begin(), a.edges().end(),
                         b.edges().begin()));
  EXPECT_TRUE(std::equal(a.offsets().begin(), a.offsets().end(),
                         b.offsets().begin()));
  EXPECT_TRUE(std::equal(a.adjacency().begin(), a.adjacency().end(),
                         b.adjacency().begin()));
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto ia = a.incident_edges(v);
    const auto ib = b.incident_edges(v);
    ASSERT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin())) << "vertex " << v;
  }
}

TEST(CsrGraph, FromEdgesDetectsOneDefectInLargeCanonicalInput) {
  const EdgeList canonical = random_graph_nm(20'000, 100'000, 11);
  const UninitVector<Edge> base(canonical.edges().begin(),
                                canonical.edges().end());
  ASSERT_GT(base.size(), std::size_t{1} << 16);
  constexpr std::size_t kStraddle = std::size_t{1} << 16;

  std::vector<std::pair<const char*, UninitVector<Edge>>> variants;
  {
    UninitVector<Edge> dup = base;
    dup.insert(dup.begin() + 70'000, dup[70'000]);
    variants.emplace_back("duplicate", std::move(dup));
  }
  {
    UninitVector<Edge> reversed = base;
    std::swap(reversed[40'000].u, reversed[40'000].v);
    variants.emplace_back("reversed pair", std::move(reversed));
  }
  {
    UninitVector<Edge> loop = base;
    const VertexId u = loop[90'000].u;
    loop.insert(loop.begin() + 90'000, Edge{u, u});
    variants.emplace_back("self-loop", std::move(loop));
  }
  {
    UninitVector<Edge> swapped = base;
    std::swap(swapped[kStraddle - 1], swapped[kStraddle]);
    variants.emplace_back("out-of-order pair", std::move(swapped));
  }

  for (const int workers : {1, 4}) {
    ScopedNumWorkers guard(workers);
    const CsrGraph reference = CsrGraph::from_edges(canonical);
    EXPECT_TRUE(validate_csr(reference).empty());
    for (const auto& [name, edges] : variants) {
      SCOPED_TRACE(std::string(name) + " at workers " +
                   std::to_string(workers));
      const EdgeList el(canonical.num_vertices(), edges);
      const CsrGraph built = CsrGraph::from_edges(el);
      EXPECT_TRUE(validate_csr(built).empty());
      expect_same_csr(built, CsrGraph::from_edges(normalize_edges(el)));
      // Every planted defect normalizes away: the original graph again.
      expect_same_csr(built, reference);
    }
    // Still in canonical order, but v == n: must fail, not build.
    UninitVector<Edge> out_of_range = base;
    out_of_range.push_back(Edge{
        base.back().u, static_cast<VertexId>(canonical.num_vertices())});
    EXPECT_THROW(CsrGraph::from_edges(EdgeList(canonical.num_vertices(),
                                               std::move(out_of_range))),
                 CheckFailure)
        << "workers " << workers;
  }
}

// The builder against a reference: both arcs of every edge, in edge-id
// order, stable-sorted by source. That is the CSR layout by definition
// (each row lists its incident edges by increasing id), whatever way the
// builder gets there.
struct ArcReference {
  std::vector<Offset> offsets;
  std::vector<VertexId> adjacency;
  std::vector<EdgeId> incident;
};

ArcReference stable_arc_sort(const EdgeList& canonical) {
  struct Arc {
    VertexId src;
    VertexId dst;
    EdgeId id;
  };
  const std::span<const Edge> edges = canonical.edges();
  std::vector<Arc> arcs;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto id = static_cast<EdgeId>(i);
    arcs.push_back(Arc{edges[i].u, edges[i].v, id});
    arcs.push_back(Arc{edges[i].v, edges[i].u, id});
  }
  std::stable_sort(arcs.begin(), arcs.end(),
                   [](const Arc& a, const Arc& b) { return a.src < b.src; });
  ArcReference ref;
  ref.offsets.assign(canonical.num_vertices() + 1, 0);
  for (const Arc& a : arcs) {
    ++ref.offsets[a.src + 1];
    ref.adjacency.push_back(a.dst);
    ref.incident.push_back(a.id);
  }
  for (std::size_t v = 0; v < canonical.num_vertices(); ++v)
    ref.offsets[v + 1] += ref.offsets[v];
  return ref;
}

EdgeList canonical_from(uint64_t n, const std::vector<Edge>& raw) {
  EdgeList el(n);
  for (const Edge& e : raw) el.add(e.u, e.v);
  return normalize_edges(el);
}

TEST(CsrGraph, CanonicalBuildMatchesStableArcSort) {
  std::vector<std::pair<std::string, EdgeList>> cases;
  const auto star = [](uint64_t n, VertexId hub) {
    std::vector<Edge> raw;
    for (VertexId v = 0; v < n; ++v)
      if (v != hub) raw.push_back(Edge{hub, v});
    return canonical_from(n, raw);
  };
  // Hub 0: leaves have only lower neighbours; hub n-1: only upper; a
  // middle hub has both. 5000 spokes is more than any one bucket holds.
  cases.emplace_back("star hub 0", star(5'000, 0));
  cases.emplace_back("star hub n-1", star(5'000, 4'999));
  cases.emplace_back("star hub middle", star(5'000, 2'500));
  cases.emplace_back("n = 1, m = 0", EdgeList(1));
  cases.emplace_back("n = 0", EdgeList(0));
  cases.emplace_back("edgeless n = 5000", EdgeList(5'000));
  {
    // Isolated vertices: edges only among the even ids.
    std::vector<Edge> raw;
    for (uint32_t i = 0; i < 20'000; ++i)
      raw.push_back(Edge{static_cast<VertexId>(2 * (hash64(5, 2 * i) % 3'000)),
                         static_cast<VertexId>(
                             2 * (hash64(5, 2 * i + 1) % 3'000))});
    cases.emplace_back("isolated odd vertices", canonical_from(6'000, raw));
  }
  // n < 1024: one bucket per vertex.
  cases.emplace_back("n = 300 dense", random_graph_nm(300, 30'000, 3));
  {
    // Every edge among ids 0..40 of n = 100000: one bucket holds them all.
    std::vector<Edge> raw;
    for (uint32_t i = 0; i < 5'000; ++i)
      raw.push_back(Edge{static_cast<VertexId>(hash64(6, 2 * i) % 41),
                         static_cast<VertexId>(hash64(6, 2 * i + 1) % 41)});
    cases.emplace_back("one bucket", canonical_from(100'000, raw));
  }
  // Edge counts on both sides of 2^16.
  cases.emplace_back("m = 60000", random_graph_nm(20'000, 60'000, 4));
  cases.emplace_back("m = 70000", random_graph_nm(20'000, 70'000, 5));
  cases.emplace_back("rmat m = 200000",
                     normalize_edges(rmat_graph(15, 200'000, 6)));

  for (const auto& [name, canonical] : cases) {
    ASSERT_EQ(first_noncanonical_edge(canonical.edges(),
                                      canonical.num_vertices()),
              canonical.num_edges())
        << name;
    const ArcReference ref = stable_arc_sort(canonical);
    for (const int workers : {1, 3, 4}) {
      SCOPED_TRACE(name + " at workers " + std::to_string(workers));
      ScopedNumWorkers guard(workers);
      const CsrGraph g = CsrGraph::from_edges(canonical);
      EXPECT_TRUE(validate_csr(g).empty());
      EXPECT_TRUE(std::ranges::equal(g.offsets(), ref.offsets));
      EXPECT_TRUE(std::ranges::equal(g.adjacency(), ref.adjacency));
      std::vector<EdgeId> incident;
      for (VertexId v = 0; v < g.num_vertices(); ++v)
        for (const EdgeId e : g.incident_edges(v)) incident.push_back(e);
      EXPECT_EQ(incident, ref.incident);
    }
  }
}

// ------------------------------------------------------------- validator ---

TEST(Validate, AcceptsGeneratedGraphs) {
  EXPECT_TRUE(validate_csr(CsrGraph::from_edges(path_graph(50))).empty());
  EXPECT_TRUE(validate_csr(CsrGraph::from_edges(complete_graph(9))).empty());
  EXPECT_TRUE(
      validate_csr(CsrGraph::from_edges(random_graph_nm(200, 800, 1))).empty());
  EXPECT_TRUE(
      validate_csr(CsrGraph::from_edges(rmat_graph(8, 500, 2))).empty());
}

TEST(Validate, RequireValidPassesOnGoodGraph) {
  EXPECT_NO_THROW(require_valid(CsrGraph::from_edges(cycle_graph(8))));
}

class CsrFamilyTest : public ::testing::TestWithParam<int> {};

TEST_P(CsrFamilyTest, GeneratedFamiliesAreStructurallyValid) {
  const int which = GetParam();
  EdgeList el;
  switch (which) {
    case 0: el = path_graph(123); break;
    case 1: el = cycle_graph(77); break;
    case 2: el = grid_graph(11, 13); break;
    case 3: el = star_graph(64); break;
    case 4: el = complete_graph(20); break;
    case 5: el = complete_bipartite(9, 14); break;
    case 6: el = binary_tree(100); break;
    case 7: el = random_graph_nm(500, 2'500, 3); break;
    case 8: el = rmat_graph(9, 1'500, 4); break;
    case 9: el = barabasi_albert(300, 3, 5); break;
    default: FAIL();
  }
  const CsrGraph g = CsrGraph::from_edges(el);
  const std::vector<std::string> problems = validate_csr(g);
  EXPECT_TRUE(problems.empty())
      << "family " << which << ": " << problems.front();
  // Arc count is always exactly 2m.
  uint64_t total_degree = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) total_degree += g.degree(v);
  EXPECT_EQ(total_degree, 2 * g.num_edges());
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, CsrFamilyTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace pargreedy

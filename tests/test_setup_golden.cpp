// Golden digests of the paper path's set-up layers: the generated edge
// list, the random permutation and the CSR layout built from them.
//
// The kernels are checked against mis_sequential / mm_sequential on the
// same graph, so a change to the graph or the order itself would pass
// every kernel check unnoticed. These digests pin the exact bytes, at a
// size above the 2^16 threshold where the set-up layers switch to their
// parallel paths, and at two worker counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "parallel/arch.hpp"
#include "random/hash.hpp"
#include "random/permutation.hpp"

namespace pargreedy {
namespace {

template <typename T, typename Word>
uint64_t digest(std::span<const T> values, Word&& word) {
  uint64_t h = mix64(values.size());
  for (const T& x : values) h = mix64(h ^ word(x));
  return h;
}

uint64_t edge_digest(std::span<const Edge> edges) {
  return digest(edges, [](const Edge& e) {
    return (static_cast<uint64_t>(e.u) << 32) | e.v;
  });
}

template <typename T>
uint64_t word_digest(std::span<const T> values) {
  return digest(values, [](T x) { return static_cast<uint64_t>(x); });
}

struct CsrDigest {
  uint64_t offsets;
  uint64_t adjacency;
  uint64_t incident;
};

CsrDigest csr_digest(const CsrGraph& g) {
  std::vector<EdgeId> incident;
  incident.reserve(2 * g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (const EdgeId e : g.incident_edges(v)) incident.push_back(e);
  return {word_digest(g.offsets()), word_digest(g.adjacency()),
          word_digest(std::span<const EdgeId>(incident))};
}

constexpr int kWorkerCounts[] = {1, 4};

TEST(SetupGolden, RandomGraphNm) {
  const struct {
    uint64_t seed;
    uint64_t digest;
  } cases[] = {{1, 0xcd7484f96ba67987ULL}, {7919, 0x44a32d4d46c219ddULL}};
  for (const int workers : kWorkerCounts) {
    ScopedNumWorkers guard(workers);
    for (const auto& c : cases) {
      const EdgeList el = random_graph_nm(200'000, 1'000'000, c.seed);
      ASSERT_EQ(el.num_edges(), 1'000'000u);
      EXPECT_EQ(edge_digest(el.edges()), c.digest)
          << "seed " << c.seed << " workers " << workers << " digest 0x"
          << std::hex << edge_digest(el.edges());
    }
  }
}

TEST(SetupGolden, RandomPermutation) {
  for (const int workers : kWorkerCounts) {
    ScopedNumWorkers guard(workers);
    const std::vector<uint32_t> perm = random_permutation(1'000'000, 3);
    const uint64_t d = word_digest(std::span<const uint32_t>(perm));
    EXPECT_EQ(d, 0x585ff37268011291ULL)
        << "workers " << workers << " digest 0x" << std::hex << d;
  }
}

void expect_csr_digest(const EdgeList& el, const CsrDigest& want) {
  for (const int workers : kWorkerCounts) {
    ScopedNumWorkers guard(workers);
    const CsrDigest got = csr_digest(CsrGraph::from_edges(el));
    EXPECT_EQ(got.offsets, want.offsets)
        << "workers " << workers << " offsets 0x" << std::hex << got.offsets;
    EXPECT_EQ(got.adjacency, want.adjacency)
        << "workers " << workers << " adjacency 0x" << std::hex
        << got.adjacency;
    EXPECT_EQ(got.incident, want.incident)
        << "workers " << workers << " incident 0x" << std::hex
        << got.incident;
  }
}

TEST(SetupGolden, CsrFromRandomGraph) {
  expect_csr_digest(random_graph_nm(200'000, 1'000'000, 1),
                    {0xd18eb2c332425d3cULL, 0x5373ca03c6bf18f8ULL,
                     0x5a9b0d994cf67449ULL});
}

TEST(SetupGolden, CsrFromRmatGraph) {
  expect_csr_digest(rmat_graph(16, 500'000, 2),
                    {0xeeff8868712b30beULL, 0xa74b1ff58b392b61ULL,
                     0x1c542c4006831551ULL});
}

}  // namespace
}  // namespace pargreedy

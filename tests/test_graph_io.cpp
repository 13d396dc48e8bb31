// Unit tests for graph serialization (src/graph/io.*): the PBBS
// AdjacencyGraph text format and the plain EdgeArray format, including
// round-trips and malformed-input rejection.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "graph/io.hpp"
#include "graph/validate.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

namespace fs = std::filesystem;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pargreedy_io_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path file(const std::string& name) const { return dir_ / name; }

 private:
  fs::path dir_;
};

void expect_same_graph(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) EXPECT_EQ(a.edge(e), b.edge(e));
  for (VertexId v = 0; v < a.num_vertices(); ++v)
    EXPECT_EQ(a.degree(v), b.degree(v));
}

TEST_F(IoTest, AdjacencyGraphRoundTrip) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(200, 900, 3));
  write_adjacency_graph(file("g.adj"), g);
  const CsrGraph back = read_adjacency_graph(file("g.adj"));
  expect_same_graph(g, back);
  EXPECT_TRUE(validate_csr(back).empty());
}

TEST_F(IoTest, AdjacencyGraphRoundTripStructured) {
  for (const EdgeList& el :
       {path_graph(20), star_graph(9), complete_graph(8), grid_graph(4, 5)}) {
    const CsrGraph g = CsrGraph::from_edges(el);
    write_adjacency_graph(file("s.adj"), g);
    expect_same_graph(g, read_adjacency_graph(file("s.adj")));
  }
}

TEST_F(IoTest, AdjacencyGraphEmptyAndEdgeless) {
  const CsrGraph empty = CsrGraph::from_edges(EdgeList(0));
  write_adjacency_graph(file("empty.adj"), empty);
  expect_same_graph(empty, read_adjacency_graph(file("empty.adj")));

  const CsrGraph edgeless = CsrGraph::from_edges(EdgeList(13));
  write_adjacency_graph(file("edgeless.adj"), edgeless);
  const CsrGraph back = read_adjacency_graph(file("edgeless.adj"));
  EXPECT_EQ(back.num_vertices(), 13u);
  EXPECT_EQ(back.num_edges(), 0u);
}

TEST_F(IoTest, AdjacencyGraphHeaderFormat) {
  const CsrGraph g = CsrGraph::from_edges(path_graph(3));  // 2 edges
  write_adjacency_graph(file("h.adj"), g);
  std::ifstream in(file("h.adj"));
  std::string header;
  uint64_t n = 0;
  uint64_t arcs = 0;
  in >> header >> n >> arcs;
  EXPECT_EQ(header, "AdjacencyGraph");
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(arcs, 4u);  // 2m
}

TEST_F(IoTest, EdgeListRoundTrip) {
  const EdgeList el = random_graph_nm(150, 600, 5);
  write_edge_list(file("g.edges"), el);
  const EdgeList back = read_edge_list(file("g.edges"));
  const CsrGraph a = CsrGraph::from_edges(el);
  const CsrGraph b = CsrGraph::from_edges(back);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) EXPECT_EQ(a.edge(e), b.edge(e));
}

TEST_F(IoTest, EdgeListVertexCountInference) {
  EdgeList el(10);
  el.add(2, 7);  // max endpoint 7
  write_edge_list(file("i.edges"), el);
  EXPECT_EQ(read_edge_list(file("i.edges")).num_vertices(), 8u);
  EXPECT_EQ(read_edge_list(file("i.edges"), 10).num_vertices(), 10u);
  // An endpoint past the 32-bit id range, or a vertex count the file is
  // far too short to justify (3e9 offsets, 24 GB, from a dozen bytes).
  std::ofstream(file("wide.edges")) << "EdgeArray\n0 4294967296\n";
  EXPECT_THROW(read_edge_list(file("wide.edges")), CheckFailure);
  std::ofstream(file("far.edges")) << "EdgeArray\n0 3000000000\n";
  EXPECT_THROW(read_edge_list(file("far.edges")), CheckFailure);
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(read_adjacency_graph(file("nonexistent.adj")), CheckFailure);
  EXPECT_THROW(read_edge_list(file("nonexistent.edges")), CheckFailure);
}

TEST_F(IoTest, WrongMagicThrows) {
  std::ofstream(file("bad.adj")) << "NotAGraph\n1\n0\n0\n";
  EXPECT_THROW(read_adjacency_graph(file("bad.adj")), CheckFailure);
  std::ofstream(file("bad.edges")) << "NotEdges\n0 1\n";
  EXPECT_THROW(read_edge_list(file("bad.edges")), CheckFailure);
}

TEST_F(IoTest, TruncatedAdjacencyThrows) {
  // Claims 5 vertices / 8 arcs but provides too few numbers.
  std::ofstream(file("trunc.adj")) << "AdjacencyGraph\n5\n8\n0\n1\n2\n";
  EXPECT_THROW(read_adjacency_graph(file("trunc.adj")), CheckFailure);
}

TEST_F(IoTest, OversizedAdjacencyHeaderThrowsBeforeAllocating) {
  // Header counts of 2^40 in files of a few bytes: they are bounded by the
  // bytes left, so each is a CheckFailure and never an attempt to
  // allocate the offsets (8 TiB) or targets (4 TiB) they claim.
  const uint64_t huge = uint64_t{1} << 40;
  std::ofstream(file("arcs.adj")) << "AdjacencyGraph\n4\n" << huge << "\n0\n";
  EXPECT_THROW(read_adjacency_graph(file("arcs.adj")), CheckFailure);
  std::ofstream(file("n.adj")) << "AdjacencyGraph\n" << huge << "\n0\n0\n";
  EXPECT_THROW(read_adjacency_graph(file("n.adj")), CheckFailure);
}

TEST_F(IoTest, LargeGraphRoundTrip) {
  const CsrGraph g = CsrGraph::from_edges(rmat_graph(10, 4'000, 7));
  write_adjacency_graph(file("big.adj"), g);
  expect_same_graph(g, read_adjacency_graph(file("big.adj")));
}

}  // namespace
}  // namespace pargreedy

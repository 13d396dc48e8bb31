// Unit tests for the compact binary graph format (write_binary_graph /
// read_binary_graph): round trips, header validation, truncation and
// corruption rejection, and equivalence with the text formats.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "graph/io.hpp"
#include "graph/validate.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

namespace fs = std::filesystem;

class BinaryIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("pargreedy_bin_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
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

TEST_F(BinaryIoTest, RoundTripRandomGraph) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(500, 2'500, 1));
  write_binary_graph(file("g.pgrb"), g);
  const CsrGraph back = read_binary_graph(file("g.pgrb"));
  expect_same_graph(g, back);
  EXPECT_TRUE(validate_csr(back).empty());
}

TEST_F(BinaryIoTest, RoundTripStructuredFamilies) {
  for (const EdgeList& el : {path_graph(40), star_graph(25),
                             complete_graph(12), grid_graph(7, 9)}) {
    const CsrGraph g = CsrGraph::from_edges(el);
    write_binary_graph(file("s.pgrb"), g);
    expect_same_graph(g, read_binary_graph(file("s.pgrb")));
  }
}

TEST_F(BinaryIoTest, RoundTripEmptyAndEdgeless) {
  const CsrGraph empty = CsrGraph::from_edges(EdgeList(0));
  write_binary_graph(file("e.pgrb"), empty);
  expect_same_graph(empty, read_binary_graph(file("e.pgrb")));

  const CsrGraph edgeless = CsrGraph::from_edges(EdgeList(77));
  write_binary_graph(file("z.pgrb"), edgeless);
  const CsrGraph back = read_binary_graph(file("z.pgrb"));
  EXPECT_EQ(back.num_vertices(), 77u);
  EXPECT_EQ(back.num_edges(), 0u);
}

TEST_F(BinaryIoTest, BinaryAgreesWithTextFormat) {
  const CsrGraph g = CsrGraph::from_edges(rmat_graph(9, 1'500, 2));
  write_binary_graph(file("g.pgrb"), g);
  write_adjacency_graph(file("g.adj"), g);
  expect_same_graph(read_binary_graph(file("g.pgrb")),
                    read_adjacency_graph(file("g.adj")));
}

TEST_F(BinaryIoTest, FileIsCompact) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(1'000, 10'000, 3));
  write_binary_graph(file("g.pgrb"), g);
  const uint64_t size = fs::file_size(file("g.pgrb"));
  EXPECT_EQ(size, 4 + 8 + 8 + 8 * g.num_edges());  // magic + n + m + edges
}

TEST_F(BinaryIoTest, MissingFileThrows) {
  EXPECT_THROW(read_binary_graph(file("nope.pgrb")), CheckFailure);
}

TEST_F(BinaryIoTest, WrongMagicThrows) {
  std::ofstream(file("bad.pgrb"), std::ios::binary) << "XXXX12345678";
  EXPECT_THROW(read_binary_graph(file("bad.pgrb")), CheckFailure);
  // A text-format file is also rejected.
  const CsrGraph g = CsrGraph::from_edges(path_graph(4));
  write_adjacency_graph(file("g.adj"), g);
  EXPECT_THROW(read_binary_graph(file("g.adj")), CheckFailure);
}

TEST_F(BinaryIoTest, TruncatedEdgeTableThrows) {
  const CsrGraph g = CsrGraph::from_edges(complete_graph(10));
  write_binary_graph(file("g.pgrb"), g);
  // Chop the last 16 bytes off.
  const uint64_t size = fs::file_size(file("g.pgrb"));
  fs::resize_file(file("g.pgrb"), size - 16);
  EXPECT_THROW(read_binary_graph(file("g.pgrb")), CheckFailure);
}

TEST_F(BinaryIoTest, TruncatedHeaderThrows) {
  std::ofstream(file("h.pgrb"), std::ios::binary) << "PGRB";
  EXPECT_THROW(read_binary_graph(file("h.pgrb")), CheckFailure);
}

TEST_F(BinaryIoTest, OutOfRangeEndpointThrows) {
  // Hand-craft a file claiming n=2 with an edge to vertex 5.
  std::ofstream out(file("r.pgrb"), std::ios::binary);
  out.write("PGRB", 4);
  const uint64_t n = 2;
  const uint64_t m = 1;
  out.write(reinterpret_cast<const char*>(&n), 8);
  out.write(reinterpret_cast<const char*>(&m), 8);
  const uint32_t edge[2] = {0, 5};
  out.write(reinterpret_cast<const char*>(edge), 8);
  out.close();
  EXPECT_THROW(read_binary_graph(file("r.pgrb")), CheckFailure);
}

TEST_F(BinaryIoTest, OversizedHeaderThrowsBeforeAllocating) {
  // A bare 20-byte header claiming m = 2^40 edges (8 TiB of table): the
  // count is bounded by the bytes actually present, so this is a
  // CheckFailure and never an attempt to allocate the table.
  std::ofstream out(file("huge.pgrb"), std::ios::binary);
  out.write("PGRB", 4);
  const uint64_t n = 4;
  const uint64_t m = uint64_t{1} << 40;
  out.write(reinterpret_cast<const char*>(&n), 8);
  out.write(reinterpret_cast<const char*>(&m), 8);
  out.close();
  ASSERT_EQ(fs::file_size(file("huge.pgrb")), 20u);
  EXPECT_THROW(read_binary_graph(file("huge.pgrb")), CheckFailure);
  // An edgeless graph costs no table bytes, but a vertex count past the
  // 32-bit id range is malformed all the same.
  std::ofstream wide(file("wide.pgrb"), std::ios::binary);
  wide.write("PGRB", 4);
  const uint64_t zero = 0;
  wide.write(reinterpret_cast<const char*>(&m), 8);
  wide.write(reinterpret_cast<const char*>(&zero), 8);
  wide.close();
  EXPECT_THROW(read_binary_graph(file("wide.pgrb")), CheckFailure);
  // Inside the id range, but 2^31 isolated vertices (a 16 GiB offset
  // array) from a 20-byte file.
  std::ofstream sparse(file("sparse.pgrb"), std::ios::binary);
  sparse.write("PGRB", 4);
  const uint64_t many = uint64_t{1} << 31;
  sparse.write(reinterpret_cast<const char*>(&many), 8);
  sparse.write(reinterpret_cast<const char*>(&zero), 8);
  sparse.close();
  EXPECT_THROW(read_binary_graph(file("sparse.pgrb")), CheckFailure);
}

TEST_F(BinaryIoTest, NonCanonicalEdgeTableThrows) {
  // In-range edge tables that break the writer's canonical-order contract
  // (every edge u < v, strictly increasing). Trusted as normalized they
  // would build a CSR that validate_csr rejects.
  const auto load = [&](const std::vector<Edge>& table) {
    std::ofstream out(file("nc.pgrb"), std::ios::binary);
    out.write("PGRB", 4);
    const uint64_t n = 4;
    const uint64_t m = table.size();
    out.write(reinterpret_cast<const char*>(&n), 8);
    out.write(reinterpret_cast<const char*>(&m), 8);
    out.write(reinterpret_cast<const char*>(table.data()),
              static_cast<std::streamsize>(m * sizeof(Edge)));
    out.close();
    return read_binary_graph(file("nc.pgrb"));
  };
  // A self-loop, a duplicate and a reversed pair in one file.
  EXPECT_THROW(load({{0, 1}, {1, 1}, {1, 2}, {1, 2}, {3, 2}}), CheckFailure);
  // Each violation alone, after a valid prefix.
  EXPECT_THROW(load({{0, 1}, {2, 2}}), CheckFailure);  // self-loop
  EXPECT_THROW(load({{0, 1}, {0, 1}}), CheckFailure);  // duplicate
  EXPECT_THROW(load({{0, 1}, {3, 1}}), CheckFailure);  // reversed pair
  EXPECT_THROW(load({{1, 2}, {0, 3}}), CheckFailure);  // out of order
  EXPECT_TRUE(validate_csr(load({{0, 1}, {0, 3}, {1, 2}})).empty());
}

TEST_F(BinaryIoTest, LargeGraphRoundTrip) {
  const CsrGraph g =
      CsrGraph::from_edges(random_graph_nm(20'000, 100'000, 4));
  write_binary_graph(file("big.pgrb"), g);
  expect_same_graph(g, read_binary_graph(file("big.pgrb")));
}

}  // namespace
}  // namespace pargreedy

#include "graph/io.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "support/check.hpp"

namespace pargreedy {

namespace {

/// Bytes of `path` not yet consumed by `in`: the upper bound every header
/// count is checked against before anything is allocated from it.
uint64_t bytes_left(std::istream& in, const std::filesystem::path& path) {
  const auto pos = in.tellg();
  PG_CHECK_MSG(pos >= 0, "cannot determine read position in " << path);
  const uint64_t size = std::filesystem::file_size(path);
  const auto consumed = static_cast<uint64_t>(pos);
  return size > consumed ? size - consumed : 0;
}

/// Isolated vertices take no bytes in the edge-list and binary formats, so
/// a few corrupt bytes could otherwise declare 2^32 vertices and demand a
/// 32 GiB offset array. A file may declare up to 2^20 vertices (an 8 MiB
/// offset array) freely; past that, it must hold a byte per 8 vertices.
void check_vertex_count(uint64_t n, const std::filesystem::path& path) {
  const uint64_t size = std::filesystem::file_size(path);
  PG_CHECK_MSG(n <= std::max(uint64_t{1} << 20, 8 * size),
               "vertex count " << n << " is out of proportion to the "
                               << size << " bytes of " << path);
}

}  // namespace

void write_adjacency_graph(const std::filesystem::path& path,
                           const CsrGraph& g) {
  std::ofstream out(path);
  PG_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  const uint64_t n = g.num_vertices();
  const uint64_t arcs = 2 * g.num_edges();
  out << "AdjacencyGraph\n" << n << '\n' << arcs << '\n';
  for (uint64_t v = 0; v < n; ++v) out << g.offsets()[v] << '\n';
  for (uint64_t i = 0; i < arcs; ++i) out << g.adjacency()[i] << '\n';
  PG_CHECK_MSG(out.good(), "write to " << path << " failed");
}

CsrGraph read_adjacency_graph(const std::filesystem::path& path) {
  std::ifstream in(path);
  PG_CHECK_MSG(in.good(), "cannot open " << path << " for reading");
  std::string magic;
  in >> magic;
  PG_CHECK_MSG(magic == "AdjacencyGraph",
               "bad magic '" << magic << "' in " << path);
  uint64_t n = 0, arcs = 0;
  in >> n >> arcs;
  PG_CHECK_MSG(in.good(), "truncated header in " << path);
  // Every offset and target takes at least one byte of text, so the body
  // must hold n + arcs bytes; checked before either array is allocated.
  const uint64_t left = bytes_left(in, path);
  PG_CHECK_MSG(arcs <= left && n <= left - arcs,
               "header (n=" << n << ", arcs=" << arcs << ") exceeds the "
                            << left << " bytes left in " << path);
  std::vector<Offset> offsets(n + 1, 0);
  for (uint64_t v = 0; v < n; ++v) in >> offsets[v];
  offsets[n] = arcs;
  std::vector<VertexId> targets(arcs);
  for (uint64_t i = 0; i < arcs; ++i) in >> targets[i];
  PG_CHECK_MSG(!in.fail(), "truncated body in " << path);

  // Rebuild via the normal builder: collect each arc once (u < v keeps one
  // copy per undirected edge; the format stores both directions).
  EdgeList edges(n);
  edges.reserve(arcs / 2);
  for (VertexId u = 0; u < n; ++u) {
    PG_CHECK_MSG(offsets[u] <= offsets[u + 1] && offsets[u + 1] <= arcs,
                 "non-monotone offsets in " << path);
    for (Offset i = offsets[u]; i < offsets[u + 1]; ++i) {
      PG_CHECK_MSG(targets[i] < n, "target out of range in " << path);
      if (u < targets[i]) edges.add(u, targets[i]);
    }
  }
  return CsrGraph::from_edges(std::move(edges));
}

void write_edge_list(const std::filesystem::path& path,
                     const EdgeList& edges) {
  std::ofstream out(path);
  PG_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  out << "EdgeArray\n";
  for (const Edge& e : edges.edges()) out << e.u << ' ' << e.v << '\n';
  PG_CHECK_MSG(out.good(), "write to " << path << " failed");
}

EdgeList read_edge_list(const std::filesystem::path& path,
                        uint64_t num_vertices) {
  std::ifstream in(path);
  PG_CHECK_MSG(in.good(), "cannot open " << path << " for reading");
  std::string magic;
  in >> magic;
  PG_CHECK_MSG(magic == "EdgeArray", "bad magic '" << magic << "' in " << path);
  UninitVector<Edge> edges;
  uint64_t u = 0, v = 0;
  uint64_t max_endpoint = 0;
  while (in >> u >> v) {
    PG_CHECK_MSG(u < kInvalidVertex && v < kInvalidVertex,
                 "endpoint beyond the vertex id range in " << path);
    max_endpoint = std::max({max_endpoint, u, v});
    edges.push_back(Edge{static_cast<VertexId>(u), static_cast<VertexId>(v)});
  }
  if (!edges.empty()) check_vertex_count(max_endpoint + 1, path);
  const uint64_t n =
      std::max(num_vertices, edges.empty() ? uint64_t{0} : max_endpoint + 1);
  return EdgeList(n, std::move(edges));
}


namespace {

constexpr char kBinaryMagic[4] = {'P', 'G', 'R', 'B'};

}  // namespace

void write_binary_graph(const std::filesystem::path& path,
                        const CsrGraph& g) {
  std::ofstream out(path, std::ios::binary);
  PG_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  out.write(kBinaryMagic, sizeof kBinaryMagic);
  const uint64_t n = g.num_vertices();
  const uint64_t m = g.num_edges();
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  out.write(reinterpret_cast<const char*>(&m), sizeof m);
  static_assert(sizeof(Edge) == 2 * sizeof(VertexId),
                "binary format assumes a packed Edge layout");
  out.write(reinterpret_cast<const char*>(g.edges().data()),
            static_cast<std::streamsize>(m * sizeof(Edge)));
  PG_CHECK_MSG(out.good(), "short write to " << path);
}

CsrGraph read_binary_graph(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  PG_CHECK_MSG(in.good(), "cannot open " << path);
  char magic[4] = {};
  in.read(magic, sizeof magic);
  PG_CHECK_MSG(in.gcount() == sizeof magic &&
                   std::equal(magic, magic + 4, kBinaryMagic),
               path << " is not a PGRB binary graph");
  uint64_t n = 0;
  uint64_t m = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof n);
  in.read(reinterpret_cast<char*>(&m), sizeof m);
  PG_CHECK_MSG(in.good(), "truncated header in " << path);
  PG_CHECK_MSG(n <= kInvalidVertex,
               "vertex count " << n << " exceeds the vertex id range in "
                               << path);
  check_vertex_count(n, path);
  // Bound m by the bytes actually present before allocating the table.
  // Dividing (not multiplying) also keeps m * sizeof(Edge) from
  // overflowing.
  const uint64_t left = bytes_left(in, path);
  PG_CHECK_MSG(m <= left / sizeof(Edge),
               "edge count " << m << " exceeds the " << left
                             << " bytes left in " << path);
  const uint64_t table_bytes = m * sizeof(Edge);
  EdgeList edges(n);
  edges.mutable_edges().resize(m);
  in.read(reinterpret_cast<char*>(edges.mutable_edges().data()),
          static_cast<std::streamsize>(table_bytes));
  PG_CHECK_MSG(in.gcount() == static_cast<std::streamsize>(table_bytes),
               "truncated edge table in " << path);
  // The writer emits the canonical table (u < v < n, strictly
  // increasing), so the normalization pass is skipped, but only after one
  // parallel pass confirms the bytes keep that contract.
  const std::span<const Edge> table = edges.edges();
  const std::size_t bad = first_noncanonical_edge(table, n);
  if (bad < m) {
    const Edge e = table[bad];
    PG_CHECK_MSG(e.u < n && e.v < n,
                 "endpoint out of range at edge " << bad << " in " << path);
    PG_CHECK_MSG(e.u < e.v,
                 "edge " << bad << " is not canonical (u < v) in " << path);
    // In range and canonical, so edge `bad` is not the first one.
    PG_CHECK_MSG(table[bad - 1] < e,
                 "edge table not strictly increasing at edge " << bad << " in "
                                                               << path);
  }
  return build_csr_from_normalized(std::move(edges));
}

}  // namespace pargreedy

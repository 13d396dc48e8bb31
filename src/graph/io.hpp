// Graph serialization.
//
// Two interchange formats:
//  * PBBS "AdjacencyGraph" text format (the format of the problem-based
//    benchmark suite the paper's own implementation ships with), and
//  * a plain whitespace edge-list format ("EdgeArray").
#pragma once

#include <filesystem>
#include <string>

#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"

namespace pargreedy {

/// Writes g in PBBS AdjacencyGraph format:
///   AdjacencyGraph\n n\n <arcs>\n  then n offsets, then <arcs> targets,
/// one number per line, where <arcs> = 2m (each undirected edge appears in
/// both adjacency lists).
void write_adjacency_graph(const std::filesystem::path& path,
                           const CsrGraph& g);

/// Reads a PBBS AdjacencyGraph file. Throws CheckFailure on malformed input,
/// including header counts the file is too short to hold (checked before
/// anything is allocated from them).
CsrGraph read_adjacency_graph(const std::filesystem::path& path);

/// Writes an edge list as "EdgeArray\n" then "u v" lines.
void write_edge_list(const std::filesystem::path& path, const EdgeList& edges);

/// Reads an EdgeArray file; `num_vertices` is inferred as 1 + max endpoint
/// unless a larger value is given. Throws CheckFailure on an endpoint past
/// the 32-bit id range, or an inferred vertex count out of proportion to
/// the file (over 2^20 and over 8 per byte of the file).
EdgeList read_edge_list(const std::filesystem::path& path,
                        uint64_t num_vertices = 0);

/// Writes g in the compact binary format (magic "PGRB", little-endian
/// n/m and the canonical edge table). ~8 bytes per edge; the fast path
/// for large inputs.
void write_binary_graph(const std::filesystem::path& path,
                        const CsrGraph& g);

/// Reads a binary graph written by write_binary_graph. Throws CheckFailure
/// on bad magic, truncation, an edge count the file is too short to hold
/// (checked before allocating), a vertex count beyond the 32-bit id range
/// or out of proportion to the file (over 2^20 and over 8 per byte of the
/// file), out-of-range endpoints, or an edge table that is not canonical
/// (every edge u < v, strictly increasing).
CsrGraph read_binary_graph(const std::filesystem::path& path);

}  // namespace pargreedy

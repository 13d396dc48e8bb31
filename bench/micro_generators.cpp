// google-benchmark microbenchmarks for graph construction: the generators
// (the paper's two evaluation workloads plus Barabasi-Albert) and the CSR
// builder — the setup cost every experiment pays before timing begins.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"

namespace pargreedy {
namespace {

void BM_RandomGraphNm(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  uint64_t seed = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(random_graph_nm(n, 5 * n, ++seed));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(5 * n));
}
BENCHMARK(BM_RandomGraphNm)->Arg(1 << 14)->Arg(1 << 17);

void BM_RmatGraph(benchmark::State& state) {
  const unsigned scale = static_cast<unsigned>(state.range(0));
  const uint64_t m = 5ull << scale;
  uint64_t seed = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(rmat_graph(scale, m, ++seed));
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m));
}
BENCHMARK(BM_RmatGraph)->Arg(14)->Arg(17);

void BM_BarabasiAlbert(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  uint64_t seed = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(barabasi_albert(n, 4, ++seed));
}
BENCHMARK(BM_BarabasiAlbert)->Arg(1 << 13)->Arg(1 << 15);

void BM_NormalizeEdges(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const EdgeList el = random_graph_nm(n, 5 * n, 1);
  // Duplicate the list and append its reverse to stress the dedup path.
  EdgeList messy(n);
  for (const Edge& e : el.edges()) messy.add(e.u, e.v);
  for (const Edge& e : el.edges()) messy.add(e.v, e.u);
  for (auto _ : state) benchmark::DoNotOptimize(normalize_edges(messy));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(messy.num_edges()));
}
BENCHMARK(BM_NormalizeEdges)->Arg(1 << 14)->Arg(1 << 17);

void BM_CsrFromEdges(benchmark::State& state) {
  // Every edge reversed, so from_edges takes its normalize path.
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const EdgeList canonical = random_graph_nm(n, 5 * n, 2);
  EdgeList el(n);
  for (const Edge& e : canonical.edges()) el.add(e.v, e.u);
  for (auto _ : state)
    benchmark::DoNotOptimize(CsrGraph::from_edges(el));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(el.num_edges()));
}
BENCHMARK(BM_CsrFromEdges)->Arg(1 << 14)->Arg(1 << 17);

void BM_CsrFromNormalizedEdges(benchmark::State& state) {
  // Canonical input: from_edges detects it and skips normalizing.
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const EdgeList el = normalize_edges(random_graph_nm(n, 5 * n, 3));
  for (auto _ : state)
    benchmark::DoNotOptimize(CsrGraph::from_edges(el));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(el.num_edges()));
}
BENCHMARK(BM_CsrFromNormalizedEdges)->Arg(1 << 14)->Arg(1 << 17);

}  // namespace
}  // namespace pargreedy

BENCHMARK_MAIN();

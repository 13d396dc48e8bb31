// The three workloads and the layer probes they share. See RATIONALE.md
// for why each workload exists and which layer it is meant to expose.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pargreedy.hpp"
#include "report.hpp"

namespace perfbench {

/// What the command line asked for.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;  // traced run: where the spans are written
};

// ------------------------------------------------------------ static path ---

/// The paper path's inputs: a graph and one random order per kernel.
struct StaticInputs {
  pargreedy::CsrGraph graph;
  pargreedy::VertexOrder vertex_order;
  pargreedy::EdgeOrder edge_order;
};

/// Generates G(n, m) and its orders from `seed`, recording one span per
/// layer (generators, graph, random) when `spans` is enabled.
StaticInputs make_static_inputs(uint64_t n, uint64_t m, uint64_t seed,
                                SpanRecorder& spans);

/// Tallies one MIS / matching result into `report`: it fails unless it
/// equals `expect`, the sequential greedy answer (in_set / matched_with).
void check_mis(Report& report, const pargreedy::MisResult& got,
               const std::vector<uint8_t>& expect);
void check_mm(Report& report, const pargreedy::MatchResult& got,
              const std::vector<pargreedy::VertexId>& expect);

/// Time the kernel contenders and baselines (serial, relabeled,
/// speculative and, when `time_prefix`, prefix) as core.mis.* / core.mm.*
/// spans, and record the prefix kernel's ProfileLevel::kCounters work
/// counts. Every result is checked against `expect`.
void measure_mis_kernels(Report& report, SpanRecorder& spans,
                         const pargreedy::CsrGraph& g,
                         const pargreedy::VertexOrder& pi,
                         const std::vector<uint8_t>& expect,
                         bool time_prefix);
void measure_mm_kernels(Report& report, SpanRecorder& spans,
                        const pargreedy::CsrGraph& g,
                        const pargreedy::EdgeOrder& pi,
                        const std::vector<pargreedy::VertexId>& expect,
                        bool time_prefix);

/// Window sizes of the prefix kernels: n/50 and m/50, as in the paper's
/// best-performing region.
inline uint64_t mis_window(const pargreedy::CsrGraph& g) {
  return g.num_vertices() / 50 + 1;
}
inline uint64_t mm_window(const pargreedy::CsrGraph& g) {
  return g.num_edges() / 50 + 1;
}

/// The static_random workload.
Report run_static_random(const RunOptions& opt);

// ----------------------------------------------------------- dynamic path ---

struct DynamicConfig {
  const char* name;
  unsigned rmat_scale;  // > 0: rMat(2^scale, m); 0: random(n, m)
  uint64_t n;
  uint64_t m;
  uint64_t batch_ops;
  bool aborts;             // every fourth transaction per engine is a what-if
  uint64_t check_every;    // transactions per engine between oracle checks
  int tail_q;              // the workload's fixed tail percentile (per mille)
};

DynamicConfig dynamic_small_config();
DynamicConfig dynamic_large_config();
/// A small dynamic stream that gives static_random its dynamic.* and
/// txn.* per-layer readings (see RATIONALE.md).
DynamicConfig dynamic_probe_config();

/// The dynamic_small / dynamic_large workloads.
Report run_dynamic(const DynamicConfig& cfg, const RunOptions& opt);

/// One deterministic replay used by the self-test: `batches` batches per
/// engine on a `cfg`-shaped graph, all committed; returns the summed
/// {recomputed, rounds} of both engines and a fingerprint of the batches.
struct ReplayCounters {
  uint64_t recomputed = 0;
  uint64_t rounds = 0;
  uint64_t batch_fingerprint = 0;
  friend bool operator==(const ReplayCounters&, const ReplayCounters&) =
      default;
};
ReplayCounters replay_dynamic(const DynamicConfig& cfg, uint64_t seed,
                              uint64_t batches);

// ----------------------------------------------------------------- probes ---

/// parallel.*: pack_index / exclusive_scan at 4 workers on 7, 256 and 1M
/// items. Results are checked.
void measure_parallel(Report& report);

/// Median of `v` (0 when empty).
inline double median(const std::vector<double>& v) {
  return percentile(v, 500);
}

}  // namespace perfbench

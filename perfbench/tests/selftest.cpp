// The benchmark's own tests: the tail rule, span self time, failure
// accounting, and seed reproducibility. Exit code 0 iff every check holds.
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <vector>

#include "inputs.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

using namespace perfbench;
using namespace pargreedy;

void tail_rule() {
  // Fewer than 20 samples leave no percentile with 10 samples beyond it.
  expect(tail_permille(9) == 0, "tail rule: 9 samples have no tail");
  expect(tail_permille(10) == 0, "tail rule: 10 samples have no tail");
  expect(tail_permille(20) == 500, "tail rule: 20 samples give p50");
  // p99 of 1000 samples is the 990th; exactly 10 lie beyond it.
  expect(tail_permille(1000) == 990, "tail rule: 1000 samples give p99");
  expect(tail_permille(999) == 900, "tail rule: 999 samples give p90");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(percentile(v, 990) == 990.0, "p99 of 1..1000 is 990");
  expect(percentile(v, 500) == 500.0, "p50 of 1..1000 is 500");
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add(i * 1000);
  const double p99 = h.percentile_ns(990);
  expect(p99 > 990'000 * 0.98 && p99 < 990'000 * 1.02,
         "histogram p99 within 2% of the exact value");
}

void nested_self_time() {
  SpanRecorder rec;
  rec.set_enabled(true);
  // batch [0, 100): txn [10, 40) holding apply [20, 30), then commit
  // [50, 70).
  const uint32_t root = rec.open("batch", 7, 0);
  const uint32_t txn = rec.open("txn.begin", 7, 10);
  const uint32_t apply = rec.open("dynamic.apply", 7, 20);
  rec.close(apply, 30);
  rec.close(txn, 40);
  const uint32_t commit = rec.open("txn.commit", 7, 50);
  rec.close(commit, 70);
  rec.close(root, 100);
  const std::vector<int64_t> self = rec.self_ns();
  expect(self[root] == 50, "root self time excludes both children");
  expect(self[txn] == 20, "child self time excludes the grandchild");
  expect(self[apply] == 10, "leaf self time is its duration");
  expect(self[commit] == 20, "second child self time");
  expect(rec.spans()[apply].parent == txn, "grandchild's parent");
  expect(rec.unattributed_frac("batch") == 0.5,
         "unattributed share is the root's self time over its duration");
  bool same_batch = true;
  for (const Span& s : rec.spans()) same_batch &= s.batch == 7;
  expect(same_batch, "spans of one batch share its id");
  SpanRecorder off;
  { ScopedSpan s(off, "batch", 0); }
  expect(off.spans().empty(), "a disabled recorder records nothing");
}

StaticInputs small_inputs(uint64_t seed) {
  SpanRecorder spans;  // disabled
  return make_static_inputs(2'000, 10'000, seed, spans);
}

void corrupted_output_counts() {
  const StaticInputs in = small_inputs(3);
  const std::vector<uint8_t> mis_expect =
      mis_sequential(in.graph, in.vertex_order).in_set;
  const std::vector<VertexId> mm_expect =
      mm_sequential(in.graph, in.edge_order).matched_with;
  Report report;
  MisResult mis = mis_prefix(in.graph, in.vertex_order, mis_window(in.graph));
  check_mis(report, mis, mis_expect);
  MatchResult mm = mm_prefix(in.graph, in.edge_order, mm_window(in.graph));
  check_mm(report, mm, mm_expect);
  expect(report.failed() == 0, "correct kernel outputs pass");
  mis.in_set[mis.in_set.size() / 2] ^= 1;
  check_mis(report, mis, mis_expect);
  mm.matched_with[0] = mm.matched_with[0] == 1 ? 2 : 1;
  check_mm(report, mm, mm_expect);
  expect(report.attempted() == 4 && report.failed() == 2,
         "corrupted kernel outputs are counted as failures");
  expect(report.failed_frac() == 0.5, "failed_frac = failed / attempted");
}

void seed_reproduces_stream_and_counters() {
  const StaticInputs a = small_inputs(11), b = small_inputs(11);
  const auto rounds = [](const StaticInputs& in) {
    return std::pair(
        mis_prefix(in.graph, in.vertex_order, mis_window(in.graph),
                   ProfileLevel::kCounters)
            .profile.rounds,
        mm_prefix(in.graph, in.edge_order, mm_window(in.graph),
                  ProfileLevel::kCounters)
            .profile.rounds);
  };
  expect(rounds(a) == rounds(b), "one seed: same core.mis/core.mm rounds");

  DynamicConfig cfg = dynamic_probe_config();
  cfg.n = 3'000;
  cfg.m = 15'000;
  cfg.batch_ops = 6;
  const ReplayCounters x = replay_dynamic(cfg, 5, 40);
  const ReplayCounters y = replay_dynamic(cfg, 5, 40);
  const ReplayCounters z = replay_dynamic(cfg, 6, 40);
  expect(x == y,
         "one seed: same batch stream, dynamic.recomputed, dynamic.rounds");
  expect(x.recomputed > 0 && x.rounds > 0, "the replay did repropagate");
  expect(x.batch_fingerprint != z.batch_fingerprint,
         "another seed gives another batch stream");

  // A batch has exactly the requested number of operations, and an
  // aborted batch leaves the mirror unchanged.
  const CsrGraph g = small_inputs(1).graph;
  BatchStream s(g.num_vertices(), {g.edges().begin(), g.edges().end()}, 9,
                false);
  const uint64_t live = s.num_live();
  expect(s.next(50).size() == 50, "a batch has the requested size");
  s.discard();
  expect(s.num_live() == live, "discard leaves the live set unchanged");
}

}  // namespace

int main() {
  tail_rule();
  nested_self_time();
  corrupted_output_counts();
  seed_reproduces_stream_and_counters();
  std::printf("%s\n", g_failures == 0 ? "all passed" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}

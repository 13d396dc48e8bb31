// static_random: the paper path. mis_prefix and mm_prefix alternate on
// G(1M, 5M) at 4 workers; every call is checked against the sequential
// greedy answer computed once after set-up.
#include <cstdio>
#include <optional>

#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pargreedy;

namespace {

constexpr uint64_t kN = 1'000'000;
constexpr uint64_t kM = 5'000'000;
constexpr int kWorkers = 4;
constexpr int kSetups = 3;
// The fixed tail percentile: a 20 s run makes about 80 calls of each
// kernel, so p75 keeps about 20 samples beyond it (the tail rule needs 10)
// and p90 would keep too few.
constexpr int kTailQ = 750;

double ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

template <typename Kernel>
double time_call(SpanRecorder& spans, const char* name, uint64_t batch,
                 Kernel&& kernel) {
  const int64_t t0 = now_ns();
  {
    ScopedSpan span(spans, name, batch);
    kernel();
  }
  return ms(now_ns() - t0);
}

}  // namespace

StaticInputs make_static_inputs(uint64_t n, uint64_t m, uint64_t seed,
                                SpanRecorder& spans) {
  StaticInputs in;
  EdgeList edges;
  {
    ScopedSpan span(spans, "generators.edges", 0);
    edges = random_graph_nm(n, m, sub_seed(seed, 1));
  }
  {
    ScopedSpan span(spans, "graph.from_edges", 0);
    in.graph = CsrGraph::from_edges(edges);
  }
  {
    ScopedSpan span(spans, "random.order", 0);
    in.vertex_order = VertexOrder::random(n, sub_seed(seed, 2));
    in.edge_order = EdgeOrder::random(in.graph.num_edges(), sub_seed(seed, 3));
  }
  return in;
}

void check_mis(Report& report, const MisResult& got,
               const std::vector<uint8_t>& expect) {
  report.tally(1, got.in_set == expect ? 0 : 1);
}

void check_mm(Report& report, const MatchResult& got,
              const std::vector<VertexId>& expect) {
  report.tally(1, got.matched_with == expect ? 0 : 1);
}

void measure_mis_kernels(Report& report, SpanRecorder& spans,
                         const CsrGraph& g, const VertexOrder& pi,
                         const std::vector<uint8_t>& expect,
                         bool time_prefix) {
  const bool was = spans.enabled();
  spans.set_enabled(true);
  const uint64_t n = g.num_vertices();
  const uint64_t window = mis_window(g);
  const CsrGraph relabeled = relabel_by_rank(g, pi);
  const VertexOrder ident = VertexOrder::identity(n);
  for (int rep = 0; rep < 3; ++rep) {
    MisResult r;
    time_call(spans, "core.mis.serial", rep, [&] { r = mis_sequential(g, pi); });
    check_mis(report, r, expect);
    time_call(spans, "core.mis.relabeled", rep,
              [&] { r = mis_prefix(relabeled, ident, window); });
    uint64_t renamed_bad = 0;
    for (VertexId v = 0; v < n; ++v)
      renamed_bad += r.in_set[pi.rank(v)] != expect[v] ? 1 : 0;
    report.tally(1, renamed_bad == 0 ? 0 : 1);
    time_call(spans, "core.mis.speculative", rep,
              [&] { r = mis_speculative(g, pi, window); });
    check_mis(report, r, expect);
    if (time_prefix) {
      time_call(spans, "core.mis.prefix", rep,
                [&] { r = mis_prefix(g, pi, window); });
      check_mis(report, r, expect);
    }
  }
  const MisResult counted = mis_prefix(g, pi, window, ProfileLevel::kCounters);
  check_mis(report, counted, expect);
  spans.set_enabled(was);

  for (const char* what : {"prefix", "serial", "relabeled", "speculative"}) {
    const std::string name = std::string("core.mis.") + what;
    report.set(name + "_ms", median(spans.self_of(name)) * 1e-6, "ms");
  }
  report.set("core.mis.rounds", static_cast<double>(counted.profile.rounds),
             "count");
  report.set("core.mis.items_per_n",
             static_cast<double>(counted.profile.work_items) /
                 static_cast<double>(n),
             "ratio");
  report.set("core.mis.edges_per_m",
             static_cast<double>(counted.profile.work_edges) /
                 static_cast<double>(g.num_edges()),
             "ratio");
}

void measure_mm_kernels(Report& report, SpanRecorder& spans,
                        const CsrGraph& g, const EdgeOrder& pi,
                        const std::vector<VertexId>& expect,
                        bool time_prefix) {
  const bool was = spans.enabled();
  spans.set_enabled(true);
  const uint64_t window = mm_window(g);
  for (int rep = 0; rep < 3; ++rep) {
    MatchResult r;
    time_call(spans, "core.mm.serial", rep, [&] { r = mm_sequential(g, pi); });
    check_mm(report, r, expect);
    time_call(spans, "core.mm.speculative", rep,
              [&] { r = mm_speculative(g, pi, window); });
    check_mm(report, r, expect);
    if (time_prefix) {
      time_call(spans, "core.mm.prefix", rep,
                [&] { r = mm_prefix(g, pi, window); });
      check_mm(report, r, expect);
    }
  }
  const MatchResult counted =
      mm_prefix(g, pi, window, ProfileLevel::kCounters);
  check_mm(report, counted, expect);
  spans.set_enabled(was);

  for (const char* what : {"prefix", "serial", "speculative"}) {
    const std::string name = std::string("core.mm.") + what;
    report.set(name + "_ms", median(spans.self_of(name)) * 1e-6, "ms");
  }
  const double m = static_cast<double>(g.num_edges());
  report.set("core.mm.rounds", static_cast<double>(counted.profile.rounds),
             "count");
  // No core.mm.edges_per_m: mm_prefix counts no edge inspections, so its
  // work_edges is always 0.
  report.set("core.mm.items_per_m",
             static_cast<double>(counted.profile.work_items) / m, "ratio");
}

Report run_static_random(const RunOptions& opt) {
  Report report;
  SpanRecorder spans;
  spans.set_enabled(opt.trace);
  ScopedNumWorkers workers(kWorkers);

  // Set-up, several times; the last inputs are kept.
  std::optional<StaticInputs> in;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    in.reset();
    const int64_t t0 = now_ns();
    in = make_static_inputs(kN, kM, opt.seed, spans);
    (void)mis_prefix(in->graph, in->vertex_order, mis_window(in->graph));
    (void)mm_prefix(in->graph, in->edge_order, mm_window(in->graph));
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const CsrGraph& g = in->graph;
  const std::vector<uint8_t> mis_expect =
      mis_sequential(g, in->vertex_order).in_set;
  const std::vector<VertexId> mm_expect =
      mm_sequential(g, in->edge_order).matched_with;

  // The stream. In the traced run every other pair of calls is traced,
  // so traced and untraced calls share conditions and their ratio is the
  // tracing overhead; the last 30% of the time measures the obs tax.
  std::vector<double> mis_ms[2], mm_ms[2];  // [traced]
  double busy_ms = 0, items = 0;
  const double stream_s = opt.trace ? 0.7 * opt.seconds : opt.seconds;
  const int64_t start = now_ns();
  uint64_t pair = 0;
  for (; static_cast<double>(now_ns() - start) * 1e-9 < stream_s; ++pair) {
    const bool traced = opt.trace && pair % 2 == 1;
    spans.set_enabled(traced);
    MisResult mis;
    MatchResult mm;
    double t_mis = 0, t_mm = 0;
    {
      ScopedSpan root(spans, "batch", 2 * pair);
      t_mis = time_call(spans, "core.mis.prefix", 2 * pair, [&] {
        mis = mis_prefix(g, in->vertex_order, mis_window(g));
      });
    }
    {
      ScopedSpan root(spans, "batch", 2 * pair + 1);
      t_mm = time_call(spans, "core.mm.prefix", 2 * pair + 1, [&] {
        mm = mm_prefix(g, in->edge_order, mm_window(g));
      });
    }
    mis_ms[traced].push_back(t_mis);
    mm_ms[traced].push_back(t_mm);
    busy_ms += t_mis + t_mm;
    items += static_cast<double>(g.num_vertices() + g.num_edges());
    check_mis(report, mis, mis_expect);
    check_mm(report, mm, mm_expect);
  }
  spans.set_enabled(false);

  const std::vector<double>& mis_untraced = mis_ms[0];
  const std::vector<double>& mm_untraced = mm_ms[0];
  report.set("setup_s", median(setup_s), "s");
  report.set("mis_ms_p50", percentile(mis_untraced, 500), "ms");
  report.set("mis_ms_tail", percentile(mis_untraced, kTailQ), "ms");
  report.set("mm_ms_p50", percentile(mm_untraced, 500), "ms");
  report.set("mm_ms_tail", percentile(mm_untraced, kTailQ), "ms");
  report.set("ops_per_s", items / (busy_ms * 1e-3), "1/s");
  std::printf("# static_random: %zu MIS and %zu MM calls untraced; tail is "
              "%s (the tail rule allows %s at this count)\n",
              mis_untraced.size(), mm_untraced.size(),
              percentile_label(kTailQ).c_str(),
              percentile_label(tail_permille(mis_untraced.size())).c_str());

  if (opt.trace) {
    const auto ratio = [](const std::vector<double>& a,
                          const std::vector<double>& b) {
      return median(a) / median(b);
    };
    report.set("trace.overhead_ratio",
               (ratio(mis_ms[1], mis_ms[0]) + ratio(mm_ms[1], mm_ms[0])) / 2,
               "ratio");
    report.set("unattributed_frac", spans.unattributed_frac("batch"),
               "ratio");

    // obs tax: the same kernel pair with obs on and off, alternating.
    std::vector<double> tax[2];  // [obs on]
    const bool obs_was = obs::enabled();
    const int64_t tax_start = now_ns();
    for (uint64_t k = 0;
         k < 4 || static_cast<double>(now_ns() - tax_start) * 1e-9 <
                      0.3 * opt.seconds;
         ++k) {
      const bool on = k % 2 == 0;
      obs::set_enabled(on);
      MisResult mis;
      MatchResult mm;
      const int64_t t0 = now_ns();
      mis = mis_prefix(g, in->vertex_order, mis_window(g));
      mm = mm_prefix(g, in->edge_order, mm_window(g));
      tax[on].push_back(ms(now_ns() - t0));
      check_mis(report, mis, mis_expect);
      check_mm(report, mm, mm_expect);
    }
    obs::set_enabled(obs_was);
    report.set("obs.tax_ratio", median(tax[1]) / median(tax[0]), "ratio");

    measure_mis_kernels(report, spans, g, in->vertex_order, mis_expect,
                        /*time_prefix=*/false);
    measure_mm_kernels(report, spans, g, in->edge_order, mm_expect,
                       /*time_prefix=*/false);
    report.set("generators.edges_s",
               median(spans.self_of("generators.edges")) * 1e-9, "s");
    report.set("graph.from_edges_s",
               median(spans.self_of("graph.from_edges")) * 1e-9, "s");
    report.set("random.order_ms",
               median(spans.self_of("random.order")) * 1e-6, "ms");
    measure_parallel(report);

    // dynamic.* and txn.* are off this workload's path; a small dynamic
    // stream gives them a reading (RATIONALE.md).
    RunOptions probe_opt = opt;
    probe_opt.seconds = 2;
    probe_opt.spans_out.clear();
    report.absorb(run_dynamic(dynamic_probe_config(), probe_opt),
                  {"dynamic.", "txn."});
    if (!opt.spans_out.empty() && !spans.write_json(opt.spans_out))
      std::fprintf(stderr, "cannot write %s\n", opt.spans_out.c_str());
  }
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  return report;
}

}  // namespace perfbench

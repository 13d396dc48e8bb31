// dynamic_small / dynamic_large: a DynamicMis and a DynamicMatching, each
// behind a Transaction, fed by one closed-loop writer while reader
// threads read the published versions.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <span>
#include <thread>

#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pargreedy;

namespace {

constexpr int kEngineWorkers = 2;  // + 2 readers = the 4-thread budget
constexpr int kReaders = 2;
constexpr int kLookups = 64;       // point lookups per read
constexpr int kVerifyEvery = 16;   // every 16th read recomputes the checksum
constexpr int kSetups = 3;
constexpr int kWarmupTxns = 8;     // per engine, part of set-up
constexpr int kWhatIfs = 8;        // per engine, traced run only
constexpr int64_t kSettleNs = 1'000'000'000;  // unmeasured stream before the clock
// Reads are counted in millions, so the tail rule allows p99.9.
constexpr int kReadTailQ = 999;

CsrGraph make_graph(const DynamicConfig& cfg, uint64_t seed,
                    SpanRecorder& spans) {
  EdgeList edges;
  {
    ScopedSpan span(spans, "generators.edges", 0);
    edges = cfg.rmat_scale > 0
                ? rmat_graph(cfg.rmat_scale, cfg.m, sub_seed(seed, 1))
                : random_graph_nm(cfg.n, cfg.m, sub_seed(seed, 1));
  }
  CsrGraph g;
  {
    ScopedSpan span(spans, "graph.from_edges", 0);
    g = CsrGraph::from_edges(edges);
  }
  g.set_vertex_weights(
      quantized_weights(g.num_vertices(), sub_seed(seed, 4), kWeightLevels));
  g.set_edge_weights(
      quantized_weights(g.num_edges(), sub_seed(seed, 5), kWeightLevels));
  return g;
}

PrioritySource mis_source(uint64_t seed) {
  return PrioritySource::weight_hash_tiebreak(sub_seed(seed, 11));
}
PrioritySource mm_source(uint64_t seed) {
  return PrioritySource::weight_hash_tiebreak(sub_seed(seed, 13));
}

/// Both engines, their transactions and their batch streams.
/// Non-movable: the transactions hold references to the engines.
struct Engines {
  Engines(CsrGraph g, uint64_t seed)
      : mis_src(mis_source(seed)),
        mm_src(mm_source(seed)),
        mis_stream(g.num_vertices(), {g.edges().begin(), g.edges().end()},
                   sub_seed(seed, 21), /*vertex_reweights=*/true),
        mm_stream(g.num_vertices(), {g.edges().begin(), g.edges().end()},
                  sub_seed(seed, 22), /*vertex_reweights=*/false),
        mis(EngineOptions::with_source(g, mis_src)),
        mm(EngineOptions::with_source(std::move(g), mm_src)),
        mis_txn(mis),
        mm_txn(mm) {}
  Engines(const Engines&) = delete;
  Engines& operator=(const Engines&) = delete;

  PrioritySource mis_src, mm_src;
  BatchStream mis_stream, mm_stream;
  DynamicMis mis;
  DynamicMatching mm;
  MisTransaction mis_txn;
  MatchingTransaction mm_txn;
};

/// One transaction's timestamps (ns) and counters.
struct TxnResult {
  int64_t begin = 0, ended = 0, visible = 0;
  BatchStats stats;
  bool compacted = false;
  uint64_t ops = 0;
};

/// Submits the stream's next batch as one transaction: begin, apply, then
/// abort (a what-if) or commit and wait until read() serves the new
/// version. Batch generation happens before the clock starts.
template <typename Txn>
TxnResult run_txn(Txn& txn, BatchStream& stream, uint64_t ops, bool abort,
                  SpanRecorder& spans, uint64_t batch_id) {
  const UpdateBatch batch = stream.next(ops);
  TxnResult r;
  r.ops = batch.size();
  {
    ScopedSpan root(spans, "batch", batch_id);
    r.begin = now_ns();
    {
      ScopedSpan span(spans, "txn.begin", batch_id);
      txn.begin();
    }
    {
      ScopedSpan span(spans, "dynamic.apply", batch_id);
      r.stats = txn.apply(batch);
    }
    const uint64_t applied_epoch = txn.engine().epoch();
    if (abort) {
      ScopedSpan span(spans, "txn.abort", batch_id);
      txn.abort();
    } else {
      uint64_t v = 0;
      {
        ScopedSpan span(spans, "txn.commit", batch_id);
        v = txn.commit();
      }
      r.ended = now_ns();
      ScopedSpan span(spans, "txn.read", batch_id);
      while (txn.read().version() != v) {
      }
    }
    const int64_t end = now_ns();
    if (abort) r.ended = end;
    r.visible = end;
    // A commit that compacts the overlay bumps the engine epoch again.
    r.compacted = !abort && txn.engine().epoch() != applied_epoch;
  }
  if (abort) {
    stream.discard();
  } else {
    stream.commit();
  }
  return r;
}

/// The published MIS equals the sequential greedy MIS of the engine's
/// active subgraph under the same priorities.
bool mis_matches_oracle(const Engines& e) {
  const CsrGraph h = e.mis.active_subgraph();
  std::vector<uint8_t> expect = mis_weighted_sequential(h, e.mis_src).in_set;
  for (VertexId v = 0; v < e.mis.num_vertices(); ++v)
    if (!e.mis.active(v)) expect[v] = 0;
  const ReadView<uint8_t> view = e.mis_txn.read();
  return view.version() == e.mis_txn.version() &&
         std::equal(view.values().begin(), view.values().end(),
                    expect.begin(), expect.end());
}

bool mm_matches_oracle(const Engines& e) {
  const CsrGraph h = e.mm.active_subgraph();
  const std::vector<VertexId> expect =
      mm_weighted_sequential(h, e.mm_src).matched_with;
  const ReadView<VertexId> view = e.mm_txn.read();
  return view.version() == e.mm_txn.version() &&
         std::equal(view.values().begin(), view.values().end(),
                    expect.begin(), expect.end());
}

struct ReaderStats {
  uint64_t reads = 0;
  uint64_t failures = 0;
  LatencyHistogram total, acquire, verify;
  int64_t lookup_ns = 0;
  double seconds = 0;
};

/// Reader threads: each alternates engines; a read is read() plus
/// kLookups point lookups, and every kVerifyEvery-th read also
/// recomputes the version checksum. A read fails on a checksum mismatch,
/// a version older than one this thread already saw, or an entry that is
/// not a valid solution value (MIS bit > 1, or a partner that does not
/// point back).
class Readers {
 public:
  Readers(const Engines& e, uint64_t seed, int count) : stats_(count) {
    try {
      for (int i = 0; i < count; ++i)
        threads_.emplace_back([this, &e, seed, i] {
          body(e, sub_seed(seed, 100 + i), stats_[i]);
        });
    } catch (...) {
      stop();  // join the threads already started
      throw;
    }
  }
  ~Readers() { stop(); }
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_)
      if (t.joinable()) t.join();
  }

  /// All threads' counts merged; call after stop().
  [[nodiscard]] ReaderStats merged() const {
    ReaderStats all;
    for (const ReaderStats& s : stats_) {
      all.reads += s.reads;
      all.failures += s.failures;
      all.total.merge(s.total);
      all.acquire.merge(s.acquire);
      all.verify.merge(s.verify);
      all.lookup_ns += s.lookup_ns;
    }
    return all;
  }
  /// Aggregate reads per second: each thread's rate, summed.
  [[nodiscard]] double reads_per_s() const {
    double rate = 0;
    for (const ReaderStats& s : stats_)
      if (s.seconds > 0) rate += static_cast<double>(s.reads) / s.seconds;
    return rate;
  }

 private:
  template <typename Value, typename Valid>
  bool read_once(const ReadView<Value>& view, uint64_t& last_version,
                 Xoshiro256& rng, uint64_t i, ReaderStats& s, int64_t t0,
                 Valid&& valid) {
    const int64_t t1 = now_ns();
    bool ok = view.version() >= last_version;
    last_version = view.version();
    const std::span<const Value> values = view.values();
    for (int j = 0; j < kLookups; ++j)
      ok &= valid(values, rng.range(values.size()));
    const int64_t t2 = now_ns();
    if (i % kVerifyEvery == kVerifyEvery - 1) {
      ok &= view.verify_checksum();
      s.verify.add(now_ns() - t2);
    }
    s.acquire.add(t1 - t0);
    s.lookup_ns += t2 - t1;
    return ok;
  }

  void body(const Engines& e, uint64_t seed, ReaderStats& s) {
    Xoshiro256 rng(seed);
    uint64_t last[2] = {0, 0};
    const int64_t start = now_ns();
    try {
      for (uint64_t i = 0; !stop_.load(std::memory_order_relaxed); ++i) {
        const int64_t t0 = now_ns();
        bool ok = true;
        if (i % 2 == 0) {
          ok = read_once(e.mis_txn.read(), last[0], rng, i / 2, s, t0,
                         [](std::span<const uint8_t> in_set, uint64_t v) {
                           return in_set[v] <= 1;
                         });
        } else {
          ok = read_once(e.mm_txn.read(), last[1], rng, i / 2, s, t0,
                         [](std::span<const VertexId> partner, uint64_t v) {
                           const VertexId p = partner[v];
                           return p == kInvalidVertex ||
                                  (p < partner.size() && partner[p] == v);
                         });
        }
        s.total.add(now_ns() - t0);
        ++s.reads;
        s.failures += ok ? 0 : 1;
      }
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "reader failed: %s\n", ex.what());
      ++s.reads;
      ++s.failures;
    }
    s.seconds = static_cast<double>(now_ns() - start) * 1e-9;
  }

  std::atomic<bool> stop_{false};
  std::vector<ReaderStats> stats_;
  std::vector<std::thread> threads_;  // last: joined before stats_ dies
};

double us(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// `stat` of the self times (us) of the spans named `name`, taken per
/// engine (batch id % 2) and averaged over the two engines, so that each
/// engine weighs the same however far apart their latencies are.
template <typename Stat>
double engine_mean_us(const SpanRecorder& spans, const char* name,
                      Stat&& stat) {
  const std::vector<int64_t> self = spans.self_ns();
  std::vector<double> by_engine[2];
  for (std::size_t i = 0; i < self.size(); ++i) {
    const Span& s = spans.spans()[i];
    if (std::strcmp(s.name, name) == 0)
      by_engine[s.batch % 2].push_back(us(self[i]));
  }
  return (stat(by_engine[0]) + stat(by_engine[1])) / 2;
}

}  // namespace

DynamicConfig dynamic_small_config() {
  return {"dynamic_small", 0, 200'000, 1'000'000, 2, true, 1024, 990};
}

DynamicConfig dynamic_large_config() {
  return {"dynamic_large", 18, uint64_t{1} << 18, 1'000'000, 20'000, false,
          32, 750};
}

DynamicConfig dynamic_probe_config() {
  return {"dynamic_probe", 0, 20'000, 100'000, 2, true, 512, 990};
}

Report run_dynamic(const DynamicConfig& cfg, const RunOptions& opt) {
  Report report;
  SpanRecorder spans;
  ScopedNumWorkers workers(kEngineWorkers);

  // Set-up, several times: graph, engines (priorities and the initial
  // solutions), transactions, and a few warm-up transactions.
  std::unique_ptr<Engines> eng;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    eng.reset();
    const int64_t t0 = now_ns();
    spans.set_enabled(opt.trace);
    CsrGraph g = make_graph(cfg, opt.seed, spans);
    if (opt.trace) {
      ScopedSpan span(spans, "random.order", 0);
      (void)mis_source(opt.seed).vertex_order(g);
      (void)mm_source(opt.seed).edge_order(g);
    }
    spans.set_enabled(false);
    eng = std::make_unique<Engines>(std::move(g), opt.seed);
    for (int k = 0; k < kWarmupTxns; ++k) {
      run_txn(eng->mis_txn, eng->mis_stream, cfg.batch_ops, false, spans, 0);
      run_txn(eng->mm_txn, eng->mm_stream, cfg.batch_ops, false, spans, 0);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const uint64_t n = eng->mis.num_vertices();
  report.tally(2, (mis_matches_oracle(*eng) ? 0 : 1) +
                      (mm_matches_oracle(*eng) ? 0 : 1));

  // Transactions since the last oracle check, per engine. A check
  // validates all of them (an abort is validated by the state it left);
  // a failed check counts all of them as failed.
  uint64_t unchecked[2] = {0, 0};
  const auto check_engine = [&](int e) {
    const bool ok = e == 0 ? mis_matches_oracle(*eng) : mm_matches_oracle(*eng);
    const uint64_t ops = std::max<uint64_t>(unchecked[e], 1);
    report.tally(ops, ok ? 0 : ops);
    unchecked[e] = 0;
  };

  Readers readers(*eng, opt.seed, kReaders);

  // The stream. Engine e submits the transactions with id % 2 == e. In
  // the traced run every other pair of transactions is traced (their
  // ratio to the untraced ones is the tracing overhead); the last 30% of
  // the time alternates obs on and off.
  std::vector<double> visible_us[2][2];  // [engine][traced]
  std::vector<double> tax_us[2][2];      // [engine][obs on]: begin to commit
  BatchStats sum;
  uint64_t batches = 0, compactions = 0, committed_ops = 0;
  int64_t busy_ns = 0;
  uint64_t per_engine[2] = {0, 0};
  const bool obs_was = obs::enabled();
  const auto submit = [&](int e, bool abort, bool traced, uint64_t id) {
    spans.set_enabled(traced);
    const TxnResult r =
        e == 0 ? run_txn(eng->mis_txn, eng->mis_stream, cfg.batch_ops, abort,
                         spans, id)
               : run_txn(eng->mm_txn, eng->mm_stream, cfg.batch_ops, abort,
                         spans, id);
    spans.set_enabled(false);
    busy_ns += r.visible - r.begin;
    sum.accumulate(r.stats);
    ++batches;
    compactions += r.compacted ? 1 : 0;
    if (!abort) committed_ops += r.ops;
    if (++unchecked[e] >= cfg.check_every) check_engine(e);
    return r;
  };
  uint64_t k = 0;
  const auto next_abort = [&](int e) {
    return cfg.aborts && per_engine[e]++ % 4 == 3;
  };
  // Unmeasured: the readers, the allocator and the retained-version window
  // settle before the clock starts.
  for (const int64_t warm = now_ns(); now_ns() - warm < kSettleNs; ++k) {
    const int e = static_cast<int>(k % 2);
    submit(e, next_abort(e), false, k);
  }
  sum = BatchStats{};
  batches = compactions = committed_ops = 0;
  busy_ns = 0;

  const int64_t start = now_ns();
  const double stream_s = opt.trace ? 0.7 * opt.seconds : opt.seconds;
  for (; static_cast<double>(now_ns() - start) * 1e-9 < stream_s; ++k) {
    const int e = static_cast<int>(k % 2);
    const bool abort = next_abort(e);
    const bool traced = opt.trace && (k / 2) % 2 == 1;
    const TxnResult r = submit(e, abort, traced, k);
    if (!abort) visible_us[e][traced].push_back(us(r.visible - r.begin));
  }
  if (opt.trace) {
    for (int w = 0; w < 2 * kWhatIfs; ++w, ++k)
      submit(static_cast<int>(k % 2), /*abort=*/true, /*traced=*/true, k);
    const int64_t tax_start = now_ns();
    for (uint64_t j = 0;
         j < 8 || static_cast<double>(now_ns() - tax_start) * 1e-9 <
                      0.3 * opt.seconds;
         ++j, ++k) {
      const bool on = (j / 2) % 2 == 0;
      obs::set_enabled(on);
      const int e = static_cast<int>(k % 2);
      const TxnResult r = submit(e, false, false, k);
      tax_us[e][on].push_back(us(r.ended - r.begin));
    }
    obs::set_enabled(obs_was);
  }
  readers.stop();
  const ReaderStats rs = readers.merged();
  report.tally(rs.reads, rs.failures);
  check_engine(0);
  check_engine(1);

  // End-to-end metrics (the untraced transactions).
  const auto& mis_vis = visible_us[0][0];
  const auto& mm_vis = visible_us[1][0];
  report.set("setup_s", median(setup_s), "s");
  report.set("mis_visible_us_p50", percentile(mis_vis, 500), "us");
  report.set("mis_visible_us_tail", percentile(mis_vis, cfg.tail_q), "us");
  report.set("mm_visible_us_p50", percentile(mm_vis, 500), "us");
  report.set("mm_visible_us_tail", percentile(mm_vis, cfg.tail_q), "us");
  report.set("mis_ms_p50", percentile(mis_vis, 500) * 1e-3, "ms");
  report.set("mis_ms_tail", percentile(mis_vis, cfg.tail_q) * 1e-3, "ms");
  report.set("mm_ms_p50", percentile(mm_vis, 500) * 1e-3, "ms");
  report.set("mm_ms_tail", percentile(mm_vis, cfg.tail_q) * 1e-3, "ms");
  const double ops_per_s =
      static_cast<double>(committed_ops) / (static_cast<double>(busy_ns) * 1e-9);
  report.set("update_ops_per_s", ops_per_s, "1/s");
  report.set("ops_per_s", ops_per_s, "1/s");
  report.set("reads_per_s", readers.reads_per_s(), "1/s");
  report.set("read_us_tail", rs.total.percentile_ns(kReadTailQ) * 1e-3, "us");
  std::printf("# %s: %zu MIS and %zu MM commits untraced, tail %s (the tail "
              "rule allows %s); %llu reads, tail %s\n",
              cfg.name, mis_vis.size(), mm_vis.size(),
              percentile_label(cfg.tail_q).c_str(),
              percentile_label(tail_permille(mis_vis.size())).c_str(),
              static_cast<unsigned long long>(rs.reads),
              percentile_label(kReadTailQ).c_str());

  if (opt.trace) {
    const auto p50_ratio = [](const std::vector<double>& a,
                              const std::vector<double>& b) {
      return median(a) / median(b);
    };
    report.set("trace.overhead_ratio",
               (p50_ratio(visible_us[0][1], visible_us[0][0]) +
                p50_ratio(visible_us[1][1], visible_us[1][0])) /
                   2,
               "ratio");
    report.set("unattributed_frac", spans.unattributed_frac("batch"),
               "ratio");
    report.set("obs.tax_ratio",
               (p50_ratio(tax_us[0][1], tax_us[0][0]) +
                p50_ratio(tax_us[1][1], tax_us[1][0])) /
                   2,
               "ratio");

    const auto p50 = [](const std::vector<double>& v) { return median(v); };
    const auto tail = [](const std::vector<double>& v) { return rule_tail(v); };
    report.set("dynamic.apply_us_p50",
               engine_mean_us(spans, "dynamic.apply", p50), "us");
    report.set("dynamic.apply_us_tail",
               engine_mean_us(spans, "dynamic.apply", tail), "us");
    const double nb = static_cast<double>(batches);
    const double rounds = static_cast<double>(sum.rounds) / nb;
    report.set("dynamic.seeds", static_cast<double>(sum.seeds) / nb, "count");
    report.set("dynamic.rounds", rounds, "count");
    report.set("dynamic.rounds_per_log2n",
               rounds / std::log2(static_cast<double>(n)), "ratio");
    report.set("dynamic.recomputed", static_cast<double>(sum.recomputed) / nb,
               "count");
    report.set("dynamic.changed_per_recomputed",
               sum.recomputed == 0 ? 0.0
                                   : static_cast<double>(sum.changed) /
                                         static_cast<double>(sum.recomputed),
               "ratio");
    report.set("dynamic.compactions", static_cast<double>(compactions),
               "count");

    report.set("txn.begin_us", engine_mean_us(spans, "txn.begin", p50), "us");
    report.set("txn.commit_us_p50", engine_mean_us(spans, "txn.commit", p50),
               "us");
    report.set("txn.commit_us_tail", engine_mean_us(spans, "txn.commit", tail),
               "us");
    report.set("txn.abort_us", engine_mean_us(spans, "txn.abort", p50), "us");
    const auto retained = [](const auto& txn) {
      return static_cast<double>(txn.version() - txn.oldest_version() + 1);
    };
    report.set("txn.retained_mb",
               (retained(eng->mis_txn) * sizeof(uint8_t) +
                retained(eng->mm_txn) * sizeof(VertexId)) *
                   static_cast<double>(n) * 1e-6,
               "MB");
    report.set("txn.read_acquire_us", rs.acquire.percentile_ns(500) * 1e-3,
               "us");
    report.set("txn.read_verify_us", rs.verify.percentile_ns(500) * 1e-3,
               "us");
    report.set("txn.read_lookup_ns",
               static_cast<double>(rs.lookup_ns) /
                   static_cast<double>(rs.reads * kLookups),
               "ns");
    report.set("txn.reads_per_s", readers.reads_per_s(), "1/s");
    report.set("txn.read_us_tail", rs.total.percentile_ns(kReadTailQ) * 1e-3,
               "us");

    report.set("generators.edges_s",
               median(spans.self_of("generators.edges")) * 1e-9, "s");
    report.set("graph.from_edges_s",
               median(spans.self_of("graph.from_edges")) * 1e-9, "s");
    report.set("random.order_ms",
               median(spans.self_of("random.order")) * 1e-6, "ms");

    // Contenders: recomputing each engine's answer from scratch with the
    // static kernels, at the engines' worker count.
    {
      const CsrGraph h = eng->mis.active_subgraph();
      const VertexOrder pi = eng->mis_src.vertex_order(h);
      measure_mis_kernels(report, spans, h, pi, mis_sequential(h, pi).in_set,
                          /*time_prefix=*/true);
    }
    {
      const CsrGraph h = eng->mm.active_subgraph();
      const EdgeOrder pi = eng->mm_src.edge_order(h);
      measure_mm_kernels(report, spans, h, pi,
                         mm_sequential(h, pi).matched_with,
                         /*time_prefix=*/true);
    }
    measure_parallel(report);
    if (!opt.spans_out.empty() && !spans.write_json(opt.spans_out))
      std::fprintf(stderr, "cannot write %s\n", opt.spans_out.c_str());
  }
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  return report;
}

ReplayCounters replay_dynamic(const DynamicConfig& cfg, uint64_t seed,
                              uint64_t batches) {
  SpanRecorder spans;  // disabled
  ScopedNumWorkers workers(kEngineWorkers);
  Engines eng(make_graph(cfg, seed, spans), seed);
  ReplayCounters c;
  const auto fold = [&c](uint64_t x) { c.batch_fingerprint = mix64(c.batch_fingerprint ^ x); };
  const auto step = [&](auto& txn, BatchStream& stream) {
    const UpdateBatch batch = stream.next(cfg.batch_ops);
    for (const Edge& e : batch.inserts()) fold(edge_pair_key(e));
    for (const Edge& e : batch.deletes()) fold(~edge_pair_key(e));
    for (const Edge& e : batch.edge_reweights()) fold(edge_pair_key(e) + 1);
    for (VertexId v : batch.vertex_reweights()) fold(v);
    txn.begin();
    const BatchStats s = txn.apply(batch);
    txn.commit();
    stream.commit();
    c.recomputed += s.recomputed;
    c.rounds += s.rounds;
  };
  for (uint64_t b = 0; b < batches; ++b) {
    step(eng.mis_txn, eng.mis_stream);
    step(eng.mm_txn, eng.mm_stream);
  }
  return c;
}

}  // namespace perfbench

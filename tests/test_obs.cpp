// Unit tests for the observability layer (src/obs/): histogram bucket
// boundaries and percentile math, registry snapshot-under-mutation, span
// nesting and cross-thread merge in the flight-recorder ring, its Chrome
// trace dump, and both halves of the PARGREEDY_OBS
// seam (runtime switch here; the compile-time no-op TU is
// test_obs_disabled_seam.cpp, linked into this binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "dynamic/batch_stats.hpp"
#include "dynamic/dynamic_matching.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "dynamic/update_batch.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/prometheus.hpp"
#include "parallel/arch.hpp"
#include "txn/transaction.hpp"

namespace pargreedy::obs {

// Defined in test_obs_disabled_seam.cpp, compiled with PARGREEDY_OBS=0:
// fires PG_OBS_* macros that must all be no-ops.
void emit_disabled_seam_probes();

namespace {

// Tests of what the PG_OBS_* sites record. A -DPARGREEDY_OBS=OFF build
// compiles the sites to nothing, so it skips these; the registry and
// recorder tests below still run there, and ObsSeam checks the no-ops.
#define SKIP_IF_OBS_COMPILED_OUT() \
  if (!PARGREEDY_OBS) GTEST_SKIP() << "PARGREEDY_OBS=0 build"

uint64_t counter_value(const char* name) {
  return MetricsRegistry::global().counter_value(name);
}

TEST(ObsHistogram, BucketIndexBoundaries) {
  // Bucket 0 holds exactly the value 0; bucket i >= 1 holds
  // [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 1);
  EXPECT_EQ(Histogram::bucket_index(2), 2);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 3);
  EXPECT_EQ(Histogram::bucket_index(7), 3);
  EXPECT_EQ(Histogram::bucket_index(8), 4);
  EXPECT_EQ(Histogram::bucket_index((uint64_t{1} << 32) - 1), 32);
  EXPECT_EQ(Histogram::bucket_index(uint64_t{1} << 32), 33);
  EXPECT_EQ(Histogram::bucket_index(~uint64_t{0}), 64);
}

TEST(ObsHistogram, BucketUpperBoundaries) {
  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper(3), 7u);
  EXPECT_EQ(Histogram::bucket_upper(64), ~uint64_t{0});
  // Every value lands in the bucket whose range contains it.
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 5ull, 100ull, 4096ull}) {
    const int b = Histogram::bucket_index(v);
    EXPECT_LE(v, Histogram::bucket_upper(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, Histogram::bucket_upper(b - 1)) << v;
    }
  }
}

TEST(ObsHistogram, PercentileMath) {
  Histogram h;
  // 50 samples of 1 and 50 of 1000: the median rank falls in bucket 1
  // (upper 1), p95/p99 in 1000's bucket (bit_width 10, upper 1023).
  for (int i = 0; i < 50; ++i) h.record(1);
  for (int i = 0; i < 50; ++i) h.record(1000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 50u + 50u * 1000u);
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.p50, 1u);
  EXPECT_EQ(s.p95, 1023u);
  EXPECT_EQ(s.p99, 1023u);
  EXPECT_EQ(s.max, 1023u);
}

TEST(ObsHistogram, QuantileEdgeCases) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);  // empty
  h.record(0);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(1.0), 0u);
  h.record(6);  // bucket 3, upper 7
  EXPECT_EQ(h.quantile(0.25), 0u);   // rank 1 of 2 -> the zero sample
  EXPECT_EQ(h.quantile(1.0), 7u);    // rank 2 of 2 -> bucket 3
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0u);
}

TEST(ObsRegistry, CounterGaugeRoundTrip) {
  auto& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test.roundtrip.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(reg.counter_value("test.roundtrip.counter"), 42u);
  EXPECT_EQ(reg.counter_value("test.never.registered"), 0u);
  // Same name -> same object (reference stability is the hot-path
  // contract: call sites cache the reference in a static).
  EXPECT_EQ(&c, &reg.counter("test.roundtrip.counter"));
  Gauge& g = reg.gauge("test.roundtrip.gauge");
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
}

TEST(ObsRegistry, SnapshotUnderMutation) {
  auto& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test.mutation.counter");
  Histogram& h = reg.histogram("test.mutation.hist");
  std::atomic<bool> stop{false};
  // Writer hammers the metrics while the main thread snapshots: no
  // blocking, no torn registry state, and the counter value observed by
  // successive snapshots never decreases.
  // do-while: on a loaded single-core machine the main thread can finish
  // all its snapshots before the writer is first scheduled — at least one
  // record must land so the percentile check below has a sample.
  std::thread writer([&] {
    do {
      c.add();
      h.record(3);
    } while (!stop.load(std::memory_order_relaxed));
  });
  uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    const auto samples = reg.snapshot();
    uint64_t seen = 0;
    for (const auto& s : samples) {
      if (s.name == "test.mutation.counter") seen = s.counter;
    }
    EXPECT_GE(seen, last);
    last = seen;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(reg.counter_value("test.mutation.counter"), c.value());
  EXPECT_EQ(h.summary().p50, 3u);
}

TEST(ObsRegistry, JsonShape) {
  auto& reg = MetricsRegistry::global();
  reg.counter("test.json.counter").add(5);
  reg.histogram("test.json.hist").record(9);
  std::ostringstream out;
  reg.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ObsRuntime, SwitchGatesMacros) {
  SKIP_IF_OBS_COMPILED_OUT();
  set_enabled(true);
  PG_OBS_COUNT("test.runtime.gate", 1);
  const uint64_t after_on = counter_value("test.runtime.gate");
  EXPECT_EQ(after_on, 1u);
  set_enabled(false);
  PG_OBS_COUNT("test.runtime.gate", 1);
  PG_OBS_HIST("test.runtime.gate_hist", 10);
  EXPECT_EQ(counter_value("test.runtime.gate"), after_on);
  set_enabled(true);
  PG_OBS_COUNT("test.runtime.gate", 1);
  EXPECT_EQ(counter_value("test.runtime.gate"), after_on + 1);
}

// The (kind, phase, arg0, arg1) of every record, in merged order.
using Stream = std::vector<std::tuple<uint16_t, uint8_t, uint64_t, uint64_t>>;

Stream stream_of(const std::vector<EventRecord>& events) {
  Stream out;
  for (const EventRecord& e : events)
    out.emplace_back(e.kind, e.phase, e.arg0, e.arg1);
  return out;
}

std::tuple<uint16_t, uint8_t, uint64_t, uint64_t> entry(EventKind kind,
                                                        Phase phase,
                                                        uint64_t arg0 = 0,
                                                        uint64_t arg1 = 0) {
  return {static_cast<uint16_t>(kind), static_cast<uint8_t>(phase), arg0,
          arg1};
}

TEST(ObsTrace, SpanNestingAndThreadMerge) {
  SKIP_IF_OBS_COMPILED_OUT();
  set_enabled(true);
  auto& recorder = EventRecorder::global();
  recorder.clear();
  {
    PG_OBS_SPAN1(outer, kRepropagate, 3);
    {
      PG_OBS_SPAN2(inner, kDecide, 1, 12);
    }
    PG_OBS_SPAN_OUT1(outer, 2);
  }
  std::thread worker([] { PG_OBS_SPAN1(span, kExpand, 4); });
  worker.join();

  std::vector<EventRecord> mine, theirs;
  for (const EventRecord& e : recorder.merged())
    (e.kind == static_cast<uint16_t>(EventKind::kExpand) ? theirs : mine)
        .push_back(e);
  // RAII order with the args: begins carry inputs, the end the output.
  EXPECT_EQ(stream_of(mine),
            (Stream{entry(EventKind::kRepropagate, Phase::kBegin, 3),
                    entry(EventKind::kDecide, Phase::kBegin, 1, 12),
                    entry(EventKind::kDecide, Phase::kEnd),
                    entry(EventKind::kRepropagate, Phase::kEnd, 2)}));
  // The worker's span merged from its own ring, under its own tid.
  ASSERT_EQ(stream_of(theirs),
            (Stream{entry(EventKind::kExpand, Phase::kBegin, 4),
                    entry(EventKind::kExpand, Phase::kEnd)}));
  EXPECT_EQ(theirs[0].tid, theirs[1].tid);
  for (const EventRecord& e : mine) EXPECT_NE(e.tid, theirs[0].tid);
  std::ostringstream out;
  recorder.write_json(out);
  EXPECT_NE(out.str().find("{\"name\": \"expand\", \"ph\": \"B\", \"ts\": " +
                           std::to_string(theirs[0].ts_us) +
                           ", \"pid\": 1, \"tid\": " +
                           std::to_string(theirs[0].tid)),
            std::string::npos);
  recorder.clear();
}

TEST(ObsTrace, OrphanedEndIsDropped) {
  set_enabled(true);
  static EventRecorder recorder;  // static: thread ring caches outlive it
  recorder.clear();
  // The repropagate begin is overwritten by ring wrap-around before its
  // end is recorded; the decide pair inside the window survives whole,
  // and the commit span is still open at the dump.
  recorder.record(EventKind::kRepropagate, 5, 0, Phase::kBegin);
  for (std::size_t i = 0; i < EventRecorder::kRingCapacity; ++i)
    recorder.record(EventKind::kTxnEpochFail, i, 0);
  recorder.record(EventKind::kDecide, 1, 9, Phase::kBegin);
  recorder.record(EventKind::kDecide, 0, 0, Phase::kEnd);
  recorder.record(EventKind::kRepropagate, 2, 0, Phase::kEnd);
  recorder.record(EventKind::kCommit, 1, 3, Phase::kBegin);
  EXPECT_EQ(recorder.overwritten(), 5u);

  std::ostringstream out;
  recorder.write_json(out, "mid_span");
  const std::string json = out.str();
  EXPECT_EQ(json.find("\"repropagate\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"decide\", \"ph\": \"E\""),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"commit\", \"ph\": \"B\""),
            std::string::npos);
  std::size_t ends = 0;
  for (std::size_t at = json.find("\"ph\": \"E\""); at != std::string::npos;
       at = json.find("\"ph\": \"E\"", at + 1))
    ++ends;
  EXPECT_EQ(ends, 1u);
  recorder.clear();
}

TEST(ObsTrace, InactiveSpansRecordNothing) {
  SKIP_IF_OBS_COMPILED_OUT();
  auto& recorder = EventRecorder::global();
  recorder.clear();
  set_enabled(false);
  {
    PG_OBS_SPAN(span, kCompact);
    // Arming happens once, at the begin: a span opened while off records
    // no end either, so the stream never holds an unmatched end.
    set_enabled(true);
  }
  EXPECT_EQ(recorder.event_count(), 0u);
  {
    PG_OBS_SPAN(span, kCompact);
    set_enabled(false);
  }
  set_enabled(true);
  EXPECT_EQ(stream_of(recorder.merged()),
            (Stream{entry(EventKind::kCompact, Phase::kBegin),
                    entry(EventKind::kCompact, Phase::kEnd)}));
  recorder.clear();
}

TEST(ObsLabels, LabeledNameCanonicalForm) {
  EXPECT_EQ(labeled_name("shard.seeds", "shard", "3"),
            "shard.seeds{shard=\"3\"}");
  // Multi-label form sorts keys so equal label sets intern to one series.
  EXPECT_EQ(labeled_name("x", {{"b", "2"}, {"a", "1"}}),
            "x{a=\"1\",b=\"2\"}");
  // Label values are escaped so the canonical key (and the Prometheus
  // exposition derived from it) stays parseable.
  EXPECT_EQ(labeled_name("x", "k", "say \"hi\"\\"),
            "x{k=\"say \\\"hi\\\"\\\\\"}");
}

TEST(ObsLabels, SplitLabelsRoundTrip) {
  const auto [base, labels] = split_labels("shard.seeds{shard=\"3\"}");
  EXPECT_EQ(base, "shard.seeds");
  EXPECT_EQ(labels, "shard=\"3\"");
  const auto [plain_base, plain_labels] = split_labels("engine.rounds");
  EXPECT_EQ(plain_base, "engine.rounds");
  EXPECT_TRUE(plain_labels.empty());
}

TEST(ObsLabels, LabeledSeriesAreDistinctAndAdditive) {
  SKIP_IF_OBS_COMPILED_OUT();
  set_enabled(true);
  auto& reg = MetricsRegistry::global();
  // The macro contract: labeled bumps ride ALONGSIDE the unlabeled base
  // (call sites bump both), so the base total stays the cross-label sum.
  PG_OBS_COUNT("test.labels.total", 2);
  PG_OBS_COUNT_L("test.labels.total", "shard", "0", 1);
  PG_OBS_COUNT_L("test.labels.total", "shard", "1", 1);
  PG_OBS_COUNT_L("test.labels.total", "shard", "1", 0);  // registers only
  EXPECT_EQ(reg.counter_value("test.labels.total"), 2u);
  EXPECT_EQ(reg.counter_value("test.labels.total{shard=\"0\"}"), 1u);
  EXPECT_EQ(reg.counter_value("test.labels.total{shard=\"1\"}"), 1u);
  // Reference stability holds per label set, as for unlabeled series.
  EXPECT_EQ(&reg.counter("test.labels.total", "shard", "0"),
            &reg.counter("test.labels.total", "shard", "0"));
  EXPECT_NE(&reg.counter("test.labels.total", "shard", "0"),
            &reg.counter("test.labels.total", "shard", "1"));
}

TEST(ObsLabels, LabeledSnapshotUnderMutation) {
  auto& reg = MetricsRegistry::global();
  Counter& c0 = reg.counter("test.labels.mutation", "shard", "0");
  std::atomic<bool> stop{false};
  // Writer hammers one labeled series while the main thread snapshots
  // AND registers fresh labeled series: no blocking, no torn names, and
  // the labeled value observed by successive snapshots never decreases.
  std::thread writer([&] {
    do {
      c0.add();
    } while (!stop.load(std::memory_order_relaxed));
  });
  uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    reg.counter("test.labels.mutation", "shard", std::to_string(i % 4))
        .add(0);
    uint64_t seen = 0;
    for (const auto& s : reg.snapshot()) {
      if (s.name == "test.labels.mutation{shard=\"0\"}") seen = s.counter;
    }
    EXPECT_GE(seen, last);
    last = seen;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(reg.counter_value("test.labels.mutation{shard=\"0\"}"),
            c0.value());
}

TEST(ObsEvents, RingOverflowAccounting) {
  set_enabled(true);
  static EventRecorder rec;  // static: thread ring caches outlive the test
  constexpr std::size_t kOverflow = 37;
  for (std::size_t i = 0; i < EventRecorder::kRingCapacity + kOverflow; ++i)
    rec.record(EventKind::kTxnEpochFail, i, 0);
  EXPECT_EQ(rec.event_count(), EventRecorder::kRingCapacity);
  EXPECT_EQ(rec.overwritten(), kOverflow);
  const auto events = rec.merged();
  ASSERT_EQ(events.size(), EventRecorder::kRingCapacity);
  // Oldest retained record is the first survivor of the wrap-around;
  // newest is the last record ever made.
  EXPECT_EQ(events.front().arg0, kOverflow);
  EXPECT_EQ(events.back().arg0,
            EventRecorder::kRingCapacity + kOverflow - 1);
  rec.clear();
  EXPECT_EQ(rec.event_count(), 0u);
  EXPECT_EQ(rec.overwritten(), 0u);
}

TEST(ObsEvents, CorrelationScopesNestAndRestore) {
  set_enabled(true);
  static EventRecorder rec;
  rec.clear();
  {
    BatchScope outer;
    const uint64_t outer_id = current_batch_id();
    EXPECT_GT(outer_id, 0u);
    {
      // Inner scope inherits: a caller's batch scope keeps one
      // UpdateBatch a single batch_id across the engine apply it wraps.
      BatchScope inner;
      EXPECT_EQ(current_batch_id(), outer_id);
      TxnScope txn(42);
      rec.record(EventKind::kTxnEpochFail, 7, 0);
    }
    rec.record(EventKind::kDump, 0, 0);
  }
  EXPECT_EQ(current_batch_id(), 0u);
  const auto events = rec.merged();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_GT(events[0].batch_id, 0u);
  EXPECT_EQ(events[0].txn_id, 42u);
  // Scopes restored: the second record is back outside txn context but
  // still inside the batch.
  EXPECT_EQ(events[1].batch_id, events[0].batch_id);
  EXPECT_EQ(events[1].txn_id, 0u);
  rec.clear();
}

TEST(ObsEvents, JsonShape) {
  set_enabled(true);
  static EventRecorder rec;
  rec.clear();
  {
    TxnScope txn(5);
    rec.record(EventKind::kApplyBatch, 64, 0, Phase::kBegin);
    rec.record(EventKind::kApplyBatch, 2, 9, Phase::kEnd);
  }
  rec.record(EventKind::kTxnEpochFail, 3, 4);
  std::ostringstream out;
  rec.write_json(out, "unit_test");
  const std::string json = out.str();
  // A Chrome trace_event object: one traceEvents array, one event per
  // line, each with the B/E/i phase and its args named by the catalog
  // (a phase's unused payload words are left out).
  EXPECT_EQ(json.rfind("{\"schema\": \"pargreedy-events-v3\", "
                       "\"reason\": \"unit_test\", \"overwritten\": 0, "
                       "\"traceEvents\": [\n",
                       0),
            0u);
  EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
  const auto line = [](const char* name, char ph) {
    return std::string("{\"name\": \"") + name + "\", \"ph\": \"" + ph + "\"";
  };
  EXPECT_NE(json.find(line("apply_batch", 'B')), std::string::npos);
  EXPECT_NE(json.find(line("apply_batch", 'E')), std::string::npos);
  EXPECT_NE(json.find(line("txn.epoch_fail", 'i')), std::string::npos);
  EXPECT_NE(json.find("\"txn_id\": 5, \"batch_size\": 64}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"txn_id\": 5, \"rounds\": 2, \"changed\": 9}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"txn_id\": 0, \"seen\": 3, \"expected\": 4}}"),
            std::string::npos);
  rec.clear();
}

TEST(ObsEvents, MergedStreamIsDeterministicAcrossWorkers) {
  set_enabled(true);
  // The engine-facing determinism contract: the flight-recorder stream
  // for one deterministic workload — span kinds, phases and args — is
  // identical at any worker count (records carry deterministic
  // quantities from driver-synchronous code; merged() keeps per-ring
  // recording order).
  auto run = [](int workers) {
    ScopedNumWorkers guard(workers);
    EventRecorder::global().clear();
    UpdateBatch batch;
    batch.insert_edge(0, 255).insert_edge(17, 200).insert_edge(3, 128);
    batch.delete_edge(10, 11);
    DynamicMis dm(EngineOptions::seeded(
        CsrGraph::from_edges(path_graph(256)), 11));
    dm.apply_batch(batch);
    DynamicMatching mm(EngineOptions::seeded(
        CsrGraph::from_edges(path_graph(256)), 12));
    MatchingTransaction txn(mm);
    txn.begin();
    txn.apply(batch);
    txn.commit();
    return stream_of(EventRecorder::global().merged());
  };
  const Stream at1 = run(1);
  if (!PARGREEDY_OBS) {
    // Compiled out, the engines and the transaction record nothing.
    EXPECT_TRUE(at1.empty());
    return;
  }
  for (EventKind kind :
       {EventKind::kApplyBatch, EventKind::kRepropagate, EventKind::kDecide,
        EventKind::kCommit, EventKind::kExpand, EventKind::kTxnBegin,
        EventKind::kTxnApply, EventKind::kTxnCommit}) {
    for (Phase phase : {Phase::kBegin, Phase::kEnd}) {
      EXPECT_TRUE(std::any_of(at1.begin(), at1.end(), [&](const auto& r) {
        return std::get<0>(r) == static_cast<uint16_t>(kind) &&
               std::get<1>(r) == static_cast<uint8_t>(phase);
      })) << event_kind_name(kind) << " " << static_cast<char>(phase);
    }
  }
  EXPECT_EQ(run(2), at1);
  EXPECT_EQ(run(4), at1);
  EventRecorder::global().clear();
}

TEST(ObsHealth, DepthRatioIsPermilleOfLogN) {
  SKIP_IF_OBS_COMPILED_OUT();
  set_enabled(true);
  Gauge& ratio = MetricsRegistry::global().gauge(kReproDepthRatio);
  // The gauge scores a batch's rounds against the Theta(log n) depth of
  // arXiv:1707.05124: rounds * 1000 / bit_width(n), so 10 rounds at
  // n = 200k (bit_width 18) read 555 permille.
  BatchStats stats;
  stats.rounds = 10;
  obs_accumulate_batch(stats, nullptr, 200'000);
  EXPECT_EQ(ratio.value(), 555);
  stats.rounds = 11;
  obs_accumulate_batch(stats, nullptr, 1024);  // bit_width 11: at the bound
  EXPECT_EQ(ratio.value(), 1000);
  // A batch that repropagated nothing leaves the last reading in place.
  stats.rounds = 0;
  obs_accumulate_batch(stats, nullptr, 1024);
  EXPECT_EQ(ratio.value(), 1000);

  // End to end: an engine batch reports its own round count the same way.
  DynamicMis dm(EngineOptions::seeded(
      CsrGraph::from_edges(path_graph(4096)), 5));
  UpdateBatch batch;
  batch.insert_edge(0, 4095).insert_edge(100, 3000).delete_edge(10, 11);
  const BatchStats applied = dm.apply_batch(batch);
  ASSERT_GT(applied.rounds, 0u);
  const uint64_t log_n = 13;  // bit_width(4096)
  EXPECT_EQ(ratio.value(), static_cast<int64_t>(applied.rounds * 1000 / log_n));
}

TEST(ObsPrometheus, ExpositionShape) {
  set_enabled(true);
  auto& reg = MetricsRegistry::global();
  reg.counter("test.prom.counter").add(5);
  reg.counter("test.prom.counter", "shard", "0").add(2);
  reg.counter("test.prom.counter", "shard", "1").add(3);
  reg.gauge("test.prom.gauge").set(9);
  reg.histogram("test.prom.hist").record(100);
  std::ostringstream out;
  write_prometheus(out);
  const std::string text = out.str();
  // Names are sanitized ('.' is illegal) and namespaced; one TYPE line
  // heads the whole family, labeled variants ride under it.
  EXPECT_NE(text.find("# TYPE pargreedy_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("\npargreedy_test_prom_counter 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("pargreedy_test_prom_counter{shard=\"0\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("pargreedy_test_prom_counter{shard=\"1\"} 3"),
            std::string::npos);
  EXPECT_EQ(text.find("test.prom"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pargreedy_test_prom_gauge gauge"),
            std::string::npos);
  // Power-of-two histograms export as summaries: three quantiles plus
  // _sum and _count.
  EXPECT_NE(text.find("# TYPE pargreedy_test_prom_hist summary"),
            std::string::npos);
  for (const char* q : {"0.5", "0.95", "0.99"}) {
    EXPECT_NE(
        text.find("pargreedy_test_prom_hist{quantile=\"" + std::string(q)),
        std::string::npos)
        << q;
  }
  EXPECT_NE(text.find("pargreedy_test_prom_hist_sum 100"),
            std::string::npos);
  EXPECT_NE(text.find("pargreedy_test_prom_hist_count 1"),
            std::string::npos);
}

TEST(ObsSeam, CompiledOutTuIsNoOp) {
  set_enabled(true);
  // The probe TU was compiled with PARGREEDY_OBS=0: its PG_OBS_* macros
  // must have expanded to nothing, so none of its metric names exist and
  // it left no span or event in the ring.
  EventRecorder::global().clear();
  emit_disabled_seam_probes();
  EXPECT_EQ(EventRecorder::global().event_count(), 0u);
  auto& reg = MetricsRegistry::global();
  EXPECT_EQ(reg.counter_value("test.seam.counter"), 0u);
  bool hist_registered = false;
  for (const auto& s : reg.snapshot()) {
    if (s.name == "test.seam.hist") hist_registered = true;
  }
  EXPECT_FALSE(hist_registered);
}

}  // namespace
}  // namespace pargreedy::obs

// The benchmark's measurement vocabulary: sample statistics with the tail
// rule, a latency histogram for the high-rate reader path, the span
// recorder behind the traced run, and the Report every workload fills.
//
// Nothing here calls into the pargreedy library; the workloads do, and
// they time those calls from outside with the clock below.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since an arbitrary fixed origin (steady clock).
inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- stats ---

/// Percentiles are written in per mille: 500 is p50, 990 is p99, 999 is
/// p99.9, and taken by nearest rank.
///
/// The tail rule: the highest percentile on the ladder p99.9, p99, p90,
/// p75, p50 that still has at least 10 samples beyond it among `n`
/// samples; 0 when none has (fewer than 20 samples).
int tail_permille(std::size_t n);

/// Nearest-rank percentile of `samples` (any order); 0 when empty.
double percentile(std::vector<double> samples, int q);

/// `samples` at the percentile the tail rule picks for their count, or
/// the median when they are too few for any tail. Per-layer tails use
/// this; end-to-end tails use each workload's fixed percentile.
inline double rule_tail(const std::vector<double>& samples) {
  const int q = tail_permille(samples.size());
  return percentile(samples, q == 0 ? 500 : q);
}

/// "p99", "p99.9", ...
std::string percentile_label(int q);

/// Log-linear histogram of nanosecond latencies: exact below 64 ns, then
/// 64 sub-buckets per power of two (under 1.6% relative error). Used where
/// a run takes millions of samples (reads), so samples are not kept.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(int64_t ns);
  void merge(const LatencyHistogram& other);
  [[nodiscard]] uint64_t count() const { return count_; }
  /// Nearest-rank percentile in nanoseconds (bucket midpoint); 0 if empty.
  [[nodiscard]] double percentile_ns(int q) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

// ---------------------------------------------------------------- spans ---

/// One timed call into a layer. `name` is "<layer>.<what>" and points to
/// a string literal; spans of one batch share `batch`.
struct Span {
  const char* name;
  uint32_t parent;
  uint64_t batch;
  int64_t start_ns;
  int64_t end_ns;
};

/// Records spans in memory for the traced run. Single-threaded: only the
/// writer thread records. While disabled, open() and close() do nothing,
/// so the untraced batches of a traced run pay one branch per call site.
class SpanRecorder {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span whose parent is the innermost open span.
  uint32_t open(const char* name, uint64_t batch, int64_t t = now_ns());
  void close(uint32_t id, int64_t t = now_ns());

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the durations of its direct children.
  [[nodiscard]] std::vector<int64_t> self_ns() const;

  /// Self times (ns) of every span named `name`.
  [[nodiscard]] std::vector<double> self_of(const std::string& name) const;

  /// Over the root spans named `root`: the share of their total duration
  /// that no child span covers (the root's own self time).
  [[nodiscard]] double unattributed_frac(const std::string& root) const;

  /// Writes every span as one JSON array; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;  // stack of open span ids
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, uint64_t batch)
      : rec_(rec), id_(rec.enabled() ? rec.open(name, batch)
                                     : SpanRecorder::kNone) {}
  ~ScopedSpan() {
    if (id_ != SpanRecorder::kNone) rec_.close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  uint32_t id_;
};

// --------------------------------------------------------------- report ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one run measured: named metrics plus the correctness tally.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& metrics() const {
    return metrics_;
  }

  /// Counts `n` checked operations, `bad` of which failed their check.
  void tally(uint64_t n, uint64_t bad) {
    attempted_ += n;
    failed_ += bad;
  }
  [[nodiscard]] uint64_t attempted() const { return attempted_; }
  [[nodiscard]] uint64_t failed() const { return failed_; }
  [[nodiscard]] double failed_frac() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

  /// Copies every metric of `other` whose name starts with one of
  /// `prefixes`, and adds its tally.
  void absorb(const Report& other, const std::vector<std::string>& prefixes);

  /// One JSON object: correct, attempted, failed and every metric.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Shortest round-trip decimal rendering of `v`.
std::string format_number(double v);

/// Peak resident set size of this process in MB (getrusage); 0 if
/// unknown.
double peak_rss_mb();

}  // namespace perfbench

#include "report.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

namespace perfbench {

// ---------------------------------------------------------------- stats ---

namespace {

/// Nearest-rank index of percentile `q` among `n` >= 1 sorted samples.
std::size_t rank_index(std::size_t n, int q) {
  const std::size_t rank =
      (static_cast<std::size_t>(q) * n + 999) / 1000;  // ceil(q/1000 * n)
  return rank == 0 ? 0 : std::min(rank, n) - 1;
}

}  // namespace

int tail_permille(std::size_t n) {
  for (int q : {999, 990, 900, 750, 500}) {
    if (n > 0 && n - 1 - rank_index(n, q) >= 10) return q;
  }
  return 0;
}

double percentile(std::vector<double> samples, int q) {
  if (samples.empty()) return 0.0;
  const std::size_t k = rank_index(samples.size(), q);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

std::string percentile_label(int q) {
  char buf[16];
  if (q % 10 == 0) {
    std::snprintf(buf, sizeof(buf), "p%d", q / 10);
  } else {
    std::snprintf(buf, sizeof(buf), "p%d.%d", q / 10, q % 10);
  }
  return buf;
}

namespace {

constexpr int kSubBits = 6;
constexpr int kSub = 1 << kSubBits;
constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;

std::size_t bucket_of(uint64_t v) {
  if (v < kSub) return v;
  const int e = std::bit_width(v) - 1;  // >= kSubBits
  const uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
  return kSub + static_cast<std::size_t>(e - kSubBits) * kSub + sub;
}

double bucket_mid(std::size_t b) {
  if (b < kSub) return static_cast<double>(b);
  const std::size_t e = (b - kSub) / kSub + kSubBits;
  const uint64_t sub = (b - kSub) % kSub;
  const double lo = static_cast<double>((uint64_t{1} << e) |
                                        (sub << (e - kSubBits)));
  const double width = static_cast<double>(uint64_t{1} << (e - kSubBits));
  return lo + width / 2.0;
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

void LatencyHistogram::add(int64_t ns) {
  ++buckets_[bucket_of(ns < 0 ? 0 : static_cast<uint64_t>(ns))];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::percentile_ns(int q) const {
  if (count_ == 0) return 0.0;
  const uint64_t k = rank_index(count_, q);
  uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen > k) return bucket_mid(b);
  }
  return bucket_mid(kBuckets - 1);
}

// ---------------------------------------------------------------- spans ---

uint32_t SpanRecorder::open(const char* name, uint64_t batch, int64_t t) {
  if (!enabled_) return kNone;
  const uint32_t id = static_cast<uint32_t>(spans_.size());
  spans_.push_back({name, open_.empty() ? kNone : open_.back(), batch, t, t});
  open_.push_back(id);
  return id;
}

void SpanRecorder::close(uint32_t id, int64_t t) {
  if (id == kNone) return;
  spans_[id].end_ns = t;
  open_.pop_back();  // spans nest strictly: `id` is the innermost open one
}

std::vector<int64_t> SpanRecorder::self_ns() const {
  std::vector<int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const Span& s : spans_)
    if (s.parent != kNone) self[s.parent] -= s.end_ns - s.start_ns;
  return self;
}

std::vector<double> SpanRecorder::self_of(const std::string& name) const {
  const std::vector<int64_t> self = self_ns();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (name == spans_[i].name) out.push_back(static_cast<double>(self[i]));
  return out;
}

double SpanRecorder::unattributed_frac(const std::string& root) const {
  const std::vector<int64_t> self = self_ns();
  double total = 0, uncovered = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNone || root != spans_[i].name) continue;
    total += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    uncovered += static_cast<double>(self[i]);
  }
  return total > 0 ? uncovered / total : 0.0;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"parent\":"
        << (s.parent == kNone ? std::string("null")
                              : std::to_string(s.parent))
        << ",\"batch\":" << s.batch << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

// --------------------------------------------------------------- report ---

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

void Report::absorb(const Report& other,
                    const std::vector<std::string>& prefixes) {
  for (const Metric& m : other.metrics_)
    for (const std::string& p : prefixes)
      if (m.name.rfind(p, 0) == 0) {
        set(m.name, m.value, m.unit);
        break;
      }
  tally(other.attempted_, other.failed_);
}

std::string format_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Report::to_json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics_[i].name
        << "\": {\"value\": " << format_number(metrics_[i].value)
        << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MB
}

}  // namespace perfbench

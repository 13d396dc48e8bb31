// Flight recorder: an always-on, lock-free per-thread ring of fixed-size
// structured event records — the one event store of the obs layer.
//
// Metrics (obs/metrics.hpp) answer "how much"; the flight recorder
// answers "when, how long, and what happened just before", all the
// time: every instrumented site drops 48-byte records (timestamp,
// thread, kind, phase, correlation ids, two payload words) into its
// thread's fixed-capacity ring, newest overwriting oldest, so the last
// ~8k events per thread are always available for a merged dump — on
// demand (`dynamic_service stats --events-out`, bench capture) or
// automatically on failure paths (the transaction epoch guard) via
// dump_failure() when PARGREEDY_EVENTS_DIR is set.
//
// Two record shapes share the ring. A SPAN (PG_OBS_SPAN*, SpanScope
// below) is a begin record at scope entry carrying the scope's input
// args and an end record at scope exit carrying its outputs; an
// INSTANT (PG_OBS_EVENT*) is one record. Spans are begin/end pairs, not
// one record written at close: a record stamped with its start time but
// written later would be re-ordered by merged()'s timestamp sort, and
// the merged stream would stop being identical across worker counts.
// The dump is Chrome trace_event JSON (ph B/E/i), so an EVENTS_*.json
// file opens directly in https://ui.perfetto.dev.
//
// Cost contract: a record is a handful of plain stores into memory only
// the owning thread writes, published by ONE relaxed store of the ring's
// sequence counter. No locks, no allocation after the ring exists, no
// branches beyond the obs::enabled() check the PG_OBS_* macros
// (obs/obs.hpp) already do. Events observe, never steer: nothing here
// feeds back into algorithm state.
//
// Correlation: records carry (batch_id, txn_id) read from a thread-local
// context maintained by the RAII scopes below (PG_OBS_BATCH_SCOPE /
// PG_OBS_TXN_SCOPE). BatchScope assigns a fresh process-unique id only
// when none is open, so a nested scope inherits the outer id — one
// UpdateBatch is one batch_id from begin to end, which is what makes a
// dump followable.
//
// Merge contract: merged()/write_json()/clear() assume quiescence — no
// thread recording concurrently. Failure dumps from a throwing driver
// thread satisfy this in practice (workers only record inside
// driver-synchronous regions); a dump racing a recorder would at worst
// read one torn record, never corrupt the rings.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/runtime.hpp"

namespace pargreedy::obs {

/// What happened. Names (event_kind_name) are the strings the JSON dump
/// and scripts/validate_events_json.py agree on; the args each kind
/// carries are named in events.cpp's catalog.
enum class EventKind : uint16_t {
  // Spans — begin args; end args after the semicolon:
  kApplyBatch = 0,  ///< engine apply_batch (batch_size; rounds, changed)
  kRepropagate,     ///< a batch's repropagation (seeds; rounds)
  kDecide,          ///< one round's decide phase (round, frontier)
  kCommit,          ///< one round's commit phase (round, flipped)
  kExpand,          ///< one round's expand phase (round; next_frontier)
  kCompact,         ///< overlay compaction (live_edges, extra)
  kTxnBegin,        ///< Transaction::begin
  kTxnApply,        ///< Transaction::apply (batch_size)
  kTxnRollbackTo,   ///< Transaction::rollback_to
  kTxnCommit,       ///< Transaction::commit (journal_records)
  kTxnAbort,        ///< Transaction abort (journal_records, explicit)
  // Instants:
  kTxnEpochFail,    ///< epoch guard tripped (seen, expected)
  kDump,            ///< a failure dump was requested (marks the dump point)
  kKindCount,       ///< sentinel — not a recordable kind
};

/// A record's place in its span: Chrome's phase letters.
enum class Phase : uint8_t { kInstant = 'i', kBegin = 'B', kEnd = 'E' };

/// The name of `kind` ("apply_batch", "txn.commit", ...).
const char* event_kind_name(EventKind kind) noexcept;

/// One fixed-size flight-recorder record (48 bytes: 45 of fields, padded
/// to the 8-byte alignment).
struct EventRecord {
  uint64_t ts_us = 0;           ///< micros_since_origin() at record time
  uint64_t batch_id = 0;        ///< correlation: 0 = outside any batch
  uint64_t txn_id = 0;          ///< correlation: 0 = outside any transaction
  uint64_t arg0 = 0;            ///< kind-specific payload (see EventKind)
  uint64_t arg1 = 0;            ///< kind-specific payload
  uint16_t kind = 0;            ///< EventKind
  uint16_t tid = 0;             ///< recorder-assigned thread index
  uint8_t phase = 'i';          ///< Phase
};
static_assert(sizeof(EventRecord) == 48);

namespace detail {

/// The calling thread's correlation context (maintained by the scopes).
struct Correlation {
  uint64_t batch_id = 0;
  uint64_t txn_id = 0;
};
Correlation& correlation() noexcept;

/// Next process-unique batch id (first call returns 1).
uint64_t next_batch_id() noexcept;

}  // namespace detail

/// The batch id of the innermost open BatchScope on this thread (0 when
/// none).
inline uint64_t current_batch_id() noexcept {
  return detail::correlation().batch_id;
}

/// Opens a batch correlation scope: assigns a fresh process-unique
/// batch_id only when the thread has none open, so nested scopes inherit
/// the outermost id.
class BatchScope {
 public:
  BatchScope() noexcept {
    auto& c = detail::correlation();
    if (c.batch_id == 0 && enabled()) {
      c.batch_id = detail::next_batch_id();
      owned_ = true;
    }
  }
  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;
  ~BatchScope() {
    if (owned_) detail::correlation().batch_id = 0;
  }

 private:
  bool owned_ = false;
};

/// Sets the thread's txn correlation id for the scope (restores on exit).
class TxnScope {
 public:
  explicit TxnScope(uint64_t txn_id) noexcept
      : prev_(detail::correlation().txn_id) {
    detail::correlation().txn_id = txn_id;
  }
  TxnScope(const TxnScope&) = delete;
  TxnScope& operator=(const TxnScope&) = delete;
  ~TxnScope() { detail::correlation().txn_id = prev_; }

 private:
  uint64_t prev_;
};

/// Owns the per-thread rings and the merge/export path. record() is the
/// hot path; everything else assumes quiescence (see file comment).
class EventRecorder {
 public:
  /// Slots per recording thread (power of two; ~384 KiB/thread). With the
  /// repo's typical 1–8 recording threads the recorder retains the last
  /// ~8k–64k events process-wide.
  static constexpr std::size_t kRingCapacity = std::size_t{1} << 13;

  /// Records one event into the calling thread's ring: plain stores into
  /// owner-written memory + one relaxed publication store. Correlation
  /// ids and timestamp are filled in here.
  void record(EventKind kind, uint64_t arg0 = 0, uint64_t arg1 = 0,
              Phase phase = Phase::kInstant) noexcept;

  /// Every retained record across threads, oldest first (stable-sorted by
  /// timestamp, so one thread's records keep their recording order).
  [[nodiscard]] std::vector<EventRecord> merged() const;

  /// Retained records across threads (= min(recorded, capacity) per ring).
  [[nodiscard]] std::size_t event_count() const;

  /// Records lost to ring wrap-around across threads — the drop
  /// accounting: per ring, recorded-ever minus retained.
  [[nodiscard]] uint64_t overwritten() const;

  /// Forgets all retained records (threads keep their rings).
  void clear();

  /// merged() as one Chrome trace_event JSON object:
  /// {"schema": "pargreedy-events-v3", "reason": ..., "overwritten": N,
  ///  "traceEvents": [{"name", "ph": B|E|i, "ts", "pid", "tid",
  ///  "args": {"batch_id", "txn_id", <the kind's named args>}}, ...]} —
  /// the shape scripts/validate_events_json.py checks. An end record
  /// whose begin was lost to ring wrap-around is dropped, so every end
  /// closes a begin on its thread; begins still open are kept (a failure
  /// dump happens mid-span).
  void write_json(std::ostream& out,
                  const std::string& reason = "on_demand") const;

  /// write_json() to `path` via temp file + rename, so a reader never
  /// sees a torn file. False on I/O failure.
  bool write_file(const std::string& path,
                  const std::string& reason = "on_demand") const;

  /// The failure-path dump: when PARGREEDY_EVENTS_DIR is set, records a
  /// kDump marker and writes EVENTS_failure_<reason>.json there; no-op
  /// (false) otherwise. Never throws — safe to call while unwinding.
  /// `reason` must be filename-safe ([a-z0-9_]).
  bool dump_failure(const char* reason) noexcept;

  /// The process-wide recorder every PG_OBS_EVENT* / PG_OBS_SPAN*
  /// records into.
  static EventRecorder& global();

 private:
  struct Ring {
    std::vector<EventRecord> slots;  // capacity kRingCapacity, owner-written
    std::atomic<uint64_t> seq{0};    // records ever; published after the slot
    uint16_t tid = 0;
  };

  // The calling thread's ring, registering it on first call.
  Ring& thread_ring();

  // Guards registration and merge iteration only; recording threads
  // touch their own ring without it.
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

/// What PG_OBS_EVENT* expands to: one relaxed load when the runtime
/// switch is off, one ring record when on.
inline void record_event(EventKind kind, uint64_t arg0 = 0,
                         uint64_t arg1 = 0) noexcept {
  if (enabled()) EventRecorder::global().record(kind, arg0, arg1);
}

/// What PG_OBS_SPAN* expands to: a begin record now (the scope's input
/// args) and an end record at scope exit (the outputs set_out() left).
/// Armed once, at construction, so the pair stays balanced even if the
/// runtime switch flips inside the scope.
class SpanScope {
 public:
  explicit SpanScope(EventKind kind, uint64_t arg0 = 0,
                     uint64_t arg1 = 0) noexcept
      : kind_(kind), armed_(enabled()) {
    if (armed_)
      EventRecorder::global().record(kind, arg0, arg1, Phase::kBegin);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (armed_)
      EventRecorder::global().record(kind_, out_[0], out_[1], Phase::kEnd);
  }

  /// The args the end record carries (outputs measured inside the scope).
  void set_out(uint64_t arg0, uint64_t arg1 = 0) noexcept {
    out_[0] = arg0;
    out_[1] = arg1;
  }

 private:
  EventKind kind_;
  bool armed_;
  uint64_t out_[2] = {0, 0};
};

}  // namespace pargreedy::obs

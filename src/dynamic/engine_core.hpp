// DynamicEngine<Derived>: the one core both batch-dynamic engines are
// built on.
//
// DynamicMis and DynamicMatching run one rule — an item is IN iff none of
// its earlier-ranked dependencies is IN (repropagate.hpp) — over one set
// of machinery: an OverlayGraph, vertex activity, cached priority keys
// (KeyCache), an epoch stamp, lifetime stats, auto-compaction and the
// transactional undo seam. That machinery lives here, once. An engine
// derives from it (CRTP, no virtual dispatch) and supplies what is its
// own: decide(), earlier()'s final tie-break, successors, and the hooks
//
//   apply_updates(batch, stats)  structural application, batch seeding
//                                and the repropagate() call; apply_batch
//                                wraps it in the role scope, span, range
//                                check, compaction, epoch bump and stats
//                                accumulation;
//   undo_decision(item, value)   replays one journaled solution flip;
//   kName                        the `engine` label of its obs series;
//
// and, where the defaults below do not fit, undo_growth(old_size) (the
// default rejects the record: only matching grows per-slot state),
// keys_restored() (runs after a rollback restored cached keys), and
// before_compact() / after_compact(carried), which bracket
// OverlayGraph::compact() (matching re-keys its per-slot state there).
//
// Hooks are called as static_cast<Derived&>(*this).hook(): clang's
// -Wthread-safety sees through the cast, so a hook's
// REQUIRES(writer_role_) names the role held here.
//
// Concurrency contract (machine-checked): one writer, many readers. The
// mutators require the engine's `writer_role_` capability; the const
// queries are reader-safe between writer calls. The core acquires the
// OverlayGraph's writer role inside each mutator. See
// support/thread_annotations.hpp and docs/STATIC_ANALYSIS.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/priority/priority_source.hpp"
#include "dynamic/batch_stats.hpp"
#include "dynamic/overlay_graph.hpp"
#include "dynamic/undo_log.hpp"
#include "dynamic/update_batch.hpp"
#include "graph/csr_graph.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "support/check.hpp"
#include "support/thread_annotations.hpp"

namespace pargreedy {

/// Per-item cached priority keys (items are vertices for DynamicMis, edge
/// slots for DynamicMatching) — the words earlier() compares. The
/// secondary word is stored and compared only for two-word policies
/// (PrioritySource::has_secondary_word()).
class KeyCache {
 public:
  /// Sizes the cache to `n` items and sets entry i to key_of(i), in
  /// parallel.
  template <typename KeyOf>
  void fill(std::size_t n, bool two_words, KeyOf&& key_of) {
    two_words_ = two_words;
    primary_.resize(n);
    secondary_.resize(two_words ? n : 0);
    parallel_for(0, static_cast<int64_t>(n), [&](int64_t i) {
      set(static_cast<std::size_t>(i), key_of(static_cast<std::size_t>(i)));
    });
  }

  [[nodiscard]] std::size_t size() const noexcept { return primary_.size(); }

  /// Grows (new entries hold the zero key) or shrinks to `n` items.
  void resize(std::size_t n) {
    primary_.resize(n);
    if (two_words_) secondary_.resize(n);
  }

  [[nodiscard]] PriorityKey operator[](std::size_t i) const {
    return {primary_[i], two_words_ ? secondary_[i] : 0};
  }

  void set(std::size_t i, const PriorityKey& k) {
    primary_[i] = k.primary;
    if (two_words_) secondary_[i] = k.secondary;
  }

  /// True iff item a strictly precedes item b; `tie()` decides equal
  /// keys (the engine's id tie-break).
  template <typename TieBreak>
  [[nodiscard]] bool earlier(std::size_t a, std::size_t b,
                             TieBreak&& tie) const {
    if (primary_[a] != primary_[b]) return primary_[a] < primary_[b];
    if (two_words_ && secondary_[a] != secondary_[b])
      return secondary_[a] < secondary_[b];
    return tie();
  }

 private:
  bool two_words_ = false;
  std::vector<uint64_t> primary_;
  std::vector<uint64_t> secondary_;  // empty for single-word policies
};

/// The shared state and seams of the dynamic engines (see file comment).
template <typename Derived>
class DynamicEngine {
 public:
  /// The engine's single-writer capability: every mutator requires it
  /// exclusively (zero-cost; see support/thread_annotations.hpp). The
  /// thread driving updates acquires it (support::RoleScope) around its
  /// writer calls; under clang -Wthread-safety an unheld mutator call is
  /// a compile error.
  support::Role writer_role_;

  [[nodiscard]] uint64_t num_vertices() const noexcept {
    return graph_.num_vertices();
  }
  [[nodiscard]] uint64_t num_edges() const noexcept {
    return graph_.num_live_edges();
  }

  /// True iff v is currently part of the graph.
  [[nodiscard]] bool active(VertexId v) const noexcept {
    return active_[v] != 0;
  }

  /// Monotonic engine-state stamp: bumped by every apply_batch and
  /// compaction, restored by txn_rollback. Equal epochs on one engine
  /// mean no mutation happened in between — the staleness guard behind
  /// the transaction layer's versioned reads.
  [[nodiscard]] uint64_t epoch() const noexcept { return epoch_; }

  /// Counters accumulated over every apply_batch since construction
  /// (part of the transactional checkpoint: restored on rollback).
  [[nodiscard]] const BatchStats& lifetime_stats() const noexcept {
    return lifetime_stats_;
  }

  /// The policy the priorities derive from.
  [[nodiscard]] const PrioritySource& priority_source() const noexcept {
    return source_;
  }

  /// The live graph including edges at inactive vertices (overlay state).
  [[nodiscard]] const OverlayGraph& graph() const { return graph_; }

  /// The oracle's view: live edges with both endpoints active, over the
  /// full vertex universe (inactive vertices become isolated).
  [[nodiscard]] CsrGraph active_subgraph() const {
    return graph_.active_subgraph(active_);
  }

  /// Applies a batch (see UpdateBatch for intra-batch semantics) and
  /// repropagates to the new greedy fixpoint. Returns touch counters.
  BatchStats apply_batch(const UpdateBatch& batch)
      PARGREEDY_REQUIRES(writer_role_) {
    // The engine is the overlay's writer for the scope of this batch.
    support::RoleScope overlay_writer(graph_.writer_role_);
    PG_OBS_BATCH_SCOPE(corr_batch);  // fresh batch_id, or the caller's
    PG_OBS_SPAN1(span_batch, kApplyBatch, batch.size());
    const uint64_t n = num_vertices();
    PG_CHECK_MSG(batch.endpoints_in_range(n), "batch references vertex >= n");
    BatchStats stats;
    static_cast<Derived&>(*this).apply_updates(batch, stats);
    if (compact_if_needed_impl()) stats.compacted = true;
    ++epoch_;
    lifetime_stats_.accumulate(stats);
    obs_accumulate_batch(stats, Derived::kName, n);
    PG_OBS_SPAN_OUT2(span_batch, stats.rounds, stats.changed);
    return stats;
  }

  /// Overlay fraction above which apply_batch folds the deltas back into
  /// the base CSR. <= 0 disables auto-compaction. Default 0.5.
  void set_compaction_threshold(double fraction)
      PARGREEDY_REQUIRES(writer_role_) {
    compact_threshold_ = fraction;
  }

  /// Forces compaction now. Checked: forbidden while a transaction
  /// journal is attached (compaction has no cheap inverse).
  void compact() PARGREEDY_REQUIRES(writer_role_) {
    support::RoleScope overlay_writer(graph_.writer_role_);
    compact_impl();
  }

  /// Runs the auto-compaction check apply_batch normally runs (skipped
  /// while a journal is attached); returns true iff it compacted. The
  /// transaction layer calls this after detaching at commit.
  bool compact_if_needed() PARGREEDY_REQUIRES(writer_role_) {
    support::RoleScope overlay_writer(graph_.writer_role_);
    return compact_if_needed_impl();
  }

  // Transactional seams — called by txn::Transaction (see
  // src/txn/transaction.hpp); not part of the everyday API.

  /// Attaches the undo journal: subsequent mutations append inverse
  /// records and auto-compaction is deferred. Checked: not null, not
  /// already attached. The journal must outlive the attachment.
  void txn_attach(TxnJournal* txn) PARGREEDY_REQUIRES(writer_role_) {
    support::RoleScope overlay_writer(graph_.writer_role_);
    PG_CHECK_MSG(txn != nullptr, "txn_attach(nullptr)");
    PG_CHECK_MSG(txn_ == nullptr, "a transaction journal is already attached");
    txn_ = txn;
    graph_.set_journal(&txn->overlay);
  }

  /// Detaches the journal (records are NOT replayed — commit path).
  /// Checked: a journal is attached.
  void txn_detach() PARGREEDY_REQUIRES(writer_role_) {
    support::RoleScope overlay_writer(graph_.writer_role_);
    PG_CHECK_MSG(txn_ != nullptr, "no transaction journal attached");
    txn_ = nullptr;
    graph_.set_journal(nullptr);
  }

  /// O(1) checkpoint of the current state: journal watermarks + scalar
  /// stamps. Checked: a journal is attached. Writer-side (it reads the
  /// journal attachment), hence the capability requirement.
  [[nodiscard]] TxnMark txn_mark() const PARGREEDY_REQUIRES(writer_role_) {
    PG_CHECK_MSG(txn_ != nullptr, "txn_mark requires an attached journal");
    return {txn_->engine.size(), txn_->overlay.size(), graph_.epoch(), epoch_,
            lifetime_stats_};
  }

  /// Replays both journals newest-first down to `mark`, restoring the
  /// engine bit-exactly to the checkpointed state (solution, activity,
  /// cached keys, per-slot state, overlay, epochs, lifetime stats).
  /// Checked: a journal is attached and holds the mark.
  void txn_rollback(const TxnMark& mark) PARGREEDY_REQUIRES(writer_role_) {
    support::RoleScope overlay_writer(graph_.writer_role_);
    PG_CHECK_MSG(txn_ != nullptr, "txn_rollback requires an attached journal");
    const EngineJournal& ej = txn_->engine;
    PG_CHECK_MSG(mark.engine_records <= ej.size(),
                 "engine undo mark beyond journal size");
    bool restored_keys = false;
    for (std::size_t i = ej.size(); i-- > mark.engine_records;) {
      const EngineUndoRecord& r = ej[i];
      switch (r.kind) {
        case EngineUndoRecord::Kind::kDecision:
          // Newest-first replay: the stored bit is the flip's old value.
          static_cast<Derived&>(*this).undo_decision(r.item, r.flag != 0);
          break;
        case EngineUndoRecord::Kind::kActive:
          active_[r.item] = r.flag;
          break;
        case EngineUndoRecord::Kind::kKey:
          // Key records of slots appended after a growth record replay
          // before it truncates them away: the write hits a live entry.
          keys_.set(r.item, {r.old_a, r.old_b});
          restored_keys = true;
          break;
        case EngineUndoRecord::Kind::kGrowth:
          static_cast<Derived&>(*this).undo_growth(r.item);
          break;
      }
    }
    txn_->engine.truncate(mark.engine_records);
    if (restored_keys) static_cast<Derived&>(*this).keys_restored();
    graph_.undo_to(mark.overlay_records, mark.overlay_epoch);
    epoch_ = mark.engine_epoch;
    lifetime_stats_ = mark.lifetime;
  }

 protected:
  explicit DynamicEngine(PrioritySource source)
      : source_(std::move(source)) {}

  /// Takes ownership of the starting graph with every vertex active.
  void adopt(CsrGraph base) {
    active_.assign(base.num_vertices(), 1);
    graph_ = OverlayGraph(std::move(base));
  }

  /// The attached engine journal, or nullptr outside transactions.
  [[nodiscard]] EngineJournal* journal() const
      PARGREEDY_REQUIRES(writer_role_) {
    return txn_ != nullptr ? &txn_->engine : nullptr;
  }

  /// Sets v's activity to `value`, journaling the old bit; false (and
  /// nothing journaled) when v already has it.
  bool set_active(VertexId v, bool value) PARGREEDY_REQUIRES(writer_role_) {
    if ((active_[v] != 0) == value) return false;
    if (txn_ != nullptr) txn_->engine.record_active(v, !value);
    active_[v] = value ? 1 : 0;
    return true;
  }

  /// Stores item i's recomputed key, journaling the old one; false (and
  /// nothing stored or journaled) when the key did not change — e.g. a
  /// reweight under random_hash, whose keys ignore weights.
  bool store_key(std::size_t i, const PriorityKey& k)
      PARGREEDY_REQUIRES(writer_role_) {
    const PriorityKey old = keys_[i];
    if (old == k) return false;
    if (txn_ != nullptr) txn_->engine.record_key(i, old.primary, old.secondary);
    keys_.set(i, k);
    return true;
  }

  // Default hooks (see file comment); an engine hides the ones it needs.
  struct NothingCarried {};
  void undo_growth(std::size_t /*old_size*/) {
    PG_CHECK_MSG(false, "growth record in a vertex-keyed engine");
  }
  void keys_restored() {}
  NothingCarried before_compact() const { return {}; }
  void after_compact(NothingCarried) {}

  OverlayGraph graph_;
  PrioritySource source_;
  KeyCache keys_;
  std::vector<uint8_t> active_;

 private:
  /// Compaction bodies shared by compact()/compact_if_needed()/
  /// apply_batch; require both the engine's and the overlay's writer role
  /// (the public entries acquire the overlay's).
  void compact_impl() PARGREEDY_REQUIRES(writer_role_, graph_.writer_role_) {
    auto carried = static_cast<Derived&>(*this).before_compact();
    graph_.compact();  // checks no journal is attached
    ++epoch_;
    static_cast<Derived&>(*this).after_compact(std::move(carried));
  }

  bool compact_if_needed_impl()
      PARGREEDY_REQUIRES(writer_role_, graph_.writer_role_) {
    // Deferred while a journal is attached: compaction has no cheap
    // inverse, so transactions compact at commit, after detaching.
    if (txn_ != nullptr || compact_threshold_ <= 0 ||
        graph_.overlay_fraction() <= compact_threshold_)
      return false;
    compact_impl();
    return true;
  }

  double compact_threshold_ = 0.5;
  uint64_t epoch_ = 0;         // bumped per apply_batch/compact;
                               // restored by txn_rollback
  BatchStats lifetime_stats_;  // accumulated over apply_batch calls
  // Attached transaction journal (not owned); nullptr outside
  // transactions. Pointer and pointee are writer-role state: only held
  // code reads the attachment or appends records.
  TxnJournal* txn_ PARGREEDY_GUARDED_BY(writer_role_)
      PARGREEDY_PT_GUARDED_BY(writer_role_) = nullptr;
};

}  // namespace pargreedy

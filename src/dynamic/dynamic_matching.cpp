#include "dynamic/dynamic_matching.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "core/matching/matching.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "support/check.hpp"

namespace pargreedy {

// Adapter between DynamicMatching state and the repropagation rounds.
struct MmReproEngine {
  DynamicMatching& dm;

  [[nodiscard]] bool decide(EdgeSlot s) const { return dm.decide(s); }
  [[nodiscard]] bool current(EdgeSlot s) const { return dm.in_m_[s] != 0; }
  void commit(EdgeSlot s, bool value) const { dm.set_in_m(s, value); }
  void append_successors(EdgeSlot s, std::vector<EdgeSlot>& out) const {
    // Reads the post-commit state. A slot that left frees every later
    // incident slot, so all of them are re-examined. A slot that joined
    // blocks them: a later one that is OUT is already consistent, so only
    // the later ones still IN are — and there are none at an endpoint
    // whose only IN slot is s.
    const bool joined = dm.in_m_[s] != 0;
    const Edge e = dm.graph_.slot_edge(s);
    for (VertexId w : {e.u, e.v}) {
      if (joined && dm.in_cnt_[w] == 1) continue;
      dm.graph_.for_incident(w, [&](VertexId x, EdgeSlot t) {
        if (t != s && (joined ? dm.in_m_[t] != 0 : dm.active_[x] != 0) &&
            dm.earlier(s, t))
          out.push_back(t);
      });
    }
  }
};

DynamicMatching::DynamicMatching(EngineOptions options)
    : DynamicEngine(std::move(options.source)) {
  const CsrGraph& base = options.graph;
  keys_.fill(base.num_edges(), source_.has_secondary_word(),
             [&](std::size_t e) {
               return source_.edge_key(
                   base.edge(static_cast<EdgeId>(e)),
                   base.edge_weight(static_cast<EdgeId>(e)));
             });
  in_m_ = mm_rootset(base, edge_order_for(base)).in_matching;
  in_m_.resize(base.num_edges(), 0);  // stays sized to slot_bound
  adopt(std::move(options.graph));
  rebuild_index();
}

EdgeOrder DynamicMatching::edge_order_for(const CsrGraph& g) const {
  return source_.edge_order(g);
}

bool DynamicMatching::slot_in_graph(EdgeSlot s) const {
  if (!graph_.slot_live(s)) return false;
  const Edge e = graph_.slot_edge(s);
  return active_[e.u] && active_[e.v];
}

bool DynamicMatching::earlier(EdgeSlot s, EdgeSlot t) const {
  return keys_.earlier(s, t, [&] {
    return edge_pair_key(graph_.slot_edge(s)) <
           edge_pair_key(graph_.slot_edge(t));
  });
}

bool DynamicMatching::decide(EdgeSlot s) const {
  if (!slot_in_graph(s)) return false;
  // s joins iff no earlier-ranked incident edge is in the matching. A set
  // bit implies both endpoints active, so the index's IN slots other than
  // s are exactly the candidates.
  const Edge e = graph_.slot_edge(s);
  const uint32_t self = in_m_[s];
  for (VertexId w : {e.u, e.v}) {
    const uint32_t others = in_cnt_[w] - self;
    if (others == 0) continue;
    if (others == 1) {
      if (earlier(in_xor_[w] ^ (self != 0 ? s : 0), s)) return false;
      continue;
    }
    // Two or more other IN slots at w: only mid-round, so scan.
    const bool clear = graph_.for_incident_while(w, [&](VertexId, EdgeSlot t) {
      return !(t != s && in_m_[t] && earlier(t, s));
    });
    if (!clear) return false;
  }
  return true;
}

void DynamicMatching::set_in_m(EdgeSlot s, bool value) {
  PG_DCHECK((in_m_[s] != 0) != value);
  in_m_[s] = value ? 1 : 0;
  const uint32_t delta = value ? 1u : ~0u;  // +1 or -1, mod 2^32
  const Edge e = graph_.slot_edge(s);
  for (VertexId w : {e.u, e.v}) {
    std::atomic_ref<uint32_t>(in_cnt_[w]).fetch_add(
        delta, std::memory_order_relaxed);
    std::atomic_ref<EdgeSlot>(in_xor_[w]).fetch_xor(
        s, std::memory_order_relaxed);
  }
}

void DynamicMatching::rebuild_index() {
  in_cnt_.assign(num_vertices(), 0);
  in_xor_.assign(num_vertices(), 0);
  parallel_for(0, static_cast<int64_t>(num_vertices()), [&](int64_t v) {
    uint32_t count = 0;
    EdgeSlot acc = 0;
    graph_.for_incident(static_cast<VertexId>(v), [&](VertexId, EdgeSlot t) {
      if (in_m_[t]) {
        ++count;
        acc ^= t;
      }
    });
    in_cnt_[static_cast<std::size_t>(v)] = count;
    in_xor_[static_cast<std::size_t>(v)] = acc;
  });
}

bool DynamicMatching::refresh_slot(EdgeSlot s) {
  return store_key(
      s, source_.edge_key(graph_.slot_edge(s), graph_.slot_weight(s)));
}

void DynamicMatching::cover_slot(EdgeSlot s) {
  if (s < keys_.size()) return;
  const std::size_t old = keys_.size();
  if (EngineJournal* j = journal()) j->record_growth(old);
  keys_.resize(s + 1);
  in_m_.resize(s + 1, 0);
  for (std::size_t t = old; t <= s; ++t) refresh_slot(t);
}

void DynamicMatching::undo_growth(std::size_t old_size) {
  keys_.resize(old_size);
  in_m_.resize(old_size);
}

bool DynamicMatching::matched(VertexId u, VertexId v) const {
  const EdgeSlot s = graph_.find_slot(u, v);
  return s != kInvalidSlot && in_m_[s] != 0;
}

VertexId DynamicMatching::matched_with(VertexId v) const {
  // Between writer calls the matching is at its fixpoint: at most one IN
  // slot per vertex, and the XOR is that slot.
  PG_DCHECK(in_cnt_[v] <= 1);
  if (in_cnt_[v] == 0) return kInvalidVertex;
  const Edge e = graph_.slot_edge(in_xor_[v]);
  return e.u == v ? e.v : e.u;
}

std::vector<VertexId> DynamicMatching::solution() const {
  std::vector<VertexId> out(num_vertices(), kInvalidVertex);
  parallel_for(0, static_cast<int64_t>(num_vertices()), [&](int64_t v) {
    out[static_cast<std::size_t>(v)] =
        matched_with(static_cast<VertexId>(v));
  });
  return out;
}

std::vector<Edge> DynamicMatching::matched_edges() const {
  std::vector<Edge> out;
  for (EdgeSlot s = 0; s < graph_.slot_bound(); ++s)
    if (in_m_[s]) out.push_back(graph_.slot_edge(s));
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t DynamicMatching::size() const {
  // Every matched edge is counted once at each endpoint.
  const uint64_t ends = reduce_add<uint64_t>(
      0, static_cast<int64_t>(num_vertices()),
      [&](int64_t v) { return in_cnt_[static_cast<std::size_t>(v)]; });
  return ends / 2;
}

void DynamicMatching::apply_updates(const UpdateBatch& batch,
                                    BatchStats& stats) {
  std::vector<EdgeSlot> seeds;

  // Dropping an edge that was matched frees its endpoints: every
  // later-ranked incident edge (at either endpoint) may now join, so it is
  // seeded. A dropped edge that was NOT matched constrains nobody.
  const auto drop_slot = [&](EdgeSlot s) {
    if (!in_m_[s]) return;
    if (EngineJournal* j = journal()) j->record_decision(s, true);
    set_in_m(s, false);
    ++stats.changed;  // an eager flip, counted like repropagation flips
    const Edge e = graph_.slot_edge(s);
    for (VertexId w : {e.u, e.v}) {
      if (!active_[w]) continue;  // its incident edges are out of the graph
      graph_.for_incident(w, [&](VertexId x, EdgeSlot t) {
        if (active_[x] && earlier(s, t)) seeds.push_back(t);
      });
    }
  };

  // Structural application, in the documented order (see UpdateBatch).
  for (VertexId v : batch.deactivates()) {
    if (!set_active(v, false)) continue;
    ++stats.deactivated;
    // v's edges leave the graph. Matched ones free their other endpoint.
    graph_.for_incident(v, [&](VertexId, EdgeSlot s) { drop_slot(s); });
  }
  for (const Edge& e : batch.deletes()) {
    const EdgeSlot s = graph_.erase_edge(e.u, e.v);
    if (s == kInvalidSlot) continue;
    ++stats.deleted;
    drop_slot(s);  // slot endpoints stay readable after erase
  }
  for (std::size_t i = 0; i < batch.inserts().size(); ++i) {
    const Edge& e = batch.inserts()[i];
    const EdgeSlot s =
        graph_.insert_edge(e.u, e.v, batch.insert_weights()[i]);
    if (s == kInvalidSlot) continue;
    ++stats.inserted;
    cover_slot(s);
    // A revived slot may carry a different weight than its previous
    // incarnation, so the cached priority key is always recomputed.
    refresh_slot(s);
    if (active_[e.u] && active_[e.v]) seeds.push_back(s);
  }
  for (VertexId v : batch.activates()) {
    if (!set_active(v, true)) continue;
    ++stats.activated;
    // v's surviving edges re-enter the graph (those whose other endpoint
    // is active too); each must recompute its decision from scratch.
    graph_.for_incident(v, [&](VertexId x, EdgeSlot s) {
      if (active_[x]) seeds.push_back(s);
    });
  }
  for (std::size_t i = 0; i < batch.edge_reweights().size(); ++i) {
    const Edge& e = batch.edge_reweights()[i];
    const Weight w = batch.edge_reweight_weights()[i];
    const EdgeSlot s = graph_.find_slot(e.u, e.v);
    if (s == kInvalidSlot || graph_.slot_weight(s) == w) continue;
    graph_.set_slot_weight(s, w);
    ++stats.reweighted;
    if (!refresh_slot(s))
      continue;  // key ignores the weight (random_hash): provable no-op
    // An inactive endpoint keeps the edge out of the matching's graph: the
    // refreshed key simply waits for the activation seeds.
    if (!slot_in_graph(s)) continue;
    seeds.push_back(s);
    if (in_m_[s]) {
      // s's rank moved while matched: an incident edge it used to block
      // may now precede it (or vice versa), so every incident decision is
      // re-examined. An unmatched s constrains nobody — seeding s alone
      // suffices, and the rounds discover anything it newly blocks.
      for (VertexId y : {e.u, e.v}) {
        graph_.for_incident(y, [&](VertexId x, EdgeSlot t) {
          if (active_[x] && t != s) seeds.push_back(t);
        });
      }
    }
  }
  for (std::size_t i = 0; i < batch.vertex_reweights().size(); ++i) {
    const VertexId v = batch.vertex_reweights()[i];
    const Weight w = batch.vertex_reweight_weights()[i];
    if (graph_.vertex_weight(v) == w) continue;
    graph_.set_vertex_weight(v, w);
    ++stats.reweighted;
    // Vertex weights never enter edge priorities — no seeding; the new
    // weight reaches active_subgraph() snapshots.
  }

  repropagate(std::move(seeds), MmReproEngine{*this},
              graph_.slot_bound() + 1, stats, journal());
}

PriorityKey DynamicMatching::cached_slot_key(EdgeSlot s) const {
  PG_CHECK_MSG(s < keys_.size(), "slot " << s << " not covered");
  return keys_[s];
}

void DynamicMatching::after_compact(std::vector<Edge> matched) {
  // Slot ids changed: recompute every key and re-mark the matched pairs.
  keys_.fill(graph_.slot_bound(), source_.has_secondary_word(),
             [&](std::size_t s) {
               return source_.edge_key(graph_.slot_edge(s),
                                       graph_.slot_weight(s));
             });
  in_m_.assign(graph_.slot_bound(), 0);
  for (const Edge& e : matched) {
    const EdgeSlot s = graph_.find_slot(e.u, e.v);
    PG_CHECK_MSG(s != kInvalidSlot, "matched edge lost in compaction");
    in_m_[s] = 1;
  }
  rebuild_index();
}

}  // namespace pargreedy

#include "dynamic/dynamic_mis.hpp"

#include <utility>

#include "parallel/reduce.hpp"
#include "support/check.hpp"

namespace pargreedy {

// Adapter between DynamicMis state and the generic repropagation rounds.
struct MisReproEngine {
  DynamicMis& dm;

  [[nodiscard]] bool decide(VertexId v) const { return dm.decide(v); }
  [[nodiscard]] bool current(VertexId v) const { return dm.in_set_[v] != 0; }
  void commit(VertexId v, bool value) const {
    dm.in_set_[v] = value ? 1 : 0;
  }
  void append_successors(VertexId v, std::vector<VertexId>& out) const {
    dm.graph_.for_incident(v, [&](VertexId w, EdgeSlot) {
      if (dm.active_[w] && dm.earlier(v, w)) out.push_back(w);
    });
  }
};

DynamicMis::DynamicMis(EngineOptions options)
    : DynamicEngine(std::move(options.source)) {
  const CsrGraph& base = options.graph;
  order_ = source_.vertex_order(base);
  PG_CHECK_MSG(order_.size() == base.num_vertices(),
               "ordering size != vertex count");
  // Cache per-vertex keys: (key, id) compares give exactly the order_
  // total order, and stay refreshable under vertex reweights.
  keys_.fill(base.num_vertices(), source_.has_secondary_word(),
             [&](std::size_t v) {
               return source_.vertex_key(
                   static_cast<VertexId>(v),
                   base.vertex_weight(static_cast<VertexId>(v)));
             });
  in_set_ = mis_rootset(base, order_).in_set;
  adopt(std::move(options.graph));
}

const VertexOrder& DynamicMis::order() const {
  if (order_stale_) {
    std::vector<Weight> weights(num_vertices());
    for (uint64_t v = 0; v < num_vertices(); ++v)
      weights[v] = graph_.vertex_weight(static_cast<VertexId>(v));
    order_ = source_.vertex_order(num_vertices(), weights);
    order_stale_ = false;
  }
  return order_;
}

bool DynamicMis::decide(VertexId v) const {
  if (!active_[v]) return false;
  // v joins iff no earlier-ranked neighbor is in the set. Inactive
  // neighbors always have in_set_ == 0, so no activity check is needed.
  return graph_.for_incident_while(v, [&](VertexId w, EdgeSlot) {
    return !(earlier(w, v) && in_set_[w]);
  });
}

uint64_t DynamicMis::size() const {
  return static_cast<uint64_t>(reduce_add<int64_t>(
      0, static_cast<int64_t>(in_set_.size()),
      [&](int64_t v) { return in_set_[static_cast<std::size_t>(v)] ? 1 : 0; }));
}

void DynamicMis::apply_updates(const UpdateBatch& batch, BatchStats& stats) {
  std::vector<VertexId> seeds;

  // Structural application, in the documented order. Only operations that
  // change state seed repropagation; for an edge update only the later
  // endpoint's greedy decision can change directly (the earlier endpoint
  // never depends on it), and a toggled vertex seeds itself — everything
  // downstream is discovered by the rounds.
  for (VertexId v : batch.deactivates()) {
    if (!set_active(v, false)) continue;
    ++stats.deactivated;
    seeds.push_back(v);
  }
  for (const Edge& e : batch.deletes()) {
    if (graph_.erase_edge(e.u, e.v) == kInvalidSlot) continue;
    ++stats.deleted;
    seeds.push_back(earlier(e.u, e.v) ? e.v : e.u);
  }
  for (std::size_t i = 0; i < batch.inserts().size(); ++i) {
    const Edge& e = batch.inserts()[i];
    // Edge weights never affect vertex priorities, but they are stored so
    // that active_subgraph() hands matching oracles the same weights.
    if (graph_.insert_edge(e.u, e.v, batch.insert_weights()[i]) ==
        kInvalidSlot)
      continue;
    ++stats.inserted;
    seeds.push_back(earlier(e.u, e.v) ? e.v : e.u);
  }
  for (VertexId v : batch.activates()) {
    if (!set_active(v, true)) continue;
    ++stats.activated;
    seeds.push_back(v);
  }
  for (std::size_t i = 0; i < batch.edge_reweights().size(); ++i) {
    const Edge& e = batch.edge_reweights()[i];
    const Weight w = batch.edge_reweight_weights()[i];
    const EdgeSlot s = graph_.find_slot(e.u, e.v);
    if (s == kInvalidSlot || graph_.slot_weight(s) == w) continue;
    graph_.set_slot_weight(s, w);
    ++stats.reweighted;
    // Edge weights never enter vertex priorities — no seeding. The new
    // weight still reaches active_subgraph() snapshots (matching oracles
    // read it there).
  }
  for (std::size_t i = 0; i < batch.vertex_reweights().size(); ++i) {
    const VertexId v = batch.vertex_reweights()[i];
    const Weight w = batch.vertex_reweight_weights()[i];
    if (graph_.vertex_weight(v) == w) continue;
    graph_.set_vertex_weight(v, w);
    ++stats.reweighted;
    if (!store_key(v, source_.vertex_key(v, w)))
      continue;  // e.g. random_hash: provable no-op
    order_stale_ = true;
    if (!active_[v]) continue;  // an inactive rank influences nobody
    // v's own decision and — through the flipped earlier(v, ·) relations —
    // every active neighbor's decision may change directly; everything
    // further is discovered by the rounds.
    seeds.push_back(v);
    graph_.for_incident(v, [&](VertexId x, EdgeSlot) {
      if (active_[x]) seeds.push_back(x);
    });
  }

  repropagate(std::move(seeds), MisReproEngine{*this}, num_vertices() + 1,
              stats, journal());
}

}  // namespace pargreedy

#include "inputs.hpp"

#include <utility>

namespace perfbench {

using pargreedy::Edge;
using pargreedy::UpdateBatch;
using pargreedy::VertexId;
using pargreedy::Weight;

BatchStream::BatchStream(uint64_t num_vertices, std::vector<Edge> live,
                         uint64_t seed, bool vertex_reweights)
    : n_(num_vertices),
      vertex_reweights_(vertex_reweights),
      rng_(seed),
      live_(std::move(live)) {
  index_.reserve(live_.size() * 2);
  for (uint32_t i = 0; i < live_.size(); ++i) index_.emplace(key(live_[i]), i);
}

Edge BatchStream::random_absent_edge() {
  for (;;) {
    const auto u = static_cast<VertexId>(rng_.range(n_));
    const auto v = static_cast<VertexId>(rng_.range(n_));
    if (u == v) continue;
    const Edge e = Edge{u, v}.canonical();
    if (index_.count(key(e)) == 0 && touched_.count(key(e)) == 0) return e;
  }
}

UpdateBatch BatchStream::next(uint64_t ops) {
  pending_inserts_.clear();
  pending_deletes_.clear();
  touched_.clear();
  UpdateBatch batch;
  // A live edge no earlier op of this batch touched, or nothing after a
  // few tries (then the op becomes an insert).
  auto pick_live = [&](Edge& out) {
    for (int attempt = 0; attempt < 8 && !live_.empty(); ++attempt) {
      const Edge e = live_[rng_.range(live_.size())];
      if (touched_.insert(key(e)).second) {
        out = e;
        return true;
      }
    }
    return false;
  };
  for (uint64_t j = 0; j < ops; ++j) {
    const uint64_t kind = rng_.range(3);
    const auto w = static_cast<Weight>(1 + rng_.range(kWeightLevels));
    Edge e;
    if (kind == 1 && pick_live(e)) {
      batch.delete_edge(e.u, e.v);
      pending_deletes_.push_back(key(e));
    } else if (kind == 2 && vertex_reweights_) {
      batch.reweight_vertex(static_cast<VertexId>(rng_.range(n_)), w);
    } else if (kind == 2 && pick_live(e)) {
      batch.reweight_edge(e.u, e.v, w);
    } else {
      e = random_absent_edge();
      touched_.insert(key(e));
      batch.insert_edge(e.u, e.v,
                        vertex_reweights_ ? pargreedy::kDefaultWeight : w);
      pending_inserts_.push_back(e);
    }
  }
  return batch;
}

void BatchStream::remove_live(uint64_t k) {
  const auto it = index_.find(k);
  const uint32_t pos = it->second;
  index_.erase(it);
  const Edge last = live_.back();
  live_.pop_back();
  if (pos < live_.size()) {
    live_[pos] = last;
    index_[key(last)] = pos;
  }
}

void BatchStream::commit() {
  for (uint64_t k : pending_deletes_) remove_live(k);
  for (const Edge& e : pending_inserts_) {
    index_.emplace(key(e), static_cast<uint32_t>(live_.size()));
    live_.push_back(e);
  }
  discard();
}

void BatchStream::discard() {
  pending_inserts_.clear();
  pending_deletes_.clear();
  touched_.clear();
}

}  // namespace perfbench

// Inputs: everything the benchmark generates from --seed before handing it
// to the program — graphs, priority orders and the update-batch stream.
//
// The batch stream keeps its own mirror of the live edge set, so batches
// depend only on the seed and on earlier batches, never on what the
// engine under test reports.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pargreedy.hpp"

namespace perfbench {

/// Independent sub-seed `stream` of the run seed.
inline uint64_t sub_seed(uint64_t seed, uint64_t stream) {
  return pargreedy::hash64(seed, stream);
}

/// Weights are drawn from {1, ..., kWeightLevels}: coarse enough that the
/// weight_hash_tiebreak policy really breaks ties.
inline constexpr uint64_t kWeightLevels = 16;

/// A closed-loop writer's batch source for one engine. next() builds a
/// batch against the mirror; commit() folds it into the mirror after the
/// transaction commits, discard() forgets it after an abort.
class BatchStream {
 public:
  /// Reweights target vertices (`vertex_reweights`, for the MIS engine,
  /// whose priorities read vertex weights) or live edges (matching).
  BatchStream(uint64_t num_vertices, std::vector<pargreedy::Edge> live,
              uint64_t seed, bool vertex_reweights);

  /// A batch of exactly `ops` operations, each an insert of an absent
  /// edge, a delete of a live edge or a reweight, in equal proportions.
  pargreedy::UpdateBatch next(uint64_t ops);
  void commit();
  void discard();

  [[nodiscard]] uint64_t num_live() const { return live_.size(); }

 private:
  static uint64_t key(const pargreedy::Edge& e) {
    return (uint64_t{e.u} << 32) | e.v;
  }
  pargreedy::Edge random_absent_edge();
  void remove_live(uint64_t k);

  uint64_t n_;
  bool vertex_reweights_;
  pargreedy::Xoshiro256 rng_;
  std::vector<pargreedy::Edge> live_;
  std::unordered_map<uint64_t, uint32_t> index_;  // key -> position in live_
  // The batch built by the last next(), until commit() or discard().
  std::vector<pargreedy::Edge> pending_inserts_;
  std::vector<uint64_t> pending_deletes_;
  std::unordered_set<uint64_t> touched_;
};

}  // namespace perfbench

#include "dynamic/repropagate.hpp"

#include <bit>
#include <cstring>
#include <sstream>

namespace pargreedy {

void BatchStats::accumulate(const BatchStats& other) {
  inserted += other.inserted;
  deleted += other.deleted;
  activated += other.activated;
  deactivated += other.deactivated;
  reweighted += other.reweighted;
  seeds += other.seeds;
  rounds += other.rounds;
  recomputed += other.recomputed;
  changed += other.changed;
  compacted = compacted || other.compacted;
}

std::string BatchStats::summary() const {
  std::ostringstream os;
  os << "+" << inserted << " edges, -" << deleted << " edges";
  if (activated || deactivated)
    os << ", +" << activated << "/-" << deactivated << " vertices";
  if (reweighted) os << ", ~" << reweighted << " reweights";
  os << "; " << seeds << " seeds -> " << recomputed << " recomputes, "
     << changed << " flips in " << rounds << " rounds";
  if (compacted) os << " (compacted)";
  return os.str();
}

namespace {

constexpr char kMisLabel[] = "mis";
constexpr char kMatchingLabel[] = "matching";

// The per-policy `engine.*{engine=...}` series. One instantiation per
// label, so each PG_OBS_COUNT_L site caches its Counter once.
template <const char* kLabel>
void count_labeled_batch([[maybe_unused]] const BatchStats& stats) {
  PG_OBS_COUNT_L(obs::kEngineBatches, "engine", kLabel, 1);
  PG_OBS_COUNT_L(obs::kEngineSeeds, "engine", kLabel, stats.seeds);
  PG_OBS_COUNT_L(obs::kEngineRounds, "engine", kLabel, stats.rounds);
  PG_OBS_COUNT_L(obs::kEngineRecomputed, "engine", kLabel, stats.recomputed);
  PG_OBS_COUNT_L(obs::kEngineChanged, "engine", kLabel, stats.changed);
}

}  // namespace

void obs_accumulate_batch(const BatchStats& stats, const char* engine_label,
                          uint64_t num_vertices) {
  PG_OBS_COUNT(obs::kEngineBatches, 1);
  PG_OBS_COUNT(obs::kEngineInserted, stats.inserted);
  PG_OBS_COUNT(obs::kEngineDeleted, stats.deleted);
  PG_OBS_COUNT(obs::kEngineActivated, stats.activated);
  PG_OBS_COUNT(obs::kEngineDeactivated, stats.deactivated);
  PG_OBS_COUNT(obs::kEngineReweighted, stats.reweighted);
  PG_OBS_COUNT(obs::kEngineSeeds, stats.seeds);
  PG_OBS_COUNT(obs::kEngineRounds, stats.rounds);
  PG_OBS_COUNT(obs::kEngineRecomputed, stats.recomputed);
  PG_OBS_COUNT(obs::kEngineChanged, stats.changed);
  PG_OBS_COUNT(obs::kEngineCompacted, stats.compacted ? 1 : 0);
  if (engine_label != nullptr) {
    // Per-policy refinement of the series a dashboard splits on; the
    // full-width rollup stays on the unlabeled counters above.
    if (std::strcmp(engine_label, kMisLabel) == 0) {
      count_labeled_batch<kMisLabel>(stats);
    } else {
      PG_CHECK_MSG(std::strcmp(engine_label, kMatchingLabel) == 0,
                   "unknown engine label " << engine_label);
      count_labeled_batch<kMatchingLabel>(stats);
    }
  }
  if (num_vertices > 1 && stats.rounds > 0) {
    // The round bound, watched live: observed repropagation depth vs
    // Fischer & Noever's tight Theta(log n) dependence depth
    // (arXiv:1707.05124; the paper proves O(log^2 n)), in permille.
    // bit_width(n) is ceil(log2 n) up to rounding — stable, cheap, and
    // monotone in n, which is all a health ratio needs.
    const uint64_t bound = std::bit_width(num_vertices);
    [[maybe_unused]] const uint64_t permille = stats.rounds * 1000 / bound;
    PG_OBS_GAUGE(obs::kReproDepthRatio, permille);
    PG_OBS_HIST(obs::kReproDepthRatioDist, permille);
  }
}

}  // namespace pargreedy

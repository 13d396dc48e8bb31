// parallel_for: the fork-join loop primitive every algorithm is built on.
//
// Mirrors the paper's implementation strategy (Section 6): loops shorter
// than a grain threshold run sequentially; the paper used grain size 256 in
// its Cilk++ implementation, which we keep as kDefaultGrain. This grain is
// what produces the "small bump" in the running-time-vs-prefix-size plots
// (Figures 1(c,f), 2(c,f)) when the loop flips from sequential to parallel.
#pragma once

#include <cstddef>
#include <cstdint>

#include "parallel/arch.hpp"

namespace pargreedy {

/// Grain size below which loops run sequentially (paper's value).
inline constexpr int64_t kDefaultGrain = 256;

/// Applies fn(i) for i in [begin, end), in parallel when the range is at
/// least `grain` long. fn must be safe to invoke concurrently for distinct i.
template <typename Fn>
void parallel_for(int64_t begin, int64_t end, Fn&& fn,
                  int64_t grain = kDefaultGrain) {
  const int64_t len = end - begin;
  if (len <= 0) return;
  if (len < grain || num_workers() == 1 || in_parallel()) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
#if defined(_OPENMP)
#pragma omp parallel for schedule(guided)
  for (int64_t i = begin; i < end; ++i) fn(i);
#else
  for (int64_t i = begin; i < end; ++i) fn(i);
#endif
}

/// Like parallel_for but with a static schedule: iteration i always runs on
/// the same worker for a fixed worker count (useful for thread-local
/// accumulation patterns).
template <typename Fn>
void parallel_for_static(int64_t begin, int64_t end, Fn&& fn,
                         int64_t grain = kDefaultGrain) {
  const int64_t len = end - begin;
  if (len <= 0) return;
  if (len < grain || num_workers() == 1 || in_parallel()) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
#if defined(_OPENMP)
#pragma omp parallel for schedule(static)
  for (int64_t i = begin; i < end; ++i) fn(i);
#else
  for (int64_t i = begin; i < end; ++i) fn(i);
#endif
}

/// Splits [0, n) into at most num_workers() contiguous blocks and runs
/// fn(block_id, block_begin, block_end) for each in parallel. The block
/// decomposition depends only on n and the worker count, never on timing.
/// Below the grain the same blocks run inline, without forking a team.
template <typename Fn>
void parallel_blocks(int64_t n, Fn&& fn) {
  if (n <= 0) return;
  const int64_t workers = in_parallel() ? 1 : num_workers();
  const int64_t blocks = workers < n ? workers : n;
  const int64_t chunk = (n + blocks - 1) / blocks;
  const auto run_block = [&](int64_t b) {
    const int64_t lo = b * chunk;
    const int64_t hi = lo + chunk < n ? lo + chunk : n;
    if (lo < hi) fn(b, lo, hi);
  };
  if (n < kDefaultGrain) {
    for (int64_t b = 0; b < blocks; ++b) run_block(b);
    return;
  }
#if defined(_OPENMP)
#pragma omp parallel for schedule(static, 1)
#endif
  for (int64_t b = 0; b < blocks; ++b) run_block(b);
}

/// Number of blocks parallel_blocks(n, ...) will produce.
inline int64_t parallel_block_count(int64_t n) {
  if (n <= 0) return 0;
  const int64_t workers = in_parallel() ? 1 : num_workers();
  return workers < n ? workers : n;
}

}  // namespace pargreedy

// Parallel stable counting sort by small integer keys.
//
// Used by the CSR builder (bucket edges by endpoint) and by the maximal-
// matching rootset algorithm's per-vertex incident-edge ordering (Lemma 5.3
// sorts incident edges by priority with a bucket sort, citing CLRS [8]).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "support/check.hpp"

namespace pargreedy {

/// Stable counting sort of the items 0, ..., n-1 by key(i) in
/// [0, num_buckets): calls place(pos, i) once per item with its sorted
/// position. Returns the bucket boundaries: offsets[b] is the first
/// position of bucket b, with offsets[num_buckets] == n.
///
/// Parallel over blocks of the items with per-block histograms; the scatter
/// order within a bucket follows (block, position) order, which preserves
/// item order — i.e. the sort is stable.
template <typename Key, typename Place>
std::vector<int64_t> counting_sort_index(int64_t n, int64_t num_buckets,
                                         Key&& key, Place&& place) {
  PG_CHECK(n >= 0);
  PG_CHECK(num_buckets >= 1);

  if (n < 4 * kDefaultGrain || num_workers() == 1 || in_parallel()) {
    std::vector<int64_t> count(static_cast<std::size_t>(num_buckets + 1), 0);
    for (int64_t i = 0; i < n; ++i) {
      const int64_t b = key(i);
      PG_DCHECK(b >= 0 && b < num_buckets);
      ++count[static_cast<std::size_t>(b) + 1];
    }
    for (int64_t b = 0; b < num_buckets; ++b)
      count[static_cast<std::size_t>(b) + 1] +=
          count[static_cast<std::size_t>(b)];
    std::vector<int64_t> cursor(count.begin(), count.end() - 1);
    for (int64_t i = 0; i < n; ++i)
      place(cursor[static_cast<std::size_t>(key(i))]++, i);
    return count;
  }

  const int64_t blocks = parallel_block_count(n);
  // hist[block * num_buckets + bucket]
  std::vector<int64_t> hist(
      static_cast<std::size_t>(blocks * num_buckets), 0);
  parallel_blocks(n, [&](int64_t b, int64_t lo, int64_t hi) {
    int64_t* h = hist.data() + b * num_buckets;
    for (int64_t i = lo; i < hi; ++i) {
      const int64_t k = key(i);
      PG_DCHECK(k >= 0 && k < num_buckets);
      ++h[k];
    }
  });
  // Column-major exclusive scan: for each bucket, across blocks in order.
  // Sequential over num_buckets * blocks cells; fine because blocks is small.
  std::vector<int64_t> offsets(static_cast<std::size_t>(num_buckets + 1), 0);
  int64_t running = 0;
  for (int64_t k = 0; k < num_buckets; ++k) {
    offsets[static_cast<std::size_t>(k)] = running;
    for (int64_t b = 0; b < blocks; ++b) {
      int64_t& cell = hist[static_cast<std::size_t>(b * num_buckets + k)];
      const int64_t c = cell;
      cell = running;
      running += c;
    }
  }
  offsets[static_cast<std::size_t>(num_buckets)] = running;
  PG_CHECK(running == n);
  parallel_blocks(n, [&](int64_t b, int64_t lo, int64_t hi) {
    int64_t* cursor = hist.data() + b * num_buckets;
    for (int64_t i = lo; i < hi; ++i) place(cursor[key(i)]++, i);
  });
  return offsets;
}

/// Stable-sorts `in` into `out` by key(in[i]) in [0, num_buckets).
/// Returns the bucket boundaries as counting_sort_index does.
template <typename T, typename Key>
std::vector<int64_t> counting_sort(std::span<const T> in, std::span<T> out,
                                   int64_t num_buckets, Key&& key) {
  PG_CHECK(out.size() == in.size());
  return counting_sort_index(
      static_cast<int64_t>(in.size()), num_buckets,
      [&](int64_t i) { return key(in[static_cast<std::size_t>(i)]); },
      [&](int64_t pos, int64_t i) {
        out[static_cast<std::size_t>(pos)] = in[static_cast<std::size_t>(i)];
      });
}

}  // namespace pargreedy

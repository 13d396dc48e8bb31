// Parallel pack / filter: densely compact the elements (or indices) that
// satisfy a predicate, preserving order.
//
// This is the workhorse of the prefix-based algorithms: after every round
// the still-undecided vertices (edges) are packed into a fresh dense array
// (Theorem 4.5: "densely pack G[P'] into new arrays").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/scan.hpp"
#include "parallel/uninit_vector.hpp"

namespace pargreedy {

/// Returns the values in[i] for which flag(i) is true, order-preserving.
/// The output is an UninitVector that the scatter pass first-touches.
template <typename T, typename Flag>
UninitVector<T> pack(std::span<const T> in, Flag&& flag) {
  const int64_t n = static_cast<int64_t>(in.size());
  if (n < 2 * kDefaultGrain || num_workers() == 1 || in_parallel()) {
    UninitVector<T> out;
    for (int64_t i = 0; i < n; ++i)
      if (flag(i)) out.push_back(in[static_cast<std::size_t>(i)]);
    return out;
  }
  const int64_t blocks = parallel_block_count(n);
  std::vector<int64_t> block_count(static_cast<std::size_t>(blocks), 0);
  parallel_blocks(n, [&](int64_t b, int64_t lo, int64_t hi) {
    int64_t c = 0;
    for (int64_t i = lo; i < hi; ++i) c += flag(i) ? 1 : 0;
    block_count[static_cast<std::size_t>(b)] = c;
  });
  const int64_t total = exclusive_scan_inplace(std::span<int64_t>(block_count));
  UninitVector<T> out(static_cast<std::size_t>(total));
  parallel_blocks(n, [&](int64_t b, int64_t lo, int64_t hi) {
    int64_t pos = block_count[static_cast<std::size_t>(b)];
    for (int64_t i = lo; i < hi; ++i)
      if (flag(i)) out[static_cast<std::size_t>(pos++)] =
          in[static_cast<std::size_t>(i)];
  });
  return out;
}

/// Returns the indices i in [0, n) for which pred(i) is true, in order.
template <typename Index, typename Pred>
std::vector<Index> pack_index(int64_t n, Pred&& pred) {
  if (n < 2 * kDefaultGrain || num_workers() == 1 || in_parallel()) {
    std::vector<Index> out;
    for (int64_t i = 0; i < n; ++i)
      if (pred(i)) out.push_back(static_cast<Index>(i));
    return out;
  }
  const int64_t blocks = parallel_block_count(n);
  std::vector<int64_t> block_count(static_cast<std::size_t>(blocks), 0);
  parallel_blocks(n, [&](int64_t b, int64_t lo, int64_t hi) {
    int64_t c = 0;
    for (int64_t i = lo; i < hi; ++i) c += pred(i) ? 1 : 0;
    block_count[static_cast<std::size_t>(b)] = c;
  });
  const int64_t total = exclusive_scan_inplace(std::span<int64_t>(block_count));
  std::vector<Index> out(static_cast<std::size_t>(total));
  parallel_blocks(n, [&](int64_t b, int64_t lo, int64_t hi) {
    int64_t pos = block_count[static_cast<std::size_t>(b)];
    for (int64_t i = lo; i < hi; ++i)
      if (pred(i)) out[static_cast<std::size_t>(pos++)] =
          static_cast<Index>(i);
  });
  return out;
}

}  // namespace pargreedy

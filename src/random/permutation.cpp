#include "random/permutation.hpp"

#include <algorithm>
#include <utility>

#include "parallel/counting_sort.hpp"
#include "parallel/parallel_for.hpp"
#include "random/hash.hpp"

namespace pargreedy {

namespace {

/// Number of top-bit buckets used by the two-pass parallel sort.
constexpr int64_t kSortBuckets = 1024;
constexpr int kBucketShift = 54;  // 64 - log2(kSortBuckets)

/// Sorts `ids` by (key(id), id). Pass 1: stable counting sort into
/// kSortBuckets buckets by the key's top bits. Pass 2: each bucket sorted
/// independently in parallel as inline (key, id) pairs, so no comparison
/// gathers a key. Both passes are deterministic, so the result is too.
template <typename Key>
void sort_by_key_then_id(std::span<uint32_t> ids, Key&& key) {
  const auto sort_run = [&](auto first, auto last) {
    std::vector<std::pair<uint64_t, uint32_t>> run;
    run.reserve(static_cast<std::size_t>(last - first));
    for (auto it = first; it != last; ++it) run.emplace_back(key(*it), *it);
    std::sort(run.begin(), run.end());
    for (auto it = first; it != last; ++it) *it = run[it - first].second;
  };
  if (ids.size() < 1 << 16) return sort_run(ids.begin(), ids.end());
  const UninitVector<uint32_t> scratch =
      parallel_copy(std::span<const uint32_t>(ids));
  const std::vector<int64_t> offsets = counting_sort<uint32_t>(
      std::span<const uint32_t>(scratch), ids, kSortBuckets,
      [&](uint32_t v) {
        return static_cast<int64_t>(key(v) >> kBucketShift);
      });
  parallel_for(
      0, kSortBuckets,
      [&](int64_t b) {
        sort_run(ids.begin() + offsets[static_cast<std::size_t>(b)],
                 ids.begin() + offsets[static_cast<std::size_t>(b) + 1]);
      },
      /*grain=*/1);
}

}  // namespace

void parallel_sort_by_key(std::span<uint32_t> items,
                          const std::vector<uint64_t>& keys) {
  sort_by_key_then_id(items, [&](uint32_t v) { return keys[v]; });
}

std::vector<uint32_t> random_permutation(uint64_t n, uint64_t seed) {
  std::vector<uint32_t> perm(n);
  parallel_for(0, static_cast<int64_t>(n), [&](int64_t i) {
    perm[static_cast<std::size_t>(i)] = static_cast<uint32_t>(i);
  });
  sort_by_key_then_id(perm, [&](uint32_t i) { return hash64(seed, i); });
  return perm;
}

std::vector<uint32_t> fisher_yates_permutation(uint64_t n, Xoshiro256& rng) {
  std::vector<uint32_t> perm(n);
  for (uint64_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  for (uint64_t i = n; i > 1; --i) {
    const uint64_t j = rng.range(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

UninitVector<uint32_t> invert_permutation(std::span<const uint32_t> perm) {
  UninitVector<uint32_t> rank(perm.size());
  parallel_for(0, static_cast<int64_t>(perm.size()), [&](int64_t i) {
    rank[perm[static_cast<std::size_t>(i)]] = static_cast<uint32_t>(i);
  });
  return rank;
}

bool is_valid_permutation(std::span<const uint32_t> perm) {
  const std::size_t n = perm.size();
  std::vector<uint8_t> seen(n, 0);
  for (uint32_t v : perm) {
    if (v >= n || seen[v]) return false;
    seen[v] = 1;
  }
  return true;
}

}  // namespace pargreedy

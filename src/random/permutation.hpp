// Random permutations — the ordering pi that the paper's guarantees range
// over ("for a random ordering of the vertices, the dependence length ... is
// polylogarithmic").
//
// random_permutation() is deterministic in (n, seed) and independent of the
// worker count: every element gets a 64-bit counter-based hash key, never
// tied since hash64 is a bijection in the index, and the elements are sorted
// by key. This is how a fixed pi is shared between the sequential and
// parallel algorithms so they return identical results.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "parallel/uninit_vector.hpp"
#include "random/xoshiro.hpp"

namespace pargreedy {

/// Uniformly random permutation of [0, n), deterministic in (n, seed).
std::vector<uint32_t> random_permutation(uint64_t n, uint64_t seed);

/// Sequential Fisher–Yates shuffle of [0, n) driven by `rng`. Reference
/// implementation used to cross-check random_permutation's uniformity.
std::vector<uint32_t> fisher_yates_permutation(uint64_t n, Xoshiro256& rng);

/// Inverse of a permutation: rank[perm[i]] = i. Parallel, linear work;
/// `perm` must be a permutation, so that every entry of rank is written.
UninitVector<uint32_t> invert_permutation(std::span<const uint32_t> perm);

/// True iff `perm` is a permutation of 0..n-1.
bool is_valid_permutation(std::span<const uint32_t> perm);

/// Sorts `items` in parallel by a uint64 key with index tie-breaking:
/// stable result determined only by the key function. For keys that can
/// tie (the priority sources); random_permutation's keys cannot.
void parallel_sort_by_key(std::span<uint32_t> items,
                          const std::vector<uint64_t>& keys);

}  // namespace pargreedy

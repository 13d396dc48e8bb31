// UninitVector: a std::vector whose sized constructor and resize() leave
// new elements unwritten, for the large buffers a parallel loop fills.
//
// A std::vector<T>(n) value-initialises on the calling thread: for a
// 47 MB edge table that is ~19 ms of serial page faults and zero stores
// before the parallel loop overwrites every byte. With this allocator the
// filling loop is the first to touch each page, so the faults are taken by
// the workers in parallel (and each page lands on the node of the worker
// that writes it). Use it only where that loop writes every element.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "parallel/parallel_for.hpp"

namespace pargreedy {

/// std::allocator whose argument-less construct() is a no-op. Restricted
/// to implicit-lifetime element types (trivially copyable and
/// destructible), whose objects allocation itself creates.
template <typename T>
struct NoInitAllocator : std::allocator<T> {
  using value_type = T;

  NoInitAllocator() = default;
  template <typename U>
  NoInitAllocator(const NoInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U*) noexcept {
    static_assert(std::is_trivially_copyable_v<U> &&
                      std::is_trivially_destructible_v<U>,
                  "UninitVector needs an implicit-lifetime element type");
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

template <typename T>
using UninitVector = std::vector<T, NoInitAllocator<T>>;

/// A copy of `in`, written (and so first-touched) block by block in
/// parallel.
template <typename T>
UninitVector<T> parallel_copy(std::span<const T> in) {
  UninitVector<T> out(in.size());
  parallel_blocks(static_cast<int64_t>(in.size()),
                  [&](int64_t, int64_t lo, int64_t hi) {
                    std::copy(in.begin() + lo, in.begin() + hi,
                              out.begin() + lo);
                  });
  return out;
}

}  // namespace pargreedy

// Unit tests for the parallel primitives substrate (src/parallel/):
// parallel_for, parallel_blocks, reductions, scans, and pack. These are the
// work/depth building blocks every algorithm in the library rests on, so
// they are tested both on the sequential fallback path and with the worker
// count forced up (the container may have one core; oversubscription still
// exercises the parallel code paths and their determinism).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <span>
#include <tuple>
#include <vector>

#include "parallel/arch.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"
#include "random/hash.hpp"

namespace pargreedy {
namespace {

// ---------------------------------------------------------------- arch ---

TEST(Arch, WorkerCountIsPositive) { EXPECT_GE(num_workers(), 1); }

TEST(Arch, ScopedNumWorkersRestores) {
  const int before = num_workers();
  {
    ScopedNumWorkers guard(3);
    EXPECT_EQ(num_workers(), 3);
  }
  EXPECT_EQ(num_workers(), before);
}

TEST(Arch, ScopedNumWorkersNests) {
  ScopedNumWorkers outer(4);
  EXPECT_EQ(num_workers(), 4);
  {
    ScopedNumWorkers inner(2);
    EXPECT_EQ(num_workers(), 2);
  }
  EXPECT_EQ(num_workers(), 4);
}

TEST(Arch, SetNumWorkersClampsNonPositive) {
  const int before = num_workers();
  set_num_workers(0);
  EXPECT_GE(num_workers(), 1);
  set_num_workers(-5);
  EXPECT_GE(num_workers(), 1);
  set_num_workers(before);
}

TEST(Arch, NotInParallelAtTopLevel) { EXPECT_FALSE(in_parallel()); }

// -------------------------------------------------------- parallel_for ---

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ScopedNumWorkers guard(4);
  const int64_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
}

TEST(ParallelFor, RespectsNonZeroBegin) {
  ScopedNumWorkers guard(4);
  std::vector<int> hit(100, 0);
  parallel_for(30, 70, [&](int64_t i) { hit[static_cast<std::size_t>(i)] = 1; },
               /*grain=*/1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(hit[i], (i >= 30 && i < 70) ? 1 : 0);
}

TEST(ParallelFor, EmptyAndInvertedRangesAreNoOps) {
  int calls = 0;
  parallel_for(5, 5, [&](int64_t) { ++calls; });
  parallel_for(7, 3, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SmallRangeRunsInOrderSequentially) {
  // Below the grain threshold the loop must be plain sequential, so a
  // stateful (non-thread-safe) body observing in-order execution is legal.
  std::vector<int64_t> seen;
  parallel_for(0, kDefaultGrain - 1, [&](int64_t i) { seen.push_back(i); });
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kDefaultGrain - 1));
  for (int64_t i = 0; i < kDefaultGrain - 1; ++i) EXPECT_EQ(seen[i], i);
}

TEST(ParallelFor, StaticScheduleVisitsEverything) {
  ScopedNumWorkers guard(4);
  const int64_t n = 5'000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_static(0, n, [&](int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, NestedCallFallsBackToSequential) {
  // parallel_for inside a parallel region must not deadlock or double-run.
  ScopedNumWorkers guard(4);
  const int64_t n = 2'000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, 4, [&](int64_t) {
    parallel_for(0, n, [&](int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
  }, /*grain=*/1);
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 4);
}

// ------------------------------------------------------ parallel_blocks ---

TEST(ParallelBlocks, CoversRangeWithDisjointBlocks) {
  ScopedNumWorkers guard(4);
  const int64_t n = 12'345;
  std::vector<std::atomic<int>> hits(n);
  parallel_blocks(n, [&](int64_t, int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i)
      hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelBlocks, BlockIdsAreDense) {
  ScopedNumWorkers guard(4);
  const int64_t n = 1'000;
  const int64_t blocks = parallel_block_count(n);
  std::vector<std::atomic<int>> seen(static_cast<std::size_t>(blocks));
  parallel_blocks(n, [&](int64_t b, int64_t, int64_t) {
    ASSERT_GE(b, 0);
    ASSERT_LT(b, blocks);
    seen[static_cast<std::size_t>(b)].fetch_add(1);
  });
  for (int64_t b = 0; b < blocks; ++b) EXPECT_EQ(seen[b].load(), 1);
}

TEST(ParallelBlocks, FewerItemsThanWorkers) {
  ScopedNumWorkers guard(8);
  const int64_t n = 3;
  EXPECT_EQ(parallel_block_count(n), 3);
  std::vector<std::atomic<int>> hits(n);
  parallel_blocks(n, [&](int64_t, int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i)
      hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelBlocks, ZeroIsNoOp) {
  int calls = 0;
  parallel_blocks(0, [&](int64_t, int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(parallel_block_count(0), 0);
}

// ------------------------------------------------------------ reductions ---

TEST(Reduce, SumMatchesClosedForm) {
  ScopedNumWorkers guard(4);
  const int64_t n = 100'000;
  const int64_t sum = reduce_add<int64_t>(0, n, [](int64_t i) { return i; });
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(Reduce, SumWithNonZeroBegin) {
  const int64_t sum =
      reduce_add<int64_t>(10, 20, [](int64_t i) { return i; });
  EXPECT_EQ(sum, 145);  // 10 + 11 + ... + 19
}

TEST(Reduce, EmptyRangeGivesIdentity) {
  EXPECT_EQ(reduce_add<int64_t>(5, 5, [](int64_t) { return 7; }), 0);
  EXPECT_EQ(reduce_max<int>(3, 3, -1, [](int64_t) { return 99; }), -1);
  EXPECT_EQ(reduce_min<int>(3, 3, 42, [](int64_t) { return 0; }), 42);
}

TEST(Reduce, MaxAndMinFindExtremes) {
  ScopedNumWorkers guard(4);
  const int64_t n = 50'000;
  std::vector<int64_t> data(n);
  for (int64_t i = 0; i < n; ++i)
    data[static_cast<std::size_t>(i)] =
        static_cast<int64_t>(hash64(1, static_cast<uint64_t>(i)) % 1'000'003);
  const auto at = [&](int64_t i) { return data[static_cast<std::size_t>(i)]; };
  const int64_t mx = reduce_max<int64_t>(0, n, INT64_MIN, at);
  const int64_t mn = reduce_min<int64_t>(0, n, INT64_MAX, at);
  EXPECT_EQ(mx, *std::max_element(data.begin(), data.end()));
  EXPECT_EQ(mn, *std::min_element(data.begin(), data.end()));
}

TEST(Reduce, CountIf) {
  ScopedNumWorkers guard(4);
  const int64_t n = 30'000;
  const int64_t evens = count_if(0, n, [](int64_t i) { return i % 2 == 0; });
  EXPECT_EQ(evens, n / 2);
  EXPECT_EQ(count_if(0, n, [](int64_t) { return false; }), 0);
  EXPECT_EQ(count_if(0, n, [](int64_t) { return true; }), n);
}

TEST(Reduce, GeneralReduceWithCustomMonoid) {
  // xor is associative and commutative; compare against a serial fold.
  ScopedNumWorkers guard(4);
  const int64_t n = 20'000;
  auto f = [](int64_t i) { return hash64(9, static_cast<uint64_t>(i)); };
  uint64_t expect = 0;
  for (int64_t i = 0; i < n; ++i) expect ^= f(i);
  const uint64_t got = parallel_reduce<uint64_t>(
      0, n, 0, f, [](uint64_t a, uint64_t b) { return a ^ b; });
  EXPECT_EQ(got, expect);
}

// ------------------------------------------------------------------ scan ---

class ScanSizes : public ::testing::TestWithParam<int64_t> {};

TEST_P(ScanSizes, ExclusiveMatchesSerialReference) {
  ScopedNumWorkers guard(4);
  const int64_t n = GetParam();
  std::vector<int64_t> in(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i)
    in[static_cast<std::size_t>(i)] =
        static_cast<int64_t>(hash64(3, static_cast<uint64_t>(i)) % 100);
  std::vector<int64_t> expect(in.size());
  int64_t acc = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    expect[i] = acc;
    acc += in[i];
  }
  std::vector<int64_t> out(in.size());
  const int64_t total =
      exclusive_scan(std::span<const int64_t>(in), std::span<int64_t>(out));
  EXPECT_EQ(total, acc);
  EXPECT_EQ(out, expect);
}

TEST_P(ScanSizes, InclusiveMatchesSerialReference) {
  ScopedNumWorkers guard(4);
  const int64_t n = GetParam();
  std::vector<int64_t> in(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i)
    in[static_cast<std::size_t>(i)] =
        static_cast<int64_t>(hash64(4, static_cast<uint64_t>(i)) % 100);
  std::vector<int64_t> expect(in.size());
  int64_t acc = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    acc += in[i];
    expect[i] = acc;
  }
  std::vector<int64_t> out(in.size());
  const int64_t total =
      inclusive_scan(std::span<const int64_t>(in), std::span<int64_t>(out));
  EXPECT_EQ(total, acc);
  EXPECT_EQ(out, expect);
}

INSTANTIATE_TEST_SUITE_P(SizeSweep, ScanSizes,
                         ::testing::Values(0, 1, 2, 255, 256, 257, 511, 512,
                                           1'000, 4'096, 100'000));

TEST(Scan, InPlaceAliasing) {
  ScopedNumWorkers guard(4);
  std::vector<uint64_t> data(10'000, 1);
  const uint64_t total = exclusive_scan_inplace(std::span<uint64_t>(data));
  EXPECT_EQ(total, 10'000u);
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_EQ(data[i], static_cast<uint64_t>(i));
}

TEST(Scan, AliasedExclusiveInputEqualsOutput) {
  ScopedNumWorkers guard(4);
  std::vector<int64_t> data(5'000);
  std::iota(data.begin(), data.end(), 0);
  std::vector<int64_t> copy = data;
  exclusive_scan(std::span<const int64_t>(data), std::span<int64_t>(data));
  std::vector<int64_t> expect(copy.size());
  int64_t acc = 0;
  for (std::size_t i = 0; i < copy.size(); ++i) {
    expect[i] = acc;
    acc += copy[i];
  }
  EXPECT_EQ(data, expect);
}

// ------------------------------------------------------------------ pack ---

TEST(Pack, KeepsFlaggedValuesInOrder) {
  ScopedNumWorkers guard(4);
  const int64_t n = 50'000;
  std::vector<uint32_t> in(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i)
    in[static_cast<std::size_t>(i)] = static_cast<uint32_t>(i * 3);
  // Keep every element whose *index* hashes even (pack flags by index).
  auto keep = [](int64_t i) { return hash64(7, static_cast<uint64_t>(i)) % 2 == 0; };
  const UninitVector<uint32_t> out =
      pack(std::span<const uint32_t>(in), keep);
  UninitVector<uint32_t> expect;
  for (int64_t i = 0; i < n; ++i)
    if (keep(i)) expect.push_back(in[static_cast<std::size_t>(i)]);
  EXPECT_EQ(out, expect);
}

TEST(Pack, AllAndNone) {
  ScopedNumWorkers guard(4);
  std::vector<int> in(10'000, 42);
  EXPECT_EQ(pack(std::span<const int>(in), [](int64_t) { return true; }).size(),
            in.size());
  EXPECT_TRUE(
      pack(std::span<const int>(in), [](int64_t) { return false; }).empty());
}

TEST(Pack, EmptyInput) {
  std::vector<int> in;
  EXPECT_TRUE(pack(std::span<const int>(in), [](int64_t) { return true; }).empty());
}

TEST(PackIndex, MatchesSerialFilter) {
  ScopedNumWorkers guard(4);
  const int64_t n = 40'000;
  auto pred = [](int64_t i) { return i % 7 == 3; };
  const std::vector<uint32_t> got = pack_index<uint32_t>(n, pred);
  std::vector<uint32_t> expect;
  for (int64_t i = 0; i < n; ++i)
    if (pred(i)) expect.push_back(static_cast<uint32_t>(i));
  EXPECT_EQ(got, expect);
}

TEST(PackIndex, SequentialAndParallelAgree) {
  const int64_t n = 30'000;
  auto pred = [](int64_t i) { return hash64(11, static_cast<uint64_t>(i)) % 3 == 0; };
  std::vector<uint32_t> serial;
  {
    ScopedNumWorkers guard(1);
    serial = pack_index<uint32_t>(n, pred);
  }
  std::vector<uint32_t> parallel;
  {
    ScopedNumWorkers guard(4);
    parallel = pack_index<uint32_t>(n, pred);
  }
  EXPECT_EQ(serial, parallel);
}


// --------------------------------------------------------- grain boundary ---
// Every blocked primitive at sizes straddling the 256-item grain (and its
// 2x pack/scan cutoff), at widths 1 and 4, against a serial reference.

class GrainBoundary
    : public ::testing::TestWithParam<std::tuple<int64_t, int>> {};

TEST_P(GrainBoundary, PrimitivesMatchSerialReference) {
  const auto [n, width] = GetParam();
  ScopedNumWorkers guard(width);
  std::vector<int64_t> vals(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i)
    vals[static_cast<std::size_t>(i)] =
        static_cast<int64_t>(hash64(21, static_cast<uint64_t>(i)) % 1'000);
  const auto keep = [&](int64_t i) {
    return vals[static_cast<std::size_t>(i)] % 3 == 0;
  };

  // parallel_blocks: the documented decomposition, each block once, and no
  // team forked below the grain.
  const int64_t blocks = parallel_block_count(n);
  const int64_t chunk = (n + blocks - 1) / blocks;
  std::vector<std::atomic<int64_t>> block_lo(static_cast<std::size_t>(blocks));
  std::vector<std::atomic<int64_t>> block_hi(static_cast<std::size_t>(blocks));
  std::atomic<int> calls{0};
  std::atomic<bool> forked{false};
  parallel_blocks(n, [&](int64_t b, int64_t lo, int64_t hi) {
    block_lo[static_cast<std::size_t>(b)].store(lo);
    block_hi[static_cast<std::size_t>(b)].store(hi);
    calls.fetch_add(1);
    if (in_parallel()) forked.store(true);
  });
  EXPECT_EQ(calls.load(), blocks);
  for (int64_t b = 0; b < blocks; ++b) {
    EXPECT_EQ(block_lo[static_cast<std::size_t>(b)].load(), b * chunk);
    EXPECT_EQ(block_hi[static_cast<std::size_t>(b)].load(),
              std::min(n, (b + 1) * chunk));
  }
  if (n < kDefaultGrain) {
    EXPECT_FALSE(forked.load());
  }

  UninitVector<int64_t> packed_ref;
  std::vector<uint32_t> index_ref;
  std::vector<int64_t> scan_ref(static_cast<std::size_t>(n));
  int64_t sum_ref = 0;
  int64_t max_ref = -1;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t x = vals[static_cast<std::size_t>(i)];
    if (keep(i)) {
      packed_ref.push_back(x);
      index_ref.push_back(static_cast<uint32_t>(i));
    }
    scan_ref[static_cast<std::size_t>(i)] = sum_ref;
    sum_ref += x;
    max_ref = std::max(max_ref, x);
  }

  EXPECT_EQ(pack(std::span<const int64_t>(vals), keep), packed_ref);
  EXPECT_EQ(pack_index<uint32_t>(n, keep), index_ref);
  const auto at = [&](int64_t i) { return vals[static_cast<std::size_t>(i)]; };
  const auto plus = [](int64_t a, int64_t b) { return a + b; };
  EXPECT_EQ(parallel_reduce<int64_t>(0, n, 0, at, plus), sum_ref);
  EXPECT_EQ(reduce_max<int64_t>(0, n, -1, at), max_ref);
  std::vector<int64_t> scanned(static_cast<std::size_t>(n));
  EXPECT_EQ(exclusive_scan(std::span<const int64_t>(vals),
                           std::span<int64_t>(scanned)),
            sum_ref);
  EXPECT_EQ(scanned, scan_ref);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndWidths, GrainBoundary,
    ::testing::Combine(::testing::Values<int64_t>(1, 2, 7, 255, 256, 257, 511,
                                                  512, 513, 2'000'000),
                       ::testing::Values(1, 4)));

}  // namespace
}  // namespace pargreedy

// Layer probes that do not depend on the workload's inputs.
#include "workloads.hpp"

namespace perfbench {

using namespace pargreedy;

void measure_parallel(Report& report) {
  ScopedNumWorkers workers(4);
  struct Size {
    const char* label;
    int64_t n;
    int reps;
    double scale;  // ns -> reported unit
    const char* unit;
  };
  for (const Size& sz : {Size{"tiny", 7, 2001, 1e-3, "us"},
                         Size{"grain", 256, 2001, 1e-3, "us"},
                         Size{"full", 1 << 20, 21, 1e-6, "ms"}}) {
    const int64_t n = sz.n;
    const std::vector<int64_t> ones(static_cast<std::size_t>(n), 1);
    std::vector<int64_t> sums(static_cast<std::size_t>(n));
    std::vector<double> pack_ns, scan_ns;
    uint64_t bad = 0;
    for (int rep = 0; rep < sz.reps; ++rep) {
      int64_t t0 = now_ns();
      const std::vector<uint32_t> packed =
          pack_index<uint32_t>(n, [](int64_t i) { return i % 3 == 0; });
      pack_ns.push_back(static_cast<double>(now_ns() - t0));
      bad += static_cast<int64_t>(packed.size()) == (n + 2) / 3 &&
                     packed.back() == static_cast<uint32_t>((n - 1) / 3 * 3)
                 ? 0
                 : 1;
      t0 = now_ns();
      const int64_t total = exclusive_scan(std::span<const int64_t>(ones),
                                           std::span<int64_t>(sums));
      scan_ns.push_back(static_cast<double>(now_ns() - t0));
      bad += total == n && sums.back() == n - 1 ? 0 : 1;
    }
    report.tally(2 * static_cast<uint64_t>(sz.reps), bad);
    report.set(std::string("parallel.pack_") + sz.label + "_" + sz.unit,
               median(pack_ns) * sz.scale, sz.unit);
    report.set(std::string("parallel.scan_") + sz.label + "_" + sz.unit,
               median(scan_ns) * sz.scale, sz.unit);
  }
}

}  // namespace perfbench

// perfbench: runs one workload for a fixed time and prints every metric,
// then one JSON line with all of them (perfbench/run.py selects the ones
// BENCHMARK.json names).
//
//   perfbench --workload static_random|dynamic_small|dynamic_large
//             --seed N --seconds S --trace 0|1 [--spans-out FILE]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

// The end-to-end metrics the issue names, printed as one table per run;
// those off a workload's path read "n/a".
constexpr const char* kIssueTable[] = {
    "setup_s",           "mis_ms_p50",          "mis_ms_tail",
    "mm_ms_p50",         "mm_ms_tail",          "mis_visible_us_p50",
    "mis_visible_us_tail", "mm_visible_us_p50", "mm_visible_us_tail",
    "update_ops_per_s",  "reads_per_s",         "read_us_tail",
    "peak_rss_mb",       "failed_frac"};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload static_random|dynamic_small|"
               "dynamic_large --seed N --seconds S --trace 0|1 "
               "[--spans-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunOptions opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      have_seconds = *end == '\0' && opt.seconds > 0 && opt.seconds <= 600;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      opt.trace = val == "1";
    } else if (key == "--spans-out") {
      opt.spans_out = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds || !have_trace)
    return usage();

  Report report;
  try {
    if (workload == "static_random") {
      report = run_static_random(opt);
    } else if (workload == "dynamic_small") {
      report = run_dynamic(dynamic_small_config(), opt);
    } else if (workload == "dynamic_large") {
      report = run_dynamic(dynamic_large_config(), opt);
    } else {
      return usage();
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
  report.set("failed_frac", report.failed_frac(), "ratio");

  std::printf("# %s seed %llu, %g s, trace %d: %llu checked, %llu failed\n",
              workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  if (!opt.trace) {
    for (const char* name : kIssueTable) {
      const Metric* m = report.find(name);
      if (m != nullptr) {
        std::printf("%-22s %16s %s\n", name,
                    format_number(m->value).c_str(), m->unit.c_str());
      } else {
        std::printf("%-22s %16s\n", name, "n/a");
      }
    }
  }
  for (const Metric& m : report.metrics())
    std::printf("  %-32s %16s %s\n", m.name.c_str(),
                format_number(m.value).c_str(), m.unit.c_str());
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}

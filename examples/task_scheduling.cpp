// Task scheduling with MIS rounds — the paper's own motivating application
// (Section 1: "if the vertices represent tasks and each edge represents the
// constraint that two tasks cannot run in parallel, the MIS finds a maximal
// set of tasks to run in parallel").
//
// This example builds a synthetic task-conflict graph (tasks conflict when
// they touch a shared resource), then schedules it by repeatedly peeling a
// maximal independent set: every peel is one "round" of tasks that can run
// concurrently. Two schedulers are compared:
//   * greedy-order peeling using the deterministic prefix-based MIS (the
//     schedule is reproducible run to run and machine to machine), and
//   * the trivial sequential schedule (one task at a time) as a baseline.
//
// Build & run:  ./examples/task_scheduling [tasks] [resources] [seed]
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "pargreedy.hpp"

namespace {

using namespace pargreedy;

/// Tasks conflict when they use a common resource: connect each pair of
/// consecutive users of every resource (a sparse proxy for the full
/// conflict clique that keeps the example linear in size).
CsrGraph make_conflict_graph(uint64_t tasks, uint64_t resources,
                             uint64_t seed) {
  const HashRng rng(seed);
  EdgeList conflicts(tasks);
  std::vector<VertexId> last_user(resources, kInvalidVertex);
  const uint64_t uses_per_task = 3;
  for (uint64_t t = 0; t < tasks; ++t) {
    for (uint64_t u = 0; u < uses_per_task; ++u) {
      const uint64_t r = rng.range(t * uses_per_task + u, resources);
      if (last_user[r] != kInvalidVertex &&
          last_user[r] != static_cast<VertexId>(t))
        conflicts.add(last_user[r], static_cast<VertexId>(t));
      last_user[r] = static_cast<VertexId>(t);
    }
  }
  return CsrGraph::from_edges(std::move(conflicts));
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t tasks = argc > 1 ? std::stoull(argv[1]) : 50'000;
  const uint64_t resources = argc > 2 ? std::stoull(argv[2]) : 20'000;
  const uint64_t seed = argc > 3 ? std::stoull(argv[3]) : 7;

  std::cout << "task_scheduling: " << tasks << " tasks, " << resources
            << " resources\n";
  const CsrGraph conflicts = make_conflict_graph(tasks, resources, seed);
  std::cout << "conflict graph: " << conflicts.num_edges()
            << " pairwise conflicts, max degree " << conflicts.max_degree()
            << "\n\n";

  // Peel MIS rounds until every task is scheduled. Removing a round means
  // recomputing on the induced subgraph of unscheduled tasks; the ordering
  // is refreshed per round (any fixed rule works — determinism comes from
  // the seeds, not the schedule of execution).
  Timer timer;
  std::vector<uint32_t> round_of(tasks, 0xffffffffu);
  std::vector<VertexId> remaining(tasks);
  for (uint64_t t = 0; t < tasks; ++t)
    remaining[t] = static_cast<VertexId>(t);
  CsrGraph current = conflicts;
  uint32_t round = 0;
  uint64_t scheduled = 0;
  Table table({"round", "runnable_tasks", "remaining_after"});
  while (!remaining.empty()) {
    const VertexOrder pi =
        VertexOrder::random(current.num_vertices(), seed + 100 + round);
    const MisResult mis =
        mis_prefix(current, pi, current.num_vertices() / 25 + 1);

    std::vector<VertexId> next_remaining;
    next_remaining.reserve(remaining.size() - mis.size());
    for (VertexId local = 0; local < current.num_vertices(); ++local) {
      if (mis.in_set[local]) {
        round_of[remaining[local]] = round;
        ++scheduled;
      } else {
        next_remaining.push_back(local);
      }
    }
    if (round < 12)  // keep the table short on big inputs
      table.add_row({std::to_string(round), fmt_count(int64_t(mis.size())),
                     fmt_count(int64_t(next_remaining.size()))});
    // Build the induced subgraph of unscheduled tasks for the next round.
    const CsrGraph next = induced_subgraph(current, next_remaining);
    std::vector<VertexId> next_global(next_remaining.size());
    for (std::size_t i = 0; i < next_remaining.size(); ++i)
      next_global[i] = remaining[next_remaining[i]];
    current = next;
    remaining.swap(next_global);
    ++round;
  }
  const double elapsed_ms = timer.elapsed_ms();
  table.print(std::cout);

  std::cout << "\nschedule: " << round << " rounds for " << tasks
            << " tasks (sequential baseline: " << tasks << " rounds; "
            << fmt_double(static_cast<double>(tasks) / round, 4)
            << "x average concurrency), computed in "
            << fmt_double(elapsed_ms) << " ms\n";

  // Validate: no two conflicting tasks share a round, every task scheduled.
  uint64_t violations = 0;
  for (const Edge& e : conflicts.edges())
    violations += round_of[e.u] == round_of[e.v] ? 1 : 0;
  uint64_t unscheduled = 0;
  for (uint64_t t = 0; t < tasks; ++t)
    unscheduled += round_of[t] == 0xffffffffu ? 1 : 0;
  std::cout << "validation: " << violations << " conflict violations, "
            << unscheduled << " unscheduled tasks, " << scheduled
            << " scheduled\n";
  return violations == 0 && unscheduled == 0 ? 0 : 1;
}

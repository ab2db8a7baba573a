// PR 8 perf ledger: sub-shard / worker-process sweep on the pcnet driver.
//
// Measures the deterministic critical path (spine work + longest task chain,
// in executed work units -- machine-independent) of the parallel exerciser
// across the ExercisePlan grid: whole-step fan-out vs K sub-shards, in-process
// vs forked RDP1 workers. The merged checkpoints are byte-identical across
// every row (pinned by tests/dist_test.cc); only the schedule shape changes,
// which is exactly what the critical path captures.
//
// Flags:
//   --json=PATH   machine-readable results (BENCH_pr8.json in CI)
//   --driver=NAME sweep a different registry target (default: pcnet, the
//                 heaviest per-step driver and the ledger's reference)
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/session.h"
#include "drivers/drivers.h"

namespace {

struct SweepRow {
  std::string label;
  unsigned threads = 0;
  unsigned sub_shards = 0;
  unsigned workers = 0;
  revnic::core::ParallelExerciseStats stats;
  revnic::bench::WorkHistogram hist;
  uint64_t total_work = 0;
  double coverage = 0;
  bool ok = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace revnic;
  std::string json_path;
  const char* driver_name = "pcnet";
  for (int i = 1; i < argc; ++i) {
    if (strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (strncmp(argv[i], "--driver=", 9) == 0) {
      driver_name = argv[i] + 9;
    } else {
      fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  const drivers::TargetInfo* target = drivers::FindTarget(driver_name);
  if (target == nullptr) {
    fprintf(stderr, "unknown driver '%s'\n", driver_name);
    return 2;
  }

  bench::PrintHeader("Sub-shard / worker sweep: exercise critical path", "PR 8 ledger");

  std::vector<SweepRow> rows = {
      {"T4 K0 in-process (PR 4 baseline)", 4, 0, 0},
      {"T4 K2 in-process", 4, 2, 0},
      {"T4 K4 in-process", 4, 4, 0},
      {"T4 K8 in-process", 4, 8, 0},
      {"T4 K4 workers=1", 4, 4, 1},
      {"T4 K4 workers=2", 4, 4, 2},
      {"T4 K4 workers=4", 4, 4, 4},
  };
  for (SweepRow& row : rows) {
    core::EngineConfig cfg;  // default budgets: the ledger's configuration
    cfg.pci = drivers::DriverPci(target->id);
    cfg.plan.threads = row.threads;
    cfg.plan.sub_shards = row.sub_shards;
    cfg.plan.worker_processes = row.workers;
    core::Session s(drivers::DriverImage(target->id), cfg);
    row.ok = s.Exercise();
    if (!row.ok) {
      fprintf(stderr, "%s: exercise failed: %s\n", row.label.c_str(), s.error().c_str());
      continue;
    }
    row.stats = s.engine().parallel;
    row.hist = bench::SummarizeTaskWorks(row.stats.task_works);
    row.total_work = s.engine().stats.work;
    row.coverage = s.engine().CoveragePercent();
  }

  printf("driver: %s (work units are executed translation blocks -- "
         "machine-independent)\n\n",
         target->name);
  printf("%-34s %10s %10s %10s %8s %9s   %s\n", "plan", "critical", "spine", "max-chain",
         "tasks", "coverage", "task-work min/med/p95/max");
  for (const SweepRow& row : rows) {
    if (!row.ok) {
      printf("%-34s %10s\n", row.label.c_str(), "FAILED");
      continue;
    }
    printf("%-34s %10llu %10llu %10llu %8u %8.1f%%   %llu/%llu/%llu/%llu\n",
           row.label.c_str(), (unsigned long long)row.stats.critical_path,
           (unsigned long long)row.stats.spine_work,
           (unsigned long long)row.stats.max_task_chain, row.stats.tasks, row.coverage,
           (unsigned long long)row.hist.min, (unsigned long long)row.hist.median,
           (unsigned long long)row.hist.p95, (unsigned long long)row.hist.max);
  }
  const SweepRow& base = rows[0];
  printf("\n(checkpoints are byte-identical across every row; the critical path is the\n"
         " schedule bound: wall ~ critical path on enough cores. PR 4 ledger baseline\n"
         " for pcnet: critical=5525.)\n");

  bool all_ok = true;
  for (const SweepRow& row : rows) {
    all_ok = all_ok && row.ok;
  }
  if (!json_path.empty()) {
    FILE* f = fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    fprintf(f, "{\n  \"bench\": \"shard_sweep\",\n  \"pr\": 8,\n  \"driver\": \"%s\",\n",
            target->name);
    fprintf(f, "  \"rows\": [");
    for (size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& r = rows[i];
      fprintf(f,
              "%s\n    {\"label\": \"%s\", \"threads\": %u, \"sub_shards\": %u, "
              "\"workers\": %u, \"ok\": %s,\n"
              "     \"critical_path\": %llu, \"spine_work\": %llu, \"max_task_chain\": %llu,\n"
              "     \"sum_segment_work\": %llu, \"enum_work\": %llu,\n"
              "     \"tasks\": %u, \"slots\": %u, \"failovers\": %u, "
              "\"total_work\": %llu, \"coverage_pct\": %.2f,\n"
              "     \"task_work_min\": %llu, \"task_work_median\": %llu, "
              "\"task_work_p95\": %llu, \"task_work_max\": %llu}",
              i == 0 ? "" : ",", r.label.c_str(), r.threads, r.sub_shards, r.workers,
              r.ok ? "true" : "false", (unsigned long long)r.stats.critical_path,
              (unsigned long long)r.stats.spine_work,
              (unsigned long long)r.stats.max_task_chain,
              (unsigned long long)r.stats.sum_segment_work,
              (unsigned long long)r.stats.enum_work, r.stats.tasks, r.stats.slots,
              r.stats.failovers, (unsigned long long)r.total_work, r.coverage,
              (unsigned long long)r.hist.min, (unsigned long long)r.hist.median,
              (unsigned long long)r.hist.p95, (unsigned long long)r.hist.max);
    }
    fprintf(f, "\n  ],\n  \"baseline_critical_path\": %llu\n}\n",
            (unsigned long long)base.stats.critical_path);
    fclose(f);
    printf("(json -> %s)\n", json_path.c_str());
  }
  return all_ok ? 0 : 1;
}

// PR 10 perf ledger: the fleet scheduler across the full batch.
//
// Runs all registered drivers through core::RunBatch twice -- the fleet with
// stealing disabled and the fleet with deterministic work stealing -- and
// reports the batch makespan of each mode. Makespans are deterministic
// virtual placements over the RECORDED per-task work units (executed
// translation blocks, machine-independent; see core/fleet.h), so the numbers
// reproduce bit for bit on any host. The static outer x inner thread split
// the fleet replaced is no longer run; it survives only as a virtual model
// over the same records (FleetBatchStats::static_makespan, the "static
// model" column). The merged checkpoints are byte-identical across modes
// (pinned by tests/dist_test.cc); only placement changes.
//
// Flags:
//   --json=PATH    machine-readable results (BENCH_pr10.json in CI)
//   --max-work=N   per-driver exercise budget (default 60000: big enough for
//                  per-step skew to show, small enough for the smoke tier)
//   --fleet=N      fleet lane count for the fleet modes (default 4)
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/session.h"
#include "drivers/drivers.h"

namespace {

struct DriverRow {
  std::string name;
  revnic::core::ParallelExerciseStats stats;
  revnic::bench::WorkHistogram hist;
};

struct ModeResult {
  std::string label;
  bool ok = false;
  revnic::core::FleetBatchStats fleet;
  std::vector<DriverRow> drivers;
};

ModeResult RunMode(const char* label, uint64_t max_work, unsigned fleet_lanes,
                   bool steal) {
  using namespace revnic;
  ModeResult mode;
  mode.label = label;

  core::ExercisePlan plan;
  plan.sub_shards = 4;
  plan.fleet = fleet_lanes;
  plan.steal = steal;
  plan.threads = 0;  // defer sizing to the batch template

  std::vector<core::BatchJob> jobs;
  for (const drivers::TargetInfo& t : drivers::AllTargets()) {
    core::BatchJob job;
    job.name = t.name;
    job.image = &drivers::DriverImage(t.id);
    job.config.pci = drivers::DriverPci(t.id);
    job.config.max_work = max_work;
    job.config.plan = plan;
    jobs.push_back(std::move(job));
  }
  core::BatchOptions options;
  options.plan = plan;
  core::BatchResult batch = core::RunBatch(jobs, options);
  mode.ok = batch.AllOk() && batch.fleet_used;
  mode.fleet = batch.fleet;
  for (const core::BatchJobResult& job : batch.jobs) {
    if (!job.ok) {
      fprintf(stderr, "%s: %s failed: %s\n", label, job.name.c_str(),
              job.error.c_str());
      continue;
    }
    DriverRow row;
    row.name = job.name;
    row.stats = job.result.engine.parallel;
    row.hist = bench::SummarizeTaskWorks(row.stats.task_works);
    mode.drivers.push_back(std::move(row));
  }
  return mode;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace revnic;
  std::string json_path;
  uint64_t max_work = 60'000;
  unsigned fleet_lanes = 4;
  for (int i = 1; i < argc; ++i) {
    if (strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (strncmp(argv[i], "--max-work=", 11) == 0) {
      max_work = strtoull(argv[i] + 11, nullptr, 10);
    } else if (strncmp(argv[i], "--fleet=", 8) == 0) {
      fleet_lanes = static_cast<unsigned>(atoi(argv[i] + 8));
    } else {
      fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  bench::PrintHeader("Batch sweep: fleet scheduler", "PR 10 ledger");
  printf("drivers: all registered, max-work=%llu, fleet=%u "
         "(makespans are deterministic virtual placements over recorded work "
         "units)\n\n",
         (unsigned long long)max_work, fleet_lanes);

  std::vector<ModeResult> modes;
  modes.push_back(RunMode("fleet no-steal", max_work, fleet_lanes, false));
  modes.push_back(RunMode("fleet steal", max_work, fleet_lanes, true));

  bool all_ok = true;
  printf("%-22s %10s %13s %10s %10s %8s %8s\n", "mode", "makespan", "static model",
         "no-steal", "steal", "tasks", "v-steals");
  for (const ModeResult& m : modes) {
    all_ok = all_ok && m.ok;
    if (!m.ok) {
      printf("%-22s %10s\n", m.label.c_str(), "FAILED");
      continue;
    }
    printf("%-22s %10llu %13llu %10llu %10llu %8u %8u\n", m.label.c_str(),
           (unsigned long long)m.fleet.makespan,
           (unsigned long long)m.fleet.static_makespan,
           (unsigned long long)m.fleet.no_steal_makespan,
           (unsigned long long)m.fleet.steal_makespan, m.fleet.tasks,
           m.fleet.virtual_steals);
  }

  const ModeResult& steal_mode = modes.back();
  if (steal_mode.ok) {
    const core::FleetBatchStats& f = steal_mode.fleet;
    printf("\nfleet=%u, spine floor %llu, total fan-out work %llu; steal vs "
           "static model: %llu vs %llu (%.1f%% shorter)\n",
           f.workers, (unsigned long long)f.max_spine_work,
           (unsigned long long)f.total_task_work, (unsigned long long)f.steal_makespan,
           (unsigned long long)f.static_makespan,
           f.static_makespan == 0
               ? 0.0
               : 100.0 * (1.0 - (double)f.steal_makespan / (double)f.static_makespan));
    printf("\nper-driver fan-out (fleet steal run):\n");
    printf("  %-12s %8s %12s   %s\n", "driver", "tasks", "handoff-B",
           "task-work min/med/p95/max");
    for (const DriverRow& d : steal_mode.drivers) {
      printf("  %-12s %8u %12llu   %llu/%llu/%llu/%llu\n", d.name.c_str(),
             d.stats.tasks, (unsigned long long)d.stats.handoff_bytes,
             (unsigned long long)d.hist.min, (unsigned long long)d.hist.median,
             (unsigned long long)d.hist.p95, (unsigned long long)d.hist.max);
    }
  }
  printf("\n(checkpoints are byte-identical across every mode -- pinned by "
         "tests/dist_test.cc;\n scheduling is placement-only.)\n");

  if (!json_path.empty()) {
    FILE* f = fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    fprintf(f, "{\n  \"bench\": \"batch_sweep\",\n  \"pr\": 10,\n");
    fprintf(f, "  \"max_work\": %llu,\n  \"fleet\": %u,\n",
            (unsigned long long)max_work, fleet_lanes);
    fprintf(f, "  \"modes\": [");
    for (size_t i = 0; i < modes.size(); ++i) {
      const ModeResult& m = modes[i];
      fprintf(f,
              "%s\n    {\"label\": \"%s\", \"ok\": %s,\n"
              "     \"makespan\": %llu, \"static_model_makespan\": %llu, "
              "\"no_steal_makespan\": %llu, \"steal_makespan\": %llu,\n"
              "     \"tasks\": %u, \"virtual_steals\": %u, \"real_steals\": %u, "
              "\"max_spine_work\": %llu, \"total_task_work\": %llu}",
              i == 0 ? "" : ",", m.label.c_str(), m.ok ? "true" : "false",
              (unsigned long long)m.fleet.makespan,
              (unsigned long long)m.fleet.static_makespan,
              (unsigned long long)m.fleet.no_steal_makespan,
              (unsigned long long)m.fleet.steal_makespan, m.fleet.tasks,
              m.fleet.virtual_steals, m.fleet.real_steals,
              (unsigned long long)m.fleet.max_spine_work,
              (unsigned long long)m.fleet.total_task_work);
    }
    fprintf(f, "\n  ],\n  \"drivers\": [");
    for (size_t i = 0; i < steal_mode.drivers.size(); ++i) {
      const DriverRow& d = steal_mode.drivers[i];
      fprintf(f,
              "%s\n    {\"name\": \"%s\", \"tasks\": %u, \"critical_path\": %llu,\n"
              "     \"handoff_bytes\": %llu, \"snapshot_bytes_shipped\": %llu, "
              "\"snapshot_bytes_reused\": %llu,\n"
              "     \"task_work_min\": %llu, \"task_work_median\": %llu, "
              "\"task_work_p95\": %llu, \"task_work_max\": %llu}",
              i == 0 ? "" : ",", d.name.c_str(), d.stats.tasks,
              (unsigned long long)d.stats.critical_path,
              (unsigned long long)d.stats.handoff_bytes,
              (unsigned long long)d.stats.snapshot_bytes_shipped,
              (unsigned long long)d.stats.snapshot_bytes_reused,
              (unsigned long long)d.hist.min, (unsigned long long)d.hist.median,
              (unsigned long long)d.hist.p95, (unsigned long long)d.hist.max);
    }
    fprintf(f, "\n  ]\n}\n");
    fclose(f);
    printf("(json -> %s)\n", json_path.c_str());
  }
  return all_ok ? 0 : 1;
}

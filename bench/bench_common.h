// Shared helpers for the per-table/per-figure benchmark binaries.
#ifndef REVNIC_BENCH_BENCH_COMMON_H_
#define REVNIC_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/session.h"
#include "drivers/drivers.h"
#include "perf/harness.h"

namespace revnic::bench {

// Exercises `id` once per process via the global checkpoint store (the
// exercise stage is the expensive part); each call resumes from that
// checkpoint and re-runs only the cheap downstream stages. Deterministic, so
// repeated calls agree. Bind the result to a const reference:
//   const core::PipelineResult& pr = bench::Pipeline(id);
// The EmitOptions overload re-runs the downstream pass pipeline + backends
// with the given settings against the same cached exercise checkpoint
// (e.g. fig9's cleanup-off baseline, table3's per-target emissions). The
// ExercisePlan overload runs the exercise stage under that plan; the store
// key mixes the resolved plan (ConfigFingerprint), so differently-sharded
// checkpoints never alias. A failed exercise ends the bench with the store's
// error rather than reporting rows from an empty result.
inline core::PipelineResult Pipeline(drivers::DriverId id, uint64_t max_work,
                                     const core::EmitOptions& emit,
                                     const core::ExercisePlan& plan = {}) {
  core::EngineConfig cfg;
  cfg.pci = drivers::DriverPci(id);
  cfg.max_work = max_work;
  cfg.plan = plan;
  std::string key = std::string(drivers::DriverName(id)) + "@" + std::to_string(max_work);
  std::string error;
  auto session =
      core::CheckpointStore::Global().Resume(key, drivers::DriverImage(id), cfg, "", &error);
  if (session == nullptr) {
    fprintf(stderr, "bench: %s\n", error.c_str());
    exit(1);
  }
  session->set_emit_options(emit);
  session->RunAll();
  return session->TakeResult();
}

inline core::PipelineResult Pipeline(drivers::DriverId id, uint64_t max_work = 250'000) {
  return Pipeline(id, max_work, core::EmitOptions());
}

// Registry-driven device enumeration for the figure/table loops (no
// hard-coded driver ids).
inline std::vector<drivers::DriverId> AllDriverIds() {
  std::vector<drivers::DriverId> ids;
  for (const drivers::TargetInfo& t : drivers::AllTargets()) {
    ids.push_back(t.id);
  }
  return ids;
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  printf("\n================================================================\n");
  printf("%s\n(reproduces %s of Chipounov & Candea, EuroSys'10)\n", title, paper_ref);
  printf("================================================================\n");
}

// Prints sweep series as aligned columns: size then one column per series.
inline void PrintSweepTable(const std::vector<perf::SweepResult>& series, bool cpu_util,
                            bool driver_frac = false) {
  printf("%-10s", "payload_B");
  for (const auto& s : series) {
    printf("%22s", s.label.c_str());
  }
  printf("\n");
  if (series.empty() || series[0].points.empty()) {
    printf("(no data)\n");
    return;
  }
  for (size_t row = 0; row < series[0].points.size(); ++row) {
    printf("%-10zu", series[0].points[row].payload_bytes);
    for (const auto& s : series) {
      if (row >= s.points.size()) {
        printf("%22s", "-");
        continue;
      }
      const perf::PerfPoint& p = s.points[row];
      if (driver_frac) {
        printf("%21.1f%%", p.driver_cpu_frac * 100);
      } else if (cpu_util) {
        printf("%21.1f%%", p.cpu_util * 100);
      } else {
        printf("%22.1f", p.throughput_mbps);
      }
    }
    printf("\n");
  }
}

}  // namespace revnic::bench

#endif  // REVNIC_BENCH_BENCH_COMMON_H_

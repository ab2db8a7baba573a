// The RevNIC exerciser engine (§3.2): drives a binary driver through the
// user-mode script (load, IOCTLs, send, receive, unload) under selective
// symbolic execution, applying the paper's path-selection heuristics, and
// wiretaps everything into a TraceBundle.
#ifndef REVNIC_CORE_ENGINE_H_
#define REVNIC_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/exercise_plan.h"
#include "core/shell.h"
#include "isa/disasm.h"
#include "isa/image.h"
#include "os/winsim.h"
#include "perf/profile.h"
#include "symex/scheduler.h"
#include "trace/trace.h"
#include "util/fields.h"
#include "vm/dbt.h"
#include "vm/machine.h"

namespace revnic::core {

class FleetScheduler;     // core/fleet.h
struct FanoutTask;        // core/fanout.h
struct FanoutTaskResult;  // core/fanout.h

struct CoverageSample {
  uint64_t work = 0;             // translation blocks executed so far
  size_t covered_blocks = 0;     // static basic blocks touched
  uint64_t faults = 0;           // faults injected so far (0 unless enabled)
};

struct EngineConfig {
  hw::PciConfig pci;
  // Total work budget, in executed translation blocks.
  uint64_t max_work = 2'000'000;
  // Per-entry-point work cap before moving on (§3.2 "predefined amount of
  // time" per entry point).
  uint64_t max_work_per_step = 200'000;
  // §3.2: after this many successful completions of an entry point, collapse
  // to one random successful path and move on.
  unsigned entry_success_cap = 12;
  // An entry point's exploration ends once the completion cap is reached AND
  // no new basic block has been discovered for this many work units (§3.2's
  // "predefined amount of time" per entry point).
  uint64_t no_progress_window = 1500;
  // Polling-loop heuristic: a state revisiting one block this often inside a
  // single entry invocation is killed (it is the path that stays in the loop;
  // the forked exit path survives).
  uint32_t polling_visit_threshold = 64;
  // APIs to skip entirely (§3.2 heuristic 4); WriteErrorLogEntry by default.
  std::set<uint32_t> skip_apis = {os::kNdisWriteErrorLogEntry};
  // Function models (§3.2 heuristic 4, second half): driver functions to
  // replace with "a few lines of code [that] set the program counter
  // appropriately to skip the call, and return a symbolic value". The
  // developer picks candidates from EngineResult::call_counts of a first run.
  struct FunctionModel {
    uint32_t entry_pc = 0;
    uint32_t arg_bytes = 0;        // stdcall cleanup the skipped callee owed
    bool symbolic_return = true;   // e.g. a modeled register read
  };
  std::vector<FunctionModel> function_models;
  // Registry keys visible to the driver during exercising.
  std::vector<std::pair<uint32_t, uint32_t>> registry = {
      {os::kCfgDuplexMode, 2}, {os::kCfgWakeOnLan, 1}, {os::kCfgLedMode, 3}};
  symex::StatePool::Options pool;
  uint64_t seed = 1;
  // How the exercise stage is parallelized and perturbed: output class and
  // fleet lanes, intra-step sub-shards and the deterministic fault plan --
  // one struct (see core/exercise_plan.h). plan.threads == 1 with
  // everything else at its default runs the legacy sequential exerciser,
  // byte-for-byte. For a fixed seed the merged result is byte-identical
  // across lane counts and sub-shard counts >= 1, clean and under faults
  // (the fault schedule is a pure function of plan.faults; the cursor rides
  // in RSS1 snapshots). plan.faults
  // participates in the checkpoint config fingerprint. Removed knobs and
  // their replacements: migration table in src/core/README.md.
  ExercisePlan plan;
  // Capture the final chain state as a serialized "RSS1" snapshot in
  // EngineResult::final_snapshot ("RCP1" checkpoints embed it). Under
  // parallel exercising the spine's final state is captured (identical for
  // every lane count).
  bool capture_final_snapshot = true;
  // Coverage timeline sampling period (work units).
  uint64_t sample_every = 2048;
  // Streaming observation (core::Session wires its observer through here):
  // invoked on the thread that called Engine::Run, once per
  // EngineResult::timeline sample, element for element and in order, under
  // every plan. The sequential exerciser reports each sample as it is
  // taken; a parallel-class run reports the spine's samples as the spine
  // takes them and the rest of the merged timeline after the merge.
  std::function<void(const CoverageSample&)> on_coverage;
  // Cooperative cancellation: polled between translated blocks. Returning
  // true stops the run early; the wiretap output gathered so far is returned
  // with EngineResult::cancelled set. Under parallel exercising the hook is
  // polled concurrently from every worker (make it thread-safe; the first
  // observed true sticks and drains the pool).
  std::function<bool()> cancel;
  // The fleet a parallel-class run submits its fan-out tasks to (tagged
  // fleet_job). RunBatch injects its shared batch fleet here; when null the
  // engine builds a private single-job fleet with FleetLanes(plan) lanes.
  // Placement only -- never part of the checkpoint config fingerprint,
  // results stay byte-identical either way.
  FleetScheduler* fleet = nullptr;
  uint32_t fleet_job = 0;
};

struct EngineStats {
  uint64_t work = 0;
  uint64_t states_created = 0;
  uint64_t states_killed_polling = 0;
  uint64_t states_killed_error = 0;
  uint64_t entry_completions = 0;
  uint64_t irqs_injected = 0;
  uint64_t api_calls = 0;
  uint64_t api_skipped = 0;

  // The field list (util/fields.h), in serialized order.
  static constexpr uint64_t EngineStats::*kFields[] = {
      &EngineStats::work, &EngineStats::states_created, &EngineStats::states_killed_polling,
      &EngineStats::states_killed_error, &EngineStats::entry_completions,
      &EngineStats::irqs_injected, &EngineStats::api_calls, &EngineStats::api_skipped};

  // Segment arithmetic for the parallel merge: += sums a segment in, -=
  // rebases against a BeginSegment mark.
  EngineStats& operator+=(const EngineStats& o) { return AddFields(*this, o); }
  EngineStats& operator-=(const EngineStats& o) { return SubtractFields(*this, o); }
};
static_assert(FieldListCovers<EngineStats>());

// Parallel exercising diagnostics, populated whenever the staged
// parallel architecture runs (ParallelClass(plan)). All figures are
// deterministic work units, not wall-clock; fig8_coverage and
// driver_inspector print them. Runtime diagnostic -- not serialized into
// checkpoints (merged checkpoint bytes stay plan-shape independent within
// the guarantee grid).
struct ParallelExerciseStats {
  uint64_t spine_work = 0;          // sequential spine pass, merged units
  uint64_t max_task_chain = 0;      // heaviest fan-out task (all its replicas)
  uint64_t critical_path = 0;       // spine_work + max_task_chain
  uint64_t enum_work = 0;           // sub-shard enumeration re-run overhead
  uint32_t tasks = 0;               // fan-out tasks dispatched (steps x shards)
  // Fleet-scheduler figures.
  uint32_t fleet_workers = 0;       // lanes of the fleet the job's tasks used
};

struct EngineResult {
  trace::TraceBundle bundle;
  std::set<uint32_t> covered_blocks;   // static basic-block starts reached
  size_t static_blocks = 0;            // denominator for coverage %
  std::vector<CoverageSample> timeline;
  EngineStats stats;
  symex::SolverStats solver_stats;
  symex::ExecutorStats executor_stats;
  // Cross-layer cache effectiveness (solver cache, expr interning, DBT
  // translation cache) for the run summary.
  perf::SubstrateCounters substrate;
  // Entry-point table discovered via registration monitoring.
  std::vector<os::EntryPoint> entries;
  // Direct-call counts per callee pc: the "most frequently called functions"
  // report the developer uses to pick model candidates (§3.2).
  std::map<uint32_t, uint64_t> call_counts;
  uint64_t functions_modeled = 0;
  // API usage (Table 1 "imported functions" observed dynamically).
  std::set<uint32_t> apis_used;
  // Fault-injection counters (all zero unless the plan's fault plan is
  // enabled). Deterministic for a fixed (seed, plan); serialized in RCP1 v3
  // checkpoints and pinned byte-identical by the parallel-exercise tests.
  hw::FaultStats fault_stats;
  // True when EngineConfig::cancel stopped the run before the script ended.
  bool cancelled = false;
  // Serialized "RSS1" snapshot of the final chain state (empty when
  // EngineConfig::capture_final_snapshot is off). Deterministic: identical
  // across lane counts for a fixed seed.
  std::vector<uint8_t> final_snapshot;
  // Fan-out replicas whose start snapshot failed to restore. A task has no
  // other way to its start state, so such a task contributes no segment and
  // the run fails closed: `error` names the first failed step and
  // Session::Exercise returns false. Always 0 in a healthy run; tests pin
  // it. Runtime diagnostic -- not serialized into checkpoints.
  uint64_t snapshot_restore_failures = 0;
  // Empty unless the run failed (see snapshot_restore_failures).
  std::string error;
  // Parallel exercising diagnostics (all zero on the sequential
  // path). Runtime diagnostic -- not serialized into checkpoints.
  ParallelExerciseStats parallel;

  double CoveragePercent() const {
    return static_blocks == 0 ? 0.0
                              : 100.0 * static_cast<double>(covered_blocks.size()) /
                                    static_cast<double>(static_blocks);
  }
};

class Engine {
 public:
  Engine(const isa::Image& image, const EngineConfig& config);
  ~Engine();

  // Runs the whole script; returns the wiretap output and statistics.
  EngineResult Run();

  // Runs one fan-out task exactly as an in-process fleet lane would:
  // restore the step's RSS1 snapshot, probe the step, and run the owned
  // sub-shard roots. A snapshot that fails to restore yields no begun slot
  // and counts FanoutTaskResult::restore_failures -- there is no other way
  // to the start state. Stateless with respect to any Engine instance --
  // which is what makes a stolen task byte-identical to a home-lane one.
  static FanoutTaskResult ExecuteFanoutTask(const isa::Image& image, const EngineConfig& config,
                                            const FanoutTask& task,
                                            const std::vector<uint8_t>& snapshot);

  // The step-lockstep oracle for RSS1 restore: runs the sequential
  // exerciser under `config` (plan shape ignored, faults kept) capturing
  // every step's start snapshot, then restores each snapshot k into a fresh
  // replica and runs step k. True iff every replica's re-serialized state,
  // wiretap records and merge-summed counters (intern hit/miss excluded)
  // match the uninterrupted run's; otherwise *error names the first
  // diverging step. See src/symex/README.md.
  static bool VerifyRestoreLockstep(const isa::Image& image, const EngineConfig& config,
                                    std::string* error);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace revnic::core

#endif  // REVNIC_CORE_ENGINE_H_

// ExercisePlan: the one way to configure how a driver's exercise stage is
// parallelized and perturbed (PR 8 API redesign).
//
// Parallel exercising grew knob by knob -- `EngineConfig::exercise_threads`
// (PR 3), the fault plan (PR 6), `BatchOptions::thread_budget` -- and the
// sub-shard split would have grown it again. Instead of extending the
// scatter, every dimension lives in this one struct:
//
//   core::ExercisePlan plan;
//   plan.threads = 4;            // parallel class, 4 fleet lanes
//   plan.sub_shards = 4;         // split heavy steps into K pool partitions
//   plan.faults = my_fault_plan;
//   config.plan = plan;
//
// The legacy fields survived as deprecated forwarding shims for one release
// of overlap and were removed in PR 9; this struct is now the only spelling
// (migration table in src/core/README.md).
//
// A plan selects one of three output classes -- sequential, whole-step
// parallel (sub_shards == 0) and sub-sharded (sub_shards >= 1) -- through
// ParallelClass() below, the one predicate the engine, RunBatch and the
// checkpoint-store fingerprint share. Within a class every plan with the
// same seed produces byte-identical merged results -- across lane counts,
// fleet sizes, stealing on/off and sub-shard counts >= 1, clean and under
// faults. Every parallel-class fan-out task runs in process on a
// core::FleetScheduler lane (core/fleet.h) and starts from the RSS1 snapshot
// the spine captured at its step boundary -- the one handoff there is. The
// determinism argument lives in src/symex/README.md.
#ifndef REVNIC_CORE_EXERCISE_PLAN_H_
#define REVNIC_CORE_EXERCISE_PLAN_H_

#include <algorithm>
#include <thread>

#include "hw/faults.h"

namespace revnic::core {

struct ExercisePlan {
  // 1 (default) = the legacy sequential exerciser, byte-for-byte -- unless
  // sub_shards engages the parallel architecture below.
  // Any other value selects the parallel class and, unless `fleet` is set,
  // the fan-out lane count; 0 = size the lanes for the hardware (and, under
  // RunBatch with a batch-level plan, inherit the batch template). The
  // class never depends on the host: 0 is parallel even on one core.
  unsigned threads = 1;
  // Intra-step sub-sharding: 0 (default) fans out whole steps (one task per
  // script step, the PR 3/4 architecture). K >= 1 splits each step's
  // exploration into K deterministic sub-partitions of the enumerated
  // pending pool -- a stable hash of state identity assigns each enumerated
  // root to one of the K sub-shards -- lifting the per-driver parallelism
  // ceiling past the script length (pcnet's longest step dominated the PR 4
  // critical path). Merged bytes are identical for every K >= 1 (K only
  // routes root ownership; each root explores in an isolated replica), but
  // K = 0 and K >= 1 are distinct exploration shapes with distinct bytes.
  unsigned sub_shards = 0;
  // Deterministic fault injection at the shell-device boundary (register
  // read-back corruption, DMA stall/bus-error poisoning, perturbed scripted
  // IRQs). Disabled by default. See src/hw/README.md.
  hw::FaultPlan faults;
  // Fleet lanes for the fan-out tasks; see FleetLanes(). 0 (default) =
  // size from `threads`. On a RunBatch template it sizes the one fleet
  // every parallel-class job of the batch shares (cross-driver
  // scheduling); on a standalone engine config, the run's private
  // single-job fleet. Placement and timing only: merged bytes are
  // independent of fleet (and steal), so neither knob enters the
  // checkpoint config fingerprint, and fleet alone never makes a
  // sequential plan parallel.
  unsigned fleet = 0;
  // Cross-driver work stealing: true (default) lets an idle fleet worker
  // take the longest-estimated queued task from any job's lane; false pins
  // every task to the lane it was placed on at submission. Scheduling only
  // -- byte-identical either way (pinned by tests/dist_test.cc).
  bool steal = true;
};

// The output class: true for the parallel architecture (spine + fan-out),
// false for the legacy sequential exerciser. threads == 0 is parallel on
// every host, so the class -- and the checkpoint bytes -- are
// machine-independent.
inline bool ParallelClass(const ExercisePlan& plan) {
  return plan.threads != 1 || plan.sub_shards >= 1;
}

// Fleet lanes a parallel-class plan asks for: plan.fleet if set, else
// plan.threads (0 = hardware concurrency).
inline unsigned FleetLanes(const ExercisePlan& plan) {
  unsigned lanes = plan.fleet != 0 ? plan.fleet : plan.threads;
  if (lanes == 0) {
    lanes = std::max(1u, std::thread::hardware_concurrency());
  }
  return lanes;
}

}  // namespace revnic::core

#endif  // REVNIC_CORE_EXERCISE_PLAN_H_

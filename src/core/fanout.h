// Fan-out task descriptors.
//
// Under the staged parallel exerciser a fan-out task is one (script step,
// sub-shard) pair. Every task runs on an in-process core::FleetScheduler
// lane through the one task entry point (core::Engine's RunFanoutTask);
// this header defines the task and result structs that entry point trades
// in.
#ifndef REVNIC_CORE_FANOUT_H_
#define REVNIC_CORE_FANOUT_H_

#include <cstdint>
#include <vector>

#include "core/engine.h"

namespace revnic::core {

// One unit of fan-out work. sub_shards == 0 is the whole-step architecture
// (one task per step, sub_shard always 0); K >= 1 splits the step across K
// tasks that each own the enumerated roots hashing to their shard.
struct FanoutTask {
  uint64_t step = 0;
  uint32_t sub_shard = 0;
  uint32_t sub_shards = 0;
};

// One merged-checkpoint slot produced by a task: ordinal 0 is the whole-step
// segment (sub_shards == 0) or the enumeration segment (sub_shards >= 1,
// owned by sub-shard 0); ordinal 1+i is enumerated root i's segment.
struct FanoutSlot {
  uint32_t ordinal = 0;
  bool begun = false;  // false = budget gate closed before the segment began
  EngineResult result;
};

struct FanoutTaskResult {
  std::vector<FanoutSlot> slots;
  // Roots this task's enumeration probe discovered (identical across the
  // step's K tasks by construction; the merge uses it to size the step's
  // slot layout). 0 when sub_shards == 0.
  uint64_t root_count = 0;
  // Executed work on this task's chain, across all its replicas -- the
  // critical-path unit ParallelExerciseStats reports.
  uint64_t task_work = 0;
  // The portion of task_work that re-ran the sub-shard enumeration.
  uint64_t enum_work = 0;
  // Replicas whose snapshot failed to restore (no begun slot each).
  uint64_t restore_failures = 0;
};

}  // namespace revnic::core

#endif  // REVNIC_CORE_FANOUT_H_

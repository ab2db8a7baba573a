// Fan-out task descriptors + their RDP1 payload encodings (PR 8) + the one
// worker-process handler.
//
// Under the staged parallel exerciser a fan-out task is one (script step,
// sub-shard) pair. The in-process fleet lanes and the forked dist workers run
// the exact same task entry point (core::Engine's RunFanoutTask) on the same
// inputs; this header defines the task/result structs and the byte encodings
// that carry them across the RDP1 socket (src/dist/wire.h). The result
// encoding is the RCP1 EngineResult codec, so a segment computed in a worker
// process merges to the same bytes as one computed in-process.
#ifndef REVNIC_CORE_FANOUT_H_
#define REVNIC_CORE_FANOUT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"

namespace revnic::dist {
class WorkerPool;  // dist/coordinator.h
}  // namespace revnic::dist

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
  // critical-path unit REVNIC_PARALLEL_STATS reports.
  uint64_t task_work = 0;
  // The portion of task_work that re-ran the sub-shard enumeration.
  uint64_t enum_work = 0;
  // Replicas whose snapshot failed to restore (no begun slot each).
  uint64_t restore_failures = 0;
};

// Work-item payload ("FWK3"): batch job index + task descriptor + the
// context key of its RSS1 start snapshot in the worker's per-process context
// cache (src/dist/coordinator.h ships the blob at most once per worker with
// a kContext frame, so the step's K sub-shard tasks and stolen tasks don't
// re-ship state). An empty key is malformed.
//
// SerializeFanoutWorkInto writes into *out in place (cleared, capacity
// kept): the fan-out path keeps ONE such buffer per fleet worker, so
// steady-state handoff does no per-task reallocation.
void SerializeFanoutWorkInto(uint32_t job, const FanoutTask& task,
                             const std::string& context_key, std::vector<uint8_t>* out);
bool DeserializeFanoutWork(const std::vector<uint8_t>& bytes, uint32_t* job, FanoutTask* task,
                           std::string* context_key, std::string* error);

// Result payload ("FWR3"): the task header, then each begun slot's
// EngineResult in the one codec RCP1 checkpoints also use
// (core/result_codec.h) -- final_snapshot and the runtime-only diagnostics
// are not carried.
std::vector<uint8_t> SerializeFanoutResult(const FanoutTaskResult& result);
bool DeserializeFanoutResult(const std::vector<uint8_t>& bytes, FanoutTaskResult* out,
                             std::string* error);

// One row of the job table a worker pool serves: a work item's job index
// selects the image and resolved config its task runs under.
struct FanoutJob {
  const isa::Image* image = nullptr;
  EngineConfig config;
};

// Forks `workers` RDP1 worker processes that run Engine::ExecuteFanoutTask
// on FWK3 items for `jobs` (hooks and fleet stripped from the configs). A
// standalone run passes a one-entry table (job 0), RunBatch every batch
// job. Null when no worker came up (the caller then runs in-process).
std::unique_ptr<dist::WorkerPool> ForkFanoutWorkers(std::vector<FanoutJob> jobs,
                                                    unsigned workers);

}  // namespace revnic::core

#endif  // REVNIC_CORE_FANOUT_H_

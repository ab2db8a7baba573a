// FleetScheduler: the one scheduler for parallel exercising's fan-out tasks.
//
// A parallel-class engine run splits into a spine plus independent
// (step, shard) fan-out tasks; every such task runs on a fleet. RunBatch
// builds ONE fleet shared by all of its parallel-class jobs (cross-driver
// scheduling); a standalone Engine run builds a private single-job fleet.
// Tasks queue per lane in longest-estimated-chain-first order and -- with
// stealing on -- an idle worker takes the best queued task of ANY job, so a
// driver that finishes early never leaves its lanes idle while the heaviest
// driver's tail runs alone, and sub-shard skew (splitmix64 root assignment
// leaves some tasks 2-3x heavier than others) evens out.
//
// Determinism. Scheduling changes placement and timing, never results:
// every fan-out task is a pure function of its RSS1 snapshot, and the
// engine's canonical merge walks fixed (step, slot-ordinal) positions, so
// merged checkpoints are byte-identical for every fleet size and stealing
// on/off (tests/dist_test.cc pins the grid).
//
// Estimates come from the run's own spine: the engine seeds each task with
// its spine step's measured work (recorded during the spine pass), split
// across the step's shards. Nothing carries over between fleets or batches,
// so a task's queue priority never depends on what ran earlier in the
// process.
//
// Reporting. The fleet records what actually ran: task count, executed
// work units (translation blocks, machine-independent) and live off-home
// executions. FleetBatchStats::makespan is a MODEL, not a measurement: an
// LPT placement of the recorded per-task work, floored by the heaviest
// spine. Wall and CPU time of a fleet run are measured by perfbench's
// corpus-fleet workload.
#ifndef REVNIC_CORE_FLEET_H_
#define REVNIC_CORE_FLEET_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace revnic::core {

// Batch-level scheduling stats: what ran, plus one labelled model.
// real_steals depends on the wall-clock interleaving; every other field is
// reproducible bit for bit for a fixed seed and plan.
struct FleetBatchStats {
  unsigned workers = 0;           // fleet lanes
  bool steal = false;             // configured mode
  uint32_t tasks = 0;             // executed fan-out tasks, all jobs
  uint64_t total_task_work = 0;   // summed fan-out work units
  uint64_t max_spine_work = 0;    // heaviest job spine
  uint64_t makespan = 0;          // model: LPT over task work, floored by the spine
  uint32_t real_steals = 0;       // live off-home executions (monitoring only)
};

class FleetScheduler {
 public:
  struct Options {
    unsigned workers = 1;  // fleet worker threads
    bool steal = true;     // cross-job stealing when a lane idles
  };

  // One fan-out unit. `run` executes on a fleet worker and returns the work
  // units the task actually executed (recorded for ComputeStats).
  struct Task {
    uint32_t job = 0;
    uint64_t step = 0;
    uint32_t shard = 0;
    uint64_t estimate = 1;
    std::function<uint64_t()> run;
  };

  explicit FleetScheduler(const Options& options);
  ~FleetScheduler();  // drains nothing: callers must have joined their jobs

  FleetScheduler(const FleetScheduler&) = delete;
  FleetScheduler& operator=(const FleetScheduler&) = delete;

  // Registers a job's spine work (the makespan model's floor).
  void SetJobSpineWork(uint32_t job, uint64_t spine_work);

  // Submits one job's tasks and blocks until all of them have executed.
  // Thread-safe: every batch job calls this concurrently from its own
  // thread; the fleet interleaves all jobs' tasks across its workers.
  void RunJobTasks(uint32_t job, std::vector<Task> tasks);

  unsigned workers() const { return options_.workers; }
  bool steal() const { return options_.steal; }

  // Stats over everything executed so far; call after all jobs finished.
  FleetBatchStats ComputeStats() const;

 private:
  // Priority order within a lane: longest estimated chain first, ties in
  // canonical (job, step, shard) order.
  struct PKey {
    uint64_t estimate = 0;
    uint32_t job = 0;
    uint64_t step = 0;
    uint32_t shard = 0;
    bool operator<(const PKey& o) const {
      if (estimate != o.estimate) {
        return estimate > o.estimate;
      }
      if (job != o.job) {
        return job < o.job;
      }
      if (step != o.step) {
        return step < o.step;
      }
      return shard < o.shard;
    }
  };

  void WorkerLoop(unsigned lane);

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  std::vector<std::map<PKey, Task>> lanes_;  // queued tasks, homed per lane
  std::vector<uint64_t> committed_;          // estimate sum placed on each lane
  std::map<uint32_t, uint32_t> outstanding_; // job -> queued + running tasks
  std::map<uint32_t, uint64_t> spine_work_;
  uint32_t real_steals_ = 0;                 // off-home executions, all jobs
  std::vector<uint64_t> works_;              // executed work, one per task
  std::vector<std::thread> threads_;
};

}  // namespace revnic::core

#endif  // REVNIC_CORE_FLEET_H_

// The ExercisePlan grid guarantee -- fixed seed => byte-identical merged
// checkpoints across {threads} x {sub-shards} x {fleet size, stealing},
// clean and faulted -- plus the FleetScheduler on synthetic tasks and the
// pcnet critical-path ledger bound.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/fleet.h"
#include "core/session.h"
#include "drivers/drivers.h"
#include "hw/faults.h"

namespace revnic {
namespace {

using drivers::DriverId;

core::EngineConfig SmallConfig(DriverId id, uint64_t max_work = 60'000) {
  core::EngineConfig cfg;
  cfg.pci = drivers::DriverPci(id);
  cfg.max_work = max_work;
  cfg.max_work_per_step = max_work / 6;
  return cfg;
}

struct PlanSpec {
  unsigned threads = 2;
  unsigned sub_shards = 2;
  const char* faults = nullptr;
  unsigned fleet = 0;  // private single-job fleet lanes (0 = from threads)
  bool steal = true;
};

core::EngineConfig PlanConfig(DriverId id, const PlanSpec& spec, uint64_t max_work = 60'000) {
  core::EngineConfig cfg = SmallConfig(id, max_work);
  cfg.plan.threads = spec.threads;
  cfg.plan.sub_shards = spec.sub_shards;
  cfg.plan.fleet = spec.fleet;
  cfg.plan.steal = spec.steal;
  if (spec.faults != nullptr) {
    std::string error;
    EXPECT_TRUE(hw::ParseFaultPlan(spec.faults, &cfg.plan.faults, &error)) << error;
  }
  return cfg;
}

// Exercises `id` under `spec` and returns the full checkpoint blob (bundle +
// coverage + every counter): byte-comparing two blobs compares two runs'
// complete observable exercise output.
std::vector<uint8_t> PlanBlob(DriverId id, const PlanSpec& spec, uint64_t max_work = 60'000,
                              core::ParallelExerciseStats* stats = nullptr) {
  core::Session s(drivers::DriverImage(id), PlanConfig(id, spec, max_work));
  EXPECT_TRUE(s.Exercise());
  if (stats != nullptr) {
    *stats = s.engine().parallel;
  }
  return s.SaveCheckpoint();
}

// ---- the grid guarantee ----

TEST(DistExercise, SubShardGridByteIdentical) {
  // One baseline, every other {threads, sub-shards} cell must match
  // it byte for byte. (K >= 1 uses the sub-shard slot layout, so the
  // baseline is a K >= 1 run; K == 0 parity with the legacy layout is pinned
  // by parallel_exercise_test.)
  std::vector<uint8_t> baseline = PlanBlob(DriverId::kRtl8029, {2, 1});
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(baseline, PlanBlob(DriverId::kRtl8029, {1, 1}));
  EXPECT_EQ(baseline, PlanBlob(DriverId::kRtl8029, {1, 4}));
  EXPECT_EQ(baseline, PlanBlob(DriverId::kRtl8029, {2, 2}));
  EXPECT_EQ(baseline, PlanBlob(DriverId::kRtl8029, {2, 4}));
  EXPECT_EQ(baseline, PlanBlob(DriverId::kRtl8029, {4, 2}));
  EXPECT_EQ(baseline, PlanBlob(DriverId::kRtl8029, {4, 4}));
  EXPECT_EQ(baseline, PlanBlob(DriverId::kRtl8029, {4, 8}));
}

TEST(DistExercise, FourDriversCleanAndFaultedAgreeAcrossTheGrid) {
  for (DriverId id : drivers::kAllDrivers) {
    for (const char* faults : {(const char*)nullptr, "1729:all=0.05"}) {
      PlanSpec a{2, 2, faults};
      PlanSpec b{4, 4, faults};
      std::vector<uint8_t> blob_a = PlanBlob(id, a, 40'000);
      ASSERT_FALSE(blob_a.empty()) << drivers::DriverName(id);
      EXPECT_EQ(blob_a, PlanBlob(id, b, 40'000))
          << drivers::DriverName(id) << (faults ? " faulted" : " clean");
    }
  }
}

TEST(DistExercise, SubShardCheckpointLoadsAndResumesDownstream) {
  core::Session s(drivers::DriverImage(DriverId::kRtl8029),
                  PlanConfig(DriverId::kRtl8029, {2, 4}));
  ASSERT_TRUE(s.Exercise());
  // Merged timeline stays monotone under the sub-shard slot layout.
  const auto& tl = s.engine().timeline;
  ASSERT_GE(tl.size(), 2u);
  for (size_t i = 1; i < tl.size(); ++i) {
    EXPECT_GE(tl[i].work, tl[i - 1].work);
    EXPECT_GE(tl[i].covered_blocks, tl[i - 1].covered_blocks);
  }
  EXPECT_EQ(tl.back().work, s.engine().stats.work);
  std::vector<uint8_t> blob = s.SaveCheckpoint();
  ASSERT_TRUE(s.Emit());
  std::string error;
  std::unique_ptr<core::Session> resumed = core::Session::LoadCheckpoint(blob, &error);
  ASSERT_NE(resumed, nullptr) << error;
  ASSERT_TRUE(resumed->Emit());
  EXPECT_EQ(resumed->emitted().at(os::TargetOs::kWindows), s.emitted().at(os::TargetOs::kWindows));
}

// ---- the fleet scheduler (PR 10) ----

// Every FleetBatchStats field except real_steals, which depends on the
// wall-clock interleaving.
void ExpectSameFleetStats(const core::FleetBatchStats& a, const core::FleetBatchStats& b) {
  EXPECT_EQ(a.workers, b.workers);
  EXPECT_EQ(a.steal, b.steal);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.total_task_work, b.total_task_work);
  EXPECT_EQ(a.max_spine_work, b.max_spine_work);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(FleetScheduler, SyntheticJobsRunOnceAndReportTheLptModel) {
  // Two jobs submit at once; each task's `run` just returns a fixed work
  // count. Job 1's spine (11) is the heavier floor.
  const std::vector<uint64_t> job_works[2] = {{7, 5, 3, 3, 2}, {9, 4, 4, 1}};
  const uint64_t spine_work[2] = {6, 11};
  // LPT over {9,7,5,4,4,3,3,2,1} (sum 38), worked by hand: one lane carries
  // everything; two lanes split it 19/19; four lanes end at {9,10,10,9},
  // below job 1's spine.
  const std::pair<unsigned, uint64_t> expected[] = {{1, 38}, {2, 19}, {4, 11}};
  for (const auto& [workers, makespan] : expected) {
    for (bool steal : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "workers=" << workers << " steal=" << steal);
      core::FleetBatchStats first;
      for (int round = 0; round < 2; ++round) {
        std::atomic<int> runs[2][5] = {};
        core::FleetScheduler fleet({workers, steal});
        auto submit = [&](uint32_t job) {
          fleet.SetJobSpineWork(job, spine_work[job]);
          std::vector<core::FleetScheduler::Task> tasks;
          for (size_t i = 0; i < job_works[job].size(); ++i) {
            core::FleetScheduler::Task t;
            t.step = i;
            t.estimate = 10 - i;  // deliberately not the true work
            t.run = [&runs, &job_works, job, i] {
              ++runs[job][i];
              return job_works[job][i];
            };
            tasks.push_back(std::move(t));
          }
          fleet.RunJobTasks(job, std::move(tasks));
        };
        std::thread job0(submit, 0u);
        std::thread job1(submit, 1u);
        job0.join();
        job1.join();
        for (uint32_t job = 0; job < 2; ++job) {
          for (size_t i = 0; i < job_works[job].size(); ++i) {
            EXPECT_EQ(runs[job][i].load(), 1) << "job " << job << " task " << i;
          }
        }
        const core::FleetBatchStats st = fleet.ComputeStats();
        EXPECT_EQ(st.workers, workers);
        EXPECT_EQ(st.steal, steal);
        EXPECT_EQ(st.tasks, 9u);
        EXPECT_EQ(st.total_task_work, 38u);
        EXPECT_EQ(st.max_spine_work, 11u);
        EXPECT_EQ(st.makespan, makespan);
        if (!steal || workers == 1) {
          EXPECT_EQ(st.real_steals, 0u);
        }
        // A second fleet in the same process starts from nothing: no
        // process-wide state carries over between fleets.
        if (round == 0) {
          first = st;
        } else {
          ExpectSameFleetStats(first, st);
        }
      }
    }
  }
}

TEST(DistExercise, FleetGridByteIdenticalAcrossAllDrivers) {
  // Fixed seed => byte-identical merged checkpoints for every fleet size and
  // stealing mode, clean and faulted, on every registered driver. The
  // baseline is the SAME parallel-shaped plan with lanes sized from
  // threads; the fleet size only changes placement.
  for (DriverId id : drivers::kAllDrivers) {
    std::vector<uint8_t> clean = PlanBlob(id, {2, 2}, 30'000);
    ASSERT_FALSE(clean.empty()) << drivers::DriverName(id);
    core::ParallelExerciseStats stats;
    EXPECT_EQ(clean, PlanBlob(id, {2, 2, nullptr, /*fleet=*/1}, 30'000))
        << drivers::DriverName(id) << " fleet=1";
    EXPECT_EQ(clean, PlanBlob(id, {2, 2, nullptr, /*fleet=*/2}, 30'000, &stats))
        << drivers::DriverName(id) << " fleet=2";
    EXPECT_EQ(stats.fleet_workers, 2u) << drivers::DriverName(id);
    EXPECT_EQ(clean, PlanBlob(id, {2, 2, nullptr, /*fleet=*/4, /*steal=*/false}, 30'000))
        << drivers::DriverName(id) << " fleet=4 no-steal";
    std::vector<uint8_t> faulted = PlanBlob(id, {2, 2, "1729:all=0.05"}, 30'000);
    ASSERT_FALSE(faulted.empty()) << drivers::DriverName(id);
    EXPECT_EQ(faulted, PlanBlob(id, {2, 2, "1729:all=0.05", /*fleet=*/2}, 30'000))
        << drivers::DriverName(id) << " fleet=2 faulted";
  }
}

TEST(DistExercise, FleetBatchMakespanDeterministicAcrossRuns) {
  // RunBatch under one shared fleet: same seed + same plan => the fleet
  // stats (recorded work units and the makespan model, not wall clock)
  // agree bit for bit across runs, and every job's emitted source matches a
  // standalone run's -- scheduling is placement-only end to end.
  core::ExercisePlan plan;
  plan.sub_shards = 2;
  plan.fleet = 4;
  plan.threads = 0;  // defer sizing to the batch template
  std::vector<core::BatchJob> jobs;
  for (const drivers::TargetInfo& t : drivers::AllTargets()) {
    core::BatchJob job;
    job.name = t.name;
    job.image = &drivers::DriverImage(t.id);
    job.config = SmallConfig(t.id, 20'000);
    job.config.plan = plan;
    jobs.push_back(std::move(job));
  }
  core::BatchOptions options;
  options.plan = plan;
  core::BatchResult fleet_a = core::RunBatch(jobs, options);
  core::BatchResult fleet_b = core::RunBatch(jobs, options);
  ASSERT_TRUE(fleet_a.AllOk());
  ASSERT_TRUE(fleet_b.AllOk());
  ASSERT_TRUE(fleet_a.fleet_used);
  EXPECT_GT(fleet_a.fleet.tasks, 0u);
  EXPECT_EQ(fleet_a.fleet.workers, 4u);
  // Determinism: two back-to-back batches in one process agree on every
  // figure but the live steal count.
  ExpectSameFleetStats(fleet_a.fleet, fleet_b.fleet);
  EXPECT_GE(fleet_a.fleet.makespan, fleet_a.fleet.max_spine_work);
  // End-to-end identity: every job's emitted driver source is the same
  // whether its tasks ran on the shared fleet or in a standalone
  // two-lane run of the same parallel shape.
  ASSERT_EQ(fleet_a.jobs.size(), jobs.size());
  for (size_t i = 0; i < fleet_a.jobs.size(); ++i) {
    core::EngineConfig cfg = jobs[i].config;
    cfg.plan.threads = 2;
    cfg.plan.fleet = 0;
    core::Session standalone(*jobs[i].image, cfg);
    ASSERT_TRUE(standalone.Synthesize());
    EXPECT_EQ(fleet_a.jobs[i].result.emitted.at(os::TargetOs::kWindows),
              standalone.emitted().at(os::TargetOs::kWindows)) << fleet_a.jobs[i].name;
    EXPECT_EQ(fleet_a.jobs[i].result.emitted.at(os::TargetOs::kWindows),
              fleet_b.jobs[i].result.emitted.at(os::TargetOs::kWindows))
        << fleet_a.jobs[i].name;
  }
}

// ---- the perf contract ----

TEST(DistExercise, PcnetCriticalPathDropsBelowWholeStepFanout) {
  // The tentpole's perf bar: sub-sharding must beat the whole-step fan-out's
  // critical path on pcnet under the default (fig8) budgets, where the PR 4
  // ledger pins the whole-step figure at 5525 work units.
  auto run = [](unsigned sub_shards, core::ParallelExerciseStats* stats) {
    core::EngineConfig cfg;  // default budgets: the ledger's configuration
    cfg.pci = drivers::DriverPci(DriverId::kPcnet);
    cfg.plan.threads = 4;
    cfg.plan.sub_shards = sub_shards;
    core::Session s(drivers::DriverImage(DriverId::kPcnet), cfg);
    ASSERT_TRUE(s.Exercise());
    *stats = s.engine().parallel;
  };
  core::ParallelExerciseStats whole, sharded;
  run(0, &whole);
  run(4, &sharded);
  EXPECT_GT(whole.critical_path, 0u);
  EXPECT_GT(sharded.critical_path, 0u);
  EXPECT_LT(sharded.critical_path, whole.critical_path);
  EXPECT_LT(sharded.critical_path, 5525u);
}

}  // namespace
}  // namespace revnic

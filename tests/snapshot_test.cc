// Snapshot-handoff parallel exercising (PR 4 tentpole): the spine pass
// serializes the chain state before each step ("RSS1" blobs) and every
// fan-out task starts by restoring its step's snapshot. These tests pin the
// headline guarantees -- RSS1 restore is step-lockstep with the
// uninterrupted sequential exerciser (Engine::VerifyRestoreLockstep), the
// merged result is byte-identical (down to the "RCP1" checkpoint blob)
// across thread counts, the synthesized output matches the sequential
// engine's, and a snapshot that fails to restore fails closed -- plus the
// "RCP1" embedded-snapshot round trip and the pre-v3 rejection path.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "core/fanout.h"
#include "core/session.h"
#include "drivers/drivers.h"
#include "hw/faults.h"
#include "symex/snapshot.h"

namespace revnic {
namespace {

using drivers::DriverId;

constexpr DriverId kAllDrivers[] = {DriverId::kRtl8029, DriverId::kRtl8139,
                                    DriverId::kPcnet, DriverId::kSmc91c111,
                                    DriverId::kEl3};

core::EngineConfig SmallConfig(DriverId id, uint64_t max_work = 48'000) {
  core::EngineConfig cfg;
  cfg.pci = drivers::DriverPci(id);
  cfg.max_work = max_work;
  cfg.max_work_per_step = max_work / 6;
  return cfg;
}

// Full checkpoint blob (bundle + coverage + every counter + final snapshot):
// byte-comparing two blobs compares two runs' complete observable output.
std::vector<uint8_t> ExerciseBlob(DriverId id, unsigned threads) {
  core::EngineConfig cfg = SmallConfig(id);
  cfg.plan.threads = threads;
  core::Session s(drivers::DriverImage(id), cfg);
  EXPECT_TRUE(s.Exercise());
  return s.SaveCheckpoint();
}

// Restore k, run step k, compare with the uninterrupted sequential run --
// for every executed step of `id` under `cfg` (the oracle runs the
// sequential exerciser whatever the plan shape).
void ExpectLockstep(DriverId id, const core::EngineConfig& cfg) {
  std::string error;
  EXPECT_TRUE(core::Engine::VerifyRestoreLockstep(drivers::DriverImage(id), cfg, &error))
      << drivers::DriverName(id) << ": " << error;
}

// ---- the acceptance criterion: RSS1 restore is step-lockstep with the
// uninterrupted run, and the merged result is thread-count independent,
// pinned to the checkpoint byte, on every driver ----

TEST(SnapshotHandoff, RestoreIsLockstepAndThreadCountIndependentOnAllDrivers) {
  for (DriverId id : kAllDrivers) {
    ExpectLockstep(id, SmallConfig(id));
    std::vector<uint8_t> restore2 = ExerciseBlob(id, 2);
    std::vector<uint8_t> restore4 = ExerciseBlob(id, 4);
    ASSERT_FALSE(restore2.empty()) << drivers::DriverName(id);
    // Thread-count independence under snapshot handoff.
    EXPECT_EQ(restore2, restore4) << drivers::DriverName(id);
  }
}

TEST(SnapshotHandoff, TruncatedSnapshotFailsClosed) {
  // A fan-out task has no way to its start state but the snapshot: a
  // restore that fails yields no begun slot and counts the failure (the
  // engine then fails the run) instead of re-deriving the state some other
  // way.
  const DriverId id = DriverId::kRtl8029;
  core::EngineConfig cfg = SmallConfig(id, 20'000);
  core::Session s(drivers::DriverImage(id), cfg);
  ASSERT_TRUE(s.Exercise());
  std::vector<uint8_t> truncated = s.engine().final_snapshot;
  ASSERT_FALSE(truncated.empty());
  truncated.resize(truncated.size() / 2);
  for (uint32_t sub_shards : {0u, 2u}) {
    core::FanoutTaskResult r = core::Engine::ExecuteFanoutTask(
        drivers::DriverImage(id), cfg, core::FanoutTask{0, 0, sub_shards}, truncated);
    EXPECT_EQ(r.restore_failures, 1u) << "K=" << sub_shards;
    for (const core::FanoutSlot& slot : r.slots) {
      EXPECT_FALSE(slot.begun) << "K=" << sub_shards;
    }
  }
}

TEST(SnapshotHandoff, DownstreamSynthesisMatchesSequential) {
  // Completes the all-four-driver sequential-parity matrix:
  // tests/parallel_exercise_test.cc covers rtl8029 + smc91c111 (with the
  // default, snapshot-restore strategy); this covers the other two.
  for (DriverId id : {DriverId::kRtl8139, DriverId::kPcnet}) {
    core::Session seq(drivers::DriverImage(id), SmallConfig(id));
    ASSERT_TRUE(seq.Synthesize());

    core::EngineConfig par_cfg = SmallConfig(id);
    par_cfg.plan.threads = 4;
    core::Session par(drivers::DriverImage(id), par_cfg);
    ASSERT_TRUE(par.Synthesize());

    EXPECT_NEAR(par.engine().CoveragePercent(), seq.engine().CoveragePercent(), 0.5)
        << drivers::DriverName(id);
    EXPECT_EQ(par.emitted().at(os::TargetOs::kWindows),
              seq.emitted().at(os::TargetOs::kWindows)) << drivers::DriverName(id);
    // Every task must have restored its snapshot.
    EXPECT_EQ(par.engine().snapshot_restore_failures, 0u) << drivers::DriverName(id);
  }
}

// ---- fault injection under fan-out: the determinism guarantee survives a
// misbehaving device ----

core::EngineConfig FaultedConfig(DriverId id) {
  core::EngineConfig cfg = SmallConfig(id);
  std::string error;
  EXPECT_TRUE(hw::ParseFaultPlan("99:all=0.08", &cfg.plan.faults, &error)) << error;
  return cfg;
}

std::vector<uint8_t> FaultedBlob(DriverId id, unsigned threads) {
  core::EngineConfig cfg = FaultedConfig(id);
  cfg.plan.threads = threads;
  core::Session s(drivers::DriverImage(id), cfg);
  EXPECT_TRUE(s.Exercise());
  return s.SaveCheckpoint();
}

TEST(SnapshotHandoff, FaultedExerciseStaysLockstepAndByteIdenticalAcrossThreadCounts) {
  // The fault cursor rides in the RSS1 engine section, so a restored
  // replica resumes the schedule exactly where the uninterrupted run
  // stands: with faults on, restore stays step-lockstep on every driver and
  // thread counts still agree to the checkpoint byte. rtl8029 is PIO-only;
  // pcnet is a bus master, so its DMA path runs through the fault schedule
  // too.
  for (DriverId id : kAllDrivers) {
    ExpectLockstep(id, FaultedConfig(id));
  }
  for (DriverId id : {DriverId::kRtl8029, DriverId::kPcnet}) {
    std::vector<uint8_t> restore2 = FaultedBlob(id, 2);
    std::vector<uint8_t> restore4 = FaultedBlob(id, 4);
    ASSERT_FALSE(restore2.empty()) << drivers::DriverName(id);
    EXPECT_EQ(restore2, restore4) << drivers::DriverName(id);
    // The faulted blob differs from the fault-free one (the plan is part of
    // the run, and the schedule actually fired).
    EXPECT_NE(restore4, ExerciseBlob(id, 4)) << drivers::DriverName(id);
  }
}

TEST(SnapshotHandoff, FaultedCheckpointRoundTripsWithFaultState) {
  core::EngineConfig cfg = SmallConfig(DriverId::kRtl8029, 20'000);
  std::string error;
  ASSERT_TRUE(hw::ParseFaultPlan("7:reg-corrupt=0.1,irq-drop=0.2", &cfg.plan.faults, &error))
      << error;
  core::Session s(drivers::DriverImage(DriverId::kRtl8029), cfg);
  ASSERT_TRUE(s.Exercise());
  ASSERT_GT(s.engine().fault_stats.decisions, 0u);

  std::vector<uint8_t> blob = s.SaveCheckpoint();
  std::unique_ptr<core::Session> resumed = core::Session::LoadCheckpoint(blob, &error);
  ASSERT_NE(resumed, nullptr) << error;
  // The v3 checkpoint carries the fault counters; a re-save is byte-exact.
  EXPECT_EQ(resumed->engine().fault_stats.decisions, s.engine().fault_stats.decisions);
  EXPECT_EQ(resumed->engine().fault_stats.TotalInjected(),
            s.engine().fault_stats.TotalInjected());
  EXPECT_EQ(resumed->engine().substrate.faults_injected,
            s.engine().fault_stats.TotalInjected());
  EXPECT_EQ(resumed->SaveCheckpoint(), blob);
}

// ---- "RCP1" v2: embedded final-state snapshot ----

TEST(SnapshotHandoff, CheckpointCarriesRestorableFinalSnapshot) {
  core::EngineConfig cfg = SmallConfig(DriverId::kRtl8029, 20'000);
  core::Session s(drivers::DriverImage(DriverId::kRtl8029), cfg);
  ASSERT_TRUE(s.Exercise());
  ASSERT_FALSE(s.engine().final_snapshot.empty());

  // Round trip: the v2 checkpoint carries the snapshot bytes verbatim, and a
  // re-saved checkpoint is byte-identical.
  std::vector<uint8_t> blob = s.SaveCheckpoint();
  std::string error;
  std::unique_ptr<core::Session> resumed = core::Session::LoadCheckpoint(blob, &error);
  ASSERT_NE(resumed, nullptr) << error;
  EXPECT_EQ(resumed->engine().final_snapshot, s.engine().final_snapshot);
  EXPECT_EQ(resumed->SaveCheckpoint(), blob);

  // The embedded blob is a well-formed "RSS1" snapshot: the symex-level
  // reader rebuilds the final chain state into a fresh context.
  symex::ExprContext ctx;
  symex::SnapshotReader reader;
  ASSERT_TRUE(reader.Init(s.engine().final_snapshot, &ctx, &error)) << error;
  vm::MemoryMap blank(os::kGuestRamSize);
  std::unique_ptr<symex::ExecutionState> state;
  ASSERT_TRUE(symex::ReadStateSections(reader, &ctx, &blank, &state, &error)) << error;
  ASSERT_NE(state, nullptr);
  symex::StatePool pool;
  symex::Solver solver;
  EXPECT_TRUE(symex::ReadSchedulerSection(reader, &pool, &error)) << error;
  EXPECT_TRUE(symex::ReadSolverSection(reader, &solver, &error)) << error;
}

TEST(SnapshotHandoff, PreV3CheckpointsFailClosed) {
  core::EngineConfig cfg = SmallConfig(DriverId::kRtl8029, 20'000);
  core::Session s(drivers::DriverImage(DriverId::kRtl8029), cfg);
  ASSERT_TRUE(s.Exercise());

  // "RCP1" | u32 version (little-endian) | ...: only version 3 is read. A
  // blob claiming v1 (no snapshot section) or v2 (no fault counters) is
  // rejected up front instead of being parsed under the v3 layout.
  std::vector<uint8_t> v3 = s.SaveCheckpoint();
  ASSERT_GE(v3.size(), 8u);
  ASSERT_EQ(v3[4], 3u);
  for (uint8_t version : {1, 2}) {
    std::vector<uint8_t> old = v3;
    old[4] = version;
    std::string error;
    EXPECT_EQ(core::Session::LoadCheckpoint(old, &error), nullptr) << int(version);
    EXPECT_EQ(error, "unsupported checkpoint version") << int(version);
  }
  std::string error;
  EXPECT_NE(core::Session::LoadCheckpoint(v3, &error), nullptr) << error;
}

TEST(SnapshotHandoff, DisablingCaptureYieldsSnapshotFreeCheckpoint) {
  core::EngineConfig cfg = SmallConfig(DriverId::kSmc91c111, 20'000);
  cfg.capture_final_snapshot = false;
  core::Session s(drivers::DriverImage(DriverId::kSmc91c111), cfg);
  ASSERT_TRUE(s.Exercise());
  EXPECT_TRUE(s.engine().final_snapshot.empty());
  std::string error;
  std::unique_ptr<core::Session> resumed =
      core::Session::LoadCheckpoint(s.SaveCheckpoint(), &error);
  ASSERT_NE(resumed, nullptr) << error;
  EXPECT_TRUE(resumed->engine().final_snapshot.empty());
}

// ---- the coverage stream is the result timeline ----

TEST(SnapshotHandoff, CoverageStreamEqualsResultTimeline) {
  // One thread reports a run: under every plan the observer's on_coverage
  // calls come from the thread that called Exercise() and replay
  // EngineResult::timeline element for element, in order -- so two runs of
  // one plan stream identical samples.
  using Sample = std::tuple<uint64_t, size_t, uint64_t>;
  auto flatten = [](const std::vector<core::CoverageSample>& samples) {
    std::vector<Sample> out;
    for (const core::CoverageSample& s : samples) {
      out.emplace_back(s.work, s.covered_blocks, s.faults);
    }
    return out;
  };
  struct Shape {
    unsigned threads, sub_shards, fleet;
  };
  for (const Shape& shape : {Shape{4, 0, 0}, Shape{4, 4, 0}, Shape{0, 0, 2}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << shape.threads
                                    << " sub_shards=" << shape.sub_shards
                                    << " fleet=" << shape.fleet);
    core::EngineConfig cfg = SmallConfig(DriverId::kRtl8029);
    cfg.plan.threads = shape.threads;
    cfg.plan.sub_shards = shape.sub_shards;
    cfg.plan.fleet = shape.fleet;
    cfg.sample_every = 512;
    std::vector<std::vector<Sample>> streams;
    for (int run = 0; run < 2; ++run) {
      core::Session s(drivers::DriverImage(DriverId::kRtl8029), cfg);
      std::vector<core::CoverageSample> samples;
      const std::thread::id caller = std::this_thread::get_id();
      bool off_caller = false;
      core::SessionObserver obs;
      obs.on_coverage = [&](const core::CoverageSample& sample) {
        off_caller = off_caller || std::this_thread::get_id() != caller;
        samples.push_back(sample);
      };
      s.set_observer(obs);
      ASSERT_TRUE(s.Exercise());
      EXPECT_EQ(s.engine().snapshot_restore_failures, 0u);
      EXPECT_GT(s.engine().parallel.tasks, 0u);
      EXPECT_FALSE(off_caller);
      ASSERT_GT(samples.size(), 1u);
      EXPECT_EQ(flatten(samples), flatten(s.engine().timeline));
      EXPECT_EQ(samples.back().covered_blocks, s.engine().covered_blocks.size());
      EXPECT_EQ(samples.back().work, s.engine().stats.work);
      streams.push_back(flatten(samples));
    }
    EXPECT_EQ(streams[0], streams[1]);
  }
}

}  // namespace
}  // namespace revnic

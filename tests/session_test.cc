// Staged-session API tests: stage progression + observer streaming,
// cooperative cancellation, TraceBundle serialize round-trip on a real
// wiretap, checkpoint/resume reproducing a straight-through run
// byte-for-byte, the concurrent RunBatch matching sequential runs, and the
// driver target registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "core/session.h"
#include "drivers/drivers.h"
#include "trace/serialize.h"

namespace revnic {
namespace {

using core::Stage;
using drivers::DriverId;

core::EngineConfig SmallConfig(DriverId id, uint64_t max_work = 60'000) {
  core::EngineConfig cfg;
  cfg.pci = drivers::DriverPci(id);
  cfg.max_work = max_work;
  cfg.max_work_per_step = max_work / 6;
  return cfg;
}

// ---- staging + observation ----

TEST(Session, StagesProgressInOrderAndNotify) {
  core::Session s(drivers::DriverImage(DriverId::kRtl8029), SmallConfig(DriverId::kRtl8029));
  std::vector<Stage> seen;
  core::SessionObserver obs;
  obs.on_stage = [&](Stage st) { seen.push_back(st); };
  s.set_observer(obs);

  EXPECT_EQ(s.stage(), Stage::kCreated);
  ASSERT_TRUE(s.Exercise());
  EXPECT_EQ(s.stage(), Stage::kExercised);
  EXPECT_GT(s.engine().stats.work, 0u);
  ASSERT_TRUE(s.RecoverCfg());
  EXPECT_EQ(s.stage(), Stage::kCfgRecovered);
  EXPECT_GT(s.module().NumFunctions(), 0u);
  ASSERT_TRUE(s.Synthesize());
  EXPECT_FALSE(s.emitted().at(os::TargetOs::kWindows).empty());
  ASSERT_TRUE(s.Emit());
  EXPECT_EQ(s.stage(), Stage::kEmitted);
  EXPECT_FALSE(s.runtime_header().empty());
  // Re-running a completed stage is a no-op.
  ASSERT_TRUE(s.Exercise());

  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], Stage::kExercised);
  EXPECT_EQ(seen[1], Stage::kCfgRecovered);
  EXPECT_EQ(seen[2], Stage::kSynthesized);
  EXPECT_EQ(seen[3], Stage::kEmitted);
  EXPECT_STREQ(core::StageName(Stage::kCfgRecovered), "cfg-recovered");
}

TEST(Session, LaterStageRunsMissingPrerequisites) {
  core::Session s(drivers::DriverImage(DriverId::kRtl8029), SmallConfig(DriverId::kRtl8029));
  ASSERT_TRUE(s.Synthesize());  // implies Exercise + RecoverCfg
  EXPECT_EQ(s.stage(), Stage::kSynthesized);
  EXPECT_GT(s.engine().covered_blocks.size(), 0u);
  EXPECT_GT(s.module().NumFunctions(), 0u);
}

TEST(Session, CoverageObserverStreamsMonotonicSamples) {
  core::Session s(drivers::DriverImage(DriverId::kRtl8029), SmallConfig(DriverId::kRtl8029));
  std::vector<core::CoverageSample> samples;
  core::SessionObserver obs;
  obs.on_coverage = [&](const core::CoverageSample& c) { samples.push_back(c); };
  s.set_observer(obs);
  ASSERT_TRUE(s.Exercise());
  ASSERT_GT(samples.size(), 1u);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].work, samples[i - 1].work);
    EXPECT_GE(samples[i].covered_blocks, samples[i - 1].covered_blocks);
  }
  // The final sample mirrors the engine result.
  EXPECT_EQ(samples.back().work, s.engine().stats.work);
  EXPECT_EQ(samples.back().covered_blocks, s.engine().covered_blocks.size());
}

TEST(Session, CancellationStopsExerciseEarly) {
  core::EngineConfig cfg = SmallConfig(DriverId::kRtl8029);
  core::Session full(drivers::DriverImage(DriverId::kRtl8029), cfg);
  ASSERT_TRUE(full.Exercise());
  ASSERT_FALSE(full.cancelled());
  uint64_t full_work = full.engine().stats.work;

  core::Session s(drivers::DriverImage(DriverId::kRtl8029), cfg);
  std::atomic<uint64_t> seen{0};
  core::SessionObserver obs;
  obs.on_coverage = [&](const core::CoverageSample& c) { seen = c.work; };
  obs.cancel = [&] { return seen.load() > 2'000; };
  s.set_observer(obs);
  ASSERT_TRUE(s.Exercise());
  EXPECT_TRUE(s.cancelled());
  EXPECT_TRUE(s.engine().cancelled);
  EXPECT_LT(s.engine().stats.work, full_work);
  // A cancelled run still synthesizes from the partial wiretap.
  ASSERT_TRUE(s.Synthesize());
  EXPECT_FALSE(s.emitted().at(os::TargetOs::kWindows).empty());
}

// ---- trace round-trip on a real exercised bundle ----

TEST(Session, ExercisedBundleSerializeRoundTrips) {
  core::Session s(drivers::DriverImage(DriverId::kRtl8029), SmallConfig(DriverId::kRtl8029));
  ASSERT_TRUE(s.Exercise());
  const trace::TraceBundle& bundle = s.engine().bundle;
  ASSERT_FALSE(bundle.blocks.empty());
  ASSERT_FALSE(bundle.block_records.empty());

  std::vector<uint8_t> bytes = trace::Serialize(bundle);
  trace::TraceBundle parsed;
  std::string err;
  ASSERT_TRUE(trace::Deserialize(bytes, &parsed, &err)) << err;
  EXPECT_EQ(parsed.blocks.size(), bundle.blocks.size());
  EXPECT_EQ(parsed.block_records.size(), bundle.block_records.size());
  EXPECT_EQ(parsed.mem_records.size(), bundle.mem_records.size());
  EXPECT_EQ(parsed.api_records.size(), bundle.api_records.size());
  EXPECT_EQ(parsed.events.size(), bundle.events.size());
  // Byte-level fixpoint: re-serializing the parse reproduces the stream.
  EXPECT_EQ(trace::Serialize(parsed), bytes);
}

// ---- checkpoint / resume ----

TEST(Session, CheckpointResumeReproducesCSourceByteForByte) {
  core::EngineConfig cfg = SmallConfig(DriverId::kRtl8139, 120'000);
  core::Session straight(drivers::DriverImage(DriverId::kRtl8139), cfg);
  straight.set_label("rtl8139");
  ASSERT_TRUE(straight.Exercise());
  std::vector<uint8_t> checkpoint = straight.SaveCheckpoint();
  ASSERT_TRUE(straight.RunAll());

  std::string err;
  std::unique_ptr<core::Session> resumed = core::Session::LoadCheckpoint(checkpoint, &err);
  ASSERT_NE(resumed, nullptr) << err;
  EXPECT_EQ(resumed->stage(), Stage::kExercised);
  EXPECT_EQ(resumed->label(), "rtl8139");
  ASSERT_TRUE(resumed->RunAll());

  // The decisive property: downstream output is byte-identical.
  EXPECT_EQ(resumed->emitted().at(os::TargetOs::kWindows),
            straight.emitted().at(os::TargetOs::kWindows));
  EXPECT_EQ(resumed->runtime_header(), straight.runtime_header());
  // And the reconstructed engine state matches.
  EXPECT_EQ(resumed->engine().covered_blocks, straight.engine().covered_blocks);
  EXPECT_EQ(resumed->engine().static_blocks, straight.engine().static_blocks);
  EXPECT_EQ(resumed->engine().stats.work, straight.engine().stats.work);
  EXPECT_EQ(resumed->engine().apis_used, straight.engine().apis_used);
  EXPECT_EQ(resumed->engine().call_counts, straight.engine().call_counts);
  ASSERT_EQ(resumed->engine().entries.size(), straight.engine().entries.size());
  for (size_t i = 0; i < resumed->engine().entries.size(); ++i) {
    EXPECT_EQ(resumed->engine().entries[i].pc, straight.engine().entries[i].pc);
    EXPECT_EQ(resumed->engine().entries[i].role, straight.engine().entries[i].role);
  }
  EXPECT_EQ(resumed->engine().substrate.solver_queries,
            straight.engine().substrate.solver_queries);

  // A resumed session cannot re-exercise (it has no image) ...
  std::unique_ptr<core::Session> fresh = core::Session::LoadCheckpoint(checkpoint, &err);
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(fresh->Exercise());  // no-op: already at kExercised
  EXPECT_EQ(fresh->stage(), Stage::kExercised);
}

TEST(Session, CheckpointFileRoundTrip) {
  core::Session s(drivers::DriverImage(DriverId::kRtl8029), SmallConfig(DriverId::kRtl8029));
  ASSERT_TRUE(s.RunAll());
  std::string path = ::testing::TempDir() + "/revnic_session.rcp";
  std::string err;
  ASSERT_TRUE(s.SaveCheckpointFile(path, &err)) << err;
  std::unique_ptr<core::Session> resumed = core::Session::LoadCheckpointFile(path, &err);
  ASSERT_NE(resumed, nullptr) << err;
  ASSERT_TRUE(resumed->RunAll());
  EXPECT_EQ(resumed->emitted().at(os::TargetOs::kWindows), s.emitted().at(os::TargetOs::kWindows));
  remove(path.c_str());
}

TEST(Session, LoadCheckpointRejectsCorruption) {
  core::Session s(drivers::DriverImage(DriverId::kRtl8029), SmallConfig(DriverId::kRtl8029));
  ASSERT_TRUE(s.Exercise());
  std::vector<uint8_t> bytes = s.SaveCheckpoint();
  std::string err;
  for (size_t cut : {size_t{0}, size_t{3}, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    err.clear();
    EXPECT_EQ(core::Session::LoadCheckpoint(truncated, &err), nullptr) << cut;
    EXPECT_FALSE(err.empty());
  }
  std::vector<uint8_t> garbage(64, 0xAB);
  EXPECT_EQ(core::Session::LoadCheckpoint(garbage, &err), nullptr);
  // Trailing bytes after a well-formed checkpoint are rejected too. (The
  // trailing snapshot section declares its exact size, so padding trips the
  // size check; a blob without that section hits the generic trailing check.)
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0x00);
  EXPECT_EQ(core::Session::LoadCheckpoint(padded, &err), nullptr);
  EXPECT_EQ(err, "bad snapshot section size");
  core::EngineConfig no_snapshot_cfg = SmallConfig(DriverId::kRtl8029);
  no_snapshot_cfg.capture_final_snapshot = false;
  core::Session no_snapshot(drivers::DriverImage(DriverId::kRtl8029), no_snapshot_cfg);
  ASSERT_TRUE(no_snapshot.Exercise());
  std::vector<uint8_t> padded_no_snapshot = no_snapshot.SaveCheckpoint();
  padded_no_snapshot.push_back(0x00);
  EXPECT_EQ(core::Session::LoadCheckpoint(padded_no_snapshot, &err), nullptr);
  EXPECT_EQ(err, "trailing bytes after checkpoint");
}

TEST(Session, CheckpointBeforeExerciseIsRejected) {
  core::Session s(drivers::DriverImage(DriverId::kRtl8029), SmallConfig(DriverId::kRtl8029));
  std::vector<uint8_t> blob = s.SaveCheckpoint();
  EXPECT_TRUE(blob.empty());
  std::string err;
  EXPECT_EQ(core::Session::LoadCheckpoint(blob, &err), nullptr);
  EXPECT_FALSE(s.SaveCheckpointFile(::testing::TempDir() + "/never.rcp", &err));
  EXPECT_EQ(err, "nothing to checkpoint: Exercise() has not run");
}

TEST(Session, CheckpointStoreExercisesOnceAndResumesIdentically) {
  core::EngineConfig cfg = SmallConfig(DriverId::kPcnet);
  std::string error;
  auto a = core::CheckpointStore::Global().Resume(
      "session_test/pcnet", drivers::DriverImage(DriverId::kPcnet), cfg, "", &error);
  ASSERT_NE(a, nullptr) << error;
  auto b = core::CheckpointStore::Global().Resume(
      "session_test/pcnet", drivers::DriverImage(DriverId::kPcnet), cfg, "", &error);
  ASSERT_NE(b, nullptr) << error;
  ASSERT_TRUE(a->RunAll());
  ASSERT_TRUE(b->RunAll());
  EXPECT_EQ(a->emitted().at(os::TargetOs::kWindows), b->emitted().at(os::TargetOs::kWindows));
  EXPECT_EQ(a->engine().stats.work, b->engine().stats.work);
}

TEST(Session, CheckpointStoreSaltSeparatesDistinctCancelPolicies) {
  // Two callers share a key and a config whose only difference is the
  // *behavior* of their cancel closures. Closure identity cannot be
  // fingerprinted (both configs mix the same presence bit), so without a
  // salt the second caller would silently resume the first caller's
  // cancelled checkpoint. The caller-provided salt keeps them apart.
  const isa::Image& image = drivers::DriverImage(DriverId::kRtl8029);
  core::EngineConfig eager = SmallConfig(DriverId::kRtl8029);
  eager.cancel = [] { return true; };  // stops almost immediately
  core::EngineConfig patient = SmallConfig(DriverId::kRtl8029);
  patient.cancel = [] { return false; };  // runs the full budget
  core::CheckpointStore& store = core::CheckpointStore::Global();
  std::string error;

  auto cancelled = store.Resume("session_test/salt", image, eager, "eager", &error);
  ASSERT_NE(cancelled, nullptr) << error;
  auto full = store.Resume("session_test/salt", image, patient, "patient", &error);
  ASSERT_NE(full, nullptr) << error;
  ASSERT_TRUE(cancelled->RecoverCfg());
  ASSERT_TRUE(full->RecoverCfg());
  EXPECT_TRUE(cancelled->engine().cancelled);
  EXPECT_FALSE(full->engine().cancelled);
  EXPECT_GT(full->engine().stats.work, cancelled->engine().stats.work);

  // Same key + same salt still shares one exercise (the store's point).
  auto full_again = store.Resume("session_test/salt", image, patient, "patient", &error);
  ASSERT_NE(full_again, nullptr) << error;
  ASSERT_TRUE(full_again->RecoverCfg());
  EXPECT_EQ(full_again->engine().stats.work, full->engine().stats.work);

  // Without distinct salts the collision is real: the presence-bit key hands
  // the patient caller the eager caller's cancelled blob.
  auto collide_a = store.Resume("session_test/collide", image, eager, "", &error);
  ASSERT_NE(collide_a, nullptr) << error;
  auto collide_b = store.Resume("session_test/collide", image, patient, "", &error);
  ASSERT_NE(collide_b, nullptr) << error;
  ASSERT_TRUE(collide_a->RecoverCfg());
  ASSERT_TRUE(collide_b->RecoverCfg());
  EXPECT_EQ(collide_b->engine().stats.work, collide_a->engine().stats.work);
  EXPECT_TRUE(collide_b->engine().cancelled);
}

TEST(Session, AutoThreadsIsTheParallelClassOnEveryHost) {
  // plan.threads = 0 ("size for the hardware") selects the parallel output
  // class regardless of the host's core count: its checkpoint bytes equal
  // an explicit two-lane run's, and the checkpoint store keys both to one
  // entry (a second Resume adds no entry), while the sequential and the
  // sub-sharded class get their own.
  const isa::Image& image = drivers::DriverImage(DriverId::kRtl8029);
  core::EngineConfig auto_cfg = SmallConfig(DriverId::kRtl8029, 30'000);
  auto_cfg.plan.threads = 0;
  core::EngineConfig two_cfg = auto_cfg;
  two_cfg.plan.threads = 2;
  core::EngineConfig seq_cfg = auto_cfg;
  seq_cfg.plan.threads = 1;

  core::Session auto_run(image, auto_cfg);
  core::Session two_run(image, two_cfg);
  ASSERT_TRUE(auto_run.Exercise());
  ASSERT_TRUE(two_run.Exercise());
  EXPECT_EQ(auto_run.SaveCheckpoint(), two_run.SaveCheckpoint());

  core::CheckpointStore store;
  std::string error;
  auto from_auto = store.Resume("session_test/auto", image, auto_cfg, "", &error);
  ASSERT_NE(from_auto, nullptr) << error;
  ASSERT_EQ(store.size(), 1u);
  auto from_two = store.Resume("session_test/auto", image, two_cfg, "", &error);
  ASSERT_NE(from_two, nullptr) << error;
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(from_two->SaveCheckpoint(), from_auto->SaveCheckpoint());
  ASSERT_NE(store.Resume("session_test/auto", image, seq_cfg, "", &error), nullptr) << error;
  EXPECT_EQ(store.size(), 2u);

  // Sub-shard counts >= 1 merge to the same bytes (dist_test), so K=2 and
  // K=4 share one entry -- the sub-sharded class's own, apart from the
  // whole-step class's.
  core::EngineConfig k2_cfg = two_cfg;
  k2_cfg.plan.sub_shards = 2;
  core::EngineConfig k4_cfg = two_cfg;
  k4_cfg.plan.sub_shards = 4;
  auto from_k2 = store.Resume("session_test/auto", image, k2_cfg, "", &error);
  ASSERT_NE(from_k2, nullptr) << error;
  EXPECT_EQ(store.size(), 3u);
  auto from_k4 = store.Resume("session_test/auto", image, k4_cfg, "", &error);
  ASSERT_NE(from_k4, nullptr) << error;
  EXPECT_EQ(store.size(), 3u);
}

// ---- batch ----

TEST(Session, BatchOverRegistryMatchesSequentialRuns) {
  std::vector<core::BatchJob> jobs;
  for (const drivers::TargetInfo& t : drivers::AllTargets()) {
    core::BatchJob job;
    job.name = t.name;
    job.image = &drivers::DriverImage(t.id);
    job.config = SmallConfig(t.id);
    jobs.push_back(std::move(job));
  }
  ASSERT_GE(jobs.size(), 4u);

  std::vector<std::string> done_names;
  core::BatchOptions options;
  options.concurrency = 2;
  options.on_job_done = [&](const core::BatchJobResult& j) { done_names.push_back(j.name); };
  core::BatchResult batch = core::RunBatch(jobs, options);
  EXPECT_GE(batch.concurrency, 2u);
  ASSERT_TRUE(batch.AllOk());
  ASSERT_EQ(batch.jobs.size(), jobs.size());
  EXPECT_EQ(done_names.size(), jobs.size());

  uint64_t aggregate_queries = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const core::BatchJobResult& job = batch.jobs[i];
    EXPECT_EQ(job.name, jobs[i].name);  // input order preserved
    // Coverage is reported per job.
    EXPECT_GT(job.result.engine.CoveragePercent(), 50.0) << job.name;
    EXPECT_FALSE(job.result.emitted.at(os::TargetOs::kWindows).empty());
    aggregate_queries += job.result.engine.substrate.solver_queries;

    // Per-session isolation makes the concurrent run identical to a
    // sequential one.
    core::Session seq(*jobs[i].image, jobs[i].config);
    ASSERT_TRUE(seq.RunAll());
    EXPECT_EQ(job.result.emitted.at(os::TargetOs::kWindows),
              seq.emitted().at(os::TargetOs::kWindows)) << job.name;
    EXPECT_EQ(job.result.engine.covered_blocks, seq.engine().covered_blocks) << job.name;
  }
  EXPECT_EQ(batch.aggregate.solver_queries, aggregate_queries);
  EXPECT_GT(batch.aggregate.solver_cache_hits, 0u);
}

TEST(Session, BatchReportsBadJob) {
  std::vector<core::BatchJob> jobs(1);
  jobs[0].name = "no-image";
  core::BatchOptions options;
  options.concurrency = 1;
  core::BatchResult batch = core::RunBatch(jobs, options);
  ASSERT_EQ(batch.jobs.size(), 1u);
  EXPECT_FALSE(batch.jobs[0].ok);
  EXPECT_FALSE(batch.AllOk());
  EXPECT_FALSE(batch.jobs[0].error.empty());
}

// ---- registry ----

TEST(Registry, ListsAllDriversAndFindsByName) {
  const std::vector<drivers::TargetInfo>& targets = drivers::AllTargets();
  ASSERT_EQ(targets.size(), 5u);
  for (const drivers::TargetInfo& t : targets) {
    EXPECT_STREQ(t.name, drivers::DriverName(t.id));
    EXPECT_STREQ(t.file, drivers::DriverFileName(t.id));
    const drivers::TargetInfo* found = drivers::FindTarget(t.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->id, t.id);
  }
  EXPECT_EQ(drivers::FindTarget("e1000"), nullptr);
}

}  // namespace
}  // namespace revnic

// Staged pipeline API (the paper's workflow made explicit).
//
// RevNIC's flow is inherently staged: exercise/wiretap the closed binary
// driver (expensive, §3.2), then rebuild the CFG (§4.1), synthesize C
// (Listing 1), and emit the runtime artifacts. Session exposes each stage as
// an independently runnable step --
//
//   Session s(image, config);
//   s.Exercise();     // symbolic exercising + wiretap -> engine()
//   s.RecoverCfg();   // trace -> RecoveredModule      -> module()
//   s.Synthesize();   // module -> C per target        -> emitted()
//   s.Emit();         // runtime header, final result  -> runtime_header()
//
// -- with implicit prerequisite chaining (calling Emit() on a fresh session
// runs everything), streaming observation (stage transitions, coverage
// samples, cooperative cancellation), and checkpoint/resume: Exercise()
// output persists as a serialized blob that a fresh Session loads to re-run
// only the downstream stages, byte-identically.
//
// RunBatch() drives N driver images concurrently; each job gets its own
// Session (and therefore its own ExprContext/solver/DBT -- the substrate has
// no shared mutable state), every parallel-class job's fan-out runs on one
// shared FleetScheduler, and cache counters are aggregated across jobs.
//
// README.md has the migration table for the removed one-shot entry points.
#ifndef REVNIC_CORE_SESSION_H_
#define REVNIC_CORE_SESSION_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/fleet.h"
#include "core/pipeline.h"
#include "synth/cemit.h"
#include "synth/cfg.h"
#include "util/jsonl.h"

namespace revnic::core {

// Pipeline position. Stages are ordered; a Session only moves forward.
enum class Stage {
  kCreated = 0,   // nothing run yet
  kExercised,     // wiretap bundle + engine stats available
  kCfgRecovered,  // RecoveredModule available
  kSynthesized,   // C source available
  kEmitted,       // runtime header available; result complete
};
const char* StageName(Stage stage);

// Streaming callbacks. All optional; invoked synchronously from the session's
// thread (under RunBatch that is the worker running the job).
struct SessionObserver {
  // A stage just completed.
  std::function<void(Stage completed)> on_stage;
  // Coverage sample from inside Exercise() (one per EngineConfig::sample_every
  // work units, plus a final one): under every plan the calls replay
  // EngineResult::timeline, element for element and in order.
  std::function<void(const CoverageSample&)> on_coverage;
  // Polled during Exercise(); return true to stop exercising early. The
  // session still completes with whatever the wiretap gathered.
  std::function<bool()> cancel;
};

class Session {
 public:
  // Fresh session over a closed binary driver image.
  Session(const isa::Image& image, EngineConfig config);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  void set_observer(SessionObserver observer) { observer_ = std::move(observer); }
  // Free-form label carried into checkpoints and batch reports.
  void set_label(std::string label) { label_ = std::move(label); }
  const std::string& label() const { return label_; }

  // Configures the Synthesize/Emit stages (target backends, cleanup
  // passes). Must be called before RecoverCfg() runs -- the cleanup flag
  // steers the pass pipeline -- so it returns false (no change) once the
  // module exists. An empty target list falls back to the default.
  bool set_emit_options(EmitOptions options);
  const EmitOptions& emit_options() const { return emit_options_; }

  // ---- stages ----
  // Each stage runs its missing prerequisites first and is a no-op when
  // already past (so a checkpoint-resumed session, which starts at
  // kExercised, goes straight to the downstream stages). A false return
  // (with error() set) guards unreachable-today states such as a future
  // construction path without an image.
  bool Exercise();
  bool RecoverCfg();
  bool Synthesize();
  bool Emit();
  bool RunAll() { return Emit(); }

  Stage stage() const { return stage_; }
  const std::string& error() const { return error_; }
  // True when the observer's cancel hook stopped Exercise() early.
  bool cancelled() const { return engine_.cancelled; }

  // ---- stage outputs (valid once the owning stage has run) ----
  const EngineResult& engine() const { return engine_; }
  const synth::RecoveredModule& module() const { return module_; }
  const synth::SynthStats& synth_stats() const { return synth_stats_; }
  const std::string& runtime_header() const { return runtime_header_; }
  // One translation unit per requested target OS, with the renderer/
  // template stats of exactly that rendering.
  const std::map<os::TargetOs, std::string>& emitted() const { return emitted_; }
  const std::map<os::TargetOs, synth::EmissionStats>& emission_stats() const {
    return emission_stats_;
  }

  // Moves the stage outputs out as the legacy result struct (valid after
  // Emit(); the session is spent afterwards).
  PipelineResult TakeResult();

  // Writes driver.c (first target), revnic_runtime.h, and one
  // driver_<target>.c per requested backend into `dir` (runs Emit() first).
  bool WriteOutputs(const std::string& dir, std::string* error);

  // ---- checkpoint / resume ----
  // Serializes the Exercise() output (wiretap bundle, entry table, coverage,
  // stats) so downstream stages can re-run later without re-exercising.
  // Before Exercise() there is nothing to checkpoint: SaveCheckpoint()
  // returns an empty blob (which LoadCheckpoint rejects) and
  // SaveCheckpointFile() fails with an error.
  //
  // Format "RCP1" version 3: magic, version, label, the EngineResult body
  // (core/result_codec.h), then an
  // optional trailing snapshot section carrying the engine's final chain
  // state (the "RSS1" blob from EngineResult::final_snapshot). Version 1
  // and 2 blobs are rejected with "unsupported checkpoint version".
  std::vector<uint8_t> SaveCheckpoint() const;
  bool SaveCheckpointFile(const std::string& path, std::string* error) const;
  // A fresh Session at Stage::kExercised, reconstructed from a checkpoint.
  // Downstream stages produce byte-identical output vs the original session.
  static std::unique_ptr<Session> LoadCheckpoint(const std::vector<uint8_t>& bytes,
                                                 std::string* error);
  static std::unique_ptr<Session> LoadCheckpointFile(const std::string& path,
                                                     std::string* error);

 private:
  Session() = default;  // resume path

  bool Fail(std::string message);
  void NotifyStage(Stage completed);

  std::optional<isa::Image> image_;  // absent on checkpoint-resumed sessions
  EngineConfig config_;
  SessionObserver observer_;
  std::string label_;
  EmitOptions emit_options_;
  Stage stage_ = Stage::kCreated;
  std::string error_;

  EngineResult engine_;
  synth::RecoveredModule module_;
  synth::SynthStats synth_stats_;
  std::string runtime_header_;
  std::map<os::TargetOs, std::string> emitted_;
  std::map<os::TargetOs, synth::EmissionStats> emission_stats_;
};

// ---- batch API ----

struct BatchJob {
  std::string name;                  // label for reports ("rtl8029", ...)
  const isa::Image* image = nullptr; // must outlive RunBatch
  EngineConfig config;
};

struct BatchJobResult {
  std::string name;
  bool ok = false;
  std::string error;
  PipelineResult result;
};

struct BatchResult {
  std::vector<BatchJobResult> jobs;  // input order
  perf::SubstrateCounters aggregate; // cache counters summed across jobs
  unsigned concurrency = 0;          // job threads actually used
  // Fleet-scheduler batch stats: populated when any job ran parallel-class
  // (an all-sequential batch starts no fleet): what the fleet ran, plus
  // the makespan model -- see core/fleet.h. Zero/false otherwise.
  bool fleet_used = false;
  FleetBatchStats fleet;
  bool AllOk() const {
    for (const BatchJobResult& j : jobs) {
      if (!j.ok) {
        return false;
      }
    }
    return true;
  }
};

struct BatchOptions {
  // Job threads, never more than jobs. 0 = one per job capped at hardware
  // concurrency, or one per job uncapped when the batch has a fleet (those
  // threads run the spines and otherwise wait on the fleet). An explicit
  // value is honored in both cases, e.g. 1 to bound peak memory.
  unsigned concurrency = 0;
  // Batch-wide ExercisePlan template. Every job whose own plan left
  // threads at 0 ("size for me") inherits this plan, except that a
  // deferring job's own *fault* plan survives the inheritance -- faults are
  // a semantic choice, not a sizing one. Jobs with an explicit thread count
  // keep their whole plan untouched.
  //
  // Every parallel-class job (ParallelClass of its effective plan) joins
  // ONE shared FleetScheduler: the largest FleetLanes() and the common
  // stealing mode of those jobs' effective plans. Scheduling is
  // placement-only -- merged bytes equal standalone runs' across fleet
  // sizes and stealing on/off. Per-job fan-out figures come back in each
  // job's EngineResult::parallel, the fleet's in BatchResult::fleet.
  std::optional<ExercisePlan> plan;
  // Invoked once per finished job, serialized by an internal mutex.
  std::function<void(const BatchJobResult&)> on_job_done;
};

// Runs every job through a full Session on the job threads. Jobs are isolated
// -- each owns its ExprContext/solver/DBT -- so results are identical to
// per-driver standalone runs (and, per the engine's determinism guarantee,
// independent of every concurrency setting here).
BatchResult RunBatch(const std::vector<BatchJob>& jobs, const BatchOptions& options = {});

// An on_coverage callback that streams every sample as one JSONL object --
// {"driver":<label>,"work":N,"covered":N,"faults":N} -- into `sink` (which
// the caller keeps alive for the run). A job's lines are its result timeline
// in order, under every plan. Safe to share one sink across RunBatch jobs:
// JsonlWriter serializes internally. Wire it into
// SessionObserver::on_coverage or EngineConfig::on_coverage; fig8_coverage
// --coverage-log builds its CI-archived coverage trail with this.
std::function<void(const CoverageSample&)> MakeCoverageJsonlLogger(JsonlWriter* sink,
                                                                   std::string label);

// ---- exercise-once checkpoint store ----
//
// Process-wide cache of serialized checkpoints. The first request for a
// (key, config) pair exercises the image and checkpoints it; later requests
// resume from the cached blob and only re-run the cheap downstream stages.
// Entries are never dropped: the whole in-tree corpus checkpoints to about
// 12 MB. Thread-safe with per-entry once-semantics: concurrent requests for
// the same entry wait for the one exercise, unrelated entries proceed in
// parallel. The caller's key is combined with a fingerprint of the config's
// exercise-relevant fields, so reusing a key with a different budget/seed
// gets its own checkpoint instead of silently sharing the first one.
// Callback identity (cancel closures) cannot be fingerprinted -- only its
// presence is mixed in -- so callers pairing one key with *distinct* cancel
// policies pass a `salt` to keep their checkpoints apart (ROADMAP PR-2
// follow-up). Benches and tests use this instead of ad-hoc static
// PipelineResult caches.
struct CheckpointBlob;  // internal map entry (once-flag + bytes or error)

class CheckpointStore {
 public:
  static CheckpointStore& Global();

  // A Session at Stage::kExercised for (key, config, salt), exercising
  // image only the first time. Fails closed: when the exercise or the
  // checkpoint reload fails it returns nullptr and sets *error (if given).
  // A failed entry stays cached, so every later Resume for it returns the
  // same error without exercising again.
  std::unique_ptr<Session> Resume(const std::string& key, const isa::Image& image,
                                  const EngineConfig& config, const std::string& salt = "",
                                  std::string* error = nullptr);

  // Number of (key, config, salt) entries held.
  size_t size() const;

 private:
  mutable std::mutex mu_;  // guards the map only; exercising happens outside it
  std::map<std::string, std::shared_ptr<CheckpointBlob>> blobs_;
};

}  // namespace revnic::core

#endif  // REVNIC_CORE_SESSION_H_

#include "core/session.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/result_codec.h"
#include "synth/emit.h"
#include "synth/passes.h"
#include "trace/serialize.h"

namespace revnic::core {

namespace {

constexpr uint32_t kCheckpointMagic = 0x31504352;  // "RCP1"
// Version history: 1 = PR 2 layout; 2 = v1 + optional final-state snapshot
// section; 3 = v2 + per-sample fault counts in the timeline and a FaultStats
// block after the substrate counters. Only version 3 is written or read; a
// v1/v2 blob fails closed with "unsupported checkpoint version".
constexpr uint32_t kCheckpointVersion = 3;

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kCreated:
      return "created";
    case Stage::kExercised:
      return "exercised";
    case Stage::kCfgRecovered:
      return "cfg-recovered";
    case Stage::kSynthesized:
      return "synthesized";
    case Stage::kEmitted:
      return "emitted";
  }
  return "?";
}

Session::Session(const isa::Image& image, EngineConfig config)
    : image_(image), config_(std::move(config)) {}

Session::~Session() = default;

bool Session::Fail(std::string message) {
  error_ = std::move(message);
  return false;
}

bool Session::set_emit_options(EmitOptions options) {
  if (stage_ >= Stage::kCfgRecovered) {
    return false;  // the pass pipeline already ran with the old options
  }
  if (options.targets.empty()) {
    options.targets = {os::TargetOs::kWindows};
  }
  emit_options_ = std::move(options);
  return true;
}

void Session::NotifyStage(Stage completed) {
  if (observer_.on_stage) {
    observer_.on_stage(completed);
  }
}

bool Session::Exercise() {
  if (stage_ >= Stage::kExercised) {
    return true;
  }
  if (!image_.has_value()) {
    return Fail("Exercise(): session has no image (resumed from a checkpoint)");
  }
  // Thread the observer through the engine config, chaining with any
  // callbacks the caller already installed there.
  EngineConfig cfg = config_;
  if (observer_.on_coverage) {
    auto chained = cfg.on_coverage;
    auto mine = observer_.on_coverage;
    cfg.on_coverage = [chained, mine](const CoverageSample& s) {
      if (chained) {
        chained(s);
      }
      mine(s);
    };
  }
  if (observer_.cancel) {
    auto chained = cfg.cancel;
    auto mine = observer_.cancel;
    cfg.cancel = [chained, mine] { return (chained && chained()) || mine(); };
  }
  Engine engine(*image_, cfg);
  engine_ = engine.Run();
  if (!engine_.error.empty()) {
    return Fail("Exercise(): " + engine_.error);
  }
  stage_ = Stage::kExercised;
  NotifyStage(stage_);
  return true;
}

bool Session::RecoverCfg() {
  if (stage_ >= Stage::kCfgRecovered) {
    return true;
  }
  if (!Exercise()) {
    return false;
  }
  synth::PipelineOptions options;
  options.cleanup = emit_options_.cleanup_passes;
  options.verify_between = true;
  std::string pass_error;
  module_ = synth::RunSynthesisPipeline(engine_.bundle, engine_.entries, options,
                                        &synth_stats_, &pass_error);
  if (!pass_error.empty()) {
    return Fail("synthesis pass pipeline: " + pass_error);
  }
  stage_ = Stage::kCfgRecovered;
  NotifyStage(stage_);
  return true;
}

bool Session::Synthesize() {
  if (stage_ >= Stage::kSynthesized) {
    return true;
  }
  if (!RecoverCfg()) {
    return false;
  }
  emitted_.clear();
  emission_stats_.clear();
  // One core render shared by every requested backend.
  for (auto& [target, te] :
       synth::EmitForTargets(module_, emit_options_.targets)) {
    emission_stats_[target] = te.stats;
    emitted_[target] = std::move(te.source);
  }
  stage_ = Stage::kSynthesized;
  NotifyStage(stage_);
  return true;
}

bool Session::Emit() {
  if (stage_ >= Stage::kEmitted) {
    return true;
  }
  if (!Synthesize()) {
    return false;
  }
  runtime_header_ = synth::RuntimeHeader();
  stage_ = Stage::kEmitted;
  NotifyStage(stage_);
  return true;
}

PipelineResult Session::TakeResult() {
  PipelineResult result;
  result.engine = std::move(engine_);
  result.module = std::move(module_);
  result.synth_stats = std::move(synth_stats_);
  result.runtime_header = std::move(runtime_header_);
  result.emitted = std::move(emitted_);
  result.emission_stats = std::move(emission_stats_);
  return result;
}

bool Session::WriteOutputs(const std::string& dir, std::string* error) {
  if (!Emit()) {
    *error = error_;
    return false;
  }
  struct Out {
    std::string name;
    const std::string* text;
  };
  std::vector<Out> outs = {{"driver.c", &emitted_.at(emit_options_.targets.front())},
                           {"revnic_runtime.h", &runtime_header_}};
  for (const auto& [target, source] : emitted_) {
    outs.push_back({synth::TargetFileName(target), &source});
  }
  for (const Out& o : outs) {
    std::string path = dir + "/" + o.name;
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) {
      *error = "cannot open " + path;
      return false;
    }
    size_t written = fwrite(o.text->data(), 1, o.text->size(), f);
    bool closed = fclose(f) == 0;
    if (written != o.text->size() || !closed) {
      *error = "short write to " + path;
      return false;
    }
  }
  return true;
}

// ---- checkpoint format ----
//
// "RCP1" | version 3 | label | EngineResult (core/result_codec.h) |
// optional final-state "RSS1" snapshot. Everything the downstream stages
// and run reports consume; downstream output depends only on the bundle +
// entry table, so resume reproduces straight-through results byte-for-byte.

std::vector<uint8_t> Session::SaveCheckpoint() const {
  if (stage_ < Stage::kExercised) {
    return {};  // nothing to checkpoint; LoadCheckpoint rejects the empty blob
  }
  trace::ByteWriter w;
  w.U32(kCheckpointMagic);
  w.U32(kCheckpointVersion);
  w.Str(label_);
  WriteEngineResult(w, engine_);
  w.U8(engine_.final_snapshot.empty() ? 0 : 1);
  if (!engine_.final_snapshot.empty()) {
    w.U32(static_cast<uint32_t>(engine_.final_snapshot.size()));
    w.Raw(engine_.final_snapshot.data(), engine_.final_snapshot.size());
  }
  return w.Take();
}

std::unique_ptr<Session> Session::LoadCheckpoint(const std::vector<uint8_t>& bytes,
                                                 std::string* error) {
  trace::ByteReader r(bytes);
  auto fail = [&](const char* what) {
    *error = what;
    return nullptr;
  };
  uint32_t magic, version;
  if (!r.U32(&magic) || magic != kCheckpointMagic) {
    return fail("bad checkpoint magic");
  }
  if (!r.U32(&version) || version != kCheckpointVersion) {
    return fail("unsupported checkpoint version");
  }
  std::unique_ptr<Session> s(new Session());
  if (!r.Str(&s->label_)) {
    return fail("truncated label");
  }
  EngineResult& e = s->engine_;
  if (!ReadEngineResult(r, &e, error)) {
    return nullptr;
  }
  uint8_t has_snapshot;
  if (!r.U8(&has_snapshot)) {
    return fail("truncated snapshot flag");
  }
  if (has_snapshot != 0) {
    uint32_t size;
    if (!r.U32(&size) || size != r.remaining()) {
      return fail("bad snapshot section size");
    }
    e.final_snapshot.resize(size);
    if (!r.Raw(e.final_snapshot.data(), size)) {
      return fail("truncated snapshot section");
    }
  }
  if (r.remaining() != 0) {
    return fail("trailing bytes after checkpoint");
  }

  s->stage_ = Stage::kExercised;
  return s;
}

bool Session::SaveCheckpointFile(const std::string& path, std::string* error) const {
  if (stage_ < Stage::kExercised) {
    *error = "nothing to checkpoint: Exercise() has not run";
    return false;
  }
  std::vector<uint8_t> bytes = SaveCheckpoint();
  FILE* f = fopen(path.c_str(), "wb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  size_t written = fwrite(bytes.data(), 1, bytes.size(), f);
  bool closed = fclose(f) == 0;
  if (written != bytes.size() || !closed) {
    *error = "short write to " + path;
    return false;
  }
  return true;
}

std::unique_ptr<Session> Session::LoadCheckpointFile(const std::string& path,
                                                     std::string* error) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return nullptr;
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  fclose(f);
  return LoadCheckpoint(bytes, error);
}

// ---- batch ----

BatchResult RunBatch(const std::vector<BatchJob>& jobs, const BatchOptions& options) {
  BatchResult batch;
  batch.jobs.resize(jobs.size());
  if (jobs.empty()) {
    return batch;
  }
  // Effective per-job configs, resolved up front: the batch fleet is sized
  // from every parallel-class job's plan before any job starts. Jobs that
  // deferred their sizing (plan.threads == 0) inherit the template's plan
  // but keep their own fault plan: deferring the sizing must not silently
  // swap which faults a job runs under. Every parallel-class job joins the
  // batch fleet.
  std::vector<EngineConfig> eff(jobs.size());
  unsigned job_lanes = 0;
  bool steal = true;
  for (size_t i = 0; i < jobs.size(); ++i) {
    eff[i] = jobs[i].config;
    EngineConfig& cfg = eff[i];
    if (options.plan && cfg.plan.threads == 0) {
      hw::FaultPlan job_faults = cfg.plan.faults;
      cfg.plan = *options.plan;
      if (job_faults.Enabled()) {
        cfg.plan.faults = job_faults;
      }
    }
    if (ParallelClass(cfg.plan)) {
      job_lanes = std::max(job_lanes, FleetLanes(cfg.plan));
      steal = steal && cfg.plan.steal;
    }
  }
  const bool fleet_mode = job_lanes != 0;

  unsigned concurrency = options.concurrency;
  if (concurrency == 0 && fleet_mode) {
    // Job threads mostly sleep inside RunJobTasks while the fleet executes;
    // one thread per job keeps every spine overlapped with the fan-out.
    concurrency = static_cast<unsigned>(jobs.size());
  } else if (concurrency == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    concurrency = hw == 0 ? 2 : hw;
  }
  // An explicit request is honored even beyond the core count (workers just
  // timeslice); there is never a point in more workers than jobs.
  concurrency = std::min(concurrency, static_cast<unsigned>(jobs.size()));
  batch.concurrency = concurrency;

  std::unique_ptr<FleetScheduler> fleet;
  if (fleet_mode) {
    // Lanes and stealing come from the fleet jobs' effective plans (a job
    // that deferred its sizing already carries the template's).
    FleetScheduler::Options fopts;
    fopts.workers = job_lanes;
    fopts.steal = steal;
    fleet = std::make_unique<FleetScheduler>(fopts);
  }

  std::atomic<size_t> next{0};
  std::mutex done_mu;
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < jobs.size(); i = next.fetch_add(1)) {
      const BatchJob& job = jobs[i];
      BatchJobResult& out = batch.jobs[i];
      out.name = job.name;
      if (job.image == nullptr) {
        out.error = "job has no image";
      } else {
        EngineConfig cfg = eff[i];
        if (ParallelClass(cfg.plan)) {
          cfg.fleet = fleet.get();
          cfg.fleet_job = static_cast<uint32_t>(i);
        }
        Session session(*job.image, cfg);
        session.set_label(job.name);
        if (session.RunAll()) {
          out.result = session.TakeResult();
          out.ok = true;
        } else {
          out.error = session.error();
        }
      }
      if (options.on_job_done) {
        std::lock_guard<std::mutex> lock(done_mu);
        options.on_job_done(out);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(concurrency);
  for (unsigned t = 0; t < concurrency; ++t) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const BatchJobResult& j : batch.jobs) {
    if (j.ok) {
      batch.aggregate.Accumulate(j.result.engine.substrate);
    }
  }
  if (fleet != nullptr) {
    batch.fleet_used = true;
    batch.fleet = fleet->ComputeStats();
  }
  return batch;
}

std::function<void(const CoverageSample&)> MakeCoverageJsonlLogger(JsonlWriter* sink,
                                                                   std::string label) {
  return [sink, label = std::move(label)](const CoverageSample& s) {
    sink->Write({{"driver", label},
                 {"work", static_cast<uint64_t>(s.work)},
                 {"covered", static_cast<uint64_t>(s.covered_blocks)},
                 {"faults", static_cast<uint64_t>(s.faults)}});
  };
}

// ---- checkpoint store ----

struct CheckpointBlob {
  std::once_flag once;
  std::vector<uint8_t> bytes;
  std::string error;  // set instead of bytes when the exercise failed
};

namespace {

// Folds the config fields that change exercise output into the store key,
// so reusing a caller key with a different budget/seed/heuristic setup gets
// a distinct checkpoint instead of silently sharing the first one's.
// Callback identity (cancel/on_coverage closures) cannot be hashed -- only
// their presence is mixed in; callers pairing the store with distinct cancel
// policies differentiate entries via Resume()'s salt parameter.
std::string ConfigFingerprint(const EngineConfig& c) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(c.pci.vendor_id);
  mix(c.pci.device_id);
  mix(c.pci.io_base);
  mix(c.pci.io_size);
  mix(c.pci.mmio_base);
  mix(c.pci.mmio_size);
  mix(c.pci.irq_line);
  mix(c.max_work);
  mix(c.max_work_per_step);
  mix(c.entry_success_cap);
  mix(c.no_progress_window);
  mix(c.polling_visit_threshold);
  mix(c.seed);
  mix(c.sample_every);
  mix(c.cancel ? 1 : 0);
  // Presence of the final-state snapshot changes the checkpoint bytes.
  mix(c.capture_final_snapshot ? 1 : 0);
  // The fault plan reshapes the explored tree; rates are mixed as raw
  // IEEE-754 bits -- any representational change is a schedule change.
  // threads, plan.fleet and plan.steal are placement only and sub_shards
  // counts >= 1 all merge to the same bytes (pinned by tests/dist_test.cc),
  // so only the output class is mixed, below.
  const ExercisePlan& plan = c.plan;
  mix(plan.faults.seed);
  for (double rate : plan.faults.rates) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(rate));
    std::memcpy(&bits, &rate, sizeof(bits));
    mix(bits);
  }
  // The output class (core/exercise_plan.h) changes the explored tree and
  // the merged slot layout: sequential, whole-step parallel or sub-sharded,
  // told apart through the same predicate Engine::Run uses.
  mix(!ParallelClass(plan) ? 1 : plan.sub_shards == 0 ? 2 : 3);
  // Container sizes are mixed before their elements so adjacent
  // variable-length fields cannot alias each other's streams.
  mix(c.skip_apis.size());
  for (uint32_t api : c.skip_apis) {
    mix(api);
  }
  mix(c.registry.size());
  for (const auto& [key, value] : c.registry) {
    mix(key);
    mix(value);
  }
  mix(c.function_models.size());
  for (const EngineConfig::FunctionModel& m : c.function_models) {
    mix(m.entry_pc);
    mix(m.arg_bytes);
    mix(m.symbolic_return ? 1 : 0);
  }
  mix(static_cast<uint64_t>(c.pool.strategy));
  char buf[20];
  snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

CheckpointStore& CheckpointStore::Global() {
  static CheckpointStore& store = *new CheckpointStore();
  return store;
}

size_t CheckpointStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return blobs_.size();
}

std::unique_ptr<Session> CheckpointStore::Resume(const std::string& key,
                                                 const isa::Image& image,
                                                 const EngineConfig& config,
                                                 const std::string& salt, std::string* error) {
  const std::string store_key = key + "#" + ConfigFingerprint(config) + "#" + salt;
  std::shared_ptr<CheckpointBlob> blob;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The salt keeps callers with distinct cancel policies (identical
    // fingerprints -- closures only contribute a presence bit) on distinct
    // entries.
    std::shared_ptr<CheckpointBlob>& slot = blobs_[store_key];
    if (slot == nullptr) {
      slot = std::make_shared<CheckpointBlob>();
    }
    blob = slot;
  }
  // First requester exercises outside the map lock; same-entry requesters
  // wait here, unrelated entries proceed concurrently.
  std::call_once(blob->once, [&] {
    Session session(image, config);
    session.set_label(key);
    if (!session.Exercise()) {
      blob->error = session.error();
      return;
    }
    blob->bytes = session.SaveCheckpoint();
  });
  std::string why = blob->error;
  std::unique_ptr<Session> resumed;
  if (why.empty()) {
    resumed = Session::LoadCheckpoint(blob->bytes, &why);
  }
  if (resumed == nullptr && error != nullptr) {
    *error = "checkpoint store entry '" + key + "': " + why;
  }
  return resumed;
}

}  // namespace revnic::core

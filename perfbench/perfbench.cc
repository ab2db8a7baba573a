// The repository benchmark: one closed batch run of a RevNIC workload over
// the five registered drivers, ending in one JSON result line.
//
//   perfbench --workload corpus-seq|corpus-fleet|port-native --seed N
//             --seconds S --trace 0|1 [--out DIR] [--workdir DIR]
//   perfbench --manifest     # prints BENCHMARK.json from the tables below
//
// Every workload runs the paper user's whole flow -- five closed binary
// drivers in, five synthesized drivers running natively out -- as three
// timed phases:
//   pipeline  binary images -> emitted C for the four target OSes
//   port      emitted kitos C -> host-cc compiled, dlopen'd, bound drivers
//             whose hardware I/O traces match the original binaries on the
//             DBT, clean and under a seeded fault plan
//   frames    per-frame cost of the native drivers, timed in short slices
// The workloads differ in where the exercise stage runs (README.md says
// why): sequentially, on the batch fleet, or not at all because its RCP1
// output was made during set-up.
//
// With --trace 1 the run does the workload twice, untraced then traced, and
// reports per-layer metrics from the traced pass plus the difference of the
// two passes' end-to-end values. Spans are recorded here, around public
// library calls; nothing inside src/ is instrumented.
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "core/session.h"
#include "drivers/drivers.h"
#include "hw/frame.h"
#include "native/harness.h"
#include "native/host.h"
#include "native/loader.h"
#include "native/toolchain.h"
#include "os/api.h"
#include "os/winsim_host.h"
#include "synth/emit.h"
#include "synth/passes.h"

namespace revnic::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using drivers::DriverId;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- what the benchmark reports ----

struct EndToEndDef {
  const char* name;
  const char* unit;
  const char* better;
  double bound;  // share of the parent's median it may worsen by
};

constexpr EndToEndDef kEndToEnd[] = {
    {"setup_s", "s", "lower", 0.25},
    {"pipeline_wall_s", "s", "lower", 0.25},
    {"pipeline_cpu_s", "s", "lower", 0.25},
    {"coverage_pct", "%", "higher", 0.02},
    {"peak_rss_mb", "MB", "lower", 0.10},
    {"port_wall_s", "s", "lower", 0.25},
    {"native_ns_64", "ns/frame", "lower", 0.25},
    {"native_ns_1472", "ns/frame", "lower", 0.25},
};

struct WorkloadDef {
  const char* name;
  const char* why;
};

constexpr WorkloadDef kWorkloads[] = {
    {"corpus-seq",
     "paper-faithful sequential exerciser, one driver at a time: vm/symex/hw cost adds up, no "
     "fanout or fleet"},
    {"corpus-fleet",
     "sharded exerciser (4 sub-shards) on a 3-lane stealing fleet: stresses fanout, RSS1 restore "
     "and the merge"},
    {"port-native",
     "exercise once in set-up, then port from RCP1 many times: trace/synth/native/hw, symex "
     "bypassed"},
};

enum class Workload { kCorpusSeq, kCorpusFleet, kPortNative };

constexpr size_t kPayloads[] = {64, 1472};  // smallest frame; largest UDP payload in 1500 B MTU

// Metric names with a driver, target or pass suffix follow the registries,
// so a sixth driver or backend shows up without editing this file.
std::vector<std::string> DriverNames() {
  std::vector<std::string> names;
  for (const drivers::TargetInfo& t : drivers::AllTargets()) {
    names.push_back(t.name);
  }
  return names;
}

// The seven cleanup passes, each on its own so the traced probe can time
// them one at a time (synth::AddCleanupPasses order).
std::vector<std::unique_ptr<synth::SynthPass>> MakeCleanupPasses() {
  std::vector<std::unique_ptr<synth::SynthPass>> passes;
  passes.push_back(synth::MakeThreadJumpsPass());
  passes.push_back(synth::MakeMergeFallthroughPass());
  passes.push_back(synth::MakePeepholePass());
  passes.push_back(synth::MakePruneUnreachablePass());
  passes.push_back(synth::MakeDeadCodePass());
  passes.push_back(synth::MakeRecoverSwitchesPass());
  passes.push_back(synth::MakePruneLabelsPass());
  return passes;
}

struct LayerDef {
  std::string name;
  std::string unit;
  std::string better;
};

// Traced per-layer metrics plus the tracing overhead. Every workload
// reports all of them; a figure a workload never produces (fleet counts off
// the fleet, RCP1 timings under RunBatch) reads 0.
std::vector<LayerDef> PerLayerDefs() {
  std::vector<LayerDef> defs;
  auto add = [&](std::string name, const char* unit, const char* better) {
    defs.push_back({std::move(name), unit, better});
  };
  const std::vector<std::string> drv = DriverNames();
  for (const std::string& d : drv) add("core.exercise_s." + d, "s", "lower");
  for (const std::string& d : drv) add("core.ns_per_work." + d, "ns/work", "lower");
  add("core.work_units", "count", "lower");
  add("core.states_created", "count", "lower");
  add("symex.solver_queries", "count", "lower");
  add("symex.solver_misses", "count", "lower");
  add("symex.solver_hit_ratio", "ratio", "higher");
  add("symex.intern_hit_ratio", "ratio", "higher");
  add("vm.dbt_translations", "count", "lower");
  add("vm.dbt_hit_ratio", "ratio", "higher");
  add("core.fanout_tasks", "count", "lower");
  add("core.enum_work", "count", "lower");
  add("core.critical_path_work", "count", "lower");
  add("core.max_task_chain", "count", "lower");
  add("core.fleet_steals", "count", "lower");
  add("core.fleet_makespan_model", "count", "lower");
  add("core.lane_busy_ratio", "ratio", "higher");
  add("trace.checkpoint_save_s", "s", "lower");
  add("trace.checkpoint_load_s", "s", "lower");
  add("trace.checkpoint_mb", "MB", "lower");
  add("synth.downstream_s", "s", "lower");
  add("synth.recovery_s", "s", "lower");
  for (const auto& pass : MakeCleanupPasses()) {
    add(std::string("synth.pass_s.") + pass->name(), "s", "lower");
  }
  for (os::TargetOs t : os::kAllTargetOses) {
    add(std::string("synth.emit_s.") + os::TargetOsName(t), "s", "lower");
  }
  for (os::TargetOs t : os::kAllTargetOses) {
    add(std::string("synth.emit_kb.") + os::TargetOsName(t), "KB", "lower");
  }
  add("synth.blocks", "count", "lower");
  add("synth.instrs_folded", "count", "higher");
  add("native.cc_s", "s", "lower");
  add("native.dlopen_s", "s", "lower");
  add("native.race_s", "s", "lower");
  for (size_t payload : kPayloads) {
    for (const std::string& d : drv) {
      add("native.ns_per_frame_" + std::to_string(payload) + "." + d, "ns/frame", "lower");
    }
  }
  for (size_t payload : kPayloads) {
    add("native.slice_p90_ns_" + std::to_string(payload), "ns/frame", "lower");
  }
  for (const std::string& d : drv) add("hw.io_per_frame_64." + d, "io/frame", "lower");
  for (const std::string& d : drv) add("hw.bytes_per_frame_1472." + d, "B/frame", "lower");
  for (const std::string& d : drv) add("vm.dbt_ns_per_frame_64." + d, "ns/frame", "lower");
  for (const char* layer : {"core", "trace", "synth", "native", "hw", "vm"}) {
    add(std::string("self_s.") + layer, "s", "lower");
  }
  for (const EndToEndDef& e : kEndToEnd) {
    if (std::string_view(e.name) != "setup_s") {
      add(std::string("overhead.") + e.name, e.unit, "lower");
    }
  }
  return defs;
}

// BENCHMARK.json, generated from the tables above so the manifest, the
// README and the program cannot disagree on a name or unit.
void PrintManifest() {
  printf("{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n");
  printf("  \"paths\": [\"perfbench\"],\n  \"run_seconds\": 30,\n  \"workloads\": [\n");
  for (size_t i = 0; i < std::size(kWorkloads); ++i) {
    printf("    {\"name\": \"%s\", \"why\": \"%s\"}%s\n", kWorkloads[i].name, kWorkloads[i].why,
           i + 1 < std::size(kWorkloads) ? "," : "");
  }
  printf("  ],\n  \"end_to_end\": [\n");
  for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
    const EndToEndDef& e = kEndToEnd[i];
    printf("    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", \"bound\": %.2f}%s\n",
           e.name, e.unit, e.better, e.bound, i + 1 < std::size(kEndToEnd) ? "," : "");
  }
  printf("  ],\n  \"per_layer\": [\n");
  std::vector<LayerDef> layer = PerLayerDefs();
  for (size_t i = 0; i < layer.size(); ++i) {
    printf("    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}%s\n",
           layer[i].name.c_str(), layer[i].unit.c_str(), layer[i].better.c_str(),
           i + 1 < layer.size() ? "," : "");
  }
  printf("  ]\n}\n");
}

// ---- failure accounting ----

// Operations attempted and failed. A failed operation also makes the run
// incorrect; the first few reasons go to stderr.
class Ledger {
 public:
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 10) {
        fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
      }
    }
  }
  // A check that is not an operation of its own (determinism, cross-path
  // agreement): it can only make the run incorrect.
  void Require(bool ok, const std::string& what) {
    if (!ok) {
      correct_ = false;
      fprintf(stderr, "perfbench: INCORRECT %s\n", what.c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return correct_ && failed_ == 0; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

// ---- inputs ----

// Default budgets; the workload seed drives the exerciser's random choices.
core::EngineConfig ExerciseConfig(DriverId id, uint64_t seed) {
  core::EngineConfig config;
  config.pci = drivers::DriverPci(id);
  config.seed = seed;
  return config;
}

// The corpus-fleet plan, in one place: 4 sub-shards per step on a 3-lane
// fleet with stealing. Three lanes leave the fourth core to the per-job
// spine threads, which mostly wait on their fan-out.
core::ExercisePlan FleetPlan() {
  core::ExercisePlan plan;
  plan.threads = 0;  // defer sizing to the batch, so every job joins the fleet
  plan.sub_shards = 4;
  plan.fleet = 3;
  plan.steal = true;
  return plan;
}

// The faulted-parity plan: the native harness's parity mix, seeded by the
// workload seed.
std::string FaultedParityPlan(uint64_t seed) {
  return std::to_string(seed) +
         ":irq-drop=0.2,irq-delay=0.15,frame-truncate=0.35,frame-oversize=0.25";
}

// Coverage below this fails the driver's pipeline operation: a change that
// gets faster by exploring less must not pass as correct. Seed 1 reaches
// 95.8-98.5 % on every driver.
constexpr double kCoverageFloorPct = 90.0;

// ---- pipeline products ----

struct Build {
  DriverId id{};
  std::string name;
  core::PipelineResult result;  // emitted holds all four targets
};

// Checks one driver's pipeline output; returns whether it is usable.
bool CheckBuild(const Build& b, Ledger* ledger) {
  bool ok = b.result.engine.CoveragePercent() >= kCoverageFloorPct;
  for (os::TargetOs t : os::kAllTargetOses) {
    auto it = b.result.emitted.find(t);
    ok = ok && it != b.result.emitted.end() && !it->second.empty();
  }
  ledger->Check(ok, "pipeline " + b.name + " (coverage " +
                        std::to_string(b.result.engine.CoveragePercent()) +
                        "%, four non-empty TUs)");
  return ok;
}

double MeanCoverage(const std::vector<Build>& builds) {
  double sum = 0.0;
  for (const Build& b : builds) {
    sum += b.result.engine.CoveragePercent();
  }
  return builds.empty() ? 0.0 : sum / static_cast<double>(builds.size());
}

// Count-type figures that must repeat exactly from pass to pass. Under the
// fleet only the merged, placement-independent ones qualify.
std::vector<uint64_t> CountSignature(const std::vector<Build>& builds, bool with_substrate) {
  std::vector<uint64_t> sig;
  for (const Build& b : builds) {
    const core::EngineResult& e = b.result.engine;
    sig.push_back(e.stats.work);
    sig.push_back(e.stats.states_created);
    sig.push_back(e.covered_blocks.size());
    sig.push_back(e.parallel.tasks);
    sig.push_back(e.parallel.enum_work);
    sig.push_back(b.result.module.blocks.size());
    for (const auto& [target, text] : b.result.emitted) {
      sig.push_back(text.size());
    }
    if (with_substrate) {
      sig.push_back(e.substrate.solver_queries);
      sig.push_back(e.substrate.dbt_cache_misses);
    }
  }
  return sig;
}

// ---- native drivers ----

// One ported driver: the loaded .so bound to a fresh device model. The host
// keeps pointers to the module, the recovered IR and the device, so a Rig
// is built in place and never moved.
struct Rig {
  const Build* build = nullptr;
  native::NativeModule module;
  std::unique_ptr<hw::NicDevice> device;
  std::unique_ptr<native::NativeKitosHost> host;
  uint64_t frames = 0;  // frames sent so far; every fourth also receives
};

// Moves the calling thread to the next CPU it may run on at every Next()
// (children it starts inherit that CPU), and back to its original affinity
// on destruction. Contention from the rest of the host lands on some vCPUs
// more than others, and a single busy thread otherwise stays on one of them
// for a whole run, which made whole runs 1.5-1.7x slower. Rotating spreads
// every run's samples over all CPUs, so the lower-decile summary comes from
// the least-contended ones. Without permission to set affinity it does
// nothing.
class CpuRotation {
 public:
  explicit CpuRotation(size_t first = 0) : next_(first) {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) {
        cpus_.push_back(cpu);
      }
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) {
      sched_setaffinity(0, sizeof(original_), &original_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

struct PortTimes {
  double race_s = 0.0;               // RunRace(measure=false): cc + dlopen + parity
  std::vector<double> per_driver_s;  // the whole port of each driver
};

// Ports every build: compile, load and parity-check through native::RunRace
// (parity reference: the original binary on the DBT), then load the .so and
// bring the driver up on a fresh device. One bring-up and two parity
// operations per driver.
std::vector<std::unique_ptr<Rig>> PortAll(const std::vector<Build>& builds,
                                          const std::string& workdir, uint64_t seed, int rep,
                                          SpanRecorder* spans, Ledger* ledger, PortTimes* times) {
  std::vector<std::unique_ptr<Rig>> rigs;
  // Driver d of repetition r compiles on CPU r + d, so over the repetitions
  // every driver's port meets every CPU.
  CpuRotation rotation(static_cast<size_t>(rep));
  for (const Build& b : builds) {
    rotation.Next();
    auto t0 = Clock::now();
    native::RaceOptions opts;
    opts.measure = false;
    opts.fault_plan = FaultedParityPlan(seed);
    opts.workdir = workdir;
    native::RaceResult race;
    {
      ScopedSpan span(spans, "native.race." + b.name);
      race = native::RunRace(b.id, b.result.emitted.at(os::TargetOs::kKitos), b.result.module,
                             opts);
    }
    times->race_s += SecondsSince(t0);
    auto rig = std::make_unique<Rig>();
    rig->build = &b;
    std::string error = race.available ? race.error : race.skip_reason;
    bool up = race.available && race.ok;
    if (up) {
      ScopedSpan span(spans, "native.dlopen." + b.name);
      up = rig->module.Load(race.so_path, &error);
    }
    if (up) {
      ScopedSpan span(spans, "hw.bringup." + b.name);
      rig->device = drivers::MakeDevice(b.id);
      rig->host = std::make_unique<native::NativeKitosHost>(&rig->module, &b.result.module,
                                                            rig->device.get());
      up = rig->host->Bind(&error) && rig->host->Initialize();
    }
    ledger->Check(up, "bring-up " + b.name + (error.empty() ? "" : ": " + error));
    // RunRace checks clean parity first and stops at the first divergence,
    // so a faulted-side detail means the clean check passed.
    bool clean_ok = race.parity_ok ||
                    (race.parity_checked && race.parity_detail.find("fault") != std::string::npos);
    ledger->Check(race.parity_checked && clean_ok,
                  "clean parity " + b.name + ": " + race.parity_detail);
    ledger->Check(race.parity_checked && race.parity_ok,
                  "faulted parity " + b.name + ": " + race.parity_detail);
    times->per_driver_s.push_back(SecondsSince(t0));
    if (up) {
      rigs.push_back(std::move(rig));
    }
  }
  return rigs;
}

struct Frames {
  hw::Frame tx;
  hw::Frame rx;
};

Frames MakeFrames(size_t payload) {
  hw::MacAddr bcast = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  return {hw::BuildUdpFrame({1, 2, 3, 4, 5, 6}, {2, 2, 2, 2, 2, 2}, payload, 0x5C),
          hw::BuildUdpFrame({3, 3, 3, 3, 3, 3}, bcast, payload, 0x7E)};
}

// Per driver and payload, one ns/frame figure per slice, pooled over every
// burst of the pass.
struct SliceStats {
  std::vector<double> ns[std::size(kPayloads)];
  uint64_t tx_failed = 0;
};

// Register accesses and bytes moved per driver and payload over a burst's
// first kCountRounds rounds: a fixed frame sequence on a fresh rig, so the
// figures repeat exactly from burst to burst.
struct BurstCounts {
  std::vector<uint64_t> io;     // [driver * payloads + payload]
  std::vector<uint64_t> bytes;
  uint64_t frames = 0;          // per driver and payload
};

constexpr uint64_t kSliceFrames = 64;  // a multiple of 4: each slice has the same rx pattern
constexpr size_t kCountRounds = 4;

// Native timings are summarized by the lower decile of their samples.
// Interference from the rest of the host only ever adds time, and on a
// shared 4-core VM it comes in spells that lift whole stretches of a run:
// per-driver medians moved by up to 70 % between processes, the lower
// decile by 2-3 % (README.md has the numbers).
constexpr double kSummaryQuantile = 0.1;

constexpr int kResumeRounds = 8;


uint64_t BytesMoved(const Rig& rig) {
  const hw::NicStats& s = rig.device->stats();
  return rig.host->api_service().counters().bytes_moved + s.tx_bytes + s.rx_bytes;
}

// The native frame loop of native::RunRace -- a send on every frame, plus a
// receive and interrupt delivery on every fourth -- cut into short slices,
// round-robin over drivers and payloads so a slow spell of the host lands on
// all of them alike.
BurstCounts RunSlices(const std::vector<std::unique_ptr<Rig>>& rigs, double seconds,
                      SpanRecorder* spans, std::vector<SliceStats>* stats) {
  constexpr size_t kP = std::size(kPayloads);
  BurstCounts counts;
  counts.io.assign(rigs.size() * kP, 0);
  counts.bytes.assign(rigs.size() * kP, 0);
  counts.frames = kCountRounds * kSliceFrames;
  stats->resize(rigs.size());
  std::vector<Frames> frames;
  for (size_t payload : kPayloads) {
    frames.push_back(MakeFrames(payload));
  }
  auto start = Clock::now();
  CpuRotation rotation;
  for (size_t round = 0; round < kCountRounds || SecondsSince(start) < seconds; ++round) {
    rotation.Next();
    for (size_t r = 0; r < rigs.size(); ++r) {
      Rig& rig = *rigs[r];
      for (size_t p = 0; p < kP; ++p) {
        uint64_t io0 = rig.host->counters().io_total();
        uint64_t bytes0 = BytesMoved(rig);
        int span = spans->Begin(spans->enabled() ? "native.slice_" +
                                                       std::to_string(kPayloads[p]) + "." +
                                                       rig.build->name
                                                 : std::string());
        auto t0 = Clock::now();
        for (uint64_t i = 0; i < kSliceFrames; ++i, ++rig.frames) {
          if (!rig.host->SendFrame(frames[p].tx).has_value()) {
            ++(*stats)[r].tx_failed;
          }
          if ((rig.frames & 3u) == 3u) {
            rig.device->InjectReceive(frames[p].rx);
            rig.host->DeliverInterrupts();
            rig.host->rx_delivered().clear();
          }
        }
        auto t1 = Clock::now();
        spans->End(span);
        (*stats)[r].ns[p].push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                                    static_cast<double>(kSliceFrames));
        if (round < kCountRounds) {
          counts.io[r * kP + p] += rig.host->counters().io_total() - io0;
          counts.bytes[r * kP + p] += BytesMoved(rig) - bytes0;
        }
      }
    }
  }
  return counts;
}

// Geometric mean over drivers of each driver's summary slice.
double NativeNsPerFrame(const std::vector<SliceStats>& stats, size_t p) {
  std::vector<double> per_driver;
  for (const SliceStats& s : stats) {
    per_driver.push_back(Quantile(s.ns[p], kSummaryQuantile));
  }
  return GeoMean(per_driver);
}

// The original driver binary on the DBT (os::ConcreteWinSimHost), the same
// 64 B frame loop in slices; per driver, the summary slice in ns/frame.
std::vector<double> DbtSlices(const std::vector<Build>& builds, double seconds,
                              SpanRecorder* spans, Ledger* ledger) {
  struct DbtRig {
    std::unique_ptr<hw::NicDevice> device;
    std::unique_ptr<os::ConcreteWinSimHost> host;
    uint64_t frames = 0;
    std::vector<double> ns;
  };
  std::vector<DbtRig> rigs(builds.size());
  for (size_t i = 0; i < builds.size(); ++i) {
    rigs[i].device = drivers::MakeDevice(builds[i].id);
    rigs[i].host = std::make_unique<os::ConcreteWinSimHost>(drivers::DriverImage(builds[i].id),
                                                            rigs[i].device.get());
    ledger->Require(rigs[i].host->Initialize(), "DBT bring-up " + builds[i].name);
  }
  Frames frames = MakeFrames(64);
  constexpr uint64_t kDbtSliceFrames = 16;
  auto start = Clock::now();
  while (SecondsSince(start) < seconds) {
    for (size_t i = 0; i < rigs.size(); ++i) {
      DbtRig& rig = rigs[i];
      ScopedSpan span(spans, "vm.dbt_slice_64." + builds[i].name);
      auto t0 = Clock::now();
      for (uint64_t f = 0; f < kDbtSliceFrames; ++f, ++rig.frames) {
        rig.host->SendFrame(frames.tx);
        if ((rig.frames & 3u) == 3u) {
          rig.device->InjectReceive(frames.rx);
          rig.host->DeliverInterrupts();
          rig.host->os().rx_delivered().clear();
        }
      }
      rig.ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                       static_cast<double>(kDbtSliceFrames));
    }
  }
  std::vector<double> per_driver;
  for (const DbtRig& rig : rigs) {
    per_driver.push_back(Quantile(rig.ns, kSummaryQuantile));
  }
  return per_driver;
}

// ---- one pass over the workload ----

struct Context {
  Workload workload = Workload::kCorpusSeq;
  uint64_t seed = 1;
  std::vector<drivers::TargetInfo> targets;
  std::vector<std::vector<uint8_t>> checkpoints;  // port-native: RCP1 per driver
  std::vector<double> setup_exercise_s;           // port-native: per driver
  std::vector<double> setup_save_s;
};

struct PassResult {
  double pipeline_wall_s = 0.0;
  double pipeline_cpu_s = 0.0;
  double coverage_pct = 0.0;
  double port_wall_s = 0.0;
  double native_ns[std::size(kPayloads)] = {};
  double peak_rss_mb = 0.0;
  std::vector<uint64_t> counts;      // determinism signature
  std::map<std::string, double> layer;
  std::vector<Build> builds;         // the last pipeline repetition
};

core::EmitOptions AllTargetsEmit() {
  core::EmitOptions emit;
  emit.targets.assign(std::begin(os::kAllTargetOses), std::end(os::kAllTargetOses));
  return emit;
}

// Corpus workloads: RunBatch from the binary images, then the other three
// backends rendered from each recovered module (RunBatch emits the
// default target only).
std::vector<Build> BatchPipeline(const Context& ctx, core::BatchResult* batch_out,
                                 std::vector<double>* done_s) {
  std::vector<core::BatchJob> jobs;
  for (const drivers::TargetInfo& t : ctx.targets) {
    core::BatchJob job;
    job.name = t.name;
    job.image = &drivers::DriverImage(t.id);
    job.config = ExerciseConfig(t.id, ctx.seed);
    if (ctx.workload == Workload::kCorpusFleet) {
      job.config.plan = FleetPlan();
    }
    jobs.push_back(std::move(job));
  }
  core::BatchOptions options;
  if (ctx.workload == Workload::kCorpusFleet) {
    options.plan = FleetPlan();
  } else {
    options.concurrency = 1;
  }
  auto start = Clock::now();
  done_s->assign(jobs.size(), 0.0);
  options.on_job_done = [&](const core::BatchJobResult& r) {
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].name == r.name) {
        (*done_s)[i] = SecondsSince(start);
      }
    }
  };
  *batch_out = core::RunBatch(jobs, options);
  std::vector<Build> builds;
  for (size_t i = 0; i < batch_out->jobs.size(); ++i) {
    core::BatchJobResult& job = batch_out->jobs[i];
    Build b;
    b.id = ctx.targets[i].id;
    b.name = ctx.targets[i].name;
    if (job.ok) {
      b.result = std::move(job.result);
      for (auto& [target, te] : synth::EmitForTargets(
               b.result.module, {os::TargetOs::kLinux, os::TargetOs::kUcos,
                                 os::TargetOs::kKitos})) {
        b.result.emitted[target] = std::move(te.source);
        b.result.emission_stats[target] = te.stats;
      }
    }
    builds.push_back(std::move(b));
  }
  return builds;
}

// Stage timings of the latest pipeline round, for the traced pass.
struct StageTimes {
  std::vector<double> exercise_s;   // per driver (staged corpus-seq)
  double checkpoint_load_s = 0.0;  // all drivers (port-native)
  double downstream_s = 0.0;       // recover + synthesize + emit, all drivers
};

// Traced corpus-seq: the same sequential work, one Session per driver driven
// stage by stage so each stage gets its span. Sessions are kept for the
// RCP1 probe.
std::vector<Build> StagedPipeline(const Context& ctx, SpanRecorder* spans,
                                  std::vector<std::unique_ptr<core::Session>>* sessions,
                                  StageTimes* times) {
  std::vector<Build> builds;
  for (const drivers::TargetInfo& t : ctx.targets) {
    auto session =
        std::make_unique<core::Session>(drivers::DriverImage(t.id), ExerciseConfig(t.id, ctx.seed));
    session->set_label(t.name);
    session->set_emit_options(AllTargetsEmit());
    auto t0 = Clock::now();
    bool ok;
    {
      ScopedSpan span(spans, std::string("core.exercise.") + t.name);
      ok = session->Exercise();
    }
    times->exercise_s.push_back(SecondsSince(t0));
    auto t1 = Clock::now();
    {
      ScopedSpan span(spans, std::string("synth.recover.") + t.name);
      ok = ok && session->RecoverCfg();
    }
    {
      ScopedSpan span(spans, std::string("synth.synthesize.") + t.name);
      ok = ok && session->Synthesize();
    }
    {
      ScopedSpan span(spans, std::string("synth.emit.") + t.name);
      ok = ok && session->Emit();
    }
    times->downstream_s += SecondsSince(t1);
    Build b;
    b.id = t.id;
    b.name = t.name;
    if (ok) {
      b.result.engine = session->engine();
      b.result.module = session->module();
      b.result.synth_stats = session->synth_stats();
      b.result.emitted = session->emitted();
      b.result.emission_stats = session->emission_stats();
    }
    builds.push_back(std::move(b));
    sessions->push_back(std::move(session));
  }
  return builds;
}

// port-native: the exercise stage is served from the RCP1 bytes made in
// set-up; everything downstream runs for real.
std::vector<Build> CheckpointPipeline(const Context& ctx, SpanRecorder* spans, StageTimes* times,
                                      Ledger* ledger) {
  std::vector<Build> builds;
  for (size_t i = 0; i < ctx.targets.size(); ++i) {
    const drivers::TargetInfo& t = ctx.targets[i];
    Build b;
    b.id = t.id;
    b.name = t.name;
    std::string error;
    auto t0 = Clock::now();
    std::unique_ptr<core::Session> session;
    {
      ScopedSpan span(spans, std::string("trace.load_checkpoint.") + t.name);
      session = core::Session::LoadCheckpoint(ctx.checkpoints[i], &error);
    }
    times->checkpoint_load_s += SecondsSince(t0);
    bool ok = session != nullptr && session->set_emit_options(AllTargetsEmit());
    if (ok) {
      auto t1 = Clock::now();
      ScopedSpan span(spans, std::string("synth.downstream.") + t.name);
      ok = session->Emit();
      error = session->error();
      times->downstream_s += SecondsSince(t1);
    }
    ledger->Require(ok, std::string("resume ") + t.name + " from RCP1: " + error);
    if (ok) {
      b.result = session->TakeResult();
    }
    builds.push_back(std::move(b));
  }
  return builds;
}

void SumSubstrate(const std::vector<Build>& builds, std::map<std::string, double>* layer) {
  perf::SubstrateCounters agg;
  uint64_t work = 0;
  uint64_t states = 0;
  for (const Build& b : builds) {
    agg.Accumulate(b.result.engine.substrate);
    work += b.result.engine.stats.work;
    states += b.result.engine.stats.states_created;
  }
  auto& l = *layer;
  l["core.work_units"] = static_cast<double>(work);
  l["core.states_created"] = static_cast<double>(states);
  l["symex.solver_queries"] = static_cast<double>(agg.solver_queries);
  l["symex.solver_misses"] = static_cast<double>(agg.solver_cache_misses);
  l["symex.solver_hit_ratio"] = agg.SolverHitRate();
  l["symex.intern_hit_ratio"] = agg.InternHitRate();
  l["vm.dbt_translations"] = static_cast<double>(agg.dbt_cache_misses);
  l["vm.dbt_hit_ratio"] = agg.DbtHitRate();
}

// Traced-only probes, all outside the timed phases: the synthesis pipeline
// one pass at a time, each backend on its own, and the host-cc / dlopen
// split of the port. Their outputs are checked against the timed path's.
void SynthProbe(const std::vector<Build>& builds, SpanRecorder* spans,
                std::map<std::string, double>* layer, Ledger* ledger) {
  auto& l = *layer;
  for (const Build& b : builds) {
    synth::SynthContext sctx;
    sctx.bundle = &b.result.engine.bundle;
    sctx.entries = &b.result.engine.entries;
    auto t0 = Clock::now();
    bool ok;
    {
      ScopedSpan span(spans, "synth.recovery." + b.name);
      synth::SynthPassManager recovery(synth::VerifyContext);
      synth::AddRecoveryPasses(&recovery);
      ok = recovery.Run(sctx);
    }
    l["synth.recovery_s"] += SecondsSince(t0);
    for (std::unique_ptr<synth::SynthPass>& pass : MakeCleanupPasses()) {
      std::string name = pass->name();
      synth::SynthPassManager one(synth::VerifyContext);
      one.Add(std::move(pass));
      auto t1 = Clock::now();
      {
        ScopedSpan span(spans, "synth.pass." + name + "." + b.name);
        ok = one.Run(sctx) && ok;
      }
      l["synth.pass_s." + name] += SecondsSince(t1);
    }
    for (os::TargetOs t : os::kAllTargetOses) {
      auto t2 = Clock::now();
      synth::TargetEmission te;
      {
        ScopedSpan span(spans, std::string("synth.emit_target.") + os::TargetOsName(t) + "." +
                                   b.name);
        te = synth::EmitForTarget(sctx.module, t);
      }
      l[std::string("synth.emit_s.") + os::TargetOsName(t)] += SecondsSince(t2);
      ok = ok && te.source == b.result.emitted.at(t);
    }
    ledger->Require(ok, "pass-by-pass synthesis of " + b.name + " matches the session's C");
  }
}

void NativeSplitProbe(const std::vector<Build>& builds, const std::string& workdir,
                      SpanRecorder* spans, std::map<std::string, double>* layer,
                      Ledger* ledger) {
  for (const Build& b : builds) {
    std::string so = workdir + "/probe_" + b.name + ".so";
    std::string error;
    auto t0 = Clock::now();
    bool ok;
    {
      ScopedSpan span(spans, "native.cc." + b.name);
      ok = native::CompileSharedObject(b.result.emitted.at(os::TargetOs::kKitos), so, &error);
    }
    (*layer)["native.cc_s"] += SecondsSince(t0);
    native::NativeModule module;
    auto t1 = Clock::now();
    {
      ScopedSpan span(spans, "native.load." + b.name);
      ok = ok && module.Load(so, &error);
    }
    (*layer)["native.dlopen_s"] += SecondsSince(t1);
    ledger->Require(ok, "host-cc/dlopen probe " + b.name + ": " + error);
  }
}

// Pipeline repetitions per pass: a fixed count, so every run's summary is
// taken over the same number of samples and peak RSS over the same history.
// corpus-seq's one repetition (12-14 s) leaves room for phase 2; port-native
// opens every phase-2 repetition with kResumeRounds more.
int PipelineRepetitions(Workload w) {
  switch (w) {
    case Workload::kCorpusSeq:
      return 1;
    case Workload::kCorpusFleet:
      return 2;
    case Workload::kPortNative:
      return 1;
  }
  return 1;
}

// Runs the workload once, in two phases that share `seconds`:
//   1. PipelineRepetitions() pipeline repetitions; on port-native, whose
//      pipeline takes milliseconds, kResumeRounds more open every
//      repetition of phase 2, so its samples spread over the whole run;
//   2. port + frame-slice repetitions on the latest pipeline's drivers until
//      the repetition boundary nearest the end of the budget.
// Compiled drivers go under `workdir`.
PassResult RunPass(const Context& ctx, const std::string& workdir, double seconds,
                   SpanRecorder* spans, Ledger* ledger) {
  PassResult out;
  const bool traced = spans->enabled();
  const bool port_native = ctx.workload == Workload::kPortNative;
  auto& l = out.layer;
  auto start = Clock::now();
  int pass_span = spans->Begin("core.pass");

  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<std::unique_ptr<core::Session>> sessions;
  StageTimes stage_times;
  std::vector<double> job_done_s;
  core::BatchResult batch;
  bool all_ok = true;
  auto pipeline_round = [&] {
    out.builds.clear();  // the previous round's products must not count in peak RSS
    sessions.clear();
    stage_times = {};
    CpuTimes c0 = ReadCpuTimes();
    auto t0 = Clock::now();
    {
      ScopedSpan span(spans, "core.pipeline");
      if (port_native) {
        out.builds = CheckpointPipeline(ctx, spans, &stage_times, ledger);
      } else if (traced && ctx.workload == Workload::kCorpusSeq) {
        out.builds = StagedPipeline(ctx, spans, &sessions, &stage_times);
      } else {
        ScopedSpan batch_span(spans, "core.run_batch");
        out.builds = BatchPipeline(ctx, &batch, &job_done_s);
      }
    }
    walls.push_back(SecondsSince(t0));
    cpus.push_back(CpuSecondsBetween(c0, ReadCpuTimes()));
    for (const Build& b : out.builds) {
      all_ok = CheckBuild(b, ledger) && all_ok;
    }
    std::vector<uint64_t> sig = CountSignature(out.builds, ctx.workload != Workload::kCorpusFleet);
    if (out.counts.empty()) {
      out.counts = sig;
    } else {
      ledger->Require(sig == out.counts, "pipeline counts repeat across repetitions");
    }
  };
  for (int rep = 0; all_ok && rep < PipelineRepetitions(ctx.workload); ++rep) {
    pipeline_round();
  }

  std::vector<std::vector<double>> ports;  // per driver, one sample per repetition
  std::vector<std::unique_ptr<Rig>> rigs;
  std::vector<SliceStats> slices;
  std::vector<uint64_t> burst_sig;
  PortTimes port_times;
  const double burst_s = std::max(0.5, seconds / 30);
  for (int rep = 0; all_ok; ++rep) {
    auto round_start = Clock::now();
    rigs.clear();  // unload the previous repetition's drivers
    if (port_native) {
      CpuRotation rotation;  // single-threaded rounds: spread them like the slices
      for (int round = rep == 0 ? 1 : 0; all_ok && round < kResumeRounds; ++round) {
        rotation.Next();
        pipeline_round();
      }
    }
    std::string repdir = workdir + "/port" + std::to_string(rep);
    fs::create_directories(repdir);
    port_times = {};
    {
      ScopedSpan span(spans, "native.port");
      rigs = PortAll(out.builds, repdir, ctx.seed, rep, spans, ledger, &port_times);
    }
    ports.resize(port_times.per_driver_s.size());
    for (size_t d = 0; d < ports.size(); ++d) {
      ports[d].push_back(port_times.per_driver_s[d]);
    }
    if (rigs.size() != out.builds.size()) {
      break;
    }
    BurstCounts counts;
    {
      ScopedSpan span(spans, "native.frames");
      counts = RunSlices(rigs, burst_s, spans, &slices);
    }
    std::vector<uint64_t> sig = counts.io;
    sig.insert(sig.end(), counts.bytes.begin(), counts.bytes.end());
    if (rep == 0) {
      burst_sig = sig;
      for (size_t r = 0; r < rigs.size(); ++r) {
        const std::string& name = rigs[r]->build->name;
        double frames = static_cast<double>(counts.frames);
        size_t p64 = r * std::size(kPayloads);
        l["hw.io_per_frame_64." + name] = static_cast<double>(counts.io[p64]) / frames;
        l["hw.bytes_per_frame_1472." + name] = static_cast<double>(counts.bytes[p64 + 1]) / frames;
      }
    } else {
      ledger->Require(sig == burst_sig, "per-frame counts repeat across repetitions");
    }
    if (SecondsSince(start) + SecondsSince(round_start) / 2 >= seconds) {
      break;
    }
  }
  spans->End(pass_span);
  out.pipeline_wall_s = Quantile(walls, kSummaryQuantile);
  out.pipeline_cpu_s = Quantile(cpus, kSummaryQuantile);
  out.coverage_pct = MeanCoverage(out.builds);
  out.counts.insert(out.counts.end(), burst_sig.begin(), burst_sig.end());
  // The five drivers port one after another, so the port's wall time is
  // the sum of their summaries.
  for (const std::vector<double>& d : ports) {
    out.port_wall_s += Quantile(d, kSummaryQuantile);
  }
  for (size_t r = 0; r < slices.size(); ++r) {
    ledger->Require(slices[r].tx_failed == 0,
                    "every native send of " + out.builds[r].name + " completes");
  }
  if (!slices.empty()) {
    for (size_t p = 0; p < std::size(kPayloads); ++p) {
      out.native_ns[p] = NativeNsPerFrame(slices, p);
    }
  }
  out.peak_rss_mb = PeakRssMb();
  if (!traced) {
    return out;
  }

  // ---- per-layer figures of the traced pass ----
  for (size_t i = 0; i < out.builds.size(); ++i) {
    const Build& b = out.builds[i];
    double ex = 0.0;
    if (ctx.workload == Workload::kCorpusSeq) {
      ex = i < stage_times.exercise_s.size() ? stage_times.exercise_s[i] : 0.0;
    } else if (ctx.workload == Workload::kCorpusFleet) {
      ex = i < job_done_s.size() ? job_done_s[i] : 0.0;  // job completion under the fleet
    } else {
      ex = ctx.setup_exercise_s[i];
    }
    l["core.exercise_s." + b.name] = ex;
    uint64_t work = b.result.engine.stats.work;
    l["core.ns_per_work." + b.name] = work == 0 ? 0.0 : ex * 1e9 / static_cast<double>(work);
  }
  SumSubstrate(out.builds, &l);
  uint64_t tasks = 0, enum_work = 0, critical = 0, chain = 0;
  for (const Build& b : out.builds) {
    const core::ParallelExerciseStats& p = b.result.engine.parallel;
    tasks += p.tasks;
    enum_work += p.enum_work;
    critical = std::max(critical, p.critical_path);
    chain = std::max(chain, p.max_task_chain);
  }
  l["core.fanout_tasks"] = static_cast<double>(tasks);
  l["core.enum_work"] = static_cast<double>(enum_work);
  l["core.critical_path_work"] = static_cast<double>(critical);
  l["core.max_task_chain"] = static_cast<double>(chain);
  l["core.fleet_steals"] = batch.fleet_used ? batch.fleet.real_steals : 0.0;
  l["core.fleet_makespan_model"] = batch.fleet_used ? batch.fleet.makespan : 0.0;
  unsigned lanes = batch.fleet_used ? batch.fleet.workers : 1;
  l["core.lane_busy_ratio"] = out.pipeline_cpu_s / (out.pipeline_wall_s * lanes);

  // RCP1: port-native's set-up saved and its pipeline loaded; the staged
  // corpus-seq pass saves and reloads its sessions here. RunBatch exposes
  // no session, so corpus-fleet has no RCP1 or downstream figures.
  double save_s = 0.0, mb = 0.0, load_s = stage_times.checkpoint_load_s;
  if (ctx.workload == Workload::kPortNative) {
    for (size_t i = 0; i < ctx.checkpoints.size(); ++i) {
      save_s += ctx.setup_save_s[i];
      mb += static_cast<double>(ctx.checkpoints[i].size()) / (1024.0 * 1024.0);
    }
  } else {
    for (const auto& s : sessions) {
      auto t0 = Clock::now();
      std::vector<uint8_t> bytes;
      {
        ScopedSpan span(spans, "trace.save_checkpoint." + s->label());
        bytes = s->SaveCheckpoint();
      }
      save_s += SecondsSince(t0);
      mb += static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
      std::string error;
      auto t1 = Clock::now();
      {
        ScopedSpan span(spans, "trace.load_checkpoint." + s->label());
        ledger->Require(core::Session::LoadCheckpoint(bytes, &error) != nullptr,
                        "RCP1 round trip " + s->label() + ": " + error);
      }
      load_s += SecondsSince(t1);
    }
  }
  l["trace.checkpoint_save_s"] = save_s;
  l["trace.checkpoint_load_s"] = load_s;
  l["trace.checkpoint_mb"] = mb;

  l["synth.downstream_s"] = stage_times.downstream_s;
  SynthProbe(out.builds, spans, &l, ledger);
  for (os::TargetOs t : os::kAllTargetOses) {
    double bytes = 0.0;
    for (const Build& b : out.builds) {
      bytes += static_cast<double>(b.result.emitted.at(t).size());
    }
    l[std::string("synth.emit_kb.") + os::TargetOsName(t)] = bytes / 1024.0;
  }
  double blocks = 0.0, folded = 0.0;
  for (const Build& b : out.builds) {
    blocks += static_cast<double>(b.result.module.blocks.size());
    folded += static_cast<double>(b.result.synth_stats.instrs_folded);
  }
  l["synth.blocks"] = blocks;
  l["synth.instrs_folded"] = folded;

  std::string probe_dir = workdir + "/probe";
  fs::create_directories(probe_dir);
  NativeSplitProbe(out.builds, probe_dir, spans, &l, ledger);
  l["native.race_s"] = port_times.race_s;

  for (size_t p = 0; p < std::size(kPayloads); ++p) {
    std::vector<double> p90s;
    std::string suffix = std::to_string(kPayloads[p]);
    for (size_t r = 0; r < slices.size(); ++r) {
      l["native.ns_per_frame_" + suffix + "." + out.builds[r].name] =
          Quantile(slices[r].ns[p], kSummaryQuantile);
      p90s.push_back(Quantile(slices[r].ns[p], 0.9));
    }
    l["native.slice_p90_ns_" + suffix] = GeoMean(p90s);
  }
  std::vector<double> dbt = DbtSlices(out.builds, std::max(1.0, seconds * 0.05), spans, ledger);
  for (size_t i = 0; i < out.builds.size(); ++i) {
    l["vm.dbt_ns_per_frame_64." + out.builds[i].name] = dbt[i];
  }
  return out;
}

// ---- set-up ----

// port-native set-up: exercise every driver on up to nproc threads (each
// Session owns its substrate) and keep the RCP1 bytes in memory.
void ExerciseToCheckpoints(Context* ctx, Ledger* ledger) {
  size_t n = ctx->targets.size();
  ctx->checkpoints.assign(n, {});
  ctx->setup_exercise_s.assign(n, 0.0);
  ctx->setup_save_s.assign(n, 0.0);
  std::vector<std::string> errors(n);
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      const drivers::TargetInfo& t = ctx->targets[i];
      core::Session session(drivers::DriverImage(t.id), ExerciseConfig(t.id, ctx->seed));
      session.set_label(t.name);
      auto t0 = Clock::now();
      if (!session.Exercise()) {
        errors[i] = session.error();
        continue;
      }
      ctx->setup_exercise_s[i] = SecondsSince(t0);
      auto t1 = Clock::now();
      ctx->checkpoints[i] = session.SaveCheckpoint();
      ctx->setup_save_s[i] = SecondsSince(t1);
    }
  };
  unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < std::min<size_t>(hw, n); ++i) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (size_t i = 0; i < n; ++i) {
    ledger->Require(!ctx->checkpoints[i].empty(),
                    std::string("set-up exercise of ") + ctx->targets[i].name + ": " + errors[i]);
  }
}

// ---- output ----

void PrintResult(const Ledger& ledger, const std::vector<std::pair<std::string, double>>& values,
                 const std::map<std::string, std::string>& units) {
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
         ledger.correct() ? "true" : "false",
         static_cast<unsigned long long>(ledger.attempted()),
         static_cast<unsigned long long>(ledger.failed()));
  for (size_t i = 0; i < values.size(); ++i) {
    printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
           values[i].first.c_str(), values[i].second, units.at(values[i].first).c_str());
  }
  printf("}}\n");
}

std::vector<std::pair<std::string, double>> EndToEndValues(const PassResult& r, double setup_s) {
  return {{"setup_s", setup_s},
          {"pipeline_wall_s", r.pipeline_wall_s},
          {"pipeline_cpu_s", r.pipeline_cpu_s},
          {"coverage_pct", r.coverage_pct},
          {"peak_rss_mb", r.peak_rss_mb},
          {"port_wall_s", r.port_wall_s},
          {"native_ns_64", r.native_ns[0]},
          {"native_ns_1472", r.native_ns[1]}};
}

int Usage() {
  fprintf(stderr,
          "usage: perfbench --workload corpus-seq|corpus-fleet|port-native --seed N "
          "--seconds S --trace 0|1 [--out DIR] [--workdir DIR]\n"
          "       perfbench --manifest\n");
  return 2;
}

int Main(int argc, char** argv) {
  auto process_start = Clock::now();
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string out_dir = ".bench_build/traces";
  std::string workdir = ".bench_build/work";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--manifest") {
      PrintManifest();
      return 0;
    } else if (arg == "--workload" && (v = value())) {
      workload_name = v;
    } else if (arg == "--seed" && (v = value())) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace" && (v = value())) {
      trace = std::string(v) == "1";
    } else if (arg == "--out" && (v = value())) {
      out_dir = v;
    } else if (arg == "--workdir" && (v = value())) {
      workdir = v;
    } else {
      return Usage();
    }
  }
  Context ctx;
  ctx.seed = seed;
  if (workload_name == "corpus-seq") {
    ctx.workload = Workload::kCorpusSeq;
  } else if (workload_name == "corpus-fleet") {
    ctx.workload = Workload::kCorpusFleet;
  } else if (workload_name == "port-native") {
    ctx.workload = Workload::kPortNative;
  } else {
    return Usage();
  }
  if (!(seconds > 0.0)) {
    return Usage();
  }
  std::string run_id = workload_name + "-seed" + std::to_string(seed) + "-" +
                       std::to_string(static_cast<long long>(
                           std::chrono::system_clock::now().time_since_epoch().count()));

  // ---- set-up: images, host toolchain, and (port-native) the exercise ----
  Ledger ledger;
  ctx.targets = drivers::AllTargets();
  for (const drivers::TargetInfo& t : ctx.targets) {
    (void)drivers::DriverImage(t.id);
  }
  const std::string run_dir = fs::absolute(workdir / fs::path(run_id)).string();
  fs::create_directories(run_dir);
  std::string why;
  if (!native::ToolchainAvailable(&why)) {
    fprintf(stderr, "perfbench: no usable host C toolchain: %s\n", why.c_str());
    return 1;
  }
  if (ctx.workload == Workload::kPortNative) {
    ExerciseToCheckpoints(&ctx, &ledger);
  }
  double setup_s = SecondsSince(process_start);
  if (!ledger.correct()) {
    fs::remove_all(run_dir);
    return 1;
  }

  std::map<std::string, std::string> units;
  for (const EndToEndDef& e : kEndToEnd) {
    units[e.name] = e.unit;
  }
  std::vector<std::pair<std::string, double>> values;
  SpanRecorder off(false);
  if (!trace) {
    PassResult r = RunPass(ctx, run_dir, seconds, &off, &ledger);
    values = EndToEndValues(r, setup_s);
    printf("perfbench %s seed=%llu: %zu pipeline drivers, coverage %.2f%%\n",
           workload_name.c_str(), static_cast<unsigned long long>(seed), r.builds.size(),
           r.coverage_pct);
  } else {
    PassResult plain = RunPass(ctx, run_dir + "/untraced", seconds / 2, &off, &ledger);
    SpanRecorder spans(true);
    PassResult traced = RunPass(ctx, run_dir + "/traced", seconds / 2, &spans, &ledger);
    ledger.Require(plain.counts == traced.counts,
                   "count-type figures agree between the untraced and traced passes");
    std::vector<LayerDef> defs = PerLayerDefs();
    std::map<std::string, double> layer = traced.layer;
    const std::map<std::string, double> self_by_layer = SelfSecondsByLayer(spans.spans());
    for (const auto& [layer_name, self] : self_by_layer) {
      layer["self_s." + layer_name] = self;
    }
    auto plain_e2e = EndToEndValues(plain, setup_s);
    auto traced_e2e = EndToEndValues(traced, setup_s);
    for (size_t i = 1; i < plain_e2e.size(); ++i) {
      layer["overhead." + plain_e2e[i].first] = traced_e2e[i].second - plain_e2e[i].second;
    }
    for (const LayerDef& d : defs) {
      units[d.name] = d.unit;
      auto it = layer.find(d.name);
      values.push_back({d.name, it == layer.end() ? 0.0 : it->second});
    }
    fs::create_directories(out_dir);
    std::string trace_path = out_dir + "/" + run_id + ".trace.json";
    ledger.Require(WriteChromeTrace(trace_path, run_id, spans.spans()),
                   "write " + trace_path);
    printf("perfbench %s seed=%llu traced: %zu spans -> %s\n", workload_name.c_str(),
           static_cast<unsigned long long>(seed), spans.spans().size(), trace_path.c_str());
    printf("%-8s %12s\n", "layer", "self_s");
    for (const auto& [layer_name, self] : self_by_layer) {
      printf("%-8s %12.6f\n", layer_name.c_str(), self);
    }
    printf("%-20s %14s %14s %14s\n", "end-to-end", "untraced", "traced", "overhead");
    for (size_t i = 1; i < plain_e2e.size(); ++i) {
      printf("%-20s %14.6g %14.6g %14.6g\n", plain_e2e[i].first.c_str(), plain_e2e[i].second,
             traced_e2e[i].second, traced_e2e[i].second - plain_e2e[i].second);
    }
  }
  fs::remove_all(run_dir);
  for (const auto& [name, value] : values) {
    if (!ValidMetricName(name) || !ValidUnit(units.at(name))) {
      fprintf(stderr, "perfbench: invalid metric %s\n", name.c_str());
      return 1;
    }
    printf("  %-36s %16.6f %s\n", name.c_str(), value, units.at(name).c_str());
  }
  PrintResult(ledger, values, units);
  return 0;
}

}  // namespace
}  // namespace revnic::perfbench

int main(int argc, char** argv) { return revnic::perfbench::Main(argc, argv); }

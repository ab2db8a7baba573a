// Figure 9: breakdown of automatically recovered vs manual-glue functions.
// Expected shape: ~70% of recovered functions fully synthesized (no OS
// involvement); the remainder are OS-glue, including a ~10-15% slice of
// type-3 functions that mix OS and hardware access.
//
// Since the synthesizer became a pass pipeline, this bench also reports the
// per-pass SynthStats breakdown and the cleanup pipeline's measured effect
// on the emitted generic-target C (blocks / labels / gotos / bytes with
// cleanup off vs. on) -- the machine-readable trail behind the "cleanup
// shrinks the artifact" claim.
#include "bench/bench_common.h"
#include "synth/emit.h"

int main() {
  using namespace revnic;
  bench::PrintHeader("Figure 9: automatic vs manual function recovery", "Figure 9");

  // One cleanup-on pipeline per driver feeds every report below (the
  // exercise stage is checkpoint-shared either way; this also runs the
  // downstream passes once per driver instead of once per section).
  std::map<drivers::DriverId, core::PipelineResult> on_results;
  for (auto id : bench::AllDriverIds()) {
    on_results.emplace(id, bench::Pipeline(id));
  }

  printf("%-12s %10s %12s %10s %10s %12s\n", "driver", "functions", "automatic", "manual",
         "mixed(T3)", "automatic%");
  double total_auto = 0, total_fn = 0;
  for (auto id : bench::AllDriverIds()) {
    const core::PipelineResult& pr = on_results.at(id);
    size_t fn = pr.module.NumFunctions();
    size_t autom = pr.module.NumFullyAutomatic();
    size_t manual = pr.module.NumNeedingManualGlue();
    size_t mixed = pr.module.NumMixed();
    printf("%-12s %10zu %12zu %10zu %10zu %11.1f%%\n", drivers::DriverName(id), fn, autom,
           manual, mixed, 100.0 * autom / fn);
    total_auto += autom;
    total_fn += fn;
  }
  printf("\nOverall: %.1f%% of functions fully synthesized (paper: ~70%%).\n",
         100.0 * total_auto / total_fn);
  printf("Per-function classification (paper Section 4.2 taxonomy):\n");
  for (auto id : bench::AllDriverIds()) {
    const core::PipelineResult& pr = on_results.at(id);
    printf("  %s:\n", drivers::DriverName(id));
    for (const auto& [pc, f] : pr.module.functions) {
      printf("    %-28s %-14s params=%u%s%s\n", f.name.c_str(),
             synth::FunctionTypeName(f.type), f.num_params, f.has_return ? " ret" : "",
             f.unexplored_targets.empty() ? "" : " [has coverage holes]");
    }
  }

  printf("\nSynthesis pass pipeline (per-pass stats, cleanup on):\n");
  for (auto id : bench::AllDriverIds()) {
    printf("  %s:\n", drivers::DriverName(id));
    for (const ir::PassStats& ps : on_results.at(id).synth_stats.passes) {
      printf("    %s\n", ir::FormatPassStats(ps).c_str());
    }
  }

  printf("\nEmitted generic-target C, cleanup off -> on (same exercise checkpoint):\n");
  printf("%-12s %16s %16s %16s %20s\n", "driver", "blocks", "labels", "gotos", "bytes");
  core::EmitOptions no_cleanup;
  no_cleanup.cleanup_passes = false;
  for (auto id : bench::AllDriverIds()) {
    const core::PipelineResult& on = on_results.at(id);
    const core::PipelineResult& off = bench::Pipeline(id, 250'000, no_cleanup);
    synth::CEmitStats s_on, s_off;
    std::string c_on = synth::EmitC(on.module, &s_on);
    std::string c_off = synth::EmitC(off.module, &s_off);
    printf("%-12s %7zu -> %-6zu %7zu -> %-6zu %7zu -> %-6zu %9zu -> %-9zu\n",
           drivers::DriverName(id), s_off.blocks, s_on.blocks, s_off.labels, s_on.labels,
           s_off.gotos, s_on.gotos, c_off.size(), c_on.size());
  }
  return 0;
}

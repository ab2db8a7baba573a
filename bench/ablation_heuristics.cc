// Ablation: the paper's §3.2 path-selection heuristics.
// "We found this heuristic to speed up exploration, compared to depth-first
// search (which can get stuck in polling loops) or breadth-first search
// (which can take a long time to complete a complex entry point)."
// Measured: basic-block coverage per strategy under an equal work budget,
// and the polling-loop killer on/off.
#include "bench/bench_common.h"

int main() {
  using namespace revnic;
  bench::PrintHeader("Ablation: path-selection heuristics (Section 3.2)", "Section 3.2 claims");

  const uint64_t kBudget = 60'000;
  struct Variant {
    const char* name;
    symex::SelectionStrategy strategy;
    uint32_t polling_threshold;
  };
  const Variant variants[] = {
      {"min-block-count (paper)", symex::SelectionStrategy::kMinBlockCount, 64},
      {"depth-first", symex::SelectionStrategy::kDfs, 64},
      {"breadth-first", symex::SelectionStrategy::kBfs, 64},
      {"random", symex::SelectionStrategy::kRandom, 64},
      {"paper, no loop-killer", symex::SelectionStrategy::kMinBlockCount, 0xFFFFFFFF},
  };

  printf("%-26s", "strategy");
  for (auto id : bench::AllDriverIds()) {
    printf("%14s", drivers::DriverName(id));
  }
  printf("\n");
  for (const Variant& v : variants) {
    printf("%-26s", v.name);
    for (auto id : bench::AllDriverIds()) {
      core::EngineConfig cfg;
      cfg.pci = drivers::DriverPci(id);
      cfg.max_work = kBudget;
      cfg.max_work_per_step = kBudget / 6;
      cfg.pool.strategy = v.strategy;
      cfg.polling_visit_threshold = v.polling_threshold;
      core::EngineResult r = core::Engine(drivers::DriverImage(id), cfg).Run();
      printf("%13.1f%%", r.CoveragePercent());
    }
    printf("\n");
  }
  printf("\n(coverage after %llu work units per driver; higher is better)\n",
         static_cast<unsigned long long>(kBudget));
  return 0;
}

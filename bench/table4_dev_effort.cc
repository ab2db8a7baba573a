// Table 4: developer effort, manual Linux development vs RevNIC.
// Paper numbers are human-effort reports; the measured columns give this
// reproduction's automation proxies: end-to-end pipeline wall time and the
// amount of code RevNIC produced automatically.
#include <chrono>

#include "bench/bench_common.h"

int main() {
  using namespace revnic;
  bench::PrintHeader("Table 4: developer effort, manual vs RevNIC", "Table 4");

  struct PaperRow {
    const char* device;
    int manual_persons;
    const char* manual_span;
    const char* revnic_span;
  };
  const std::map<drivers::DriverId, PaperRow> paper = {
      {drivers::DriverId::kRtl8139, {"RTL8139", 18, "4 years", "1 week"}},
      {drivers::DriverId::kSmc91c111, {"SMSC 91C111", 8, "4 years", "4 days"}},
      {drivers::DriverId::kRtl8029, {"RTL8029", 5, "2 years", "5 days"}},
      {drivers::DriverId::kPcnet, {"AMD PCNet", 3, "4 years", "1 week"}},
  };

  printf("%-12s | paper manual      | paper RevNIC | measured: pipeline  gen. C   auto-fn\n",
         "device");
  for (auto id : bench::AllDriverIds()) {
    auto t0 = std::chrono::steady_clock::now();
    const core::PipelineResult& pr = bench::Pipeline(id);
    double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    size_t c_lines = 1;
    for (char ch : pr.emitted.at(os::TargetOs::kWindows)) {
      c_lines += ch == '\n' ? 1 : 0;
    }
    auto it = paper.find(id);
    if (it != paper.end()) {
      const PaperRow& p = it->second;
      printf("%-12s | %2d devs, %-8s | 1 dev, %-6s| %8.1fs %10zu %8.0f%%\n", p.device,
             p.manual_persons, p.manual_span, p.revnic_span, secs, c_lines,
             100.0 * pr.module.NumFullyAutomatic() / pr.module.NumFunctions());
    } else {
      // Post-paper devices carry measured columns only.
      printf("%-12s | %-17s | %-12s| %8.1fs %10zu %8.0f%%\n", drivers::DriverName(id),
             "(post-paper)", "--", secs, c_lines,
             100.0 * pr.module.NumFullyAutomatic() / pr.module.NumFunctions());
    }
  }
  printf("\n('pipeline' = exercising + wiretap + synthesis wall time in this run;\n"
         " the paper's ~1 week includes template pasting and prototype debugging.)\n");
  return 0;
}

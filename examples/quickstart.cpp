// Quickstart: reverse engineer a closed-source binary NIC driver end to end.
//
//   1. take the opaque rtl8029.sys binary (never its source),
//   2. exercise it with symbolic hardware -- no device model attached,
//   3. synthesize C code + a runnable recovered module,
//   4. run the synthesized driver against the real device model and send a
//      packet through it.
//
// Build: cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "core/session.h"
#include "drivers/drivers.h"
#include "os/recovered_host.h"

int main() {
  using namespace revnic;

  // --- 1. The input: a closed binary driver image ("rtl8029.sys"). ---
  const isa::Image& binary = drivers::DriverImage(drivers::DriverId::kRtl8029);
  printf("input driver : %s (%u bytes, code %zu bytes)\n",
         drivers::DriverFileName(drivers::DriverId::kRtl8029), binary.file_size(),
         binary.code.size());

  // --- 2+3. RevNIC: exercise, wiretap, synthesize. ---
  core::EngineConfig cfg;
  cfg.pci = hw::Rtl8029Config();  // vendor/device id + I/O ranges, as from the
                                  // Windows device manager (paper Section 3.4)
  cfg.max_work = 200'000;
  printf("reverse engineering with symbolic hardware...\n");
  core::Session session(binary, cfg);
  core::SessionObserver obs;
  obs.on_stage = [](core::Stage s) { printf("  [stage done] %s\n", core::StageName(s)); };
  session.set_observer(obs);
  session.RunAll();
  core::PipelineResult result = session.TakeResult();
  printf("  coverage        : %.1f%% of %zu static basic blocks\n",
         result.engine.CoveragePercent(), result.engine.static_blocks);
  printf("  entry points    : %zu discovered via registration monitoring\n",
         result.engine.entries.size());
  printf("  recovered funcs : %zu (%zu fully automatic)\n", result.module.NumFunctions(),
         result.module.NumFullyAutomatic());
  printf("  generated C     : %zu bytes\n", result.emitted.at(os::TargetOs::kWindows).size());

  // Show one synthesized hardware function (Listing 1 flavor).
  uint32_t isr_pc = result.module.EntryPc(os::EntryRole::kIsr);
  printf("\n--- synthesized interrupt service routine ---\n%s\n",
         synth::EmitFunctionC(result.module, isr_pc).c_str());

  // --- 4. Run the synthesized driver on a target OS template. ---
  auto device = drivers::MakeDevice(drivers::DriverId::kRtl8029);
  os::RecoveredDriverHost host(&result.module, device.get(), os::TargetOs::kLinux);
  if (!host.Initialize()) {
    printf("synthesized driver failed to initialize\n");
    return 1;
  }
  size_t on_wire = 0;
  device->set_tx_hook([&](const hw::Frame& f) {
    ++on_wire;
    printf("frame on wire : %zu bytes\n", f.size());
  });
  hw::Frame frame = hw::BuildUdpFrame({0x52, 0x54, 0, 0, 0, 1}, {0x52, 0x54, 0, 0, 0, 2},
                                      256, 0x42);
  auto status = host.SendFrame(frame);
  printf("send status   : 0x%x, %zu frame(s) transmitted\n", status.value_or(0xDEAD), on_wire);
  host.Halt();
  printf("\nquickstart complete: closed binary -> working driver on another OS.\n");
  return on_wire == 1 ? 0 : 1;
}

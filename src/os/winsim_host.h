// ConcreteWinSimHost: runs an r32 driver binary on WinSim against a real
// device model, concretely.
//
// This is the environment an end user's machine provides: it loads the
// driver, runs DriverEntry so the driver registers its miniport entry
// points, and then drives those entry points through the shared miniport
// workload (os/miniport_host.h). Used to validate reverse-engineered
// drivers against the originals by I/O-trace comparison (§5.2) and as the
// "Windows original" configuration of the performance experiments (§5.3).
//
// Entry points beyond the miniport workload's (stdcall):
//   DriverEntry(driver_object, registry_path) -> status
//   shutdown(ctx)    timer(ctx)
#ifndef REVNIC_OS_WINSIM_HOST_H_
#define REVNIC_OS_WINSIM_HOST_H_

#include <optional>

#include "hw/nic.h"
#include "isa/image.h"
#include "os/miniport_host.h"
#include "os/winsim.h"
#include "vm/machine.h"

namespace revnic::os {

class ConcreteWinSimHost : public MiniportHost {
 public:
  // `device` must outlive the host. Its I/O windows are mapped, its IRQ line
  // connected, and (for bus masters) guest RAM attached.
  // `io_override`, when given, receives the device's register traffic
  // (e.g. a CountingIoProxy for performance accounting).
  ConcreteWinSimHost(const isa::Image& image, hw::NicDevice* device,
                     vm::IoHandler* io_override = nullptr);

  // Runs DriverEntry, then the miniport initialize entry. False on any
  // failure.
  bool Initialize() override;

  // Fires any pending timers (drivers use these for link polling).
  void FireTimers();

  WinSim& os() { return api_; }
  uint64_t guest_instrs() const { return machine_.instr_count(); }

  // Calls an arbitrary guest function with stdcall args; exposed for tests.
  std::optional<uint32_t> CallGuest(uint32_t pc, const std::vector<uint32_t>& args);

 protected:
  std::optional<uint32_t> CallRole(EntryRole role, const std::vector<uint32_t>& args) override;

 private:
  static constexpr uint64_t kCallBudget = 2'000'000;  // guest instrs per entry call

  isa::Image image_;
  vm::ConcreteMachine machine_;
};

}  // namespace revnic::os

#endif  // REVNIC_OS_WINSIM_HOST_H_

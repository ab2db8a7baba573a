// NativeKitosHost: the kitos "template" run for real -- the host side of a
// dlopen'd, natively-compiled synthesized driver.
//
// It derives from os::MiniportHost, the workload body the original binary
// (os::ConcreteWinSimHost) and the interpreted module
// (os::RecoveredDriverHost) run on too, and services kernel calls through
// the same os::TemplateOsCall as the interpreted module. What is its own:
// entry roles run through revnic_call_pc_at, and guest RAM is the shared
// object's array. That is the trace-parity argument (src/native/README.md):
// the only thing that changes between the execution modes is *who executes
// the state machine* (host cc output vs. the IR interpreter vs. the DBT),
// so an identical hardware I/O trace means the emitted C is faithful.
//
// The host owns no RAM: guest memory lives inside the shared object
// (revnic_ram_base), and a vm::MemoryMap over that one array serves the
// device models' DMA path, WinSim's GuestMem and the workload's staging,
// with the same out-of-range semantics as the other hosts' RAM.
#ifndef REVNIC_NATIVE_HOST_H_
#define REVNIC_NATIVE_HOST_H_

#include <optional>
#include <vector>

#include "hw/nic.h"
#include "native/loader.h"
#include "os/miniport_host.h"
#include "synth/module.h"

namespace revnic::native {

struct NativeHostCounters : os::TemplateCounters {
  uint64_t io_reads = 0;   // device register reads by the compiled driver
  uint64_t io_writes = 0;
  uint64_t unexplored_hits = 0;     // coverage-hole traps (should stay 0)
  uint64_t halts = 0;

  uint64_t io_total() const { return io_reads + io_writes; }
};

class NativeKitosHost : public os::MiniportHost {
 public:
  // `module`, `recovered`, and `device` must outlive the host. `recovered`
  // supplies the entry-role pc table (the host dispatches roles by guest pc
  // through revnic_call_pc_at). `io_override` interposes on register
  // traffic (e.g. a hw::CountingIoProxy), as in the other hosts.
  NativeKitosHost(const NativeModule* module, const synth::RecoveredModule* recovered,
                  hw::NicDevice* device, vm::IoHandler* io_override = nullptr);
  ~NativeKitosHost() override;

  // Binds the host hooks into the shared object and zeroes its RAM; must be
  // called (once) before Initialize. False with `error` set on ABI trouble.
  bool Bind(std::string* error);

  const NativeHostCounters& counters() const { return counters_; }

 protected:
  std::optional<uint32_t> CallRole(os::EntryRole role, const std::vector<uint32_t>& args) override;

 private:
  // Hook trampolines installed through revnic_bind_host.
  static uint32_t IoReadThunk(void* ctx, uint32_t addr, unsigned size);
  static void IoWriteThunk(void* ctx, uint32_t addr, unsigned size, uint32_t value);
  static uint32_t OsCallThunk(void* ctx, uint32_t api_id, RevnicCpu* cpu);
  static void UnexploredThunk(void* ctx, uint32_t pc);
  static void HaltThunk(void* ctx);

  uint32_t HandleIoRead(uint32_t addr, unsigned size);
  void HandleIoWrite(uint32_t addr, unsigned size, uint32_t value);
  uint32_t HandleOsCall(uint32_t api_id, RevnicCpu* cpu);

  bool InDeviceWindow(uint32_t addr) const;
  std::optional<uint32_t> CallAt(uint32_t pc, uint32_t sp, const std::vector<uint32_t>& args);

  const NativeModule* module_;
  const synth::RecoveredModule* recovered_;
  vm::IoHandler* io_;
  RevnicHostOps ops_{};
  NativeHostCounters counters_;
  bool bound_ = false;
  bool escaped_ = false;  // an unexplored/halt trap fired inside the current call
};

}  // namespace revnic::native

#endif  // REVNIC_NATIVE_HOST_H_

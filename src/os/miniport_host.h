// MiniportHost: the OS side of a miniport driver's workload, written once.
//
// RevNIC validates a port by running the original binary and the
// synthesized driver through the same workload and comparing their
// hardware I/O (§5.2); the synthesized code is pasted into a driver
// template that owns the OS side of that workload (§4.2). This class is
// that template body. It stages NDIS packets and OID buffers at one fixed
// scratch layout in guest RAM, runs the bounded ISR/DPC loop, and sends
// every entry-point call through one virtual, CallRole. Three hosts
// derive from it and differ only in who executes the driver:
//   * os::ConcreteWinSimHost: the original binary on the DBT;
//   * os::RecoveredDriverHost: the recovered module on the IR interpreter;
//   * native::NativeKitosHost: the emitted kitos C, compiled and dlopen'd.
// Equal hardware traces across two hosts therefore mean equal driver
// behaviour, not equal host code.
//
// Entry-point signatures (stdcall; status/r0 conventions in api.h):
//   initialize(driver_handle) -> status          isr(ctx) -> recognized
//   handle_interrupt(ctx)                        send(ctx, packet, flags) -> status
//   query_info(ctx, oid, buf, len, written_addr) -> status
//   set_info(ctx, oid, buf, len, read_addr) -> status
//   reset(ctx) -> status    halt(ctx)
#ifndef REVNIC_OS_MINIPORT_HOST_H_
#define REVNIC_OS_MINIPORT_HOST_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "hw/nic.h"
#include "os/winsim.h"
#include "vm/memmap.h"

namespace revnic::os {

// Guest scratch layout of the workload, shared with the symbolic
// exerciser's script (core/engine.cc).
inline constexpr uint32_t kScratchBase = 0x00200000;
inline constexpr uint32_t kPacketAddr = kScratchBase;          // NDIS_PACKET {data, length}
inline constexpr uint32_t kPacketDataAddr = kScratchBase + 0x100;  // frame bytes
inline constexpr uint32_t kOidLenAddr = kScratchBase + 0x7F0;  // OID bytes written / read
inline constexpr uint32_t kOidBufAddr = kScratchBase + 0x800;  // OID payload

// DriverEntry and initialize arguments.
inline constexpr uint32_t kDriverObjectAddr = 0x1000;
inline constexpr uint32_t kRegistryPathAddr = 0x1100;
inline constexpr uint32_t kDriverHandle = 0x2000;

// ISR/DPC rounds per DeliverInterrupts call.
inline constexpr int kMaxInterruptDeliveries = 8;

class MiniportHost {
 public:
  virtual ~MiniportHost() = default;
  MiniportHost(const MiniportHost&) = delete;
  MiniportHost& operator=(const MiniportHost&) = delete;

  // Runs the initialize entry, then delivers any interrupt it raised.
  // False on any failure.
  virtual bool Initialize();

  // Sends one frame through the send entry (stages the guest-side
  // NDIS_PACKET), then delivers interrupts. Returns the entry's status, or
  // nullopt before Initialize or on a failed call.
  std::optional<uint32_t> SendFrame(const hw::Frame& frame);

  // isr + handle_interrupt while the device holds its line raised, at most
  // kMaxInterruptDeliveries rounds; stops at the first unrecognized isr.
  void DeliverInterrupts();

  // Standard IOCTL wrappers.
  std::optional<uint32_t> Query(uint32_t oid, uint8_t* buf, uint32_t len);
  bool Set(uint32_t oid, const uint8_t* buf, uint32_t len);
  bool SetPacketFilter(uint32_t filter_bits);
  bool SetMulticastList(const std::vector<hw::MacAddr>& list);
  std::optional<hw::MacAddr> QueryMac();

  bool Reset();
  void Halt();  // no call unless initialized

  // The kernel API service the driver's calls land in.
  WinSim& api_service() { return api_; }
  // Frames the driver delivered upward (NdisMIndicateReceivePacket).
  std::vector<hw::Frame>& rx_delivered() { return api_.rx_delivered(); }
  hw::NicDevice* device() { return device_; }
  bool irq_pending() const { return irq_pending_; }

 protected:
  // `device` must outlive the host. Its IRQ line is hooked, and the guest
  // RAM (`ram_size` bytes, or none until mm_.UseExternalRam) is attached
  // for DMA.
  MiniportHost(hw::NicDevice* device, uint32_t ram_size);

  // Calls the driver's entry point for `role` with stdcall `args`. nullopt
  // when the driver registered no such role or the call failed.
  virtual std::optional<uint32_t> CallRole(EntryRole role,
                                           const std::vector<uint32_t>& args) = 0;

  // Maps the device's port and MMIO windows into mm_; register traffic goes
  // to `io_override` when given (e.g. a hw::CountingIoProxy), else the device.
  void MapDevice(vm::IoHandler* io_override);

  hw::NicDevice* device_;
  WinSim api_;
  vm::MemoryMap mm_;       // guest RAM
  RamGuestMem guest_mem_;  // WinSim's view of mm_

 private:
  std::optional<uint32_t> CallAdapter(EntryRole role) {
    return CallRole(role, {api_.adapter_context()});
  }

  bool irq_pending_ = false;
  bool initialized_ = false;
};

struct TemplateCounters {
  uint64_t lock_acquisitions = 0;   // the template's single entry lock
  uint64_t stripped_stalls_us = 0;  // vendor stalls dropped by the template
  uint64_t os_calls = 0;
};

// The synthesized drivers' template kernel-call service (§4.2). The
// template strips source-OS workarounds: NdisStallExecution and NdisMSleep
// become no-ops, which is why the synthesized RTL8139 driver does not
// inherit the original's >1 KiB stall quirk (Figure 2). Every other call
// goes to `api`; NdisMSynchronizeWithInterrupt's callback re-enters the
// driver through `call_nested(pc, arg)`. The original binary keeps its
// unstripped syscall path (ConcreteWinSimHost::CallGuest).
template <typename CallNested>
uint32_t TemplateOsCall(WinSim& api, GuestMem& mem, TemplateCounters* counters, uint32_t api_id,
                        const std::vector<uint32_t>& args, CallNested&& call_nested) {
  ++counters->os_calls;
  if (api_id == kNdisStallExecution || api_id == kNdisMSleep) {
    counters->stripped_stalls_us += args.empty() ? 0 : args[0];
    return kStatusSuccess;
  }
  ApiOutcome outcome = api.HandleApi(api_id, args, mem);
  if (outcome.effect == ApiEffect::kCallGuestFunction) {
    return call_nested(outcome.callback_pc, outcome.callback_arg).value_or(kStatusFailure);
  }
  return outcome.ret;
}

}  // namespace revnic::os

#endif  // REVNIC_OS_MINIPORT_HOST_H_

// WinSim: the Windows/NDIS-like source OS substrate.
//
// The four "closed-source" drivers are WinSim binaries. WinSim provides:
//   * driver loading (DRV1 image -> guest RAM, stack & heap layout);
//   * the kernel API surface of api.h, with semantics implemented here once
//     and shared by both execution modes (concrete validation runs and the
//     symbolic exerciser) through the GuestMem indirection;
//   * entry-point bookkeeping: it observes kNdisMRegisterMiniport and records
//     the driver's entry-point table -- the §3.2 mechanism RevNIC relies on to
//     discover what to exercise.
// Control-flow APIs (timer fire, NdisMSynchronizeWithInterrupt) are executed
// by the hosting mode, which is the only layer able to call back into guest
// code; WinSim flags them via ApiEffect.
#ifndef REVNIC_OS_WINSIM_H_
#define REVNIC_OS_WINSIM_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "hw/dma.h"
#include "hw/frame.h"
#include "hw/pci.h"
#include "isa/image.h"
#include "os/api.h"
#include "vm/memmap.h"

namespace revnic::os {

// Guest memory accessor, implemented over ConcreteMachine (direct) or over a
// symbolic ExecutionState (with OS-read concretization, §3.4).
class GuestMem {
 public:
  virtual ~GuestMem() = default;
  virtual uint32_t Read(uint32_t addr, unsigned size) = 0;
  virtual void Write(uint32_t addr, unsigned size, uint32_t value) = 0;
};

// GuestMem over a host's concrete RAM. NdisMoveMemory/NdisZeroMemory go
// through GuestMem one byte at a time; MemoryMap is final, so its accessors
// are called directly, with no second indirect call per access.
class RamGuestMem final : public GuestMem {
 public:
  explicit RamGuestMem(vm::MemoryMap* ram) : ram_(ram) {}
  uint32_t Read(uint32_t addr, unsigned size) override { return ram_->ReadRam(addr, size); }
  void Write(uint32_t addr, unsigned size, uint32_t value) override {
    ram_->WriteRam(addr, size, value);
  }

 private:
  vm::MemoryMap* ram_;
};

// Guest memory layout constants.
inline constexpr uint32_t kGuestRamSize = 16u << 20;
inline constexpr uint32_t kStackTop = 0x00100000;      // grows down
inline constexpr uint32_t kHeapBase = 0x00800000;
inline constexpr uint32_t kDmaBase = 0x00C00000;
inline constexpr uint32_t kStopPc = 0xFFFFFFF0;        // magic return address

// Entry-point roles, in script order (§3.2: load, IOCTLs, send, receive,
// unload). kTimer entries are registered dynamically via NdisInitializeTimer.
enum class EntryRole : uint8_t {
  kInitialize = 0,
  kIsr,
  kHandleInterrupt,
  kSend,
  kQueryInformation,
  kSetInformation,
  kReset,
  kHalt,
  kShutdown,
  kTimer,
};
const char* EntryRoleName(EntryRole role);

struct EntryPoint {
  EntryRole role;
  uint32_t pc = 0;
  uint32_t timer_context = 0;  // kTimer only
};

struct Timer {
  uint32_t handler_pc = 0;
  uint32_t context = 0;
  bool pending = false;
};

// Side effects HandleApi cannot perform itself.
enum class ApiEffect : uint8_t {
  kNone = 0,
  kCallGuestFunction,  // NdisMSynchronizeWithInterrupt: call `callback_pc`
};

struct ApiOutcome {
  uint32_t ret = 0;
  ApiEffect effect = ApiEffect::kNone;
  uint32_t callback_pc = 0;
  uint32_t callback_arg = 0;
};

struct WinSimCounters {
  uint64_t rx_indicated = 0;
  uint64_t send_completes = 0;
  uint64_t error_logs = 0;
  uint64_t status_indications = 0;
  uint64_t stall_micros = 0;
  uint64_t bytes_moved = 0;  // NdisMoveMemory/NdisZeroMemory traffic
};

class WinSim {
 public:
  explicit WinSim(const hw::PciConfig& pci) : pci_(pci) {}

  // Loads a DRV1 image into guest RAM at its link base, zeroing bss.
  void LoadDriver(const isa::Image& image, vm::MemoryMap* mm);

  // Services one kernel API call. `args` has SignatureOf(id).argc entries
  // (already popped representation; the caller adjusts sp by 4*argc).
  ApiOutcome HandleApi(uint32_t id, const std::vector<uint32_t>& args, GuestMem& mem);

  // Entry-point discovery results (valid once the driver registered).
  bool registered() const { return registered_; }
  const std::vector<EntryPoint>& entries() const { return entries_; }
  uint32_t EntryPc(EntryRole role) const;
  uint32_t adapter_context() const { return adapter_context_; }

  hw::DmaTracker& dma() { return dma_; }
  const WinSimCounters& counters() const { return counters_; }
  std::vector<hw::Frame>& rx_delivered() { return rx_delivered_; }
  std::vector<Timer>& timers() { return timers_; }

  // Registry configuration the driver may query (tests toggle these).
  void SetConfig(uint32_t key, uint32_t value) { config_[key] = value; }

  // Distinct API ids the driver has called (Table 1 "imported functions").
  const std::map<uint32_t, uint64_t>& api_usage() const { return api_usage_; }

  void ResetRuntimeState();

  // ---- snapshot support (execution-state snapshots, core/engine.cc) ----
  // Every field HandleApi can mutate; a restored substrate must carry them
  // so entry lookups, allocator cursors and timer state resume exactly.
  struct Snapshot {
    bool registered = false;
    std::vector<EntryPoint> entries;
    uint32_t adapter_context = 0;
    uint32_t heap_next = kHeapBase;
    uint32_t dma_next = kDmaBase;
    std::vector<Timer> timers;
    std::map<uint32_t, uint32_t> config;
    WinSimCounters counters;
    std::vector<hw::Frame> rx_delivered;
    std::map<uint32_t, uint64_t> api_usage;
    std::vector<std::pair<uint32_t, uint32_t>> dma_regions;
  };
  Snapshot SnapshotState() const;
  void RestoreState(Snapshot snap);

 private:
  uint32_t AllocHeap(uint32_t size);
  uint32_t AllocDma(uint32_t size);

  hw::PciConfig pci_;
  hw::DmaTracker dma_;
  bool registered_ = false;
  std::vector<EntryPoint> entries_;
  uint32_t adapter_context_ = 0;
  uint32_t heap_next_ = kHeapBase;
  uint32_t dma_next_ = kDmaBase;
  std::vector<Timer> timers_;
  std::map<uint32_t, uint32_t> config_;
  WinSimCounters counters_;
  std::vector<hw::Frame> rx_delivered_;
  std::map<uint32_t, uint64_t> api_usage_;
  GuestMem* current_mem_ = nullptr;  // valid during HandleApi
};

}  // namespace revnic::os

#endif  // REVNIC_OS_WINSIM_H_

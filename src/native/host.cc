#include "native/host.h"

#include <cstring>

#include "os/api.h"
#include "util/bits.h"
#include "util/log.h"

namespace revnic::native {

NativeKitosHost::NativeKitosHost(const NativeModule* module,
                                 const synth::RecoveredModule* recovered,
                                 hw::NicDevice* device, vm::IoHandler* io_override)
    : MiniportHost(device, /*ram_size=*/0),  // RAM is the .so's array once bound
      module_(module),
      recovered_(recovered),
      io_(io_override != nullptr ? io_override : device) {}

NativeKitosHost::~NativeKitosHost() {
  if (bound_ && module_ != nullptr && module_->loaded()) {
    module_->BindHost(nullptr, 0, 0);
  }
}

bool NativeKitosHost::Bind(std::string* error) {
  if (module_ == nullptr || !module_->loaded()) {
    if (error != nullptr) {
      *error = "native module not loaded";
    }
    return false;
  }
  uint32_t ram_size = 0;
  uint8_t* ram = module_->Ram(&ram_size);
  if (ram == nullptr || ram_size == 0) {
    if (error != nullptr) {
      *error = "shared object exposes no RAM";
    }
    return false;
  }
  // Fresh boot: the .so's RAM is process-static, so a rebinding host must
  // not inherit a previous run's guest memory.
  std::memset(ram, 0, ram_size);
  mm_.UseExternalRam(ram, ram_size);

  ops_.ctx = this;
  ops_.io_read = &NativeKitosHost::IoReadThunk;
  ops_.io_write = &NativeKitosHost::IoWriteThunk;
  ops_.os_call = &NativeKitosHost::OsCallThunk;
  ops_.unexplored = &NativeKitosHost::UnexploredThunk;
  ops_.trace_halt = &NativeKitosHost::HaltThunk;
  const hw::PciConfig& pci = device_->pci();
  module_->BindHost(&ops_, pci.mmio_base, pci.mmio_size);
  bound_ = true;
  return true;
}

bool NativeKitosHost::InDeviceWindow(uint32_t addr) const {
  const hw::PciConfig& pci = device_->pci();
  bool in_ports = pci.io_size != 0 && addr >= pci.io_base && addr < pci.io_base + pci.io_size;
  bool in_mmio =
      pci.mmio_size != 0 && addr >= pci.mmio_base && addr < pci.mmio_base + pci.mmio_size;
  return in_ports || in_mmio;
}

uint32_t NativeKitosHost::IoReadThunk(void* ctx, uint32_t addr, unsigned size) {
  return static_cast<NativeKitosHost*>(ctx)->HandleIoRead(addr, size);
}

void NativeKitosHost::IoWriteThunk(void* ctx, uint32_t addr, unsigned size, uint32_t value) {
  static_cast<NativeKitosHost*>(ctx)->HandleIoWrite(addr, size, value);
}

uint32_t NativeKitosHost::OsCallThunk(void* ctx, uint32_t api_id, RevnicCpu* cpu) {
  return static_cast<NativeKitosHost*>(ctx)->HandleOsCall(api_id, cpu);
}

void NativeKitosHost::UnexploredThunk(void* ctx, uint32_t pc) {
  auto* host = static_cast<NativeKitosHost*>(ctx);
  ++host->counters_.unexplored_hits;
  host->escaped_ = true;
  RLOG_WARN("native host: compiled driver hit unexplored pc 0x%x", pc);
}

void NativeKitosHost::HaltThunk(void* ctx) {
  auto* host = static_cast<NativeKitosHost*>(ctx);
  ++host->counters_.halts;
  host->escaped_ = true;
}

uint32_t NativeKitosHost::HandleIoRead(uint32_t addr, unsigned size) {
  ++counters_.io_reads;
  if (!InDeviceWindow(addr)) {
    return 0;  // unmapped I/O reads as zero, as vm::ConcreteMachine's bus does
  }
  // Same masking the MemoryMap-routed path applies (vm/machine.cc).
  return io_->IoRead(addr, size) & LowMask(size * 8);
}

void NativeKitosHost::HandleIoWrite(uint32_t addr, unsigned size, uint32_t value) {
  ++counters_.io_writes;
  if (!InDeviceWindow(addr)) {
    return;
  }
  io_->IoWrite(addr, size, value & LowMask(size * 8));
}

uint32_t NativeKitosHost::HandleOsCall(uint32_t api_id, RevnicCpu* cpu) {
  // Stdcall service, mirroring RecoveredRunner's syscall handling: read the
  // args at [sp], then pop them before servicing (nested guest callbacks
  // start from the popped sp).
  const os::ApiSignature& sig = os::SignatureOf(api_id);
  std::vector<uint32_t> args(sig.argc);
  uint32_t sp = cpu->r[12];
  for (unsigned i = 0; i < sig.argc; ++i) {
    args[i] = mm_.ReadRam(sp + 4 * i, 4);
  }
  cpu->r[12] = sp + 4 * sig.argc;

  return os::TemplateOsCall(api_, guest_mem_, &counters_, api_id, args,
                            [this, cpu](uint32_t pc, uint32_t arg) {
                              return CallAt(pc, cpu->r[12], {arg});
                            });
}

std::optional<uint32_t> NativeKitosHost::CallAt(uint32_t pc, uint32_t sp,
                                                const std::vector<uint32_t>& args) {
  bool outer_escaped = escaped_;
  escaped_ = false;
  uint32_t ret = module_->CallPcAt(pc, sp, args.data(), static_cast<unsigned>(args.size()));
  bool failed = escaped_;
  escaped_ = outer_escaped;
  if (failed) {
    return std::nullopt;
  }
  return ret;
}

std::optional<uint32_t> NativeKitosHost::CallRole(os::EntryRole role,
                                                  const std::vector<uint32_t>& args) {
  uint32_t pc = recovered_->EntryPc(role);
  if (pc == 0 || !bound_) {
    return std::nullopt;
  }
  return CallAt(pc, os::kStackTop, args);
}

}  // namespace revnic::native

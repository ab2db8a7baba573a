#include "os/recovered_host.h"

namespace revnic::os {

RecoveredDriverHost::RecoveredDriverHost(const synth::RecoveredModule* module,
                                         hw::NicDevice* device, TargetOs os,
                                         vm::IoHandler* io_override)
    : MiniportHost(device, kGuestRamSize), module_(module), os_(os) {
  MapDevice(io_override);
  runner_ = std::make_unique<synth::RecoveredRunner>(module_, &mm_, this);
  runner_->set_reg(isa::kRegSp, kStackTop);
}

uint32_t RecoveredDriverHost::OsCall(uint32_t api_id, const std::vector<uint32_t>& args) {
  return TemplateOsCall(api_, guest_mem_, &counters_, api_id, args,
                        [this](uint32_t pc, uint32_t arg) { return runner_->Call(pc, {arg}); });
}

std::optional<uint32_t> RecoveredDriverHost::CallRole(EntryRole role,
                                                      const std::vector<uint32_t>& args) {
  uint32_t pc = module_->EntryPc(role);
  if (pc == 0) {
    return std::nullopt;
  }
  ++counters_.lock_acquisitions;  // the template's single entry lock
  return runner_->Call(pc, args);
}

}  // namespace revnic::os

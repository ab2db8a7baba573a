#include "os/winsim_host.h"

#include "isa/isa.h"
#include "util/log.h"

namespace revnic::os {

ConcreteWinSimHost::ConcreteWinSimHost(const isa::Image& image, hw::NicDevice* device,
                                       vm::IoHandler* io_override)
    : MiniportHost(device, kGuestRamSize), image_(image), machine_(&mm_) {
  MapDevice(io_override);
  machine_.set_stop_pc(kStopPc);
  api_.LoadDriver(image_, &mm_);
}

std::optional<uint32_t> ConcreteWinSimHost::CallGuest(uint32_t pc,
                                                      const std::vector<uint32_t>& args) {
  uint32_t saved_sp = machine_.reg(isa::kRegSp);
  if (saved_sp == 0) {
    machine_.set_reg(isa::kRegSp, kStackTop);
    saved_sp = kStackTop;
  }
  for (auto it = args.rbegin(); it != args.rend(); ++it) {
    machine_.Push(*it);
  }
  machine_.Push(kStopPc);
  machine_.set_pc(pc);

  uint64_t budget = kCallBudget;
  while (true) {
    vm::ConcreteMachine::RunResult r = machine_.Run(budget);
    switch (r.reason) {
      case vm::ConcreteMachine::StopReason::kStopPc: {
        uint32_t ret = machine_.reg(isa::kRegR0);
        machine_.set_reg(isa::kRegSp, saved_sp);
        return ret;
      }
      case vm::ConcreteMachine::StopReason::kSyscall: {
        const ApiSignature& sig = SignatureOf(r.api_id);
        std::vector<uint32_t> sys_args(sig.argc);
        for (unsigned i = 0; i < sig.argc; ++i) {
          sys_args[i] = machine_.PopArg(i);
        }
        ApiOutcome outcome = api_.HandleApi(r.api_id, sys_args, guest_mem_);
        machine_.DropArgs(sig.argc);
        if (outcome.effect == ApiEffect::kCallGuestFunction) {
          auto nested = CallGuest(outcome.callback_pc, {outcome.callback_arg});
          outcome.ret = nested.value_or(kStatusFailure);
        }
        machine_.set_reg(isa::kRegR0, outcome.ret);
        break;
      }
      case vm::ConcreteMachine::StopReason::kBudget:
        RLOG_WARN("guest call at 0x%x exceeded instruction budget", pc);
        machine_.set_reg(isa::kRegSp, saved_sp);
        return std::nullopt;
      case vm::ConcreteMachine::StopReason::kHalt:
      case vm::ConcreteMachine::StopReason::kBadFetch:
        RLOG_WARN("guest call at 0x%x stopped abnormally (pc=0x%x)", pc, machine_.pc());
        machine_.set_reg(isa::kRegSp, saved_sp);
        return std::nullopt;
    }
  }
}

std::optional<uint32_t> ConcreteWinSimHost::CallRole(EntryRole role,
                                                     const std::vector<uint32_t>& args) {
  uint32_t pc = api_.EntryPc(role);
  if (pc == 0) {
    return std::nullopt;
  }
  return CallGuest(pc, args);
}

bool ConcreteWinSimHost::Initialize() {
  machine_.set_reg(isa::kRegSp, kStackTop);
  auto status = CallGuest(image_.entry, {kDriverObjectAddr, kRegistryPathAddr});
  if (!status || *status != kStatusSuccess || !api_.registered()) {
    RLOG_WARN("DriverEntry failed");
    return false;
  }
  return MiniportHost::Initialize();
}

void ConcreteWinSimHost::FireTimers() {
  for (Timer& t : api_.timers()) {
    if (t.pending) {
      t.pending = false;
      CallGuest(t.handler_pc, {t.context});
    }
  }
  DeliverInterrupts();
}

}  // namespace revnic::os

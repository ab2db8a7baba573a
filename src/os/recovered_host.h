// RecoveredDriverHost: a target-OS driver template instantiated with
// RevNIC-synthesized code (§4.2).
//
// One class implements the paper's template structure for all four target
// OSes; the TargetOs tag selects the boilerplate profile (what the OS charges
// per packet is the perf module's concern). The template:
//   * provides all OS boilerplate (resource allocation, timers, error
//     recovery) by servicing the synthesized code's kernel calls;
//   * wires the recovered entry points into its placeholder slots using the
//     role metadata captured at registration time (standing in for the
//     developer's paste step);
//   * holds the single template lock the paper describes (counted);
//   * strips source-OS-specific workarounds (os::TemplateOsCall, shared
//     with the compiled kitos host).
// The workload itself (packet and OID staging, interrupt delivery) is the
// shared os::MiniportHost body, the same one the original binary runs on.
// KitOS is the degenerate template: no OS services beyond memory, which is
// the paper's "driver talks to hardware directly" mode.
#ifndef REVNIC_OS_RECOVERED_HOST_H_
#define REVNIC_OS_RECOVERED_HOST_H_

#include <memory>
#include <optional>

#include "hw/nic.h"
#include "os/miniport_host.h"
#include "os/target.h"
#include "synth/module.h"
#include "synth/runner.h"

namespace revnic::os {

class RecoveredDriverHost : public MiniportHost, public synth::OsBridge {
 public:
  // `module` and `device` must outlive the host.
  RecoveredDriverHost(const synth::RecoveredModule* module, hw::NicDevice* device, TargetOs os,
                      vm::IoHandler* io_override = nullptr);

  // synth::OsBridge: kernel API service for the synthesized code.
  uint32_t OsCall(uint32_t api_id, const std::vector<uint32_t>& args) override;

  TargetOs target() const { return os_; }
  const TemplateCounters& counters() const { return counters_; }
  uint64_t guest_instrs() const { return runner_->instr_count(); }

 protected:
  // Resolves `role` through the role metadata captured at registration
  // time, under the template's single entry lock.
  std::optional<uint32_t> CallRole(EntryRole role, const std::vector<uint32_t>& args) override;

 private:
  const synth::RecoveredModule* module_;
  TargetOs os_;
  std::unique_ptr<synth::RecoveredRunner> runner_;
  TemplateCounters counters_;
};

}  // namespace revnic::os

#endif  // REVNIC_OS_RECOVERED_HOST_H_

// Pluggable per-target-OS emission backends (§4.2, Tables 2-3).
//
// The paper's porting story: the same recovered state machine is pasted
// into a driver template per target OS -- full NDIS boilerplate on Windows,
// net_device glue on Linux, a slim embedded interface on uC/OS-II, and no
// template at all on KitOS (the driver talks to hardware directly). Each
// EmitBackend renders one of those artifacts as a self-contained C
// translation unit: a target-specific prologue, the shared function bodies
// (synth/cemit.h), and the template glue wiring the recovered entry-point
// roles into the target's placeholder slots. Every backend's output
// compiles with a host C compiler (pinned by tests/synth_passes_test.cc);
// each pairs with the matching os::RecoveredDriverHost profile for
// in-process execution, whose workload (os::MiniportHost) is the one the
// original binary and the compiled kitos driver run too.
#ifndef REVNIC_SYNTH_EMIT_H_
#define REVNIC_SYNTH_EMIT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "os/target.h"
#include "synth/cemit.h"
#include "synth/module.h"

namespace revnic::synth {

class EmitBackend {
 public:
  virtual ~EmitBackend() = default;
  virtual os::TargetOs target() const = 0;
  const char* name() const { return os::TargetOsName(target()); }
  // Leading comment, includes, and (KitOS) the inline runtime definitions.
  virtual std::string Prologue(const RecoveredModule& module) const = 0;
  // Template glue appended after the synthesized functions: entry-point
  // role wiring in the target OS's idiom.
  virtual std::string TemplateGlue(const RecoveredModule& module) const = 0;
};

std::unique_ptr<EmitBackend> MakeEmitBackend(os::TargetOs target);

// "driver_windows.c", "driver_linux.c", ... (WriteOutputs / CI artifacts).
std::string TargetFileName(os::TargetOs target);

// Size/stat split of one emitted target, without the text -- what Session
// keeps per target so callers can report template vs. synthesized shares
// without re-rendering the translation unit.
struct EmissionStats {
  size_t template_bytes = 0;  // prologue + glue: the per-OS template share
  size_t core_bytes = 0;      // shared-renderer output: the synthesized share
  CEmitStats core;            // renderer counters over the synthesized share
};

struct TargetEmission {
  std::string source;
  EmissionStats stats;
};

// Renders the module for one target OS: backend prologue + forward
// declarations + function bodies + backend glue, all one compilable
// translation unit. The kWindows backend reproduces the legacy generic-
// runtime layout (EmitC) with the role table appended.
TargetEmission EmitForTarget(const RecoveredModule& module, os::TargetOs target);

// Multi-target emission: the synthesized core is rendered ONCE and wrapped
// in each backend's prologue/glue (the core is target-independent by
// construction -- only the template share differs). This is what
// Session::Synthesize uses; one body render regardless of target count.
std::map<os::TargetOs, TargetEmission> EmitForTargets(const RecoveredModule& module,
                                                      const std::vector<os::TargetOs>& targets);

}  // namespace revnic::synth

#endif  // REVNIC_SYNTH_EMIT_H_

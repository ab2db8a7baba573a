// C code generation from the recovered CFG (§4.1, Listing 1).
//
// "The control flow is encoded using direct jumps (goto) and all function
// calls are preserved. RevNIC preserves the local and global state layout of
// the original driver ... The synthesized code preserves this mechanism by
// keeping the pointer arithmetic of the original driver."
//
// This file is the *shared renderer*: it turns a RecoveredModule into the
// function bodies every target backend embeds (synth/emit.h wraps it with
// per-OS prologues and template glue). When the cleanup pass pipeline has
// run, the renderer honors its artifacts -- EmitPlan (block layout + label
// pruning) and SwitchPlan (recovered jump-table dispatch) -- and emits
// measurably smaller C; without them it produces the legacy
// goto-everywhere Listing 1 form.
//
// The emitted file is genuinely compilable C: it targets a small runtime
// (revnic_runtime.h, also emitted) providing guest memory, port I/O, and an
// os_call trampoline -- the hooks a driver template supplies. The test suite
// compiles emitter output with the host compiler to prove it.
#ifndef REVNIC_SYNTH_CEMIT_H_
#define REVNIC_SYNTH_CEMIT_H_

#include <string>

#include "synth/module.h"

namespace revnic::synth {

// Renderer effect counters (the Figure 9 "emitted C size" metrics).
struct CEmitStats {
  size_t functions = 0;
  size_t blocks = 0;        // block bodies emitted
  size_t labels = 0;        // C labels emitted
  size_t gotos = 0;         // goto statements emitted
  size_t switch_cases = 0;  // case arms across all dispatch switches
  size_t bytes = 0;         // total source bytes (EmitC only)
};

// Renders the entire module as one C translation unit (the legacy
// generic-runtime layout; target-OS layouts live in synth/emit.h). Every
// function is preceded by a comment naming its type, stack parameters and
// coverage holes.
std::string EmitC(const RecoveredModule& module, CEmitStats* stats = nullptr);

// The runtime header the generated code compiles against.
std::string RuntimeHeader();

// Renders a single function (used by examples to show snippets).
std::string EmitFunctionC(const RecoveredModule& module, uint32_t entry_pc,
                          CEmitStats* stats = nullptr);

// Computes the emission layout the prune-labels pass stores in
// RecoveredModule::emit_plans: block order plus the labels that survive
// once gotos targeting the next emitted block are elided. Lives next to the
// renderer so the two cannot disagree about the elision rule.
// `gotos_elided` (optional) receives the number of jumps the layout turns
// into plain source-order fallthrough.
EmitPlan ComputeEmitPlan(const RecoveredModule& module, const RecoveredFunction& fn,
                         size_t* gotos_elided = nullptr);

}  // namespace revnic::synth

#endif  // REVNIC_SYNTH_CEMIT_H_

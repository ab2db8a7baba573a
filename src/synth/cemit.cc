#include "synth/cemit.h"

#include <algorithm>
#include <optional>

#include "ir/analysis.h"
#include "util/strings.h"

namespace revnic::synth {

using ir::Block;
using ir::Instr;
using ir::Op;
using ir::Term;

namespace {

std::string BinExpr(const Instr& i) {
  auto t = [](int32_t n) { return StrFormat("t%d", n); };
  switch (i.op) {
    case Op::kAdd:
      return t(i.a) + " + " + t(i.b);
    case Op::kSub:
      return t(i.a) + " - " + t(i.b);
    case Op::kMul:
      return t(i.a) + " * " + t(i.b);
    case Op::kUDiv:
      return StrFormat("(t%d == 0u ? 0xFFFFFFFFu : t%d / t%d)", i.b, i.a, i.b);
    case Op::kURem:
      return StrFormat("(t%d == 0u ? t%d : t%d %% t%d)", i.b, i.a, i.a, i.b);
    case Op::kAnd:
      return t(i.a) + " & " + t(i.b);
    case Op::kOr:
      return t(i.a) + " | " + t(i.b);
    case Op::kXor:
      return t(i.a) + " ^ " + t(i.b);
    case Op::kShl:
      return StrFormat("(t%d >= 32u ? 0u : t%d << t%d)", i.b, i.a, i.b);
    case Op::kLShr:
      return StrFormat("(t%d >= 32u ? 0u : t%d >> t%d)", i.b, i.a, i.b);
    case Op::kAShr:
      return StrFormat("(uint32_t)(t%d >= 32u ? ((int32_t)t%d < 0 ? -1 : 0)"
                       " : ((int32_t)t%d >> t%d))",
                       i.b, i.a, i.a, i.b);
    case Op::kCmpEq:
      return StrFormat("(t%d == t%d) ? 1u : 0u", i.a, i.b);
    case Op::kCmpNe:
      return StrFormat("(t%d != t%d) ? 1u : 0u", i.a, i.b);
    case Op::kCmpUlt:
      return StrFormat("(t%d < t%d) ? 1u : 0u", i.a, i.b);
    case Op::kCmpUle:
      return StrFormat("(t%d <= t%d) ? 1u : 0u", i.a, i.b);
    case Op::kCmpSlt:
      return StrFormat("((int32_t)t%d < (int32_t)t%d) ? 1u : 0u", i.a, i.b);
    case Op::kCmpSle:
      return StrFormat("((int32_t)t%d <= (int32_t)t%d) ? 1u : 0u", i.a, i.b);
    default:
      return "0u";
  }
}

void EmitInstr(const Instr& i, std::string* out) {
  switch (i.op) {
    case Op::kNop:
      break;
    case Op::kConst:
      *out += StrFormat("    t%d = 0x%xu;\n", i.dst, i.imm);
      break;
    case Op::kMov:
      *out += StrFormat("    t%d = t%d;\n", i.dst, i.a);
      break;
    case Op::kSelect:
      *out += StrFormat("    t%d = t%d ? t%d : t%d;\n", i.dst, i.c, i.a, i.b);
      break;
    case Op::kZExt:
      *out += StrFormat("    t%d = t%d & 0x%xu;\n", i.dst, i.a,
                        i.size >= 4 ? 0xFFFFFFFFu : ((1u << (8 * i.size)) - 1));
      break;
    case Op::kSExt:
      *out += StrFormat("    t%d = (uint32_t)(int32_t)((int%u_t)t%d);\n", i.dst, 8 * i.size,
                        i.a);
      break;
    case Op::kGetReg:
      // Driver state is reached through the original pointer arithmetic; the
      // guest register file is the synthesized code's local state.
      *out += StrFormat("    t%d = cpu->r[%u];\n", i.dst, i.imm);
      break;
    case Op::kSetReg:
      *out += StrFormat("    cpu->r[%u] = t%d;\n", i.imm, i.a);
      break;
    case Op::kLoad:
      *out += StrFormat("    t%d = revnic_load(t%d, %u);\n", i.dst, i.a, i.size);
      break;
    case Op::kStore:
      *out += StrFormat("    revnic_store(t%d, %u, t%d);\n", i.a, i.size, i.b);
      break;
    case Op::kIn:
      *out += StrFormat("    t%d = revnic_in(t%d, %u);\n", i.dst, i.a, i.size);
      break;
    case Op::kOut:
      *out += StrFormat("    revnic_out(t%d, %u, t%d);\n", i.a, i.size, i.b);
      break;
    default:
      *out += StrFormat("    t%d = %s;\n", i.dst, BinExpr(i).c_str());
      break;
  }
}

std::string FnName(const RecoveredModule& m, uint32_t pc) {
  const RecoveredFunction* f = m.FunctionAt(pc);
  return f != nullptr ? f->name : StrFormat("function_%x", pc);
}

const SwitchPlan* SwitchPlanFor(const RecoveredModule& m, uint32_t pc) {
  auto it = m.switch_plans.find(pc);
  return it == m.switch_plans.end() ? nullptr : &it->second;
}

// The case table an indirect dispatch renders: the recovered SwitchPlan
// when the cleanup pipeline produced one, the raw observed targets
// otherwise. (Both are sorted and deduplicated.)
std::vector<uint32_t> DispatchCases(const RecoveredModule& m, uint32_t pc) {
  if (const SwitchPlan* sp = SwitchPlanFor(m, pc)) {
    return sp->cases;
  }
  std::vector<uint32_t> cases;
  auto it = m.indirect_targets.find(pc);
  if (it != m.indirect_targets.end()) {
    cases.assign(it->second.begin(), it->second.end());
  }
  return cases;
}

bool UseGuardForm(const RecoveredModule& m, uint32_t pc) {
  const SwitchPlan* sp = SwitchPlanFor(m, pc);
  return sp != nullptr && sp->single_target();
}

}  // namespace

std::string RuntimeHeader() {
  return R"(/* revnic_runtime.h -- runtime hooks for RevNIC-synthesized driver code.
 * A driver template implements these over its OS's primitives:
 *   revnic_load/revnic_store  guest memory (driver state, DMA buffers)
 *   revnic_in/revnic_out      device port/MMIO access with barriers
 *   revnic_os_call            kernel API trampoline (args on guest stack)
 *   revnic_unexplored         reached a branch RevNIC never traced (§4.1)
 */
#ifndef REVNIC_RUNTIME_H_
#define REVNIC_RUNTIME_H_
#include <stdint.h>

struct revnic_cpu {
  uint32_t r[16]; /* r11=fp, r12=sp; r0 carries return values */
};

uint32_t revnic_load(uint32_t addr, unsigned size);
void revnic_store(uint32_t addr, unsigned size, uint32_t value);
uint32_t revnic_in(uint32_t port, unsigned size);
void revnic_out(uint32_t port, unsigned size, uint32_t value);
uint32_t revnic_os_call(uint32_t api_id, struct revnic_cpu* cpu);
void revnic_unexplored(uint32_t pc);
void revnic_halt(void);

#endif /* REVNIC_RUNTIME_H_ */
)";
}

EmitPlan ComputeEmitPlan(const RecoveredModule& m, const RecoveredFunction& fn,
                         size_t* gotos_elided) {
  EmitPlan plan;
  size_t elided = 0;
  std::set<uint32_t> in_fn;
  for (uint32_t pc : fn.block_pcs) {
    if (m.blocks.count(pc) != 0) {
      in_fn.insert(pc);
    }
  }
  plan.order.assign(in_fn.begin(), in_fn.end());
  auto need_label = [&](uint32_t target) {
    if (in_fn.count(target) != 0) {
      plan.labeled.insert(target);
    }
  };

  // Function prologue: `goto L_entry`, elided when the entry block is
  // emitted first (the common case with ascending-pc layout).
  if (in_fn.count(fn.entry_pc) != 0) {
    if (!plan.order.empty() && plan.order.front() == fn.entry_pc) {
      ++elided;
    } else {
      need_label(fn.entry_pc);
    }
  }

  for (size_t idx = 0; idx < plan.order.size(); ++idx) {
    uint32_t pc = plan.order[idx];
    const Block& b = m.blocks.at(pc);
    std::optional<uint32_t> next;
    if (idx + 1 < plan.order.size()) {
      next = plan.order[idx + 1];
    }
    // `trailing` is the block's final unconditional continuation -- the one
    // goto the renderer elides when it targets the next emitted block.
    std::optional<uint32_t> trailing;
    switch (b.term) {
      case Term::kJump:
      case Term::kFallthrough:
        trailing = b.target;
        break;
      case Term::kBranch:
        need_label(b.target);  // `if (tC) goto L_target;` is never elided
        trailing = b.fallthrough;
        break;
      case Term::kJumpInd:
        if (UseGuardForm(m, pc)) {
          trailing = DispatchCases(m, pc).front();
        } else {
          for (uint32_t c : DispatchCases(m, pc)) {
            need_label(c);
          }
        }
        break;
      case Term::kCall:
      case Term::kCallInd:
      case Term::kSyscall:
        trailing = b.fallthrough;  // dispatch arms call, they never goto
        break;
      case Term::kRet:
      case Term::kHalt:
        break;
    }
    if (trailing.has_value()) {
      if (next.has_value() && *next == *trailing) {
        ++elided;
      } else {
        need_label(*trailing);
      }
    }
  }
  if (gotos_elided != nullptr) {
    *gotos_elided = elided;
  }
  return plan;
}

std::string EmitFunctionC(const RecoveredModule& m, uint32_t entry_pc, CEmitStats* stats) {
  const RecoveredFunction* fn = m.FunctionAt(entry_pc);
  if (fn == nullptr) {
    return "";
  }
  CEmitStats local;
  CEmitStats* st = stats != nullptr ? stats : &local;
  auto plan_it = m.emit_plans.find(entry_pc);
  const EmitPlan* plan = plan_it == m.emit_plans.end() ? nullptr : &plan_it->second;

  std::string out = StrFormat("/* %s: %s; %u stack parameter(s)%s%s */\n", fn->name.c_str(),
                              FunctionTypeName(fn->type), fn->num_params,
                              fn->has_return ? ", returns a value in r0" : "",
                              fn->unexplored_targets.empty() ? "" : "; HAS UNEXPLORED BRANCHES");
  out += StrFormat("void %s(struct revnic_cpu* cpu)\n{\n", fn->name.c_str());

  std::set<uint32_t> ordered(fn->block_pcs.begin(), fn->block_pcs.end());
  std::vector<uint32_t> order;
  if (plan != nullptr) {
    order = plan->order;
  } else {
    for (uint32_t pc : ordered) {
      if (m.blocks.count(pc) != 0) {
        order.push_back(pc);
      }
    }
  }

  // Temp declarations. Legacy form declares the dense range sized to the
  // largest block; with an emission plan (cleanup ran, so DCE may have
  // orphaned temps) only the temps the emitted code references are
  // declared, which also keeps -Wunused-variable quiet.
  if (plan == nullptr) {
    int32_t max_temps = 0;
    for (uint32_t pc : fn->block_pcs) {
      auto it = m.blocks.find(pc);
      if (it != m.blocks.end()) {
        max_temps = std::max(max_temps, it->second.num_temps);
      }
    }
    if (max_temps > 0) {
      out += "    uint32_t ";
      for (int32_t t = 0; t < max_temps; ++t) {
        out += StrFormat("t%d%s", t, t + 1 == max_temps ? ";\n" : ", ");
      }
    }
  } else {
    std::set<int32_t> used;
    for (uint32_t pc : order) {
      const Block& b = m.blocks.at(pc);
      for (const Instr& i : b.instrs) {
        if (ir::OpDefinesDst(i.op) && i.dst >= 0) {
          used.insert(i.dst);
        }
        ir::ForEachTempUse(i, [&](int32_t t) {
          if (t >= 0) {
            used.insert(t);
          }
        });
      }
      if (b.term == Term::kBranch || b.term == Term::kJumpInd || b.term == Term::kCallInd ||
          b.term == Term::kRet) {
        if (b.cond_tmp >= 0) {
          used.insert(b.cond_tmp);
        }
      }
    }
    if (!used.empty()) {
      out += "    uint32_t ";
      size_t n = 0;
      for (int32_t t : used) {
        out += StrFormat("t%d%s", t, ++n == used.size() ? ";\n" : ", ");
      }
    }
  }

  auto jump_to = [&](uint32_t pc) -> std::string {
    if (ordered.count(pc) != 0 && (plan == nullptr || m.blocks.count(pc) != 0)) {
      ++st->gotos;
      return StrFormat("goto L_%x;", pc);
    }
    // Coverage hole (§4.1): warn the developer; trap at run time.
    return StrFormat("{ revnic_unexplored(0x%x); return; } /* WARNING: unexplored */", pc);
  };
  // The block's final unconditional continuation; with a plan, elided when
  // it targets the next emitted block (source-order fallthrough).
  auto emit_trailing = [&](uint32_t target, std::optional<uint32_t> next) {
    if (plan != nullptr && next.has_value() && *next == target) {
      return;  // falls through in source order
    }
    out += "    " + jump_to(target) + "\n";
  };

  // Prologue jump to the entry block.
  if (plan == nullptr) {
    ++st->gotos;
    out += StrFormat("    goto L_%x;\n", entry_pc);
  } else if (order.empty() || order.front() != entry_pc) {
    if (ordered.count(entry_pc) != 0 && m.blocks.count(entry_pc) != 0) {
      ++st->gotos;
      out += StrFormat("    goto L_%x;\n", entry_pc);
    } else {
      out += StrFormat("    revnic_unexplored(0x%x);\n    return;\n", entry_pc);
    }
  }

  for (size_t idx = 0; idx < order.size(); ++idx) {
    uint32_t pc = order[idx];
    const Block& b = m.blocks.at(pc);
    std::optional<uint32_t> next;
    if (idx + 1 < order.size()) {
      next = order[idx + 1];
    }
    if (plan == nullptr || plan->labeled.count(pc) != 0) {
      out += StrFormat("L_%x:\n", pc);
      ++st->labels;
    }
    ++st->blocks;
    for (const Instr& i : b.instrs) {
      EmitInstr(i, &out);
    }
    switch (b.term) {
      case Term::kFallthrough:
      case Term::kJump:
        emit_trailing(b.target, next);
        break;
      case Term::kBranch:
        out += StrFormat("    if (t%d) %s\n", b.cond_tmp, jump_to(b.target).c_str());
        emit_trailing(b.fallthrough, next);
        break;
      case Term::kJumpInd: {
        if (UseGuardForm(m, pc)) {
          uint32_t target = DispatchCases(m, pc).front();
          out += StrFormat("    if (t%d != 0x%xu) { revnic_unexplored(t%d); return; }\n",
                           b.cond_tmp, target, b.cond_tmp);
          emit_trailing(target, next);
          break;
        }
        out += StrFormat("    switch (t%d) {\n", b.cond_tmp);
        for (uint32_t t : DispatchCases(m, pc)) {
          out += StrFormat("    case 0x%x: %s break;\n", t, jump_to(t).c_str());
          ++st->switch_cases;
        }
        out += StrFormat("    default: revnic_unexplored(t%d); return;\n    }\n", b.cond_tmp);
        break;
      }
      case Term::kCall:
        // The return-address push is already in the block body; direct calls
        // are preserved (§4.1 "all function calls are preserved").
        out += StrFormat("    %s(cpu);\n", FnName(m, b.target).c_str());
        emit_trailing(b.fallthrough, next);
        break;
      case Term::kCallInd: {
        if (UseGuardForm(m, pc)) {
          uint32_t target = DispatchCases(m, pc).front();
          out += StrFormat("    if (t%d != 0x%xu) { revnic_unexplored(t%d); return; }\n",
                           b.cond_tmp, target, b.cond_tmp);
          out += StrFormat("    %s(cpu);\n", FnName(m, target).c_str());
        } else {
          out += StrFormat("    switch (t%d) {\n", b.cond_tmp);
          for (uint32_t t : DispatchCases(m, pc)) {
            out += StrFormat("    case 0x%x: %s(cpu); break;\n", t, FnName(m, t).c_str());
            ++st->switch_cases;
          }
          out += StrFormat("    default: revnic_unexplored(t%d); return;\n    }\n", b.cond_tmp);
        }
        emit_trailing(b.fallthrough, next);
        break;
      }
      case Term::kRet:
        // The stack pop is in the block body; the popped return address is
        // implicit in the call structure.
        out += "    return;\n";
        break;
      case Term::kSyscall:
        out += StrFormat("    cpu->r[0] = revnic_os_call(%u, cpu);\n", b.target);
        emit_trailing(b.fallthrough, next);
        break;
      case Term::kHalt:
        out += "    revnic_halt();\n    return;\n";
        break;
    }
  }
  out += "}\n";
  ++st->functions;
  return out;
}

std::string EmitC(const RecoveredModule& m, CEmitStats* stats) {
  std::string out;
  out += "/* Synthesized by RevNIC: C encoding of the reverse-engineered driver\n";
  out += " * state machine. Control flow uses goto; driver state is reached via\n";
  out += " * the original pointer arithmetic (see paper, Listing 1).\n */\n";
  out += "#include \"revnic_runtime.h\"\n\n";
  // Forward declarations.
  for (const auto& [pc, fn] : m.functions) {
    out += StrFormat("void %s(struct revnic_cpu* cpu);\n", fn.name.c_str());
  }
  out += "\n";
  for (const auto& [pc, fn] : m.functions) {
    out += EmitFunctionC(m, pc, stats);
    out += "\n";
  }
  if (stats != nullptr) {
    stats->bytes = out.size();
  }
  return out;
}

}  // namespace revnic::synth

#include "symex/executor.h"

#include <cassert>

#include "isa/isa.h"
#include "util/bits.h"
#include "util/log.h"
#include "util/strings.h"

namespace revnic::symex {

using ir::Op;
using ir::Term;

namespace {

constexpr unsigned kMaxIndirectTargets = 8;  // §3.4 jump-table enumeration cap
constexpr size_t kMaxExprNodes = 224;        // symbolic expression size guard

BinOp ToBinOp(Op op) {
  switch (op) {
    case Op::kAdd:
      return BinOp::kAdd;
    case Op::kSub:
      return BinOp::kSub;
    case Op::kMul:
      return BinOp::kMul;
    case Op::kUDiv:
      return BinOp::kUDiv;
    case Op::kURem:
      return BinOp::kURem;
    case Op::kAnd:
      return BinOp::kAnd;
    case Op::kOr:
      return BinOp::kOr;
    case Op::kXor:
      return BinOp::kXor;
    case Op::kShl:
      return BinOp::kShl;
    case Op::kLShr:
      return BinOp::kLShr;
    case Op::kAShr:
      return BinOp::kAShr;
    case Op::kCmpEq:
      return BinOp::kEq;
    case Op::kCmpNe:
      return BinOp::kNe;
    case Op::kCmpUlt:
      return BinOp::kUlt;
    case Op::kCmpUle:
      return BinOp::kUle;
    case Op::kCmpSlt:
      return BinOp::kSlt;
    case Op::kCmpSle:
      return BinOp::kSle;
    default:
      assert(false && "not a binary op");
      return BinOp::kAdd;
  }
}

}  // namespace

trace::RegSnapshot Executor::Snapshot(const ExecutionState& state) {
  trace::RegSnapshot snap;
  for (unsigned i = 0; i < kNumGuestRegs; ++i) {
    const ExprRef& r = state.reg(i);
    if (r->IsConst()) {
      snap.regs[i] = r->value;
    } else {
      snap.regs[i] = Eval(r, state.model());
      snap.sym_mask |= 1u << i;
    }
  }
  return snap;
}

ExprRef Executor::EvalTemp(const std::vector<ExprRef>& temps, int32_t t) const {
  assert(t >= 0 && static_cast<size_t>(t) < temps.size() && temps[t]);
  return temps[static_cast<size_t>(t)];
}

uint32_t Executor::Concretize(ExecutionState* state, const ExprRef& value, const char* why) {
  if (value->IsConst()) {
    return value->value;
  }
  ++stats_.concretizations;
  Model model;
  Verdict v = solver_->CheckSat(state->constraints(), &model, &state->model());
  uint32_t concrete;
  if (v == Verdict::kSat) {
    concrete = Eval(value, model);
    state->model() = std::move(model);
  } else {
    concrete = Eval(value, state->model());
    RLOG_DEBUG("concretize(%s): solver %s, using cached model", why,
               v == Verdict::kUnsat ? "unsat" : "unknown");
  }
  // Pin the value so later branches stay consistent with what we handed out.
  state->AddConstraint(
      ctx_->Eq(ctx_->ZExt(value, 32), ctx_->Const(concrete & LowMask(value->width))));
  return concrete & LowMask(value->width);
}

uint32_t Executor::ConcretizeMem(ExecutionState* state, uint32_t addr, unsigned size) {
  if (!state->mem().IsSymbolic(addr, size)) {
    return state->mem().ReadConcrete(addr, size);
  }
  ExprRef v = state->mem().Read(ctx_, addr, size);
  uint32_t concrete = Concretize(state, v, "os-read");
  // Write back the concretized value so the OS and the driver agree.
  state->mem().WriteConcrete(addr, size, concrete);
  return concrete;
}

std::vector<uint32_t> Executor::ResolveTargets(
    ExecutionState* state, const ExprRef& target,
    std::vector<std::unique_ptr<ExecutionState>>* forks) {
  std::vector<uint32_t> out;
  if (target->IsConst()) {
    out.push_back(target->value);
    return out;
  }
  // Enumerate feasible concrete targets (§3.4: "RevNIC generates all of them
  // and forks the execution for each such value").
  std::vector<ExprRef> constraints = state->constraints().ToVector();
  for (unsigned k = 0; k < kMaxIndirectTargets; ++k) {
    Model model;
    Verdict v = solver_->CheckSat(constraints, &model, &state->model());
    if (v != Verdict::kSat) {
      break;
    }
    uint32_t concrete = Eval(target, model);
    out.push_back(concrete);
    constraints.push_back(ctx_->Bin(BinOp::kNe, target, ctx_->Const(concrete)));
  }
  if (out.empty()) {
    // No feasible target found; pick the cached-model value so execution can
    // proceed (the path is then best-effort, like any unknown verdict).
    out.push_back(Eval(target, state->model()));
  }
  // First target stays on `state`; others fork.
  for (size_t i = 1; i < out.size(); ++i) {
    auto fork = state->Fork(AllocStateId());
    fork->AddConstraint(ctx_->Eq(target, ctx_->Const(out[i])));
    forks->push_back(std::move(fork));
    ++stats_.forks;
  }
  state->AddConstraint(ctx_->Eq(target, ctx_->Const(out[0])));
  return out;
}

StepResult Executor::Step(ExecutionState* state, const ir::Block& block, trace::TraceSink* sink) {
  assert(state->pc() == block.guest_pc);
  assert(next_state_id_ != nullptr && "engine must provide the state-id counter");
  StepResult result;
  ++stats_.blocks;
  state->IncBlocksExecuted();

  trace::BlockRecord record;
  record.state_id = state->id();
  record.pc = block.guest_pc;
  record.term = block.term;
  if (sink != nullptr) {
    record.seq = seq_++;
    record.before = Snapshot(*state);
  }

  std::vector<ExprRef> temps(static_cast<size_t>(block.num_temps));
  auto emit_mem = [&](trace::MemKind kind, unsigned size, bool is_write, uint32_t addr,
                      const ExprRef& value) {
    if (sink == nullptr) {
      return;
    }
    trace::MemRecord m;
    m.state_id = state->id();
    m.seq = seq_++;
    m.pc = block.guest_pc;
    m.kind = kind;
    m.size = static_cast<uint8_t>(size);
    m.is_write = is_write;
    m.value_symbolic = !value->IsConst();
    m.addr = addr;
    m.value = value->IsConst() ? value->value : Eval(value, state->model());
    sink->OnMem(m);
  };

  for (const ir::Instr& instr : block.instrs) {
    ++stats_.instrs;
    switch (instr.op) {
      case Op::kNop:
        break;
      case Op::kConst:
        temps[instr.dst] = ctx_->Const(instr.imm);
        break;
      case Op::kMov:
        temps[instr.dst] = EvalTemp(temps, instr.a);
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kUDiv:
      case Op::kURem:
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor:
      case Op::kShl:
      case Op::kLShr:
      case Op::kAShr:
      case Op::kCmpEq:
      case Op::kCmpNe:
      case Op::kCmpUlt:
      case Op::kCmpUle:
      case Op::kCmpSlt:
      case Op::kCmpSle: {
        ExprRef a = EvalTemp(temps, instr.a);
        ExprRef b = EvalTemp(temps, instr.b);
        ExprRef r = ctx_->Bin(ToBinOp(instr.op), a, b);
        if (!r->IsConst() && r->approx_nodes > kMaxExprNodes) {
          // Expression blowup guard: concretize rather than drown the solver.
          r = ctx_->Const(Concretize(state, r, "expr-size-guard"));
        }
        temps[instr.dst] = r;
        break;
      }
      case Op::kSelect: {
        ExprRef c = EvalTemp(temps, instr.c);
        temps[instr.dst] = ctx_->Select(c, EvalTemp(temps, instr.a), EvalTemp(temps, instr.b));
        break;
      }
      case Op::kZExt:
        temps[instr.dst] = ctx_->ZExt(EvalTemp(temps, instr.a), static_cast<uint8_t>(instr.size * 8));
        break;
      case Op::kSExt:
        temps[instr.dst] = ctx_->SExt(EvalTemp(temps, instr.a), static_cast<uint8_t>(instr.size * 8));
        break;
      case Op::kGetReg:
        temps[instr.dst] =
            instr.imm == isa::kRegZero ? ctx_->Const(0) : state->reg(instr.imm);
        break;
      case Op::kSetReg:
        if (instr.imm != isa::kRegZero) {
          state->set_reg(instr.imm, EvalTemp(temps, instr.a));
        }
        break;
      case Op::kLoad: {
        ExprRef addr_expr = EvalTemp(temps, instr.a);
        uint32_t addr = addr_expr->IsConst() ? addr_expr->value
                                             : Concretize(state, addr_expr, "load-address");
        ExprRef value;
        trace::MemKind kind;
        if (hw_->IsMmio(addr)) {
          value = hw_->MmioRead(*state, addr, instr.size);
          kind = trace::MemKind::kMmio;
        } else if (hw_->IsDma(addr)) {
          value = hw_->DmaRead(*state, addr, instr.size);
          kind = trace::MemKind::kDma;
        } else {
          value = state->mem().Read(ctx_, addr, instr.size);
          kind = trace::MemKind::kRam;
        }
        temps[instr.dst] = value;
        emit_mem(kind, instr.size, /*is_write=*/false, addr, value);
        break;
      }
      case Op::kStore: {
        ExprRef addr_expr = EvalTemp(temps, instr.a);
        uint32_t addr = addr_expr->IsConst() ? addr_expr->value
                                             : Concretize(state, addr_expr, "store-address");
        ExprRef value = EvalTemp(temps, instr.b);
        trace::MemKind kind;
        if (hw_->IsMmio(addr)) {
          hw_->MmioWrite(*state, addr, instr.size, value);
          kind = trace::MemKind::kMmio;
        } else {
          state->mem().Write(ctx_, addr, instr.size, value);
          kind = hw_->IsDma(addr) ? trace::MemKind::kDma : trace::MemKind::kRam;
        }
        emit_mem(kind, instr.size, /*is_write=*/true, addr, value);
        break;
      }
      case Op::kIn: {
        ExprRef port_expr = EvalTemp(temps, instr.a);
        uint32_t port = port_expr->IsConst() ? port_expr->value
                                             : Concretize(state, port_expr, "in-port");
        ExprRef value = hw_->PortRead(*state, port, instr.size);
        temps[instr.dst] = value;
        emit_mem(trace::MemKind::kPort, instr.size, /*is_write=*/false, port, value);
        break;
      }
      case Op::kOut: {
        ExprRef port_expr = EvalTemp(temps, instr.a);
        uint32_t port = port_expr->IsConst() ? port_expr->value
                                             : Concretize(state, port_expr, "out-port");
        ExprRef value = EvalTemp(temps, instr.b);
        hw_->PortWrite(*state, port, instr.size, value);
        emit_mem(trace::MemKind::kPort, instr.size, /*is_write=*/true, port, value);
        break;
      }
    }
  }

  // Terminator.
  uint32_t next_pc = 0;
  switch (block.term) {
    case Term::kFallthrough:
    case Term::kJump:
      next_pc = block.target;
      state->set_pc(next_pc);
      break;
    case Term::kBranch: {
      ExprRef cond = EvalTemp(temps, block.cond_tmp);
      if (cond->IsConst()) {
        next_pc = cond->value != 0 ? block.target : block.fallthrough;
        state->set_pc(next_pc);
        break;
      }
      ExprRef not_cond = ctx_->Not(cond);
      Solver::BranchVerdicts branch =
          solver_->MayBeTrueBoth(state->constraints(), cond, not_cond, &state->model());
      bool can_true = branch.if_true == Verdict::kSat;
      bool can_false = branch.if_false == Verdict::kSat;
      if (can_true && can_false) {
        auto fork = state->Fork(AllocStateId(), std::move(branch.false_model));
        fork->AddConstraint(not_cond);
        fork->set_pc(block.fallthrough);
        ++stats_.forks;
        if (sink != nullptr) {
          trace::EventRecord ev;
          ev.state_id = state->id();
          ev.seq = seq_++;
          ev.kind = trace::EventKind::kStateFork;
          ev.value = static_cast<uint32_t>(fork->id());
          sink->OnEvent(ev);
        }
        result.forks.push_back(std::move(fork));
        state->AddConstraint(cond);
        state->model() = std::move(branch.true_model);
        next_pc = block.target;
        state->set_pc(next_pc);
      } else if (can_true) {
        state->AddConstraint(cond);
        state->model() = std::move(branch.true_model);
        next_pc = block.target;
        state->set_pc(next_pc);
      } else if (can_false) {
        state->AddConstraint(not_cond);
        state->model() = std::move(branch.false_model);
        next_pc = block.fallthrough;
        state->set_pc(next_pc);
      } else {
        state->Kill("branch infeasible both ways (solver unknown)");
        result.kind = StepKind::kError;
      }
      break;
    }
    case Term::kJumpInd: {
      ExprRef target = EvalTemp(temps, block.cond_tmp);
      std::vector<uint32_t> targets = ResolveTargets(state, target, &result.forks);
      next_pc = targets[0];
      state->set_pc(next_pc);
      for (size_t i = 0; i < result.forks.size(); ++i) {
        result.forks[i]->set_pc(targets[i + 1]);
      }
      break;
    }
    case Term::kCall: {
      state->PushCall();
      next_pc = block.target;
      state->set_pc(next_pc);
      break;
    }
    case Term::kCallInd: {
      ExprRef target = EvalTemp(temps, block.cond_tmp);
      std::vector<uint32_t> targets = ResolveTargets(state, target, &result.forks);
      state->PushCall();
      next_pc = targets[0];
      state->set_pc(next_pc);
      for (size_t i = 0; i < result.forks.size(); ++i) {
        result.forks[i]->PushCall();
        result.forks[i]->set_pc(targets[i + 1]);
      }
      break;
    }
    case Term::kRet: {
      ExprRef target = EvalTemp(temps, block.cond_tmp);
      uint32_t ret_addr = target->IsConst() ? target->value
                                            : Concretize(state, target, "return-address");
      next_pc = ret_addr;
      state->set_pc(ret_addr);
      if (state->PopCall()) {
        result.kind = StepKind::kEntryReturn;
      }
      break;
    }
    case Term::kSyscall:
      result.kind = StepKind::kSyscall;
      result.api_id = block.target;
      next_pc = block.fallthrough;
      state->set_pc(next_pc);
      break;
    case Term::kHalt:
      result.kind = StepKind::kHalt;
      break;
  }

  if (sink != nullptr) {
    record.next_pc = next_pc;
    record.after = Snapshot(*state);
    sink->OnBlock(block, record);
  }
  return result;
}

}  // namespace revnic::symex

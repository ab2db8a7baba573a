// Executes vir blocks against an ExecutionState, forking on symbolic
// branches. One executor serves both domains (§3.4): concrete execution is
// the all-constants fast path of the same code.
#ifndef REVNIC_SYMEX_EXECUTOR_H_
#define REVNIC_SYMEX_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "symex/solver.h"
#include "symex/state.h"
#include "trace/trace.h"
#include "util/fields.h"

namespace revnic::symex {

// How the executor reaches hardware. Implemented by the core engine over the
// shell device (symbolic hardware, §3.4) during reverse engineering, and over
// real device models during validation/performance runs.
class HardwareBridge {
 public:
  virtual ~HardwareBridge() = default;
  virtual bool IsMmio(uint32_t addr) const = 0;
  // DMA-allocated regions registered via the OS API (§3.4): reads return
  // symbols during reverse engineering.
  virtual bool IsDma(uint32_t addr) const = 0;
  virtual ExprRef MmioRead(ExecutionState& state, uint32_t addr, unsigned size) = 0;
  virtual void MmioWrite(ExecutionState& state, uint32_t addr, unsigned size,
                         const ExprRef& value) = 0;
  virtual ExprRef PortRead(ExecutionState& state, uint32_t port, unsigned size) = 0;
  virtual void PortWrite(ExecutionState& state, uint32_t port, unsigned size,
                         const ExprRef& value) = 0;
  virtual ExprRef DmaRead(ExecutionState& state, uint32_t addr, unsigned size) = 0;
};

enum class StepKind : uint8_t {
  kContinue = 0,  // state->pc() updated; keep running this state
  kSyscall,       // hit a `sys`; `api_id` set; resume at state->pc()
  kHalt,          // guest executed hlt
  kEntryReturn,   // `ret` popped past the entry frame: entry point finished
  kError,         // state killed (see state->kill_reason())
};

struct StepResult {
  StepKind kind = StepKind::kContinue;
  uint32_t api_id = 0;
  // States forked while executing the block (branch both-feasible, indirect
  // target enumeration). The stepped state continues as one of the outcomes;
  // forks carry the others.
  std::vector<std::unique_ptr<ExecutionState>> forks;
};

struct ExecutorStats {
  uint64_t blocks = 0;
  uint64_t instrs = 0;
  uint64_t forks = 0;
  uint64_t concretizations = 0;  // symbolic pointers/values forced concrete

  // The field list (util/fields.h), in serialized order.
  static constexpr uint64_t ExecutorStats::*kFields[] = {
      &ExecutorStats::blocks, &ExecutorStats::instrs, &ExecutorStats::forks,
      &ExecutorStats::concretizations};

  // Segment arithmetic for the parallel exercise merge.
  ExecutorStats& operator+=(const ExecutorStats& o) { return AddFields(*this, o); }
  ExecutorStats& operator-=(const ExecutorStats& o) { return SubtractFields(*this, o); }
};
static_assert(FieldListCovers<ExecutorStats>());

class Executor {
 public:
  Executor(ExprContext* ctx, Solver* solver, HardwareBridge* hw)
      : ctx_(ctx), solver_(solver), hw_(hw) {}

  // Executes `block` (whose guest_pc must equal state->pc()), updating the
  // state and emitting wiretap records to `sink` when non-null.
  StepResult Step(ExecutionState* state, const ir::Block& block, trace::TraceSink* sink);

  // Reads guest memory concretely; if bytes are symbolic they are concretized
  // under the state's constraints (constraint added). This is the §3.4
  // "concretize whenever read by the OS" path.
  uint32_t ConcretizeMem(ExecutionState* state, uint32_t addr, unsigned size);

  // Concretizes an expression under the state's constraints, adding the
  // pinning constraint. Constants pass through.
  uint32_t Concretize(ExecutionState* state, const ExprRef& value, const char* why);

  // Fresh-id supplier for forks (owned by the engine so ids are global).
  void set_next_state_id(uint64_t* counter) { next_state_id_ = counter; }

  const ExecutorStats& stats() const { return stats_; }

  // Wiretap sequence counter, snapshot/restored across parallel-exercise
  // handoffs so record seq numbers continue exactly where the spine left off.
  uint64_t seq() const { return seq_; }
  void set_seq(uint64_t seq) { seq_ = seq; }

  // Builds a trace register snapshot (representative values + symbolic mask).
  static trace::RegSnapshot Snapshot(const ExecutionState& state);

 private:
  ExprRef EvalTemp(const std::vector<ExprRef>& temps, int32_t t) const;
  uint64_t AllocStateId() { return (*next_state_id_)++; }

  // Resolves a symbolic control-flow target into <=kMaxIndirectTargets
  // concrete successors, forking per extra target. Returns resolved targets;
  // first entry applies to `state`.
  std::vector<uint32_t> ResolveTargets(ExecutionState* state, const ExprRef& target,
                                       std::vector<std::unique_ptr<ExecutionState>>* forks);

  ExprContext* ctx_;
  Solver* solver_;
  HardwareBridge* hw_;
  uint64_t* next_state_id_ = nullptr;
  uint64_t seq_ = 0;
  ExecutorStats stats_;
};

}  // namespace revnic::symex

#endif  // REVNIC_SYMEX_EXECUTOR_H_

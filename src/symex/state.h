// ExecutionState: one path through the driver's execution tree (§3.1).
//
// A state is the paper's <path, block> notion made concrete: CPU registers
// (symbolic expressions; constants on the fast path), COW symbolic memory,
// the path-constraint set, and bookkeeping the §3.2 heuristics need (per-path
// block visit counts for loop detection, call depth, entry-point context).
#ifndef REVNIC_SYMEX_STATE_H_
#define REVNIC_SYMEX_STATE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "symex/expr.h"
#include "symex/memory.h"

namespace revnic::symex {

inline constexpr unsigned kNumGuestRegs = 16;

enum class StateStatus : uint8_t {
  kRunning = 0,
  kCompleted,  // entry point returned to the OS / unload finished
  kKilled,     // discarded by a heuristic or an error
};

class ExecutionState {
 public:
  ExecutionState(uint64_t id, ExprContext* ctx, const vm::MemoryMap* base_ram)
      : id_(id), mem_(base_ram) {
    for (auto& r : regs_) {
      r = ctx->Const(0);
    }
  }

  // Forks a copy with a fresh id; memory pages are shared COW.
  std::unique_ptr<ExecutionState> Fork(uint64_t new_id) const { return Fork(new_id, model_); }
  // Forks a copy that takes `model` as its cached model instead of copying
  // the parent's (a branch fork already has its own).
  std::unique_ptr<ExecutionState> Fork(uint64_t new_id, Model model) const {
    return std::unique_ptr<ExecutionState>(new ExecutionState(*this, new_id, std::move(model)));
  }

  uint64_t id() const { return id_; }

  const ExprRef& reg(unsigned i) const { return regs_[i]; }
  void set_reg(unsigned i, ExprRef v) { regs_[i] = std::move(v); }

  uint32_t pc() const { return pc_; }
  void set_pc(uint32_t pc) { pc_ = pc; }

  SymMemory& mem() { return mem_; }
  const SymMemory& mem() const { return mem_; }

  const ConstraintSet& constraints() const { return constraints_; }
  void AddConstraint(ExprRef c) {
    // Concretization pins repeat frequently (same value re-read by the OS);
    // skip duplicates of recent constraints to keep solver queries small.
    size_t lookback = std::min<size_t>(constraints_.size(), 8);
    for (size_t i = constraints_.size() - lookback; i < constraints_.size(); ++i) {
      if (Expr::Equal(constraints_[i], c)) {
        return;
      }
    }
    constraints_.Add(std::move(c));
  }

  // Cached satisfying assignment for constraints(); refreshed by the executor
  // after each solver query. Used for representative values in traces.
  Model& model() { return model_; }
  const Model& model() const { return model_; }

  StateStatus status() const { return status_; }
  const std::string& kill_reason() const { return kill_reason_; }
  void Kill(std::string reason) {
    status_ = StateStatus::kKilled;
    kill_reason_ = std::move(reason);
  }
  void Complete() { status_ = StateStatus::kCompleted; }

  uint64_t blocks_executed() const { return blocks_executed_; }
  void IncBlocksExecuted() { ++blocks_executed_; }

  // Per-state visit count of a basic block; drives the polling-loop killer.
  uint32_t VisitCount(uint32_t pc) const {
    auto it = visits_.find(pc);
    return it == visits_.end() ? 0 : it->second;
  }
  uint32_t IncVisit(uint32_t pc) { return ++visits_[pc]; }
  void ResetVisits() { visits_.clear(); }

  // Call depth relative to the entry point (0 == inside entry function).
  int call_depth() const { return call_depth_; }
  void PushCall() { ++call_depth_; }
  // Returns true when this `ret` leaves the entry point itself.
  bool PopCall() { return --call_depth_ < 0; }
  void ResetCallDepth() { call_depth_ = 0; }

  int entry_index() const { return entry_index_; }
  void set_entry_index(int i) { entry_index_ = i; }

  // ---- snapshot support (symex/snapshot.*) ----
  // Raw field access used by the serializer/deserializer; restore setters
  // bypass the semantic paths (AddConstraint dedup, Kill status coupling) so
  // a restored state is bit-for-bit the serialized one.
  const std::map<uint32_t, uint32_t>& visits() const { return visits_; }
  void RestoreVisit(uint32_t pc, uint32_t count) { visits_[pc] = count; }
  void RestoreConstraint(ExprRef c) { constraints_.Add(std::move(c)); }
  void set_status(StateStatus s) { status_ = s; }
  void set_kill_reason(std::string reason) { kill_reason_ = std::move(reason); }
  void set_blocks_executed(uint64_t n) { blocks_executed_ = n; }
  void set_call_depth(int depth) { call_depth_ = depth; }

 private:
  ExecutionState(const ExecutionState& other, uint64_t new_id, Model model)
      : id_(new_id),
        regs_(other.regs_),
        pc_(other.pc_),
        mem_(other.mem_),
        constraints_(other.constraints_),
        model_(std::move(model)),
        status_(other.status_),
        blocks_executed_(other.blocks_executed_),
        visits_(other.visits_),
        call_depth_(other.call_depth_),
        entry_index_(other.entry_index_) {}

  uint64_t id_;
  std::array<ExprRef, kNumGuestRegs> regs_;
  uint32_t pc_ = 0;
  SymMemory mem_;
  // Shared-spine persistent sequence: forking is O(1) in path length.
  ConstraintSet constraints_;
  Model model_;
  StateStatus status_ = StateStatus::kRunning;
  std::string kill_reason_;
  uint64_t blocks_executed_ = 0;
  std::map<uint32_t, uint32_t> visits_;
  int call_depth_ = 0;
  int entry_index_ = -1;
};

}  // namespace revnic::symex

#endif  // REVNIC_SYMEX_STATE_H_

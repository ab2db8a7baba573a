#include "symex/snapshot.h"

#include <algorithm>
#include <utility>

namespace revnic::symex {

namespace {

// Per-node serialized footprint (for count-plausibility checks).
constexpr size_t kNodeRecordBytes = 4 * 1 + 5 * 4;

bool ValidKind(uint8_t kind) { return kind <= static_cast<uint8_t>(ExprKind::kSelect); }
bool ValidBinOp(uint8_t op) { return op <= static_cast<uint8_t>(BinOp::kSle); }
bool ValidWidth(uint8_t width) {
  return width == 1 || width == 8 || width == 16 || width == 32;
}

}  // namespace

uint32_t SnapshotWriter::Encode(const ExprRef& e) {
  if (!e) {
    return 0;
  }
  auto known = ids_.find(e.get());
  if (known != ids_.end()) {
    return known->second + 1;
  }
  // Iterative post-order so children always precede parents (and deep
  // extract/concat chains cannot overflow the call stack).
  struct Frame {
    const ExprRef* node;
    bool expanded;
  };
  std::vector<Frame> stack;
  stack.push_back({&e, false});
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    const ExprRef& n = *frame.node;
    if (ids_.count(n.get()) != 0) {
      continue;
    }
    if (frame.expanded) {
      ids_.emplace(n.get(), static_cast<uint32_t>(nodes_.size()));
      nodes_.push_back(n);
      continue;
    }
    stack.push_back({frame.node, true});
    for (const ExprRef* op : {&n->c, &n->b, &n->a}) {
      if (*op && ids_.count(op->get()) == 0) {
        stack.push_back({op, false});
      }
    }
  }
  return ids_.at(e.get()) + 1;
}

trace::ByteWriter& SnapshotWriter::Section(uint32_t tag) {
  for (auto& [t, w] : sections_) {
    if (t == tag) {
      return w;
    }
  }
  sections_.emplace_back(tag, trace::ByteWriter());
  return sections_.back().second;
}

std::vector<uint8_t> SnapshotWriter::Finish(const ExprContext& ctx) {
  trace::ByteWriter w;
  w.U32(kSnapshotMagic);
  w.U32(kSnapshotVersion);

  w.U32(ctx.NumSyms());
  for (uint32_t s = 0; s < ctx.NumSyms(); ++s) {
    w.Str(ctx.SymName(s));
  }

  w.U32(static_cast<uint32_t>(nodes_.size()));
  for (const ExprRef& n : nodes_) {
    w.U8(static_cast<uint8_t>(n->kind));
    w.U8(n->width);
    w.U8(static_cast<uint8_t>(n->bin_op));
    w.U8(ctx.IsInterned(n) ? 1 : 0);
    w.U32(n->value);
    w.U32(n->sym_id);
    for (const ExprRef* op : {&n->a, &n->b, &n->c}) {
      w.U32(*op ? ids_.at(op->get()) + 1 : 0);
    }
  }

  w.U32(static_cast<uint32_t>(sections_.size()));
  for (auto& [tag, section] : sections_) {
    std::vector<uint8_t> payload = section.Take();
    w.U32(tag);
    w.U32(static_cast<uint32_t>(payload.size()));
    w.Raw(payload.data(), payload.size());
  }
  return w.Take();
}

bool SnapshotReader::Init(const std::vector<uint8_t>& bytes, ExprContext* ctx,
                          std::string* error) {
  trace::ByteReader r(bytes);
  auto fail = [error](const char* what) {
    *error = what;
    return false;
  };
  uint32_t magic, version;
  if (!r.U32(&magic) || magic != kSnapshotMagic) {
    return fail("bad snapshot magic");
  }
  if (!r.U32(&version) || version != kSnapshotVersion) {
    return fail("unsupported snapshot version");
  }

  uint32_t n_syms;
  if (!r.U32(&n_syms) || n_syms > r.remaining() / 4) {  // >=4 bytes per name
    return fail("implausible sym count");
  }
  std::vector<std::string> names(n_syms);
  for (std::string& name : names) {
    if (!r.Str(&name)) {
      return fail("truncated sym table");
    }
  }
  if (!ctx->RestoreSymNames(std::move(names))) {
    return fail("snapshot requires a fresh ExprContext");
  }

  uint32_t n_nodes;
  if (!r.U32(&n_nodes) || n_nodes > r.remaining() / kNodeRecordBytes) {
    return fail("implausible node count");
  }
  nodes_.reserve(n_nodes);
  for (uint32_t i = 0; i < n_nodes; ++i) {
    uint8_t kind, width, bin_op, flags;
    uint32_t value, sym_id, refs[3];
    if (!r.U8(&kind) || !r.U8(&width) || !r.U8(&bin_op) || !r.U8(&flags) ||
        !r.U32(&value) || !r.U32(&sym_id) || !r.U32(&refs[0]) || !r.U32(&refs[1]) ||
        !r.U32(&refs[2])) {
      return fail("truncated node record");
    }
    if (!ValidKind(kind) || !ValidWidth(width) || !ValidBinOp(bin_op)) {
      return fail("node record out of range");
    }
    ExprRef ops[3];
    for (int k = 0; k < 3; ++k) {
      if (refs[k] > i) {  // operands must already exist (topological order)
        return fail("forward or out-of-range operand ref");
      }
      if (refs[k] != 0) {
        ops[k] = nodes_[refs[k] - 1];
      }
    }
    // Shape checks per kind: downstream walkers (Eval, the solver's pattern
    // matchers) dereference operands by kind without null checks.
    ExprKind ek = static_cast<ExprKind>(kind);
    bool shape_ok = false;
    switch (ek) {
      case ExprKind::kConst:
        shape_ok = !ops[0] && !ops[1] && !ops[2];
        break;
      case ExprKind::kSym:
        shape_ok = !ops[0] && !ops[1] && !ops[2] && sym_id < n_syms;
        break;
      case ExprKind::kBin:
        shape_ok = ops[0] && ops[1] && !ops[2];
        break;
      case ExprKind::kExtract:
        shape_ok = ops[0] && !ops[1] && !ops[2] && value < 4;
        break;
      case ExprKind::kZExt:
      case ExprKind::kSExt:
        shape_ok = ops[0] && !ops[1] && !ops[2];
        break;
      case ExprKind::kSelect:
        shape_ok = ops[0] && ops[1] && ops[2];
        break;
    }
    if (!shape_ok) {
      return fail("malformed node shape");
    }
    nodes_.push_back(ctx->RebuildNode(ek, width, static_cast<BinOp>(bin_op), value, sym_id,
                                      std::move(ops[0]), std::move(ops[1]),
                                      std::move(ops[2]), (flags & 1) != 0));
  }

  uint32_t n_sections;
  if (!r.U32(&n_sections) || n_sections > r.remaining() / 8) {
    return fail("implausible section count");
  }
  for (uint32_t s = 0; s < n_sections; ++s) {
    uint32_t tag, length;
    if (!r.U32(&tag) || !r.U32(&length) || length > r.remaining()) {
      return fail("truncated section header");
    }
    std::vector<uint8_t> payload(length);
    if (!r.Raw(payload.data(), length)) {
      return fail("truncated section payload");
    }
    if (!sections_.emplace(tag, std::move(payload)).second) {
      return fail("duplicate section tag");
    }
  }
  if (r.remaining() != 0) {
    return fail("trailing bytes after snapshot");
  }
  return true;
}

bool SnapshotReader::Decode(uint32_t ref, ExprRef* out) const {
  if (ref == 0) {
    out->reset();
    return true;
  }
  if (ref > nodes_.size()) {
    return false;
  }
  *out = nodes_[ref - 1];
  return true;
}

const std::vector<uint8_t>* SnapshotReader::Section(uint32_t tag) const {
  auto it = sections_.find(tag);
  return it == sections_.end() ? nullptr : &it->second;
}

// ---- STAT + MEM0 ----

void WriteStateSections(SnapshotWriter* w, const ExecutionState& state) {
  trace::ByteWriter& s = w->Section(kSectionState);
  s.U64(state.id());
  s.U32(state.pc());
  s.U8(static_cast<uint8_t>(state.status()));
  s.Str(state.kill_reason());
  s.U64(state.blocks_executed());
  s.U32(static_cast<uint32_t>(state.call_depth()));
  s.U32(static_cast<uint32_t>(state.entry_index()));
  for (unsigned i = 0; i < kNumGuestRegs; ++i) {
    s.U32(w->Encode(state.reg(i)));
  }
  const ConstraintSet& constraints = state.constraints();
  s.U32(static_cast<uint32_t>(constraints.size()));
  for (const ExprRef& c : constraints) {
    s.U32(w->Encode(c));
  }
  s.U32(static_cast<uint32_t>(state.model().size()));
  for (const auto& [sym, value] : state.model()) {
    s.U32(sym);
    s.U32(value);
  }
  s.U32(static_cast<uint32_t>(state.visits().size()));
  for (const auto& [pc, count] : state.visits()) {
    s.U32(pc);
    s.U32(count);
  }

  trace::ByteWriter& m = w->Section(kSectionMemory);
  std::vector<uint32_t> indices = state.mem().PrivatePageIndices();
  m.U32(static_cast<uint32_t>(indices.size()));
  for (uint32_t index : indices) {
    const uint8_t* concrete = nullptr;
    std::vector<std::pair<uint16_t, ExprRef>> symbolic;
    state.mem().SnapshotPage(index, &concrete, &symbolic);
    m.U32(index);
    m.Raw(concrete, SymMemory::kPageSize);
    m.U32(static_cast<uint32_t>(symbolic.size()));
    for (const auto& [off, expr] : symbolic) {
      m.U32(off);
      m.U32(w->Encode(expr));
    }
  }
}

bool ReadStateSections(const SnapshotReader& r, ExprContext* ctx,
                       const vm::MemoryMap* base_ram,
                       std::unique_ptr<ExecutionState>* state, std::string* error) {
  auto fail = [error](const char* what) {
    *error = what;
    return false;
  };
  const std::vector<uint8_t>* stat = r.Section(kSectionState);
  const std::vector<uint8_t>* mem = r.Section(kSectionMemory);
  if (stat == nullptr || mem == nullptr) {
    return fail("snapshot missing state/memory section");
  }

  trace::ByteReader s(*stat);
  uint64_t id, blocks_executed;
  uint32_t pc, call_depth, entry_index;
  uint8_t status;
  std::string kill_reason;
  if (!s.U64(&id) || !s.U32(&pc) || !s.U8(&status) || !s.Str(&kill_reason) ||
      !s.U64(&blocks_executed) || !s.U32(&call_depth) || !s.U32(&entry_index)) {
    return fail("truncated state header");
  }
  if (status > static_cast<uint8_t>(StateStatus::kKilled)) {
    return fail("bad state status");
  }
  auto st = std::make_unique<ExecutionState>(id, ctx, base_ram);
  st->set_pc(pc);
  st->set_status(static_cast<StateStatus>(status));
  st->set_kill_reason(std::move(kill_reason));
  st->set_blocks_executed(blocks_executed);
  st->set_call_depth(static_cast<int>(call_depth));
  st->set_entry_index(static_cast<int>(entry_index));
  for (unsigned i = 0; i < kNumGuestRegs; ++i) {
    uint32_t ref;
    ExprRef reg;
    if (!s.U32(&ref) || !r.Decode(ref, &reg) || !reg) {
      return fail("bad register ref");
    }
    st->set_reg(i, std::move(reg));
  }
  uint32_t n;
  if (!s.U32(&n) || n > s.remaining() / 4) {
    return fail("implausible constraint count");
  }
  for (uint32_t k = 0; k < n; ++k) {
    uint32_t ref;
    ExprRef c;
    if (!s.U32(&ref) || !r.Decode(ref, &c) || !c) {
      return fail("bad constraint ref");
    }
    st->RestoreConstraint(std::move(c));
  }
  if (!s.U32(&n) || n > s.remaining() / 8) {
    return fail("implausible model count");
  }
  for (uint32_t k = 0; k < n; ++k) {
    uint32_t sym, value;
    if (!s.U32(&sym) || !s.U32(&value)) {
      return fail("truncated model");
    }
    if (!st->model().PushBack(sym, value)) {  // written in ascending symbol order
      return fail("model symbols out of order");
    }
  }
  if (!s.U32(&n) || n > s.remaining() / 8) {
    return fail("implausible visit count");
  }
  for (uint32_t k = 0; k < n; ++k) {
    uint32_t visit_pc, count;
    if (!s.U32(&visit_pc) || !s.U32(&count)) {
      return fail("truncated visits");
    }
    st->RestoreVisit(visit_pc, count);
  }
  if (s.remaining() != 0) {
    return fail("trailing bytes in state section");
  }

  trace::ByteReader m(*mem);
  uint32_t n_pages;
  if (!m.U32(&n_pages) || n_pages > m.remaining() / (4 + SymMemory::kPageSize)) {
    return fail("implausible page count");
  }
  std::vector<uint8_t> concrete(SymMemory::kPageSize);
  for (uint32_t p = 0; p < n_pages; ++p) {
    uint32_t index;
    if (!m.U32(&index) || !m.Raw(concrete.data(), SymMemory::kPageSize)) {
      return fail("truncated page");
    }
    uint32_t n_sym;
    if (!m.U32(&n_sym) || n_sym > SymMemory::kPageSize) {
      return fail("implausible page overlay count");
    }
    std::vector<std::pair<uint16_t, ExprRef>> symbolic;
    symbolic.reserve(n_sym);
    for (uint32_t k = 0; k < n_sym; ++k) {
      uint32_t off, ref;
      ExprRef expr;
      if (!m.U32(&off) || off >= SymMemory::kPageSize || !m.U32(&ref) ||
          !r.Decode(ref, &expr) || !expr) {
        return fail("bad page overlay entry");
      }
      symbolic.emplace_back(static_cast<uint16_t>(off), std::move(expr));
    }
    st->mem().InstallPage(index, concrete.data(), std::move(symbolic));
  }
  if (m.remaining() != 0) {
    return fail("trailing bytes in memory section");
  }

  *state = std::move(st);
  return true;
}

// ---- SCHD ----

void WriteSchedulerSection(SnapshotWriter* w, const StatePool& pool) {
  trace::ByteWriter& s = w->Section(kSectionScheduler);
  const std::map<uint32_t, uint64_t> counts = pool.block_counts();
  s.U32(static_cast<uint32_t>(counts.size()));
  for (const auto& [pc, count] : counts) {
    s.U32(pc);
    s.U64(count);
  }
  s.U64(pool.rng_state());
  s.U64(pool.total_culled());
}

bool ReadSchedulerSection(const SnapshotReader& r, StatePool* pool, std::string* error) {
  const std::vector<uint8_t>* payload = r.Section(kSectionScheduler);
  if (payload == nullptr) {
    *error = "snapshot missing scheduler section";
    return false;
  }
  trace::ByteReader s(*payload);
  uint32_t n;
  if (!s.U32(&n) || n > s.remaining() / 12) {
    *error = "implausible block-count count";
    return false;
  }
  std::map<uint32_t, uint64_t> counts;
  for (uint32_t k = 0; k < n; ++k) {
    uint32_t pc;
    uint64_t count;
    if (!s.U32(&pc) || !s.U64(&count)) {
      *error = "truncated scheduler section";
      return false;
    }
    counts[pc] = count;
  }
  uint64_t rng_state, culled;
  if (!s.U64(&rng_state) || !s.U64(&culled) || s.remaining() != 0) {
    *error = "malformed scheduler section tail";
    return false;
  }
  pool->RestoreBookkeeping(counts, rng_state, culled);
  return true;
}

// ---- SOLV ----

void WriteSolverSection(SnapshotWriter* w, const Solver& solver) {
  // The encode hook may append DAG nodes; that is fine because the DAG is
  // assembled at Finish(), after every section has been written.
  trace::ByteWriter& s = w->Section(kSectionSolver);
  solver.SerializeTo(&s, [w](const ExprRef& e) { return w->Encode(e); });
}

bool ReadSolverSection(const SnapshotReader& r, Solver* solver, std::string* error) {
  const std::vector<uint8_t>* payload = r.Section(kSectionSolver);
  if (payload == nullptr) {
    *error = "snapshot missing solver section";
    return false;
  }
  trace::ByteReader s(*payload);
  if (!solver->DeserializeFrom(
          &s, [&r](uint32_t ref, ExprRef* out) { return r.Decode(ref, out); }, error)) {
    return false;
  }
  if (s.remaining() != 0) {
    *error = "trailing bytes in solver section";
    return false;
  }
  return true;
}

}  // namespace revnic::symex

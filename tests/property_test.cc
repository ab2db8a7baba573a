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
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>
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

// Search scores a repair step's candidate values with one EvalLanes pass
// over the slot's cone instead of one Assign per value. Every lane must
// equal what Assign of that value computes for each constraint mentioning
// the slot -- with repeated values, values equal to the current one, and
// zero lanes -- and EvalLanes must leave the assignment and node cache as
// they were. Constraints() is the catalogue FullEvaluationMatchesEval
// checks for every kind, operator, width, SExt source and shared subtree.
TEST_P(CompiledEvalProperty, EvalLanesMatchesPerCandidateAssign) {
  Rng rng(GetParam() * 15485863);
  symex::ExprContext ctx;
  WidthDag dag(&ctx, &rng);
  std::vector<symex::ExprRef> constraints = dag.Constraints(24);
  symex::CompiledComponent comp(constraints);
  symex::CompiledComponent probe(constraints);
  symex::Model model = dag.RandomModel();
  comp.Load(model);
  const auto num_slots = static_cast<uint32_t>(comp.num_slots());
  for (int step = 0; step < 80; ++step) {
    const uint32_t slot = rng.Below(num_slots);
    const uint32_t original = comp.slot_value(slot);
    std::vector<uint32_t> lanes(rng.Below(40));
    for (size_t l = 0; l < lanes.size(); ++l) {
      switch (rng.Below(4)) {
        case 0:
          lanes[l] = l > 0 ? lanes[rng.Below(static_cast<uint32_t>(l))] : original;  // a repeat
          break;
        case 1:
          lanes[l] = original;
          break;
        default:
          lanes[l] = dag.RandomSlotValue();
          break;
      }
    }
    std::vector<uint32_t> before(constraints.size());
    for (size_t ci = 0; ci < constraints.size(); ++ci) {
      before[ci] = comp.value(ci);
    }
    comp.EvalLanes(slot, lanes);
    ASSERT_EQ(comp.slot_value(slot), original);
    for (size_t ci = 0; ci < constraints.size(); ++ci) {
      ASSERT_EQ(comp.value(ci), before[ci]) << "step " << step << " constraint " << ci;
    }
    probe.Load(model);
    for (size_t l = 0; l < lanes.size(); ++l) {
      probe.Assign(slot, lanes[l]);
      for (uint32_t ci : comp.slot_constraints(slot)) {
        ASSERT_EQ(comp.lane_value(ci, l), probe.value(ci))
            << "step " << step << " lane " << l << ": " << symex::ToString(constraints[ci]);
      }
    }
    // Commit one value, as the search does, so later steps start elsewhere.
    const uint32_t chosen = lanes.empty()
                                ? dag.RandomSlotValue()
                                : lanes[rng.Below(static_cast<uint32_t>(lanes.size()))];
    comp.Assign(slot, chosen);
    model[comp.slot_sym(slot)] = chosen;
  }
}

// Search reads a violated constraint's candidate constants off the node
// array the first time it picks that constraint; CollectConstants is the
// reference. Constraints are asked in random order, some twice.
TEST_P(CompiledEvalProperty, ConstantsMatchCollectConstants) {
  Rng rng(GetParam() * 32452843);
  symex::ExprContext ctx;
  WidthDag dag(&ctx, &rng);
  std::vector<symex::ExprRef> constraints = dag.Constraints(24);
  symex::CompiledComponent comp(constraints);
  std::vector<size_t> order(constraints.size());
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(static_cast<uint32_t>(i))]);
  }
  order.insert(order.end(), order.begin(), order.begin() + static_cast<long>(order.size() / 2));
  for (size_t ci : order) {
    std::set<uint32_t> want;
    symex::CollectConstants(constraints[ci], &want);
    ASSERT_EQ(comp.constants(ci), std::vector<uint32_t>(want.begin(), want.end()))
        << symex::ToString(constraints[ci]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledEvalProperty, ::testing::Range<uint64_t>(1, 9));

// ---- flat Model (symex::Model) ----
//
// Model is a sorted vector of (symbol, value) pairs standing in for the
// std::map it replaced. Random operation sequences over a small symbol
// universe (so symbols collide) must leave it equal to a std::map reference
// after every step: operator[] writes and reads, keep-first range insert,
// the solver's append-then-canonicalize merge of disjoint or overlapping
// runs, the decoders' PushBack, and find/count/at. The result must also
// survive the RSS1 state section's serialize -> deserialize round trip.
using ModelReference = std::map<uint32_t, uint32_t>;

bool SameAsReference(const symex::Model& m, const ModelReference& ref) {
  return std::equal(m.begin(), m.end(), ref.begin(), ref.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first && x.second == y.second;
                    });
}

class FlatModelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatModelProperty, MatchesAStdMapReference) {
  Rng rng(GetParam() * 49979687);
  symex::Model m;
  ModelReference ref;
  auto sym = [&] { return rng.Below(48); };
  auto random_pairs = [&](bool ascending) {
    std::vector<std::pair<uint32_t, uint32_t>> pairs(rng.Below(12));
    for (auto& p : pairs) {
      p = {sym(), rng.Next32()};
    }
    if (ascending) {  // a component model: sorted, each symbol once
      std::sort(pairs.begin(), pairs.end());
      pairs.erase(std::unique(pairs.begin(), pairs.end(),
                              [](const auto& x, const auto& y) { return x.first == y.first; }),
                  pairs.end());
    }
    return pairs;
  };
  for (int op = 0; op < 400; ++op) {
    switch (rng.Below(7)) {
      case 0: {
        uint32_t s = sym();
        uint32_t v = rng.Next32();
        m[s] = v;
        ref[s] = v;
        break;
      }
      case 1: {  // a read through operator[] maps the symbol to 0
        uint32_t s = sym();
        ASSERT_EQ(m[s], ref[s]);
        break;
      }
      case 2: {
        auto pairs = random_pairs(/*ascending=*/false);
        m.insert(pairs.begin(), pairs.end());
        ref.insert(pairs.begin(), pairs.end());
        break;
      }
      case 3: {  // the solver's merge: append runs, canonicalize once
        symex::Model merged;
        ModelReference merged_ref;
        for (uint32_t run = rng.Below(5); run > 0; --run) {
          auto pairs = random_pairs(/*ascending=*/true);
          symex::Model part;
          for (const auto& [s, v] : pairs) {
            part[s] = v;
          }
          merged.Append(part);
          merged_ref.insert(pairs.begin(), pairs.end());
        }
        merged.Canonicalize();
        ASSERT_TRUE(SameAsReference(merged, merged_ref));
        m = std::move(merged);
        ref = std::move(merged_ref);
        break;
      }
      case 4:
        for (uint32_t s = 0; s < 48; ++s) {
          auto it = m.find(s);
          auto rit = ref.find(s);
          ASSERT_EQ(m.count(s), ref.count(s));
          ASSERT_EQ(it == m.end(), rit == ref.end());
          if (rit == ref.end()) {
            EXPECT_THROW((void)m.at(s), std::out_of_range);
          } else {
            ASSERT_EQ(it->second, rit->second);
            ASSERT_EQ(m.at(s), rit->second);
          }
        }
        break;
      case 5: {  // the decoders' append: only above every mapped symbol
        uint32_t s = sym();
        uint32_t v = rng.Next32();
        bool above = ref.empty() || ref.rbegin()->first < s;
        ASSERT_EQ(m.PushBack(s, v), above);
        if (above) {
          ref[s] = v;
        }
        break;
      }
      default:
        if (rng.Below(8) == 0) {
          m.clear();
          ref.clear();
        }
        break;
    }
    ASSERT_TRUE(SameAsReference(m, ref)) << "op " << op;
    // The same pairs written by operator[] in any symbol order compare equal.
    symex::Model rebuilt;
    std::vector<std::pair<uint32_t, uint32_t>> shuffled(ref.begin(), ref.end());
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.Below(static_cast<uint32_t>(i))]);
    }
    for (const auto& [s, v] : shuffled) {
      rebuilt[s] = v;
    }
    ASSERT_TRUE(rebuilt == m) << "op " << op;
  }

  symex::ExprContext ctx;
  vm::MemoryMap base(1 << 16);
  symex::ExecutionState st(7, &ctx, &base);
  st.model() = m;
  symex::SnapshotWriter writer;
  symex::WriteStateSections(&writer, st);
  std::vector<uint8_t> bytes = writer.Finish(ctx);
  symex::ExprContext ctx2;
  symex::SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Init(bytes, &ctx2, &error)) << error;
  std::unique_ptr<symex::ExecutionState> st2;
  ASSERT_TRUE(symex::ReadStateSections(reader, &ctx2, &base, &st2, &error)) << error;
  EXPECT_TRUE(SameAsReference(st2->model(), ref));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatModelProperty, ::testing::Range<uint64_t>(1, 9));

// ---- constraint-independence partition (Solver::CheckSat) ----
//
// The solver splits every query into symbol-disjoint components with flat,
// reused tables, takes the extra condition of MayBeTrue/MustBeTrue without
// copying the path, and lets MayBeTrueBoth's second polarity reuse the
// first one's partition and cache answers. Its answers must equal the
// std::map union-find it replaced, copied below: a reference solver gets the
// same queries, split by that copy, one component per CheckSat call (a
// connected component is one group under any partition). Verdict, model,
// the SolverStats delta each query owes, the cache size and the serialized
// solver state must all agree, also after a serialize -> deserialize round
// trip.

// The pre-flat-table partition: components ordered by their first
// constraint, each in position order.
std::vector<std::vector<symex::ExprRef>> MapPartition(const std::vector<symex::ExprRef>& work) {
  std::vector<size_t> parent(work.size());
  for (size_t i = 0; i < parent.size(); ++i) {
    parent[i] = i;
  }
  auto find = [&parent](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::map<uint32_t, size_t> sym_owner;
  for (size_t i = 0; i < work.size(); ++i) {
    for (uint32_t sym : *work[i]->syms) {
      auto [it, fresh] = sym_owner.emplace(sym, i);
      if (!fresh) {
        parent[find(i)] = find(it->second);
      }
    }
  }
  std::vector<std::vector<symex::ExprRef>> groups;
  std::map<size_t, size_t> root_to_group;
  for (size_t i = 0; i < work.size(); ++i) {
    auto [it, fresh] = root_to_group.emplace(find(i), groups.size());
    if (fresh) {
      groups.emplace_back();
    }
    groups[it->second].push_back(work[i]);
  }
  return groups;
}

// Answers the conjunction of `constraints` on `ref` the pre-flat-table way
// and adds the stats delta one query must produce to `*expected`.
symex::Verdict ReferenceQuery(symex::Solver* ref, bool independence,
                              const std::vector<symex::ExprRef>& constraints,
                              const symex::Model* hint, symex::Model* model,
                              symex::SolverStats* expected) {
  model->clear();
  const symex::SolverStats before = ref->stats();
  auto finish = [&](symex::Verdict v) {
    symex::SolverStats delta = ref->stats();
    delta -= before;
    delta.queries = 1;
    delta.sat = v == symex::Verdict::kSat ? 1 : 0;
    delta.unsat = v == symex::Verdict::kUnsat ? 1 : 0;
    delta.unknown = v == symex::Verdict::kUnknown ? 1 : 0;
    *expected += delta;
    if (v != symex::Verdict::kSat) {
      model->clear();
    }
    return v;
  };
  std::vector<symex::ExprRef> work;
  for (const symex::ExprRef& c : constraints) {
    if (c->IsConst() || c->syms->empty()) {
      if (symex::Eval(c, symex::Model()) == 0) {
        return finish(symex::Verdict::kUnsat);
      }
      continue;
    }
    work.push_back(c);
  }
  std::vector<std::vector<symex::ExprRef>> groups;
  if (independence) {
    groups = MapPartition(work);
  } else if (!work.empty()) {
    groups.push_back(work);
  }
  bool unknown = false;
  for (const std::vector<symex::ExprRef>& group : groups) {
    symex::Model part;
    symex::Verdict v = ref->CheckSat(group, &part, hint);
    if (v == symex::Verdict::kUnsat) {
      return finish(v);
    }
    unknown |= v == symex::Verdict::kUnknown;
    model->insert(part.begin(), part.end());
  }
  return finish(unknown ? symex::Verdict::kUnknown : symex::Verdict::kSat);
}

// Serializes a solver with expressions numbered through `table`.
std::vector<uint8_t> SolverBytes(const symex::Solver& solver, std::vector<symex::ExprRef>* table) {
  trace::ByteWriter w;
  solver.SerializeTo(&w, [table](const symex::ExprRef& e) {
    for (size_t i = 0; i < table->size(); ++i) {
      if ((*table)[i].get() == e.get()) {
        return static_cast<uint32_t>(i);
      }
    }
    table->push_back(e);
    return static_cast<uint32_t>(table->size() - 1);
  });
  return w.Take();
}

void ExpectSameStats(const symex::SolverStats& got, const symex::SolverStats& want,
                     const std::string& where) {
  for (size_t f = 0; f < std::size(symex::SolverStats::kFields); ++f) {
    EXPECT_EQ(got.*symex::SolverStats::kFields[f], want.*symex::SolverStats::kFields[f])
        << where << ": SolverStats field " << f;
  }
}

struct PartitionCase {
  uint64_t seed;
  bool independence;
};

class PartitionDifferential : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(PartitionDifferential, FlatTablesMatchTheMapUnionFind) {
  const PartitionCase pc = GetParam();
  Rng rng(pc.seed * 0x9E3779B9u + 11);
  symex::ExprContext ctx;
  symex::Solver::Options opts;
  opts.enable_independence = pc.independence;
  opts.repair_iters = 40;  // leave some searches kUnknown
  auto solver = std::make_unique<symex::Solver>(opts, pc.seed);
  auto ref = std::make_unique<symex::Solver>(opts, pc.seed);
  symex::SolverStats expected = solver->stats();

  std::vector<symex::ExprRef> syms;
  for (int i = 0; i < 12; ++i) {
    syms.push_back(ctx.Sym(StrFormat("p%d", i)));
  }
  auto sym = [&] { return syms[rng.Below(static_cast<uint32_t>(syms.size()))]; };
  auto small = [&] { return ctx.Const(rng.Below(64)); };
  std::vector<symex::ExprRef> path;
  auto random_cond = [&]() -> symex::ExprRef {
    switch (rng.Below(9)) {
      case 0:
        return ctx.Eq(sym(), small());
      case 1:
        return ctx.Bin(symex::BinOp::kNe, sym(), small());
      case 2:
        return ctx.Bin(symex::BinOp::kUlt, sym(), ctx.Const(1 + rng.Below(200)));
      case 3:
        return ctx.Eq(ctx.And(sym(), ctx.Const(0xF0)), ctx.Const(rng.Below(16) << 4));
      case 4:  // two symbols: joins components
        return ctx.Bin(symex::BinOp::kUle, ctx.Add(sym(), sym()), ctx.Const(rng.Below(300)));
      case 5:  // three symbols, through a multiply the propagation ignores
        return ctx.Eq(
            ctx.Bin(symex::BinOp::kXor, ctx.Bin(symex::BinOp::kMul, sym(), sym()), sym()),
            ctx.Const(rng.Next32()));
      case 6:  // constants: almost always true, rarely false
        return ctx.Const(rng.Below(16) == 0 ? 0 : 1, 1);
      case 7:  // a duplicate of a path constraint
        if (!path.empty()) {
          return path[rng.Below(static_cast<uint32_t>(path.size()))];
        }
        return ctx.Eq(sym(), small());
      default:
        return ctx.Bin(symex::BinOp::kUle, ctx.Const(rng.Below(32)), sym());
    }
  };

  symex::Model hint;
  int sat_components = 0;
  int multi_component = 0;
  for (int q = 0; q < 400; ++q) {
    const std::string where =
        StrFormat("seed %llu query %d", static_cast<unsigned long long>(pc.seed), q);
    if (q == 200) {
      // Round trip both solvers mid-run; the restored pair carries on.
      std::vector<symex::ExprRef> table;
      std::vector<uint8_t> bytes = SolverBytes(*solver, &table);
      ASSERT_EQ(bytes, SolverBytes(*ref, &table)) << where;
      auto decode = [&table](uint32_t id, symex::ExprRef* out) {
        if (id >= table.size()) {
          return false;
        }
        *out = table[id];
        return true;
      };
      auto restored = std::make_unique<symex::Solver>(opts);
      auto restored_ref = std::make_unique<symex::Solver>(opts);
      std::string error;
      trace::ByteReader r1(bytes), r2(bytes);
      ASSERT_TRUE(restored->DeserializeFrom(&r1, decode, &error)) << error;
      ASSERT_TRUE(restored_ref->DeserializeFrom(&r2, decode, &error)) << error;
      expected = restored->stats();  // stats are counters, not solver state
      solver = std::move(restored);
      ref = std::move(restored_ref);
    }
    // A fork sibling keeps only a prefix of the path.
    if (rng.Below(12) == 0 && !path.empty()) {
      path.resize(rng.Below(static_cast<uint32_t>(path.size())));
    }
    symex::ExprRef cond = random_cond();
    std::vector<symex::ExprRef> with_cond = path;
    with_cond.push_back(cond);
    const symex::Model* h = rng.Below(4) == 0 ? nullptr : &hint;

    symex::Model got, want;
    symex::Verdict v;
    symex::Verdict rv;
    switch (rng.Below(5)) {
      case 0:  // MustBeTrue: the extra condition is the negation
        with_cond.back() = ctx.Not(cond);
        v = solver->MustBeTrue(path, cond, &ctx) ? symex::Verdict::kUnsat : symex::Verdict::kSat;
        rv = ReferenceQuery(ref.get(), pc.independence, with_cond, nullptr, &want, &expected);
        rv = rv == symex::Verdict::kUnsat ? rv : symex::Verdict::kSat;
        want.clear();
        break;
      case 1:  // CheckSat of the whole list
        v = solver->CheckSat(with_cond, &got, h);
        rv = ReferenceQuery(ref.get(), pc.independence, with_cond, h, &want, &expected);
        break;
      case 2:  // MayBeTrue: the path plus one condition
        v = solver->MayBeTrue(path, cond, &got, h);
        rv = ReferenceQuery(ref.get(), pc.independence, with_cond, h, &want, &expected);
        break;
      default: {  // both polarities of one branch, as the executor asks
        symex::ExprRef not_cond = ctx.Not(cond);
        symex::Solver::BranchVerdicts both = solver->MayBeTrueBoth(path, cond, not_cond, h);
        v = both.if_true;
        got = both.true_model;
        rv = ReferenceQuery(ref.get(), pc.independence, with_cond, h, &want, &expected);
        with_cond.back() = not_cond;
        symex::Model want_false;
        ASSERT_EQ(both.if_false, ReferenceQuery(ref.get(), pc.independence, with_cond, h,
                                                &want_false, &expected))
            << where;
        ASSERT_EQ(both.false_model, want_false) << where;
        with_cond.back() = cond;
        break;
      }
    }
    ASSERT_EQ(v, rv) << where;
    ASSERT_EQ(got, want) << where;
    ExpectSameStats(solver->stats(), expected, where);
    ASSERT_EQ(solver->cache_size(), ref->cache_size()) << where;
    ASSERT_EQ(solver->rng_state(), ref->rng_state()) << where;
    if (v == symex::Verdict::kSat && !got.empty()) {
      hint = got;
      ++sat_components;
    }
    if (pc.independence && MapPartition(with_cond).size() > 1) {
      ++multi_component;
    }
    if (v == symex::Verdict::kSat && !cond->IsConst() && rng.Below(3) != 0) {
      path.push_back(cond);
    } else if (path.size() > 40) {
      path.clear();
    }
  }
  std::vector<symex::ExprRef> table;
  EXPECT_EQ(SolverBytes(*solver, &table), SolverBytes(*ref, &table));
  EXPECT_GT(sat_components, 50);
  EXPECT_GT(solver->stats().cache_hits, 0u);
  EXPECT_GT(solver->stats().cache_misses, 0u);
  if (pc.independence) {
    EXPECT_GT(multi_component, 50);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionDifferential,
                         ::testing::Values(PartitionCase{1, true}, PartitionCase{2, true},
                                           PartitionCase{3, true}, PartitionCase{4, true},
                                           PartitionCase{5, true}, PartitionCase{6, true},
                                           PartitionCase{7, false}, PartitionCase{8, false}));

// The query cache resets wholesale once it holds 8192 entries. A branch
// pair whose first polarity triggers that reset must look its path's
// components up again in the second polarity instead of reusing the
// answers the first one found before the reset. Every branch condition here
// is over a fresh symbol, so each polarity stores one entry and the reset
// falls inside some pair, after the path's components were answered. The
// sizes at which the polarities store alternate in parity, so one of the two
// path lengths puts the reset in a first polarity.
TEST(PartitionDifferential, BranchPairsAcrossTheCacheReset) {
  for (int path_len : {5, 6}) {
    symex::ExprContext ctx;
    symex::Solver solver;
    symex::Solver ref;
    symex::SolverStats expected = solver.stats();
    std::vector<symex::ExprRef> path;
    for (int i = 0; i < path_len; ++i) {
      path.push_back(ctx.Bin(symex::BinOp::kUlt, ctx.Sym(StrFormat("path%d", i)),
                             ctx.Const(100 + static_cast<uint32_t>(i))));
    }
    uint64_t resets = 0;
    size_t last_size = 0;
    for (int q = 0; q < 4200; ++q) {
      symex::ExprRef cond = ctx.Eq(ctx.Sym(StrFormat("fresh%d", q)), ctx.Const(7));
      symex::ExprRef not_cond = ctx.Not(cond);
      symex::Solver::BranchVerdicts both = solver.MayBeTrueBoth(path, cond, not_cond, nullptr);
      std::vector<symex::ExprRef> with_cond = path;
      with_cond.push_back(cond);
      symex::Model want;
      ASSERT_EQ(both.if_true, ReferenceQuery(&ref, true, with_cond, nullptr, &want, &expected));
      ASSERT_EQ(both.true_model, want);
      with_cond.back() = not_cond;
      ASSERT_EQ(both.if_false, ReferenceQuery(&ref, true, with_cond, nullptr, &want, &expected));
      ASSERT_EQ(both.false_model, want);
      ExpectSameStats(solver.stats(), expected, StrFormat("pair %d", q));
      ASSERT_EQ(solver.cache_size(), ref.cache_size());
      resets += solver.cache_size() < last_size ? 1 : 0;
      last_size = solver.cache_size();
    }
    EXPECT_EQ(resets, 1u) << "path length " << path_len;
  }
}

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

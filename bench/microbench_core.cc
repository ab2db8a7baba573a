// Micro-benchmarks of the core substrates (google-benchmark): DBT
// translation, concrete execution, symbolic stepping, solver queries, and
// trace serialization. These quantify the per-block costs behind Figure 8's
// wall-clock behaviour.
#include <benchmark/benchmark.h>

#include <set>

#include "drivers/drivers.h"
#include "isa/assembler.h"
#include "hw/ne2000.h"
#include "os/winsim_host.h"
#include "symex/executor.h"
#include "symex/scheduler.h"
#include "symex/solver.h"
#include "trace/serialize.h"
#include "util/rng.h"
#include "vm/machine.h"

namespace {

using namespace revnic;

void BM_Assemble(benchmark::State& state) {
  std::string src = drivers::DriverAsmSource(drivers::DriverId::kRtl8029);
  for (auto _ : state) {
    auto r = isa::Assemble(src);
    benchmark::DoNotOptimize(r.ok);
  }
}
BENCHMARK(BM_Assemble);

void BM_DbtTranslateDriver(benchmark::State& state) {
  const isa::Image& img = drivers::DriverImage(drivers::DriverId::kRtl8139);
  vm::MemoryMap mm(os::kGuestRamSize);
  os::WinSim winsim(hw::Rtl8139Config());
  winsim.LoadDriver(img, &mm);
  for (auto _ : state) {
    vm::RamFetcher fetcher(&mm);
    vm::Dbt dbt(&fetcher);
    size_t blocks = 0;
    for (uint32_t pc = img.code_begin(); pc < img.code_end(); pc += isa::kInstrBytes) {
      if (dbt.Translate(pc)) {
        ++blocks;
      }
    }
    benchmark::DoNotOptimize(blocks);
  }
}
BENCHMARK(BM_DbtTranslateDriver);

void BM_ConcreteSendPath(benchmark::State& state) {
  hw::Ne2000 device;
  os::ConcreteWinSimHost host(drivers::DriverImage(drivers::DriverId::kRtl8029), &device);
  if (!host.Initialize()) {
    state.SkipWithError("init failed");
    return;
  }
  hw::Frame f = hw::BuildUdpFrame({1, 2, 3, 4, 5, 6}, {2, 2, 2, 2, 2, 2},
                                  static_cast<size_t>(state.range(0)), 0xAA);
  for (auto _ : state) {
    auto status = host.SendFrame(f);
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.size()));
}
BENCHMARK(BM_ConcreteSendPath)->Arg(64)->Arg(512)->Arg(1472);

void BM_SolverChainQuery(benchmark::State& state) {
  symex::ExprContext ctx;
  symex::Solver solver;
  // OID-style comparison chain over one variable.
  symex::ExprRef oid = ctx.Sym("oid", 32);
  std::vector<symex::ExprRef> constraints;
  for (int i = 0; i < state.range(0); ++i) {
    constraints.push_back(
        ctx.Bin(symex::BinOp::kNe, oid, ctx.Const(0x01010100u + static_cast<uint32_t>(i))));
  }
  symex::ExprRef target = ctx.Eq(oid, ctx.Const(0x0101FFFF));
  for (auto _ : state) {
    symex::Model model;
    auto v = solver.MayBeTrue(constraints, target, &model);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_SolverChainQuery)->Arg(4)->Arg(16)->Arg(64);

// Same chain but with the query cache and independence slicing disabled and a
// fresh solver per iteration: the honest cold-solve cost, for comparing
// against BM_SolverChainQuery's cached steady state.
void BM_SolverChainQueryCold(benchmark::State& state) {
  symex::ExprContext ctx;
  symex::ExprRef oid = ctx.Sym("oid", 32);
  std::vector<symex::ExprRef> constraints;
  for (int i = 0; i < state.range(0); ++i) {
    constraints.push_back(
        ctx.Bin(symex::BinOp::kNe, oid, ctx.Const(0x01010100u + static_cast<uint32_t>(i))));
  }
  symex::ExprRef target = ctx.Eq(oid, ctx.Const(0x0101FFFF));
  symex::Solver::Options opts;
  opts.enable_query_cache = false;
  opts.enable_independence = false;
  opts.model_shelf_entries = 0;
  for (auto _ : state) {
    symex::Solver solver(opts);
    symex::Model model;
    auto v = solver.MayBeTrue(constraints, target, &model);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_SolverChainQueryCold)->Arg(64);

// Incremental exploration pattern: a path condition over many independent
// symbols (one per hardware register read) plus one new branch condition.
// Independence slicing should make the query cost track the one-variable
// slice, not the whole path condition.
void BM_SolverIndependentSlices(benchmark::State& state) {
  symex::ExprContext ctx;
  symex::Solver solver;
  std::vector<symex::ExprRef> constraints;
  std::vector<symex::ExprRef> syms;
  for (int i = 0; i < state.range(0); ++i) {
    symex::ExprRef v = ctx.Sym("hw_in", 32);
    syms.push_back(v);
    constraints.push_back(ctx.Eq(ctx.And(v, ctx.Const(0xFF)), ctx.Const(0x40)));
  }
  symex::ExprRef target = ctx.Bin(symex::BinOp::kUlt, syms[0], ctx.Const(0x80));
  for (auto _ : state) {
    symex::Model model;
    auto v = solver.MayBeTrue(constraints, target, &model);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_SolverIndependentSlices)->Arg(8)->Arg(64);

// A component shaped like rtl8139's searched ones: 20 constraints of about
// 50 nodes over the 6 symbols in `syms` (arithmetic and mask chains through
// byte extractions), plus an unsatisfiable straggler -- two equalities
// pinning one chain to different values, which neither propagation nor the
// structural check sees -- so a search runs to its plateau exit. The second
// equality is returned separately, as the branch condition of a query.
std::vector<symex::ExprRef> SearchComponent(symex::ExprContext* ctx,
                                            const std::vector<symex::ExprRef>& syms,
                                            symex::ExprRef* straggler_cond) {
  using symex::BinOp;
  auto chain = [&](int seed) {
    static const BinOp kOps[] = {BinOp::kAdd, BinOp::kXor, BinOp::kAnd, BinOp::kOr,
                                 BinOp::kMul, BinOp::kSub, BinOp::kLShr};
    symex::ExprRef e = syms[static_cast<size_t>(seed) % 6];
    for (int j = 0; j < 22; ++j) {
      const symex::ExprRef& s = syms[static_cast<size_t>(seed + 2 * j + 1) % 6];
      symex::ExprRef term =
          j % 2 == 0 ? ctx->ZExt(ctx->ExtractByte(s, static_cast<unsigned>(j) % 4), 32)
                     : ctx->Bin(BinOp::kAnd, s, ctx->Const(0xF0u >> (j % 4)));
      e = ctx->Bin(kOps[(seed + j) % 7], e,
                   j % 3 == 2 ? ctx->Const(static_cast<uint32_t>(3 + j)) : term);
    }
    return e;
  };
  std::vector<symex::ExprRef> constraints;
  for (int i = 0; i < 20; ++i) {
    constraints.push_back(ctx->Bin(i % 2 == 0 ? BinOp::kUle : BinOp::kNe, chain(i),
                                   ctx->Const(0x1000u * static_cast<uint32_t>(i + 1))));
  }
  symex::ExprRef straggler = chain(20);
  constraints.push_back(ctx->Eq(straggler, ctx->Const(0x11)));
  *straggler_cond = ctx->Eq(straggler, ctx->Const(0x22));
  return constraints;
}

// The local search alone on SearchComponent (straggler included). Cache and
// shelf are off and each iteration gets a fresh solver, so every iteration
// repeats the same search.
void BM_SolverSearch(benchmark::State& state) {
  symex::ExprContext ctx;
  std::vector<symex::ExprRef> syms;
  for (int i = 0; i < 6; ++i) {
    syms.push_back(ctx.Sym("hw_in", 32));
  }
  symex::ExprRef cond;
  std::vector<symex::ExprRef> constraints = SearchComponent(&ctx, syms, &cond);
  constraints.push_back(cond);

  symex::Solver::Options opts;
  opts.enable_query_cache = false;
  opts.model_shelf_entries = 0;
  uint64_t evals = 0;
  for (auto _ : state) {
    symex::Solver solver(opts);
    symex::Model model;
    auto v = solver.CheckSat(constraints, &model);
    benchmark::DoNotOptimize(v);
    evals += solver.stats().evals;
  }
  state.counters["evals_per_s"] =
      benchmark::Counter(static_cast<double>(evals), benchmark::Counter::kIsRate);
  state.counters["evals_per_search"] = benchmark::Counter(
      static_cast<double>(evals), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SolverSearch);

// rtl8139's miss path end to end, on one default-configured solver: a path
// of SearchComponent plus 16 independent one-symbol constraints, and a
// branch condition that makes the component unsatisfiable. Each query is
// hinted, so the cached kUnknown does not answer it: the independent
// components hit the cache, and the missed one runs the hint trial, the
// seed, representative and shelf trials, and a search that ends kUnknown
// at the plateau.
void BM_SolverSearchMiss(benchmark::State& state) {
  symex::ExprContext ctx;
  std::vector<symex::ExprRef> syms;
  for (int i = 0; i < 6; ++i) {
    syms.push_back(ctx.Sym("hw_in", 32));
  }
  symex::ExprRef cond;
  std::vector<symex::ExprRef> path = SearchComponent(&ctx, syms, &cond);
  for (int i = 0; i < 16; ++i) {
    symex::ExprRef v = ctx.Sym("hw_status", 32);
    path.push_back(ctx.Eq(ctx.And(v, ctx.Const(0xFF)), ctx.Const(0x40)));
  }
  symex::Solver solver;
  symex::Model hint;
  if (solver.CheckSat(path, &hint) != symex::Verdict::kSat) {
    state.SkipWithError("path unsatisfiable");
    return;
  }
  uint64_t evals = 0;
  uint64_t unknown = 0;
  for (auto _ : state) {
    symex::Model model;
    const uint64_t before = solver.stats().evals;
    auto v = solver.MayBeTrue(path, cond, &model, &hint);
    benchmark::DoNotOptimize(v);
    evals += solver.stats().evals - before;
    unknown += v == symex::Verdict::kUnknown ? 1 : 0;
  }
  state.counters["evals_per_query"] = benchmark::Counter(
      static_cast<double>(evals), benchmark::Counter::kAvgIterations);
  state.counters["unknown_ratio"] = benchmark::Counter(
      static_cast<double>(unknown), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SolverSearchMiss);

// Hash-consed construction: rebuilding an already-interned expression shape
// must cost a table probe, not an allocation chain.
void BM_ExprInternRebuild(benchmark::State& state) {
  symex::ExprContext ctx;
  symex::ExprRef v = ctx.Sym("v", 32);
  for (auto _ : state) {
    symex::ExprRef e = ctx.Eq(ctx.And(ctx.Add(v, ctx.Const(0x10)), ctx.Const(0xFF)),
                              ctx.Const(0x42));
    benchmark::DoNotOptimize(e.get());
  }
}
BENCHMARK(BM_ExprInternRebuild);

// CollectSyms over a wide expression: reads the symbol set cached on the
// node instead of walking the DAG.
void BM_CollectSymsWide(benchmark::State& state) {
  symex::ExprContext ctx;
  symex::ExprRef e = ctx.Const(0);
  for (int i = 0; i < 64; ++i) {
    e = ctx.Add(e, ctx.Sym("s", 32));
  }
  for (auto _ : state) {
    std::set<uint32_t> out;
    symex::CollectSyms(e, &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_CollectSymsWide);

// Fork cost along a deep path: the constraint spine is shared, so forking is
// O(1) in the number of accumulated constraints.
void BM_StateForkDeepPath(benchmark::State& state) {
  symex::ExprContext ctx;
  vm::MemoryMap mm(1 << 20);
  symex::ExecutionState st(0, &ctx, &mm);
  symex::ExprRef v = ctx.Sym("v", 32);
  for (int i = 0; i < state.range(0); ++i) {
    st.AddConstraint(ctx.Bin(symex::BinOp::kNe, v, ctx.Const(static_cast<uint32_t>(i))));
  }
  uint64_t id = 1;
  for (auto _ : state) {
    auto fork = st.Fork(id++);
    benchmark::DoNotOptimize(fork->constraints().size());
  }
}
BENCHMARK(BM_StateForkDeepPath)->Arg(16)->Arg(256);

// The exploration loop's pool cycle at a steady pool size: pick the state at
// the least-executed block (the paper's heuristic), count its block, and put
// it back at another pc. The pick reads every pooled state's block count.
void BM_StatePoolSelect(benchmark::State& state) {
  symex::ExprContext ctx;
  vm::MemoryMap mm(1 << 16);
  symex::StatePool pool;
  Rng rng(5);
  auto random_pc = [&rng] { return 0x400000 + 8 * rng.Below(1024); };
  for (uint32_t i = 0; i < 4096; ++i) {
    pool.NotifyExecuted(random_pc());
  }
  for (int64_t i = 0; i < state.range(0); ++i) {
    auto s = std::make_unique<symex::ExecutionState>(i, &ctx, &mm);
    s->set_pc(random_pc());
    pool.Add(std::move(s));
  }
  for (auto _ : state) {
    std::unique_ptr<symex::ExecutionState> s = pool.SelectNext();
    pool.NotifyExecuted(s->pc());
    s->set_pc(random_pc());
    pool.Add(std::move(s));
  }
}
BENCHMARK(BM_StatePoolSelect)->Arg(64)->Arg(512);

void BM_SymbolicStep(benchmark::State& state) {
  symex::ExprContext ctx;
  symex::Solver solver;
  vm::MemoryMap mm(1 << 20);
  class NullHw : public symex::HardwareBridge {
   public:
    explicit NullHw(symex::ExprContext* c) : ctx_(c) {}
    bool IsMmio(uint32_t) const override { return false; }
    bool IsDma(uint32_t) const override { return false; }
    symex::ExprRef MmioRead(symex::ExecutionState&, uint32_t, unsigned) override {
      return ctx_->Const(0);
    }
    void MmioWrite(symex::ExecutionState&, uint32_t, unsigned, const symex::ExprRef&) override {}
    symex::ExprRef PortRead(symex::ExecutionState&, uint32_t, unsigned) override {
      return ctx_->Sym("p", 32);
    }
    void PortWrite(symex::ExecutionState&, uint32_t, unsigned, const symex::ExprRef&) override {}
    symex::ExprRef DmaRead(symex::ExecutionState&, uint32_t, unsigned) override {
      return ctx_->Const(0);
    }

   private:
    symex::ExprContext* ctx_;
  } hw_bridge(&ctx);
  symex::Executor executor(&ctx, &solver, &hw_bridge);
  uint64_t ids = 1;
  executor.set_next_state_id(&ids);
  // A small arithmetic block.
  auto r = isa::Assemble(R"(
.entry f
f:
    add r1, r1, #1
    xor r2, r1, #0xFF
    shl r3, r2, #3
    jmp f
)");
  vm::RamFetcher fetcher(&mm);
  mm.WriteRamBytes(r.image.code_begin() % (1 << 20), r.image.code.data(),
                   r.image.code.size());
  symex::ExecutionState st(0, &ctx, &mm);
  st.set_pc(r.image.code_begin() % (1 << 20));
  vm::Dbt dbt(&fetcher);
  auto block = dbt.Translate(st.pc());
  for (auto _ : state) {
    st.set_pc(block->guest_pc);
    auto res = executor.Step(&st, *block, nullptr);
    benchmark::DoNotOptimize(res.kind);
  }
}
BENCHMARK(BM_SymbolicStep);

void BM_TraceSerialize(benchmark::State& state) {
  trace::TraceBundle bundle;
  for (uint32_t i = 0; i < 500; ++i) {
    ir::Block b;
    b.guest_pc = 0x400000 + i * 16;
    b.num_temps = 2;
    b.instrs.push_back({.op = ir::Op::kConst, .dst = 0, .imm = i});
    b.instrs.push_back({.op = ir::Op::kSetReg, .a = 0, .imm = 1});
    bundle.blocks.emplace(b.guest_pc, b);
    trace::BlockRecord rec;
    rec.pc = b.guest_pc;
    rec.seq = i;
    bundle.block_records.push_back(rec);
  }
  for (auto _ : state) {
    auto bytes = trace::Serialize(bundle);
    benchmark::DoNotOptimize(bytes.size());
  }
}
BENCHMARK(BM_TraceSerialize);

}  // namespace

BENCHMARK_MAIN();

// Trace serialization round-trips, scheduler heuristics, and synthesizer CFG
// reconstruction on hand-built traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "symex/scheduler.h"
#include "synth/cemit.h"
#include "synth/cfg.h"
#include "trace/serialize.h"
#include "util/rng.h"
#include "util/strings.h"

namespace revnic {
namespace {

// Recovery passes only: no cleanup, no verifier interposition.
synth::RecoveredModule Recover(const trace::TraceBundle& b, synth::SynthStats* stats = nullptr) {
  return synth::RunSynthesisPipeline(b, {}, {.cleanup = false, .verify_between = false}, stats,
                                     nullptr);
}

trace::TraceBundle TinyBundle() {
  // Two blocks: entry block calls a helper; helper returns.
  trace::TraceBundle b;
  b.code_begin = 0x400000;
  b.code_end = 0x400100;
  b.entry = 0x400000;

  ir::Block entry;
  entry.guest_pc = 0x400000;
  entry.guest_size = 16;
  entry.num_temps = 1;
  entry.instrs.push_back({.op = ir::Op::kConst, .dst = 0, .imm = 5});
  entry.instrs.push_back({.op = ir::Op::kSetReg, .a = 0, .imm = 1});
  entry.term = ir::Term::kCall;
  entry.target = 0x400040;
  entry.fallthrough = 0x400010;
  b.blocks.emplace(entry.guest_pc, entry);

  ir::Block after;
  after.guest_pc = 0x400010;
  after.guest_size = 8;
  after.num_temps = 1;
  after.instrs.push_back({.op = ir::Op::kGetReg, .dst = 0, .imm = 0});  // uses r0: ret value
  after.term = ir::Term::kRet;
  after.cond_tmp = 0;
  b.blocks.emplace(after.guest_pc, after);

  ir::Block helper;
  helper.guest_pc = 0x400040;
  helper.guest_size = 8;
  helper.num_temps = 1;
  helper.instrs.push_back({.op = ir::Op::kConst, .dst = 0, .imm = 7});
  helper.instrs.push_back({.op = ir::Op::kSetReg, .a = 0, .imm = 0});
  helper.term = ir::Term::kRet;
  helper.cond_tmp = 0;
  b.blocks.emplace(helper.guest_pc, helper);

  trace::BlockRecord r1{.state_id = 1, .seq = 1, .pc = 0x400000, .term = ir::Term::kCall,
                        .next_pc = 0x400040};
  trace::BlockRecord r2{.state_id = 1, .seq = 2, .pc = 0x400040, .term = ir::Term::kRet,
                        .next_pc = 0x400010};
  trace::BlockRecord r3{.state_id = 1, .seq = 3, .pc = 0x400010, .term = ir::Term::kRet,
                        .next_pc = 0};
  b.block_records = {r1, r2, r3};
  return b;
}

TEST(TraceSerialize, RoundTripPreservesEverything) {
  trace::TraceBundle b = TinyBundle();
  trace::MemRecord mr;
  mr.state_id = 1;
  mr.seq = 9;
  mr.pc = 0x400000;
  mr.kind = trace::MemKind::kPort;
  mr.size = 2;
  mr.is_write = true;
  mr.addr = 0xC010;
  mr.value = 0x55AA;
  b.mem_records.push_back(mr);
  trace::ApiRecord ar;
  ar.api_id = 7;
  ar.args = {1, 2, 3};
  ar.ret = 0;
  b.api_records.push_back(ar);
  trace::EventRecord ev;
  ev.kind = trace::EventKind::kIrqInject;
  ev.detail = "isr";
  b.events.push_back(ev);

  std::vector<uint8_t> bytes = trace::Serialize(b);
  trace::TraceBundle out;
  std::string err;
  ASSERT_TRUE(trace::Deserialize(bytes, &out, &err)) << err;
  EXPECT_EQ(out.blocks.size(), b.blocks.size());
  EXPECT_EQ(out.blocks.at(0x400000), b.blocks.at(0x400000));
  EXPECT_EQ(out.block_records.size(), 3u);
  EXPECT_EQ(out.block_records[0].next_pc, 0x400040u);
  ASSERT_EQ(out.mem_records.size(), 1u);
  EXPECT_EQ(out.mem_records[0].kind, trace::MemKind::kPort);
  EXPECT_EQ(out.mem_records[0].value, 0x55AAu);
  ASSERT_EQ(out.api_records.size(), 1u);
  EXPECT_EQ(out.api_records[0].args, (std::vector<uint32_t>{1, 2, 3}));
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].detail, "isr");
}

TEST(TraceSerialize, RejectsTruncation) {
  std::vector<uint8_t> bytes = trace::Serialize(TinyBundle());
  bytes.resize(bytes.size() / 2);
  trace::TraceBundle out;
  std::string err;
  EXPECT_FALSE(trace::Deserialize(bytes, &out, &err));
  EXPECT_FALSE(err.empty());
}

TEST(SynthCfg, FunctionBoundariesFromCallReturn) {
  trace::TraceBundle b = TinyBundle();
  synth::SynthStats stats;
  synth::RecoveredModule m = Recover(b, &stats);
  // Entry (0x400000) and helper (0x400040) are separate functions.
  EXPECT_EQ(m.functions.size(), 2u);
  ASSERT_NE(m.FunctionAt(0x400000), nullptr);
  ASSERT_NE(m.FunctionAt(0x400040), nullptr);
  // The entry function spans its two blocks; the helper only its own.
  EXPECT_EQ(m.FunctionAt(0x400000)->block_pcs.size(), 2u);
  EXPECT_EQ(m.FunctionAt(0x400040)->block_pcs.size(), 1u);
  // r0 def-use: the post-call block reads r0 => the helper has a return value.
  EXPECT_TRUE(m.FunctionAt(0x400040)->has_return);
  EXPECT_EQ(stats.functions, 2u);
}

TEST(SynthCfg, SplitsTranslationBlocksAtObservedTargets) {
  // One 3-instruction translation block; a jump targets its middle.
  trace::TraceBundle b;
  b.code_begin = 0x400000;
  b.code_end = 0x400100;
  b.entry = 0x400000;
  ir::Block tb;
  tb.guest_pc = 0x400000;
  tb.guest_size = 24;  // 3 guest instrs
  tb.num_temps = 3;
  tb.instrs.push_back({.op = ir::Op::kConst, .guest_idx = 0, .dst = 0, .imm = 1});
  tb.instrs.push_back({.op = ir::Op::kConst, .guest_idx = 1, .dst = 1, .imm = 2});
  tb.instrs.push_back({.op = ir::Op::kConst, .guest_idx = 2, .dst = 2, .imm = 3});
  tb.term = ir::Term::kRet;
  tb.cond_tmp = 2;
  b.blocks.emplace(tb.guest_pc, tb);
  // A second block jumps into the middle of tb (0x400008).
  ir::Block jumper;
  jumper.guest_pc = 0x400080;
  jumper.guest_size = 8;
  jumper.num_temps = 0;
  jumper.term = ir::Term::kJump;
  jumper.target = 0x400008;
  b.blocks.emplace(jumper.guest_pc, jumper);

  synth::RecoveredModule m = Recover(b);
  // tb must be split at 0x400008.
  ASSERT_TRUE(m.blocks.count(0x400000));
  ASSERT_TRUE(m.blocks.count(0x400008));
  const ir::Block& head = m.blocks.at(0x400000);
  EXPECT_EQ(head.term, ir::Term::kFallthrough);
  EXPECT_EQ(head.target, 0x400008u);
  EXPECT_EQ(head.instrs.size(), 1u);
  const ir::Block& tail = m.blocks.at(0x400008);
  EXPECT_EQ(tail.term, ir::Term::kRet);
  EXPECT_EQ(tail.instrs.size(), 2u);
}

TEST(SynthCfg, FlagsUnexploredBranchTargets) {
  trace::TraceBundle b;
  b.code_begin = 0x400000;
  b.code_end = 0x400100;
  b.entry = 0x400000;
  ir::Block blk;
  blk.guest_pc = 0x400000;
  blk.guest_size = 8;
  blk.num_temps = 1;
  blk.instrs.push_back({.op = ir::Op::kConst, .dst = 0, .imm = 0});
  blk.term = ir::Term::kBranch;
  blk.cond_tmp = 0;
  blk.target = 0x400050;       // never traced
  blk.fallthrough = 0x400008;  // never traced either
  b.blocks.emplace(blk.guest_pc, blk);
  synth::SynthStats stats;
  synth::RecoveredModule m = Recover(b, &stats);
  ASSERT_NE(m.FunctionAt(0x400000), nullptr);
  EXPECT_EQ(m.FunctionAt(0x400000)->unexplored_targets.size(), 2u);
  EXPECT_EQ(stats.coverage_holes, 2u);
}

TEST(SynthCEmit, EmitsCompilableLookingC) {
  trace::TraceBundle b = TinyBundle();
  synth::RecoveredModule m = Recover(b);
  std::string c = synth::EmitC(m);
  EXPECT_NE(c.find("void function_400000"), std::string::npos) << c;
  EXPECT_NE(c.find("function_400040(cpu);"), std::string::npos);  // preserved call
  EXPECT_NE(c.find("goto L_400010;"), std::string::npos);
  EXPECT_NE(c.find("return;"), std::string::npos);
  EXPECT_NE(synth::RuntimeHeader().find("revnic_os_call"), std::string::npos);
}

TEST(Scheduler, MinBlockCountPrefersUnexecuted) {
  symex::StatePool pool;
  symex::ExprContext ctx;
  vm::MemoryMap mm(1 << 16);
  auto s1 = std::make_unique<symex::ExecutionState>(1, &ctx, &mm);
  s1->set_pc(0x100);
  auto s2 = std::make_unique<symex::ExecutionState>(2, &ctx, &mm);
  s2->set_pc(0x200);
  pool.Add(std::move(s1));
  pool.Add(std::move(s2));
  pool.NotifyExecuted(0x100);
  pool.NotifyExecuted(0x100);
  pool.NotifyExecuted(0x200);
  // 0x200 has the lower count... pick the state at the *least* executed pc.
  auto next = pool.SelectNext();
  EXPECT_EQ(next->pc(), 0x200u);
}

TEST(Scheduler, DfsAndBfsOrder) {
  symex::ExprContext ctx;
  vm::MemoryMap mm(1 << 16);
  symex::StatePool::Options dfs_opts;
  dfs_opts.strategy = symex::SelectionStrategy::kDfs;
  symex::StatePool dfs(dfs_opts);
  for (int i = 0; i < 3; ++i) {
    auto s = std::make_unique<symex::ExecutionState>(i, &ctx, &mm);
    s->set_pc(0x100 * (i + 1));
    dfs.Add(std::move(s));
  }
  EXPECT_EQ(dfs.SelectNext()->pc(), 0x300u);  // LIFO
  symex::StatePool::Options bfs_opts;
  bfs_opts.strategy = symex::SelectionStrategy::kBfs;
  symex::StatePool bfs(bfs_opts);
  for (int i = 0; i < 3; ++i) {
    auto s = std::make_unique<symex::ExecutionState>(i, &ctx, &mm);
    s->set_pc(0x100 * (i + 1));
    bfs.Add(std::move(s));
  }
  EXPECT_EQ(bfs.SelectNext()->pc(), 0x100u);  // FIFO
}

TEST(Scheduler, CollapseToOneRandom) {
  symex::ExprContext ctx;
  vm::MemoryMap mm(1 << 16);
  symex::StatePool pool;
  for (int i = 0; i < 5; ++i) {
    pool.Add(std::make_unique<symex::ExecutionState>(i, &ctx, &mm));
  }
  EXPECT_EQ(pool.CollapseToOneRandom(), 4u);
  EXPECT_EQ(pool.NumRunnable(), 1u);
}

TEST(Scheduler, MaxStatesCulls) {
  symex::ExprContext ctx;
  vm::MemoryMap mm(1 << 16);
  symex::StatePool pool;
  const size_t extra = 10;
  for (size_t i = 0; i < symex::kMaxStates + extra; ++i) {
    pool.Add(std::make_unique<symex::ExecutionState>(i, &ctx, &mm));
  }
  EXPECT_EQ(pool.NumRunnable(), symex::kMaxStates);
  EXPECT_EQ(pool.total_culled(), extra);
}

// ---- StatePool against a naive reference pool ----
//
// The pool keeps a dense per-pc count slot on every pooled state instead of
// looking each state's count up on every pick. This reference is the pool
// as it was before: one std::map of counts, looked up per state per pick.
// Seeded operation sequences must pick, cull and report identically under
// every strategy, across the kMaxStates cull and across RestoreBookkeeping.
class ReferencePool {
 public:
  ReferencePool(symex::SelectionStrategy strategy, uint64_t seed)
      : strategy_(strategy), rng_(seed) {}

  void Add(std::unique_ptr<symex::ExecutionState> state) {
    if (states_.size() >= symex::kMaxStates) {
      size_t worst = 0;
      uint64_t worst_count = 0;
      for (size_t i = 0; i < states_.size(); ++i) {
        uint64_t c = Count(states_[i]->pc());
        if (c >= worst_count) {
          worst_count = c;
          worst = i;
        }
      }
      states_.erase(states_.begin() + static_cast<long>(worst));
      ++culled_;
    }
    states_.push_back(std::move(state));
  }

  std::unique_ptr<symex::ExecutionState> SelectNext() {
    if (states_.empty()) {
      return nullptr;
    }
    size_t pick = 0;
    switch (strategy_) {
      case symex::SelectionStrategy::kMinBlockCount: {
        uint64_t best = ~0ull;
        for (size_t i = 0; i < states_.size(); ++i) {
          uint64_t c = Count(states_[i]->pc());
          if (c < best) {
            best = c;
            pick = i;
          }
        }
        break;
      }
      case symex::SelectionStrategy::kDfs:
        pick = states_.size() - 1;
        break;
      case symex::SelectionStrategy::kBfs:
        pick = 0;
        break;
      case symex::SelectionStrategy::kRandom:
        pick = rng_.Below(static_cast<uint32_t>(states_.size()));
        break;
    }
    std::unique_ptr<symex::ExecutionState> out = std::move(states_[pick]);
    states_.erase(states_.begin() + static_cast<long>(pick));
    return out;
  }

  void NotifyExecuted(uint32_t pc) { ++counts_[pc]; }

  size_t CollapseToOneRandom() {
    if (states_.size() <= 1) {
      return 0;
    }
    size_t keep = rng_.Below(static_cast<uint32_t>(states_.size()));
    std::unique_ptr<symex::ExecutionState> survivor = std::move(states_[keep]);
    size_t killed = states_.size() - 1;
    culled_ += killed;
    states_.clear();
    states_.push_back(std::move(survivor));
    return killed;
  }

  size_t KillStatesAt(uint32_t pc) {
    size_t before = states_.size();
    std::erase_if(states_, [pc](const auto& s) { return s->pc() == pc; });
    culled_ += before - states_.size();
    return before - states_.size();
  }

  std::vector<uint64_t> TakeAllIds() {
    std::vector<uint64_t> ids;
    for (const auto& s : states_) {
      ids.push_back(s->id());
    }
    std::sort(ids.begin(), ids.end());
    states_.clear();
    return ids;
  }

  void RestoreBookkeeping(std::map<uint32_t, uint64_t> counts, uint64_t rng_state,
                          uint64_t culled) {
    counts_ = std::move(counts);
    rng_.set_state(rng_state);
    culled_ = culled;
  }

  const std::map<uint32_t, uint64_t>& counts() const { return counts_; }
  uint64_t rng_state() const { return rng_.state(); }
  uint64_t culled() const { return culled_; }
  size_t size() const { return states_.size(); }

 private:
  uint64_t Count(uint32_t pc) const {
    auto it = counts_.find(pc);
    return it == counts_.end() ? 0 : it->second;
  }

  symex::SelectionStrategy strategy_;
  Rng rng_;
  std::vector<std::unique_ptr<symex::ExecutionState>> states_;
  std::map<uint32_t, uint64_t> counts_;
  uint64_t culled_ = 0;
};

class StatePoolDifferential
    : public ::testing::TestWithParam<std::tuple<symex::SelectionStrategy, uint64_t>> {};

TEST_P(StatePoolDifferential, PicksMatchTheReferencePool) {
  const auto [strategy, seed] = GetParam();
  symex::ExprContext ctx;
  vm::MemoryMap mm(1 << 16);
  Rng rng(seed * 0x2545F491u + 3);
  symex::StatePool pool({.strategy = strategy}, seed);
  ReferencePool ref(strategy, seed);
  uint64_t next_id = 0;
  auto random_pc = [&rng] { return 0x400000 + 4 * rng.Below(24); };  // few pcs: many ties
  auto add = [&](uint32_t pc) {
    auto a = std::make_unique<symex::ExecutionState>(next_id, &ctx, &mm);
    auto b = std::make_unique<symex::ExecutionState>(next_id, &ctx, &mm);
    ++next_id;
    a->set_pc(pc);
    b->set_pc(pc);
    pool.Add(std::move(a));
    ref.Add(std::move(b));
  };
  std::vector<uint64_t> picks;
  size_t restores = 0;
  size_t peak = 0;
  for (int op = 0; op < 6000; ++op) {
    const std::string where = StrFormat("op %d", op);
    // Growth phases only add and pick, pushing the pool past kMaxStates so
    // the cull runs.
    const bool growing = (op / 1000) % 2 == 0;
    const uint32_t r = growing ? rng.Below(80) : rng.Below(100);
    if (r < (growing ? 60u : 25u)) {
      add(random_pc());
    } else if (r < 80) {
      std::unique_ptr<symex::ExecutionState> got = pool.SelectNext();
      std::unique_ptr<symex::ExecutionState> want = ref.SelectNext();
      ASSERT_EQ(got == nullptr, want == nullptr) << where;
      if (got == nullptr) {
        continue;
      }
      ASSERT_EQ(got->id(), want->id()) << where;
      picks.push_back(got->id());
      // The picked state runs its block, then goes back with a new pc.
      pool.NotifyExecuted(got->pc());
      ref.NotifyExecuted(want->pc());
      if (rng.Below(5) != 0) {
        uint32_t pc = random_pc();
        got->set_pc(pc);
        want->set_pc(pc);
        pool.Add(std::move(got));
        ref.Add(std::move(want));
      }
    } else if (r < 90) {
      uint32_t pc = random_pc();
      pool.NotifyExecuted(pc);
      ref.NotifyExecuted(pc);
    } else if (r < 94) {
      uint32_t pc = random_pc();
      ASSERT_EQ(pool.KillStatesAt(pc), ref.KillStatesAt(pc)) << where;
    } else if (r < 95) {
      ASSERT_EQ(pool.CollapseToOneRandom(), ref.CollapseToOneRandom()) << where;
    } else if (r < 96) {
      std::vector<std::unique_ptr<symex::ExecutionState>> taken = pool.TakeAllSortedById();
      std::vector<uint64_t> ids;
      for (const auto& s : taken) {
        ids.push_back(s->id());
      }
      ASSERT_EQ(ids, ref.TakeAllIds()) << where;
      // A sub-shard replica re-adds one root.
      if (!taken.empty()) {
        size_t k = rng.Below(static_cast<uint32_t>(taken.size()));
        uint32_t pc = taken[k]->pc();
        auto twin = std::make_unique<symex::ExecutionState>(taken[k]->id(), &ctx, &mm);
        twin->set_pc(pc);
        pool.Add(std::move(taken[k]));
        ref.Add(std::move(twin));
      }
    } else {
      // Restore bookkeeping mid-run, with states still pooled: the counts of
      // a snapshot (a listed zero count included) replace the live ones.
      std::map<uint32_t, uint64_t> counts = ref.counts();
      counts[random_pc()] = rng.Below(3);
      counts.erase(random_pc());
      uint64_t rng_state = rng.Next32() | 1;
      pool.RestoreBookkeeping(counts, rng_state, op);
      ref.RestoreBookkeeping(counts, rng_state, op);
      ++restores;
    }
    ASSERT_EQ(pool.NumRunnable(), ref.size()) << where;
    ASSERT_EQ(pool.total_culled(), ref.culled()) << where;
    ASSERT_EQ(pool.rng_state(), ref.rng_state()) << where;
    ASSERT_EQ(pool.block_counts(), ref.counts()) << where;
    peak = std::max(peak, pool.NumRunnable());
  }
  EXPECT_GT(picks.size(), 1000u);
  EXPECT_GT(restores, 50u);
  EXPECT_EQ(peak, symex::kMaxStates);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, StatePoolDifferential,
    ::testing::Combine(::testing::Values(symex::SelectionStrategy::kMinBlockCount,
                                         symex::SelectionStrategy::kDfs,
                                         symex::SelectionStrategy::kBfs,
                                         symex::SelectionStrategy::kRandom),
                       ::testing::Values(1u, 2u)));

}  // namespace
}  // namespace revnic

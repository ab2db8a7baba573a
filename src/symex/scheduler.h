// State pool + path-selection heuristics (§3.2).
//
// The pool owns all live execution states and implements the paper's primary
// strategy: every basic block has a global execution counter; the next state
// to run is the one whose current block has the lowest count. This avoids
// getting stuck in loops (re-executed blocks sink in priority) and
// outperforms DFS (stuck in polling loops) and BFS (slow to finish an entry
// point) -- the ablation bench reproduces that comparison.
#ifndef REVNIC_SYMEX_SCHEDULER_H_
#define REVNIC_SYMEX_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "symex/state.h"
#include "util/rng.h"

namespace revnic::symex {

enum class SelectionStrategy {
  kMinBlockCount = 0,  // the paper's heuristic
  kDfs,                // baseline for the ablation
  kBfs,                // baseline for the ablation
  kRandom,             // baseline for the ablation
};

// Hard cap on runnable states; past it the most-executed state is culled.
inline constexpr size_t kMaxStates = 512;

class StatePool {
 public:
  struct Options {
    SelectionStrategy strategy = SelectionStrategy::kMinBlockCount;
  };

  StatePool() : StatePool(Options(), 7) {}
  explicit StatePool(Options options, uint64_t seed = 7) : options_(options), rng_(seed) {}

  void Add(std::unique_ptr<ExecutionState> state);

  // Removes and returns the next state to execute (per strategy); nullptr if
  // no runnable state remains.
  std::unique_ptr<ExecutionState> SelectNext();

  // Global execution count bookkeeping: call after each executed block.
  void NotifyExecuted(uint32_t block_pc) {
    PcCount& c = counts_[SlotOf(block_pc)];
    ++c.count;
    c.seen = true;
  }

  size_t NumRunnable() const { return states_.size(); }
  bool Empty() const { return states_.empty(); }
  void Clear() { states_.clear(); }

  // Drops every runnable state except one chosen at random, returning the
  // number killed (the §3.2 entry-point completion heuristic applies this
  // after enough successful completions).
  size_t CollapseToOneRandom();

  // Removes states whose current pc equals `pc` (polling-loop cull support).
  size_t KillStatesAt(uint32_t pc);

  // Drains the pool, returning every runnable state ordered by ascending
  // state id. State ids are minted deterministically (the engine's
  // next_state_id counter rides in RSS1 snapshots), so this is a canonical,
  // insertion-order-independent enumeration -- the sub-shard fan-out uses it
  // to derive an identical root list in every replica regardless of shard
  // count (src/symex/README.md, "Sub-shard fan-out").
  std::vector<std::unique_ptr<ExecutionState>> TakeAllSortedById();

  uint64_t total_culled() const { return total_culled_; }

  // ---- snapshot support (symex/snapshot.*) ----
  // The global block execution counters persist across script steps (the
  // paper's primary selection heuristic reads them), so a restored chain
  // state must carry them or step-k selection order diverges from the
  // uninterrupted run. block_counts() lists every executed (or restored)
  // block, sorted by pc; the pc -> slot index is derived and rebuilt here.
  std::map<uint32_t, uint64_t> block_counts() const;
  uint64_t rng_state() const { return rng_.state(); }
  void RestoreBookkeeping(const std::map<uint32_t, uint64_t>& block_counts, uint64_t rng_state,
                          uint64_t total_culled);

 private:
  struct PcCount {
    uint64_t count = 0;
    bool seen = false;  // executed or restored: listed by block_counts()
  };
  // A runnable state and the counts_ slot of its (fixed while pooled) pc, so
  // a pick reads each state's count without a lookup.
  struct Pooled {
    std::unique_ptr<ExecutionState> state;
    uint32_t slot;
  };

  // The counts_ slot of `pc`, appended (unseen, count 0) on first use.
  uint32_t SlotOf(uint32_t pc);

  Options options_;
  Rng rng_;
  std::vector<Pooled> states_;  // pool order
  std::unordered_map<uint32_t, uint32_t> slot_of_;  // pc -> counts_ index
  std::vector<PcCount> counts_;
  uint64_t total_culled_ = 0;
};

}  // namespace revnic::symex

#endif  // REVNIC_SYMEX_SCHEDULER_H_

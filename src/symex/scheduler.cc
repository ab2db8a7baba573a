#include "symex/scheduler.h"

#include <algorithm>

namespace revnic::symex {

uint32_t StatePool::SlotOf(uint32_t pc) {
  auto [it, fresh] = slot_of_.emplace(pc, static_cast<uint32_t>(counts_.size()));
  if (fresh) {
    counts_.emplace_back();
  }
  return it->second;
}

void StatePool::Add(std::unique_ptr<ExecutionState> state) {
  if (states_.size() >= kMaxStates) {
    // Cull the state whose current block is most-executed (least likely to
    // discover new code), keeping the pool bounded (§3.4 memory pressure).
    size_t worst = 0;
    uint64_t worst_count = 0;
    for (size_t i = 0; i < states_.size(); ++i) {
      uint64_t c = counts_[states_[i].slot].count;
      if (c >= worst_count) {
        worst_count = c;
        worst = i;
      }
    }
    states_.erase(states_.begin() + static_cast<long>(worst));
    ++total_culled_;
  }
  uint32_t slot = SlotOf(state->pc());
  states_.push_back({std::move(state), slot});
}

std::unique_ptr<ExecutionState> StatePool::SelectNext() {
  if (states_.empty()) {
    return nullptr;
  }
  size_t pick = 0;
  switch (options_.strategy) {
    case SelectionStrategy::kMinBlockCount: {
      uint64_t best = ~0ull;
      for (size_t i = 0; i < states_.size(); ++i) {
        uint64_t c = counts_[states_[i].slot].count;
        if (c < best) {
          best = c;
          pick = i;
        }
      }
      break;
    }
    case SelectionStrategy::kDfs:
      pick = states_.size() - 1;
      break;
    case SelectionStrategy::kBfs:
      pick = 0;
      break;
    case SelectionStrategy::kRandom:
      pick = rng_.Below(static_cast<uint32_t>(states_.size()));
      break;
  }
  std::unique_ptr<ExecutionState> out = std::move(states_[pick].state);
  states_.erase(states_.begin() + static_cast<long>(pick));
  return out;
}

size_t StatePool::CollapseToOneRandom() {
  if (states_.size() <= 1) {
    return 0;
  }
  size_t keep = rng_.Below(static_cast<uint32_t>(states_.size()));
  Pooled survivor = std::move(states_[keep]);
  size_t killed = states_.size() - 1;
  total_culled_ += killed;
  states_.clear();
  states_.push_back(std::move(survivor));
  return killed;
}

std::vector<std::unique_ptr<ExecutionState>> StatePool::TakeAllSortedById() {
  std::vector<std::unique_ptr<ExecutionState>> out;
  out.reserve(states_.size());
  for (Pooled& p : states_) {
    out.push_back(std::move(p.state));
  }
  states_.clear();
  std::sort(out.begin(), out.end(),
            [](const std::unique_ptr<ExecutionState>& a,
               const std::unique_ptr<ExecutionState>& b) { return a->id() < b->id(); });
  return out;
}

size_t StatePool::KillStatesAt(uint32_t pc) {
  size_t before = states_.size();
  std::erase_if(states_, [pc](const Pooled& p) { return p.state->pc() == pc; });
  size_t killed = before - states_.size();
  total_culled_ += killed;
  return killed;
}

std::map<uint32_t, uint64_t> StatePool::block_counts() const {
  std::map<uint32_t, uint64_t> out;
  for (const auto& [pc, slot] : slot_of_) {
    if (counts_[slot].seen) {
      out.emplace(pc, counts_[slot].count);
    }
  }
  return out;
}

void StatePool::RestoreBookkeeping(const std::map<uint32_t, uint64_t>& block_counts,
                                   uint64_t rng_state, uint64_t total_culled) {
  slot_of_.clear();
  counts_.clear();
  for (const auto& [pc, count] : block_counts) {
    counts_[SlotOf(pc)] = {count, true};
  }
  for (Pooled& p : states_) {
    p.slot = SlotOf(p.state->pc());
  }
  rng_.set_state(rng_state);
  total_culled_ = total_culled;
}

}  // namespace revnic::symex

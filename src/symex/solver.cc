#include "symex/solver.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "util/bits.h"
#include "util/log.h"
#include "util/strings.h"

namespace revnic::symex {
namespace {

// Unsigned interval [lo, hi] (inclusive) with forced-bit information:
// any satisfying value v obeys (v & bit_mask) == bit_value.
struct VarDomain {
  uint32_t lo = 0;
  uint32_t hi = 0xFFFFFFFFu;
  uint32_t bit_mask = 0;
  uint32_t bit_value = 0;
  bool contradictory = false;

  void IntersectRange(uint32_t new_lo, uint32_t new_hi) {
    lo = std::max(lo, new_lo);
    hi = std::min(hi, new_hi);
    if (lo > hi) {
      contradictory = true;
    }
  }

  void ForceBits(uint32_t mask, uint32_t value) {
    uint32_t overlap = bit_mask & mask;
    if ((bit_value & overlap) != (value & overlap)) {
      contradictory = true;
      return;
    }
    bit_mask |= mask;
    bit_value |= value & mask;
  }

  bool Admits(uint32_t v) const {
    return !contradictory && v >= lo && v <= hi && (v & bit_mask) == (bit_value & bit_mask);
  }

  // A representative value honoring the forced bits and, best-effort, the
  // range. Forced bits take priority (range violations are caught by the
  // final concrete check).
  uint32_t Representative() const {
    uint32_t v = (lo & ~bit_mask) | (bit_value & bit_mask);
    if (v < lo) {
      v = (lo | bit_value) & ~(bit_mask & ~bit_value);
      v |= bit_value;
    }
    return v;
  }
};

// Structural pattern: is `e` exactly a bare symbol?
bool IsBareSym(const ExprRef& e, uint32_t* sym_id) {
  if (e->kind == ExprKind::kSym) {
    *sym_id = e->sym_id;
    return true;
  }
  // Look through width adjustments: zext/sext of a bare symbol.
  if ((e->kind == ExprKind::kZExt || e->kind == ExprKind::kSExt) && e->a &&
      e->a->kind == ExprKind::kSym) {
    *sym_id = e->a->sym_id;
    return true;
  }
  return false;
}

// Structural pattern: (sym & mask).
bool IsMaskedSym(const ExprRef& e, uint32_t* sym_id, uint32_t* mask) {
  if (e->kind == ExprKind::kBin && e->bin_op == BinOp::kAnd && e->b && e->b->IsConst() &&
      IsBareSym(e->a, sym_id)) {
    *mask = e->b->value;
    return true;
  }
  return false;
}

// Propagates one constraint into per-variable domains. Handles the patterns
// driver code generates; anything unrecognized is skipped (search handles it).
void Propagate(const ExprRef& c, bool polarity, std::map<uint32_t, VarDomain>* domains) {
  if (c->kind != ExprKind::kBin) {
    // Bare symbolic boolean: (v != 0) when polarity.
    uint32_t sym;
    if (IsBareSym(c, &sym)) {
      if (!polarity) {
        (*domains)[sym].IntersectRange(0, 0);
      } else {
        // v != 0: cannot be expressed as one interval; force nothing.
      }
    }
    return;
  }
  const ExprRef& lhs = c->a;
  const ExprRef& rhs = c->b;
  if (!rhs) {
    return;
  }
  // Mirrored forms with the constant on the left: Ult(k, v) => v >= k+1,
  // Ule(k, v) => v >= k (the shapes ExprContext::Not produces).
  if (lhs && lhs->IsConst() && !rhs->IsConst() && polarity) {
    uint32_t k = lhs->value;
    uint32_t sym;
    if (IsBareSym(rhs, &sym)) {
      switch (c->bin_op) {
        case BinOp::kUlt:
          if (k == 0xFFFFFFFFu) {
            (*domains)[sym].contradictory = true;
          } else {
            (*domains)[sym].IntersectRange(k + 1, 0xFFFFFFFFu);
          }
          return;
        case BinOp::kUle:
          (*domains)[sym].IntersectRange(k, 0xFFFFFFFFu);
          return;
        default:
          break;
      }
    }
    return;
  }
  if (!rhs->IsConst()) {
    return;
  }
  uint32_t k = rhs->value;
  uint32_t sym, mask;
  BinOp op = c->bin_op;
  // Normalize negations: !(a < b) etc. already normalized by ExprContext::Not,
  // but MayBeTrue can still pass polarity=false for cached purposes.
  if (!polarity) {
    switch (op) {
      case BinOp::kEq:
        op = BinOp::kNe;
        break;
      case BinOp::kNe:
        op = BinOp::kEq;
        break;
      case BinOp::kUlt:
        op = BinOp::kUle;  // !(a<k) => a>=k, encoded below via swapped logic
        // a >= k  <=>  !(a <= k-1); handle directly:
        if (IsBareSym(lhs, &sym)) {
          (*domains)[sym].IntersectRange(k, 0xFFFFFFFFu);
        }
        return;
      case BinOp::kUle:
        if (IsBareSym(lhs, &sym) && k != 0xFFFFFFFFu) {
          (*domains)[sym].IntersectRange(k + 1, 0xFFFFFFFFu);
        }
        return;
      default:
        return;
    }
  }
  switch (op) {
    case BinOp::kEq:
      if (IsBareSym(lhs, &sym)) {
        (*domains)[sym].IntersectRange(k, k);
      } else if (IsMaskedSym(lhs, &sym, &mask)) {
        if ((k & ~mask) != 0) {
          (*domains)[sym].contradictory = true;
        } else {
          (*domains)[sym].ForceBits(mask, k);
        }
      } else if (lhs->kind == ExprKind::kBin && lhs->bin_op == BinOp::kAdd && lhs->b &&
                 lhs->b->IsConst() && IsBareSym(lhs->a, &sym)) {
        (*domains)[sym].IntersectRange(k - lhs->b->value, k - lhs->b->value);
      }
      break;
    case BinOp::kNe:
      // Single excluded point: shrink only if it collapses an endpoint.
      if (IsBareSym(lhs, &sym)) {
        VarDomain& d = (*domains)[sym];
        if (d.lo == k && d.lo != 0xFFFFFFFFu) {
          d.IntersectRange(d.lo + 1, d.hi);
        } else if (d.hi == k && d.hi != 0) {
          d.IntersectRange(d.lo, d.hi - 1);
        }
      }
      break;
    case BinOp::kUlt:
      if (IsBareSym(lhs, &sym)) {
        if (k == 0) {
          (*domains)[sym].contradictory = true;
        } else {
          (*domains)[sym].IntersectRange(0, k - 1);
        }
      }
      break;
    case BinOp::kUle:
      if (IsBareSym(lhs, &sym)) {
        (*domains)[sym].IntersectRange(0, k);
      }
      break;
    case BinOp::kSlt:
    case BinOp::kSle:
      // Signed ranges over u32 wrap; leave to search.
      break;
    default:
      break;
  }
}

bool EvalAll(const std::vector<ExprRef>& constraints, const Model& model) {
  for (const ExprRef& c : constraints) {
    if (Eval(c, model) == 0) {
      return false;
    }
  }
  return true;
}

// Canonical component order: interned-node hash, ties broken by address
// (stable within a process since equal nodes share one interned object).
void CanonicalSort(std::vector<ExprRef>* group) {
  std::sort(group->begin(), group->end(), [](const ExprRef& x, const ExprRef& y) {
    return x->hash != y->hash ? x->hash < y->hash : x.get() < y.get();
  });
}

uint64_t Fingerprint(const std::vector<ExprRef>& group) {
  uint64_t fp = 0xCBF29CE484222325ull;
  for (const ExprRef& c : group) {
    fp = Fnv1a(&c->hash, sizeof(c->hash), fp);
  }
  return fp;
}

bool SameConstraints(const std::vector<ExprRef>& a, const std::vector<ExprRef>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!Expr::Equal(a[i], b[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

Verdict Solver::CheckSat(ConstraintView constraints, Model* model, const Model* hint) {
  ++stats_.queries;
  if (model != nullptr) {
    model->clear();
  }

  // Fast scan: constant constraints decide themselves; symbol-free symbolic
  // leftovers (which the simplifier normally folds away) evaluate directly.
  std::vector<ExprRef> work;
  work.reserve(constraints.size());
  for (const ExprRef& c : constraints) {
    if (c->IsConst() || c->syms->empty()) {
      if (Eval(c, Model()) == 0) {
        ++stats_.unsat;
        return Verdict::kUnsat;
      }
      continue;
    }
    work.push_back(c);
  }
  if (work.empty()) {
    ++stats_.sat;
    return Verdict::kSat;
  }

  // Partition into independent components: union-find keyed by shared
  // symbols (each node carries its symbol set, so no DAG walks here). The
  // conjunction is sat iff every component is, and component models merge
  // without interference -- so each component can be solved and cached on
  // its own.
  std::vector<std::vector<ExprRef>> groups;
  if (!options_.enable_independence) {
    groups.push_back(std::move(work));
  } else {
    std::vector<size_t> parent(work.size());
    std::iota(parent.begin(), parent.end(), 0);
    auto find = [&parent](size_t x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    std::map<uint32_t, size_t> sym_owner;  // sym id -> representative constraint
    for (size_t i = 0; i < work.size(); ++i) {
      for (uint32_t sym : *work[i]->syms) {
        auto [it, fresh] = sym_owner.emplace(sym, i);
        if (!fresh) {
          parent[find(i)] = find(it->second);
        }
      }
    }
    std::map<size_t, size_t> root_to_group;
    for (size_t i = 0; i < work.size(); ++i) {
      auto [it, fresh] = root_to_group.emplace(find(i), groups.size());
      if (fresh) {
        groups.emplace_back();
      }
      groups[it->second].push_back(work[i]);
    }
  }

  bool any_unknown = false;
  const bool single = groups.size() == 1;
  Model merged;
  for (auto& group : groups) {
    ++stats_.components;
    Model group_model;
    Verdict v = SolveGroupCached(std::move(group), model != nullptr ? &group_model : nullptr,
                                 hint);
    if (v == Verdict::kUnsat) {
      ++stats_.unsat;
      return Verdict::kUnsat;
    }
    if (v == Verdict::kUnknown) {
      any_unknown = true;
    } else if (model != nullptr) {
      if (single) {
        merged = std::move(group_model);
      } else {
        merged.insert(group_model.begin(), group_model.end());
      }
    }
  }
  if (any_unknown) {
    ++stats_.unknown;
    return Verdict::kUnknown;
  }
  ++stats_.sat;
  if (model != nullptr) {
    *model = std::move(merged);
  }
  return Verdict::kSat;
}

Verdict Solver::SolveGroupCached(std::vector<ExprRef> group, Model* model, const Model* hint) {
  CanonicalSort(&group);
  uint64_t fp = 0;
  if (options_.enable_query_cache) {
    fp = Fingerprint(group);
    auto it = cache_.find(fp);
    if (it != cache_.end() && SameConstraints(it->second.constraints, group)) {
      if (it->second.verdict != Verdict::kUnknown) {
        ++stats_.cache_hits;
        if (it->second.verdict == Verdict::kSat && model != nullptr) {
          *model = it->second.model;
        }
        return it->second.verdict;
      }
      // kUnknown is only "search gave up", not "infeasible". A later caller
      // carrying a hint (its path's model) gets a fresh chance: one cheap
      // evaluation of the hint, then a full hint-seeded solve -- exactly
      // what a cache-free solver would have done. Definite outcomes upgrade
      // the cached entry so the whole run benefits; only hintless repeats
      // are answered from the cache.
      if (hint != nullptr) {
        Model trial;
        for (const ExprRef& c : group) {
          for (uint32_t sym : *c->syms) {
            auto hv = hint->find(sym);
            trial[sym] = hv == hint->end() ? 0 : hv->second;
          }
        }
        ++stats_.evals;
        if (EvalAll(group, trial)) {
          ++stats_.cache_hits;
          it->second.verdict = Verdict::kSat;
          it->second.model = trial;
          ShelveModel(trial);
          if (model != nullptr) {
            *model = std::move(trial);
          }
          return Verdict::kSat;
        }
        ++stats_.cache_misses;
        Model found;
        Verdict v = SolveGroup(group, &found, hint);
        if (v != Verdict::kUnknown) {
          it->second.verdict = v;
          if (v == Verdict::kSat) {
            ShelveModel(found);
            it->second.model = found;
            if (model != nullptr) {
              *model = std::move(found);
            }
          }
        }
        return v;
      }
      ++stats_.cache_hits;
      return Verdict::kUnknown;
    }
  }
  ++stats_.cache_misses;
  Model found;
  Verdict v = SolveGroup(group, &found, hint);
  if (v == Verdict::kSat) {
    ShelveModel(found);
  }
  if (options_.enable_query_cache) {
    if (cache_.size() >= options_.max_cache_entries) {
      cache_.clear();  // wholesale reset; refills from the live working set
    }
    CacheEntry entry;
    entry.constraints = std::move(group);
    entry.verdict = v;
    if (v == Verdict::kSat) {
      entry.model = found;
    }
    cache_[fp] = std::move(entry);
  }
  if (v == Verdict::kSat && model != nullptr) {
    *model = std::move(found);
  }
  return v;
}

void Solver::ShelveModel(const Model& model) {
  if (options_.model_shelf_entries == 0 || model.empty()) {
    return;
  }
  shelf_.push_front(model);
  if (shelf_.size() > options_.model_shelf_entries) {
    shelf_.pop_back();
  }
}

Verdict Solver::SolveGroup(const std::vector<ExprRef>& constraints, Model* model,
                           const Model* hint) {
  std::set<uint32_t> var_set;
  for (const ExprRef& c : constraints) {
    CollectSyms(c, &var_set);
  }

  // Structural contradiction: constraints containing both a comparison and
  // its exact negation (same operands) are unsat -- the common case of a
  // loop-exit condition asserted both ways along one path.
  {
    std::map<uint64_t, uint32_t> seen;  // operand-pair hash -> op bitmask
    for (const ExprRef& c : constraints) {
      if (c->IsConst() || c->kind != ExprKind::kBin || !IsComparison(c->bin_op)) {
        continue;
      }
      uint64_t key = HashCombine(c->a->hash, c->b->hash);
      uint64_t swapped = HashCombine(c->b->hash, c->a->hash);
      uint32_t& mask = seen[key];
      auto bit = [](BinOp op) { return 1u << static_cast<unsigned>(op); };
      // Complement pairs: Eq/Ne on the same key; Ult(a,b) vs Ule(b,a);
      // Slt(a,b) vs Sle(b,a).
      bool clash = false;
      switch (c->bin_op) {
        case BinOp::kEq:
          clash = (mask & bit(BinOp::kNe)) != 0;
          break;
        case BinOp::kNe:
          clash = (mask & bit(BinOp::kEq)) != 0;
          break;
        case BinOp::kUlt:
          clash = (seen.count(swapped) != 0 && (seen[swapped] & bit(BinOp::kUle)) != 0);
          break;
        case BinOp::kUle:
          clash = (seen.count(swapped) != 0 && (seen[swapped] & bit(BinOp::kUlt)) != 0);
          break;
        case BinOp::kSlt:
          clash = (seen.count(swapped) != 0 && (seen[swapped] & bit(BinOp::kSle)) != 0);
          break;
        case BinOp::kSle:
          clash = (seen.count(swapped) != 0 && (seen[swapped] & bit(BinOp::kSlt)) != 0);
          break;
        default:
          break;
      }
      if (clash) {
        return Verdict::kUnsat;
      }
      mask |= bit(c->bin_op);
    }
  }

  // Domain propagation.
  std::map<uint32_t, VarDomain> domains;
  for (uint32_t v : var_set) {
    domains[v] = VarDomain{};
  }
  for (const ExprRef& c : constraints) {
    if (!c->IsConst()) {
      Propagate(c, /*polarity=*/true, &domains);
    }
  }
  for (const auto& [sym, d] : domains) {
    if (d.contradictory) {
      return Verdict::kUnsat;
    }
  }

  // Seed assignment: propagation representatives, overridden by the hint
  // (the hint satisfies the old constraints; only new conditions need work).
  Model seed;
  for (const auto& [sym, d] : domains) {
    seed[sym] = d.Representative();
  }
  if (hint != nullptr) {
    for (const auto& [sym, value] : *hint) {
      if (seed.count(sym) != 0) {
        seed[sym] = value;
      }
    }
  }
  ++stats_.evals;
  if (EvalAll(constraints, seed)) {
    *model = std::move(seed);
    return Verdict::kSat;
  }
  // Second quick try: pure propagation representatives (the hint may fight a
  // new equality the domains already solved).
  Model reps;
  for (const auto& [sym, d] : domains) {
    reps[sym] = d.Representative();
  }
  ++stats_.evals;
  if (EvalAll(constraints, reps)) {
    *model = std::move(reps);
    return Verdict::kSat;
  }
  // Counterexample-cache style: replay recent satisfying assignments (the
  // same hardware-status / OID values recur across states and entry points)
  // on this component's variables before paying for a search.
  for (const Model& shelved : shelf_) {
    Model trial = reps;
    bool overlaps = false;
    for (uint32_t sym : var_set) {
      auto it = shelved.find(sym);
      if (it != shelved.end()) {
        trial[sym] = it->second;
        overlaps = true;
      }
    }
    if (!overlaps) {
      continue;
    }
    ++stats_.evals;
    if (EvalAll(constraints, trial)) {
      ++stats_.shelf_hits;
      *model = std::move(trial);
      return Verdict::kSat;
    }
  }

  return Search(constraints, std::move(seed), model);
}

Verdict Solver::Search(const std::vector<ExprRef>& constraints, Model seed, Model* model) {
  // WalkSAT-style local repair over the compiled component: changing one
  // variable re-evaluates only its cone (the nodes whose value depends on
  // it) and reads every other node from the cache. Driver constraints
  // (comparison/mask chains) converge in a handful of steps.
  CompiledComponent comp(constraints);
  const size_t n = constraints.size();
  std::vector<std::vector<uint32_t>> con_consts(n);
  for (size_t i = 0; i < n; ++i) {
    std::set<uint32_t> cs;
    CollectConstants(constraints[i], &cs);
    con_consts[i].assign(cs.begin(), cs.end());
  }

  comp.Load(seed);
  std::vector<bool> sat(n);
  std::vector<size_t> unsat_list;
  stats_.evals += n;
  for (size_t i = 0; i < n; ++i) {
    sat[i] = comp.value(i) != 0;
    if (!sat[i]) {
      unsat_list.push_back(i);
    }
  }

  size_t best_unsat = unsat_list.size();
  size_t stagnant = 0;
  for (size_t iter = 0; iter < options_.repair_iters && !unsat_list.empty(); ++iter) {
    // Plateau exit: most satisfiable queries converge within a few steps;
    // burning the full budget on (usually unsat) stragglers dominates cost.
    if (unsat_list.size() < best_unsat) {
      best_unsat = unsat_list.size();
      stagnant = 0;
    } else if (++stagnant > 40) {
      break;
    }
    size_t violated = unsat_list[rng_.Below(static_cast<uint32_t>(unsat_list.size()))];
    const std::vector<uint32_t>& slots = comp.constraint_slots(violated);
    if (slots.empty()) {
      return Verdict::kUnsat;  // constant-false constraint
    }
    uint32_t slot = slots[rng_.Below(static_cast<uint32_t>(slots.size()))];
    const std::vector<uint32_t>& affected = comp.slot_constraints(slot);

    uint32_t original = comp.slot_value(slot);
    // Delta score of assigning `v`: newly-satisfied minus newly-violated
    // among affected constraints. Leaves the slot at `v`; the commit below
    // re-assigns it, so the node cache is consistent again afterwards.
    auto delta_of = [&](uint32_t v) -> int64_t {
      comp.Assign(slot, v);
      stats_.evals += affected.size();
      int64_t delta = 0;
      for (uint32_t ci : affected) {
        bool now = comp.value(ci) != 0;
        delta += static_cast<int64_t>(now) - static_cast<int64_t>(sat[ci]);
      }
      return delta;
    };

    uint32_t best_value = original;
    int64_t best_delta = 0;
    auto consider = [&](uint32_t v) {
      if (v == original) {
        return;
      }
      int64_t d = delta_of(v);
      if (d > best_delta) {
        best_delta = d;
        best_value = v;
      }
    };
    size_t budget = options_.candidates_per_step;
    for (uint32_t k : con_consts[violated]) {
      if (budget == 0) {
        break;
      }
      consider(k);
      consider(k + 1);
      consider(k - 1);
      consider(~k);
      consider(original | k);   // set the tested mask bits
      consider(original & ~k);  // clear the tested mask bits
      consider(original ^ k);
      budget -= std::min<size_t>(budget, 7);
    }
    consider(0);
    consider(1);
    consider(0xFFFFFFFFu);
    consider(original ^ (1u << rng_.Below(32)));
    consider(rng_.Next32());

    uint32_t chosen = best_delta > 0 ? best_value
                      : (rng_.Below(2) == 0 ? original ^ (1u << rng_.Below(32))
                                            : rng_.Next32());  // plateau escape
    // Commit: update sat flags for affected constraints.
    comp.Assign(slot, chosen);
    stats_.evals += affected.size();
    for (uint32_t ci : affected) {
      sat[ci] = comp.value(ci) != 0;
    }
    unsat_list.clear();
    for (size_t i = 0; i < n; ++i) {
      if (!sat[i]) {
        unsat_list.push_back(i);
      }
    }
  }
  if (unsat_list.empty()) {
    if (model != nullptr) {
      comp.Store(&seed);
      *model = std::move(seed);
    }
    return Verdict::kSat;
  }
  return Verdict::kUnknown;
}

namespace {

void PutModel(trace::ByteWriter* w, const Model& model) {
  w->U32(static_cast<uint32_t>(model.size()));
  for (const auto& [sym, value] : model) {
    w->U32(sym);
    w->U32(value);
  }
}

bool GetModel(trace::ByteReader* r, Model* model) {
  uint32_t n;
  if (!r->U32(&n) || n > r->remaining() / 8) {  // 8 bytes per entry
    return false;
  }
  for (uint32_t k = 0; k < n; ++k) {
    uint32_t sym, value;
    if (!r->U32(&sym) || !r->U32(&value)) {
      return false;
    }
    (*model)[sym] = value;
  }
  return true;
}

}  // namespace

void Solver::SerializeTo(trace::ByteWriter* w,
                         const std::function<uint32_t(const ExprRef&)>& encode) const {
  w->U64(rng_.state());
  // Deterministic order: the cache is an unordered_map, so sort by key. Two
  // live entries never share a fingerprint (it is the map key).
  std::vector<uint64_t> fps;
  fps.reserve(cache_.size());
  for (const auto& [fp, entry] : cache_) {
    fps.push_back(fp);
  }
  std::sort(fps.begin(), fps.end());
  w->U32(static_cast<uint32_t>(fps.size()));
  for (uint64_t fp : fps) {
    const CacheEntry& entry = cache_.at(fp);
    w->U32(static_cast<uint32_t>(entry.constraints.size()));
    for (const ExprRef& c : entry.constraints) {
      w->U32(encode(c));
    }
    w->U8(static_cast<uint8_t>(entry.verdict));
    PutModel(w, entry.model);
  }
  w->U32(static_cast<uint32_t>(shelf_.size()));
  for (const Model& m : shelf_) {
    PutModel(w, m);
  }
}

bool Solver::DeserializeFrom(trace::ByteReader* r,
                             const std::function<bool(uint32_t, ExprRef*)>& decode,
                             std::string* error) {
  auto fail = [error](const char* what) {
    *error = what;
    return false;
  };
  uint64_t rng_state;
  if (!r->U64(&rng_state)) {
    return fail("truncated solver rng state");
  }
  uint32_t n_entries;
  if (!r->U32(&n_entries) || n_entries > r->remaining() / 9) {  // >=9 bytes/entry
    return fail("implausible solver cache count");
  }
  std::unordered_map<uint64_t, CacheEntry> cache;
  for (uint32_t k = 0; k < n_entries; ++k) {
    uint32_t nc;
    if (!r->U32(&nc) || nc > r->remaining() / 4) {
      return fail("implausible solver cache entry size");
    }
    CacheEntry entry;
    entry.constraints.reserve(nc);
    for (uint32_t i = 0; i < nc; ++i) {
      uint32_t id;
      ExprRef c;
      if (!r->U32(&id) || !decode(id, &c) || !c) {
        return fail("bad expr id in solver cache");
      }
      entry.constraints.push_back(std::move(c));
    }
    uint8_t verdict;
    if (!r->U8(&verdict) || verdict > static_cast<uint8_t>(Verdict::kUnknown)) {
      return fail("bad solver cache verdict");
    }
    entry.verdict = static_cast<Verdict>(verdict);
    if (!GetModel(r, &entry.model)) {
      return fail("truncated solver cache model");
    }
    // The entry's canonical order was preserved verbatim, so the recomputed
    // fingerprint (over structural node hashes) matches the source solver's.
    uint64_t fp = Fingerprint(entry.constraints);
    cache[fp] = std::move(entry);
  }
  uint32_t n_shelf;
  if (!r->U32(&n_shelf) || n_shelf > r->remaining() / 4) {
    return fail("implausible solver shelf count");
  }
  std::deque<Model> shelf;
  for (uint32_t k = 0; k < n_shelf; ++k) {
    Model m;
    if (!GetModel(r, &m)) {
      return fail("truncated solver shelf model");
    }
    shelf.push_back(std::move(m));
  }
  rng_.set_state(rng_state);
  cache_ = std::move(cache);
  shelf_ = std::move(shelf);
  return true;
}

Verdict Solver::MayBeTrue(ConstraintView constraints, const ExprRef& cond, Model* model,
                          const Model* hint) {
  if (cond->IsConst()) {
    if (cond->value != 0) {
      return CheckSat(constraints, model, hint);
    }
    ++stats_.queries;
    ++stats_.unsat;
    if (model != nullptr) {
      model->clear();
    }
    return Verdict::kUnsat;
  }
  std::vector<ExprRef> all(constraints.begin(), constraints.end());
  all.push_back(cond);
  return CheckSat(all, model, hint);
}

bool Solver::MustBeTrue(ConstraintView constraints, const ExprRef& cond, ExprContext* ctx) {
  std::vector<ExprRef> all(constraints.begin(), constraints.end());
  all.push_back(ctx->Not(cond));
  return CheckSat(all, nullptr) == Verdict::kUnsat;
}

}  // namespace revnic::symex

// Constraint solver for path feasibility and concretization.
//
// RevNIC's constraints come from driver branch conditions over symbolic
// hardware reads and injected parameters: comparisons and bit-mask tests
// against constants, occasionally chained through arithmetic. This solver is
// tuned for exactly that population:
//   1. interval + forced-bit propagation handles single-variable constraints
//      outright (the overwhelmingly common case);
//   2. candidate enumeration over constants harvested from the constraints
//      covers small multi-variable systems;
//   3. guided random/local search is the fallback. It runs on a
//      CompiledComponent (expr.h), so a candidate value re-evaluates only
//      the nodes that depend on the changed variable.
//
// Two KLEE-style layers sit in front of that pipeline:
//   - Constraint independence: the conjunction is partitioned into
//     components that share no symbols and each component is solved (and
//     cached) on its own. An incremental query "old path + one new branch
//     condition" only does fresh work for the component the new condition
//     touches; everything else is a cache hit. Sound and complete: a
//     conjunction is satisfiable iff every independent component is, and
//     per-component models merge without interference.
//   - Query cache: each component is fingerprinted (sorted interned-node
//     hashes) and its verdict + model memoized, including kUnknown (retrying
//     an exhausted search on the identical component would just burn the
//     budget again). A cached kUnknown is only binding for hintless
//     repeats: a caller supplying a hint gets one cheap evaluation of it
//     and then a full hint-seeded solve -- exactly what a cache-free
//     solver would do -- and any definite outcome upgrades the entry.
//
// Verdicts are sound in one direction: kSat always carries a checked model.
// kUnsat from propagation is exact; search exhaustion reports kUnknown,
// which callers treat as infeasible (they merely lose coverage, never
// correctness -- mirroring the paper's "touch as many blocks as possible"
// goal).
#ifndef REVNIC_SYMEX_SOLVER_H_
#define REVNIC_SYMEX_SOLVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "symex/expr.h"
#include "trace/serialize.h"
#include "util/rng.h"

namespace revnic::symex {

enum class Verdict { kSat, kUnsat, kUnknown };

struct SolverStats {
  uint64_t queries = 0;
  uint64_t sat = 0;
  uint64_t unsat = 0;
  uint64_t unknown = 0;
  uint64_t cache_hits = 0;    // components answered from the query cache
  uint64_t cache_misses = 0;  // components that ran the solve pipeline
  uint64_t components = 0;    // independent components across all queries
  uint64_t shelf_hits = 0;    // components answered by replaying a recent model
  uint64_t evals = 0;         // total candidate assignments evaluated

  // Segment arithmetic for the parallel exercise merge; keep in sync with
  // the field list.
  SolverStats& operator+=(const SolverStats& o) {
    queries += o.queries;
    sat += o.sat;
    unsat += o.unsat;
    unknown += o.unknown;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    components += o.components;
    shelf_hits += o.shelf_hits;
    evals += o.evals;
    return *this;
  }
  SolverStats& operator-=(const SolverStats& o) {
    queries -= o.queries;
    sat -= o.sat;
    unsat -= o.unsat;
    unknown -= o.unknown;
    cache_hits -= o.cache_hits;
    cache_misses -= o.cache_misses;
    components -= o.components;
    shelf_hits -= o.shelf_hits;
    evals -= o.evals;
    return *this;
  }
};

class Solver {
 public:
  struct Options {
    size_t repair_iters = 250;        // local-repair iterations
    size_t candidates_per_step = 24;  // candidate values tried per repair step
    bool enable_query_cache = true;   // memoize per-component verdict + model
    bool enable_independence = true;  // split queries into independent slices
    size_t max_cache_entries = 8192;  // query cache reset threshold
    size_t model_shelf_entries = 8;   // recent models replayed before search
  };

  Solver() : Solver(Options(), 1) {}
  explicit Solver(Options options, uint64_t seed = 1) : options_(options), rng_(seed) {}

  // Is the conjunction of `constraints` satisfiable? On kSat fills `model`
  // (if non-null) with a satisfying assignment for every referenced symbol.
  // `hint`, when given, seeds the search -- pass the path's cached model: the
  // incremental query "old constraints + one new condition" then usually
  // needs zero or one repair steps.
  Verdict CheckSat(ConstraintView constraints, Model* model, const Model* hint = nullptr);
  Verdict CheckSat(std::initializer_list<ExprRef> constraints, Model* model,
                   const Model* hint = nullptr) {
    return CheckSat(ConstraintView(constraints.begin(), constraints.size()), model, hint);
  }

  // May `cond` be true given `constraints`? (CheckSat of constraints+cond.)
  Verdict MayBeTrue(ConstraintView constraints, const ExprRef& cond, Model* model,
                    const Model* hint = nullptr);
  Verdict MayBeTrue(std::initializer_list<ExprRef> constraints, const ExprRef& cond, Model* model,
                    const Model* hint = nullptr) {
    return MayBeTrue(ConstraintView(constraints.begin(), constraints.size()), cond, model, hint);
  }

  // Must `cond` hold? True iff constraints && !cond is unsat.
  bool MustBeTrue(ConstraintView constraints, const ExprRef& cond, ExprContext* ctx);

  const SolverStats& stats() const { return stats_; }
  size_t cache_size() const { return cache_.size(); }

  // ---- snapshot support (symex/snapshot.*) ----
  // The solver is stateful in three observable ways: the search rng stream,
  // the query cache (a hit replays the model found when the entry was first
  // solved), and the model shelf. A restored execution chain must carry all
  // three or step-level re-exploration diverges from a straight-line run
  // (different representative models => different concretized values).
  uint64_t rng_state() const { return rng_.state(); }
  void set_rng_state(uint64_t state) { rng_.set_state(state); }
  // Serializes rng + cache + shelf. `encode` maps an expression to its
  // snapshot DAG id. Cache entries are written sorted by fingerprint so the
  // byte stream is deterministic.
  void SerializeTo(trace::ByteWriter* w,
                   const std::function<uint32_t(const ExprRef&)>& encode) const;
  // Restores rng + cache + shelf into this solver (cache/shelf replaced).
  // `decode` maps a snapshot DAG id back to an expression, returning false on
  // an invalid id. Fingerprints are recomputed from the rebuilt nodes (hashes
  // are structural, so they match the source context's).
  bool DeserializeFrom(trace::ByteReader* r,
                       const std::function<bool(uint32_t, ExprRef*)>& decode,
                       std::string* error);

 private:
  struct CacheEntry {
    std::vector<ExprRef> constraints;  // canonical (hash-sorted) component
    Verdict verdict = Verdict::kUnknown;
    Model model;  // valid iff verdict == kSat
  };

  // Runs the propagation/search pipeline on one component.
  Verdict SolveGroup(const std::vector<ExprRef>& constraints, Model* model, const Model* hint);
  // SolveGroup behind the fingerprint cache and the model shelf.
  Verdict SolveGroupCached(std::vector<ExprRef> group, Model* model, const Model* hint);
  Verdict Search(const std::vector<ExprRef>& constraints, Model seed, Model* model);
  void ShelveModel(const Model& model);

  Options options_;
  Rng rng_;
  SolverStats stats_;
  std::unordered_map<uint64_t, CacheEntry> cache_;
  std::deque<Model> shelf_;  // most recent satisfying assignments
};

}  // namespace revnic::symex

#endif  // REVNIC_SYMEX_SOLVER_H_

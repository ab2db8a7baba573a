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
//      CompiledComponent (expr.h): a repair step gathers its candidate
//      values (in a fixed order, with fixed rng draws), drops the current
//      value and repeats -- neither can win the strict-maximum pick -- and
//      scores the rest in one lane-major pass over the nodes that depend
//      on the changed variable (EvalLanes). A violated constraint's
//      candidate constants are read off the compiled node array the first
//      time the search picks it.
//
// Two KLEE-style layers sit in front of that pipeline:
//   - Constraint independence: the conjunction is partitioned into
//     components that share no symbols and each component is solved (and
//     cached) on its own. An incremental query "old path + one new branch
//     condition" only solves the component the new condition joins; every
//     other component is a cache hit. The hit path is kept cheap: the new
//     condition rides along as an extra member instead of being appended
//     to a copy of the path, the union-find runs over flat tables reused
//     by every query (symbol -> first constraint, root -> component), and
//     a component is a list of pointers into the caller's constraints until
//     a miss stores a copy. A hit costs one fingerprint, one lookup and
//     appending the cached model to the caller's model. A Model (expr.h)
//     is one sorted vector of (symbol, value) pairs, so a query sorts its
//     appended component models once at the end instead of inserting node
//     by node.
//     MayBeTrueBoth asks both polarities of a branch over one partition;
//     the second query looks up only the component its condition joins and
//     reuses the first query's hits while no cache entry has changed. Sound
//     and complete: a conjunction is satisfiable iff every independent
//     component is, and per-component models merge without interference.
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
#include <span>
#include <unordered_map>
#include <vector>

#include "symex/expr.h"
#include "trace/serialize.h"
#include "util/fields.h"
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

  // The field list (util/fields.h), in serialized order.
  static constexpr uint64_t SolverStats::*kFields[] = {
      &SolverStats::queries, &SolverStats::sat, &SolverStats::unsat, &SolverStats::unknown,
      &SolverStats::cache_hits, &SolverStats::cache_misses, &SolverStats::components,
      &SolverStats::shelf_hits, &SolverStats::evals};

  // Segment arithmetic for the parallel exercise merge.
  SolverStats& operator+=(const SolverStats& o) { return AddFields(*this, o); }
  SolverStats& operator-=(const SolverStats& o) { return SubtractFields(*this, o); }
};
static_assert(FieldListCovers<SolverStats>());

class Solver {
 public:
  struct Options {
    size_t repair_iters = 250;        // local-repair iterations
    bool enable_query_cache = true;   // memoize per-component verdict + model
    bool enable_independence = true;  // split queries into independent slices
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

  // Both polarities of one branch condition: exactly MayBeTrue(constraints,
  // cond) followed by MayBeTrue(constraints, not_cond), with the same
  // verdicts, models and effects on stats, cache, shelf and rng. When the two
  // conditions have the same symbols the second query reuses the first one's
  // partition, and each component the cache answered is answered again
  // without a lookup while no cache entry has changed.
  struct BranchVerdicts {
    Verdict if_true = Verdict::kUnknown;
    Verdict if_false = Verdict::kUnknown;
    Model true_model;
    Model false_model;
  };
  BranchVerdicts MayBeTrueBoth(ConstraintView constraints, const ExprRef& cond,
                               const ExprRef& not_cond, const Model* hint);

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
  // A component member: the caller's ExprRef, wherever it lives (the path
  // view or the extra condition). Components are non-owning until a cache
  // miss stores one.
  using Member = const ExprRef*;
  // A component's last definite cache answer, valid while cache_gen_ still
  // equals `gen`. cache_gen_ moves whenever an existing entry changes or goes
  // away (a new entry moves no other), and 0 is never current.
  struct Answer {
    const CacheEntry* entry = nullptr;
    uint64_t gen = 0;
  };

  // CheckSat of `path` plus `extra` (when non-null), without concatenating.
  Verdict Check(ConstraintView path, const ExprRef* extra, Model* model, const Model* hint);
  // Solves the components of the current partition in order.
  Verdict SolveComponents(Model* model, const Model* hint);
  // Splits work_ into components: members_ holds them back to back, ordered
  // by their first member's position, each in position order; group_end_
  // holds each one's end offset.
  void Partition();
  // Runs the propagation/search pipeline on one component.
  Verdict SolveGroup(const std::vector<ExprRef>& constraints, Model* model, const Model* hint);
  // SolveGroup behind the fingerprint cache and the model shelf, answered
  // from `answer` while it is current. Sorts `group` into canonical order;
  // on kSat appends the component's model to `model` (when non-null; the
  // caller canonicalizes it); records a definite cached verdict in `answer`.
  Verdict SolveGroupCached(std::span<Member> group, Model* model, const Model* hint,
                           Answer* answer);
  Verdict Search(const std::vector<ExprRef>& constraints, Model seed, Model* model);
  void ShelveModel(const Model& model);

  Options options_;
  Rng rng_;
  SolverStats stats_;
  std::unordered_map<uint64_t, CacheEntry> cache_;
  std::deque<Model> shelf_;  // most recent satisfying assignments

  // Partition scratch, reused by every query so a query whose components
  // all hit the cache allocates nothing but its output model. Derived per
  // query; never serialized.
  struct SymOwner {
    uint32_t epoch = 0;  // query that last claimed the symbol
    uint32_t owner = 0;  // work_ index of the symbol's first constraint
  };
  std::vector<Member> work_;          // non-constant constraints, in position order
  std::vector<uint32_t> parent_;      // union-find over work_ indices
  std::vector<uint32_t> component_;   // work_ index -> component
  std::vector<uint32_t> root_slot_;   // root -> component, then component -> fill cursor
  std::vector<SymOwner> sym_owner_;   // indexed by symbol id
  uint32_t epoch_ = 0;
  std::vector<Member> members_;
  std::vector<uint32_t> group_end_;
  std::vector<Answer> answers_;  // per component
  bool partitioned_ = false;     // the last query got as far as Partition()
  uint64_t cache_gen_ = 1;
};

}  // namespace revnic::symex

#endif  // REVNIC_SYMEX_SOLVER_H_

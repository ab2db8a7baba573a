// Symbolic expression DAG over 32-bit bitvectors (the KLEE-expression analog).
//
// Widths are in bits: 1 (booleans / path constraints), 8, 16, 32. Expressions
// are immutable and shared; `ExprContext` is the factory and applies local
// simplifications at construction so downstream code (solver, executor) sees
// canonical-ish forms. Constants are the fast path everywhere: a fully
// concrete execution builds only `kConst` nodes.
#ifndef REVNIC_SYMEX_EXPR_H_
#define REVNIC_SYMEX_EXPR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace revnic::symex {

class Expr;
using ExprRef = std::shared_ptr<const Expr>;

enum class ExprKind : uint8_t {
  kConst = 0,
  kSym,      // free variable introduced by symbolic hardware / parameters
  kBin,      // binary operator
  kExtract,  // byte extraction (for byte-granular memory)
  kZExt,     // widen, zero fill
  kSExt,     // widen, sign fill
  kSelect,   // cond ? a : b
};

enum class BinOp : uint8_t {
  kAdd = 0,
  kSub,
  kMul,
  kUDiv,
  kURem,
  kAnd,
  kOr,
  kXor,
  kShl,
  kLShr,
  kAShr,
  // Comparisons produce width-1 expressions.
  kEq,
  kNe,
  kUlt,
  kUle,
  kSlt,
  kSle,
};

bool IsComparison(BinOp op);
const char* BinOpName(BinOp op);

// Sorted, deduplicated symbolic-variable ids of a subtree. Shared between
// nodes (a node whose operands cover the same set aliases the operand's set),
// so the per-node cost of keeping it is one pointer.
using SymSet = std::vector<uint32_t>;
using SymSetRef = std::shared_ptr<const SymSet>;

class Expr {
 public:
  ExprKind kind;
  uint8_t width;        // result width in bits: 1, 8, 16, or 32
  BinOp bin_op{};       // kBin only
  uint32_t value = 0;   // kConst: the constant; kExtract: byte index
  uint32_t sym_id = 0;  // kSym only
  ExprRef a, b, c;      // operands
  uint64_t hash = 0;
  // Approximate DAG size (tree-counted, saturating); O(1) blowup guard.
  uint32_t approx_nodes = 1;
  // Symbol set of the whole subtree, computed once at construction so
  // CollectSyms and solver slicing never re-walk the DAG. Never null.
  SymSetRef syms;

  bool IsConst() const { return kind == ExprKind::kConst; }
  bool IsConstValue(uint32_t v) const { return IsConst() && value == v; }

  // Structural equality (hash-guarded). Nodes interned by the same
  // ExprContext compare by pointer; the structural walk remains as the
  // fallback for cross-context nodes and intern-table resets.
  static bool Equal(const ExprRef& x, const ExprRef& y);
};

// Assignment of concrete values to symbolic variables.
using Model = std::map<uint32_t, uint32_t>;

// Non-owning contiguous view over path constraints; what the solver
// consumes. Implicitly built from a vector or a ConstraintSet (span's range
// constructor), so call sites never copy just to change container shape.
using ConstraintView = std::span<const ExprRef>;

// A path-constraint sequence with a shared immutable spine: forking a state
// copies one shared_ptr and a length, not the vector. Siblings share the
// backing vector as long as appends happen past everyone's visible prefix;
// an append that would clobber a sibling's extension copies the prefix first
// (so the common fork pattern -- both children append one constraint -- costs
// one O(1) append plus one O(n) divergence copy, instead of two O(n) deep
// copies on every fork).
class ConstraintSet {
 public:
  ConstraintSet() : vec_(std::make_shared<std::vector<ExprRef>>()) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  const ExprRef& operator[](size_t i) const { return (*vec_)[i]; }
  const ExprRef* begin() const { return vec_->data(); }
  const ExprRef* end() const { return vec_->data() + count_; }

  void Add(ExprRef c) {
    if (vec_->size() != count_) {
      // A sibling already extended the shared spine past our prefix: diverge.
      vec_ = std::make_shared<std::vector<ExprRef>>(vec_->begin(),
                                                    vec_->begin() + static_cast<long>(count_));
    }
    vec_->push_back(std::move(c));
    ++count_;
  }

  std::vector<ExprRef> ToVector() const { return {begin(), end()}; }

 private:
  std::shared_ptr<std::vector<ExprRef>> vec_;
  size_t count_ = 0;  // our visible prefix of *vec_
};

// Factory + simplifier. One context per reverse-engineering run; it hands out
// unique symbolic-variable ids and remembers their debug names.
//
// Construction hash-conses composite nodes (bin/extract/ext/select):
// structurally identical builds return the same node, so repeated simplifier
// rebuilds cost one allocation-free table probe and downstream equality
// checks are pointer compares. Constants deliberately bypass the table --
// they are leaf nodes that compare in O(1) structurally, and concrete
// execution churns through fresh values (addresses, counters) that would
// only bloat it; the frequent small ones (0..255 at each width) come from a
// direct-mapped cache instead. The intern table pins nodes for the context's
// lifetime; if it grows past `kMaxInternEntries` it is reset (purely an
// optimization boundary -- Expr::Equal stays structural).
class ExprContext {
 public:
  struct InternStats {
    uint64_t hits = 0;    // constructions served from a cache (table or const)
    uint64_t misses = 0;  // constructions that allocated a new node
    uint64_t resets = 0;  // table overflows
    size_t size = 0;      // current table population
  };
  static constexpr size_t kMaxInternEntries = 1u << 20;
  static constexpr uint32_t kSmallConstCacheSize = 256;

  ExprRef Const(uint32_t value, uint8_t width = 32);
  ExprRef True() { return Const(1, 1); }
  ExprRef False() { return Const(0, 1); }

  // Fresh symbolic variable. `name` is for diagnostics ("hw_in_0x10_3").
  ExprRef Sym(const std::string& name, uint8_t width = 32);
  const std::string& SymName(uint32_t sym_id) const;
  uint32_t NumSyms() const { return static_cast<uint32_t>(sym_names_.size()); }

  ExprRef Bin(BinOp op, ExprRef a, ExprRef b);
  ExprRef ExtractByte(ExprRef a, unsigned byte_index);  // -> width 8
  ExprRef ZExt(ExprRef a, uint8_t to_width);
  ExprRef SExt(ExprRef a, uint8_t to_width);
  ExprRef Trunc(ExprRef a, uint8_t to_width);
  ExprRef Select(ExprRef cond, ExprRef a, ExprRef b);
  ExprRef Not(ExprRef a);  // width-1 logical negation

  // Convenience wrappers.
  ExprRef Add(ExprRef a, ExprRef b) { return Bin(BinOp::kAdd, a, b); }
  ExprRef And(ExprRef a, ExprRef b) { return Bin(BinOp::kAnd, a, b); }
  ExprRef Eq(ExprRef a, ExprRef b) { return Bin(BinOp::kEq, a, b); }

  InternStats intern_stats() const {
    InternStats s = intern_stats_;
    s.size = intern_.size();
    return s;
  }

  // ---- snapshot support (symex/snapshot.*) ----
  // True when `e` is the intern table's representative for its structure
  // (i.e. the exact pointer is pinned). Constants and syms are never interned.
  bool IsInterned(const ExprRef& e) const {
    auto it = intern_.find(e);
    return it != intern_.end() && it->get() == e.get();
  }
  // Installs a snapshot's symbol table into a fresh context (no syms minted
  // yet); subsequent Sym() calls continue the id sequence where the snapshot
  // left off. Returns false if the context already has symbols.
  bool RestoreSymNames(std::vector<std::string> names) {
    if (!sym_names_.empty()) {
      return false;
    }
    sym_names_ = std::move(names);
    return true;
  }
  // Deserialization back door: reconstructs a node with exactly the given
  // structure -- no re-simplification, so the restored DAG is bit-for-bit the
  // serialized one -- finalizing hash/size/symbol-set the same way Make does.
  // Constants route through Const() so small-constant aliasing is preserved;
  // `interned` re-pins the node in the intern table ("interning intact":
  // later structurally-equal builds hit it, exactly as in the source
  // context). Does not touch intern stats.
  ExprRef RebuildNode(ExprKind kind, uint8_t width, BinOp bin_op, uint32_t value,
                      uint32_t sym_id, ExprRef a, ExprRef b, ExprRef c, bool interned);

 private:
  // Allocation-free probe key: a stack node with its hash precomputed.
  struct InternKey {
    const Expr* e;
  };
  struct InternHash {
    using is_transparent = void;
    size_t operator()(const ExprRef& x) const { return static_cast<size_t>(x->hash); }
    size_t operator()(const InternKey& k) const { return static_cast<size_t>(k.e->hash); }
  };
  struct InternEq {
    using is_transparent = void;
    // Shallow structural compare: composite operands are themselves
    // hash-consed, so pointer identity suffices for them; constant operands
    // stay out of the table (see class comment) and compare by value.
    static bool ChildEq(const ExprRef& p, const ExprRef& q) {
      if (p.get() == q.get()) {
        return true;
      }
      return p && q && p->kind == ExprKind::kConst && q->kind == ExprKind::kConst &&
             p->width == q->width && p->value == q->value;
    }
    static bool Shallow(const Expr& x, const Expr& y) {
      return x.hash == y.hash && x.kind == y.kind && x.width == y.width &&
             x.bin_op == y.bin_op && x.value == y.value && x.sym_id == y.sym_id &&
             ChildEq(x.a, y.a) && ChildEq(x.b, y.b) && ChildEq(x.c, y.c);
    }
    bool operator()(const ExprRef& x, const ExprRef& y) const { return Shallow(*x, *y); }
    bool operator()(const InternKey& k, const ExprRef& y) const { return Shallow(*k.e, *y); }
    bool operator()(const ExprRef& x, const InternKey& k) const { return Shallow(*x, *k.e); }
  };

  // Finalizes (hash, size, symbol set) and hash-conses the composite node.
  ExprRef Make(Expr e);

  // Small-const cache index for width, or -1 when uncached.
  static int WidthIndex(uint8_t width) {
    switch (width) {
      case 1:
        return 0;
      case 8:
        return 1;
      case 16:
        return 2;
      case 32:
        return 3;
      default:
        return -1;
    }
  }

  std::vector<std::string> sym_names_;
  std::unordered_set<ExprRef, InternHash, InternEq> intern_;
  ExprRef small_consts_[4][kSmallConstCacheSize];
  InternStats intern_stats_;
};

// Evaluates `e` under `model`; unmapped symbols evaluate to 0.
uint32_t Eval(const ExprRef& e, const Model& model);

// A constraint component compiled for evaluation under an assignment that
// changes one symbol at a time (the solver's local search).
//   - Slots: the component's symbols bound to dense indices in ascending id
//     order, which is a Model's iteration order.
//   - Nodes: every constraint flattened into one postorder array (a subtree
//     shared within or across constraints appears once), with each node's
//     value under the current assignment cached.
//   - Cones: a slot's cone is the ascending list of nodes whose value depends
//     on that slot. Assign() re-runs exactly that list and reads every other
//     operand from the cache, so afterwards the cache again equals a full
//     evaluation of the new assignment.
// Node semantics are Eval's: both route binary operators through one
// FoldBin, and property_test holds the two equal on every kind, op and width.
class CompiledComponent {
 public:
  explicit CompiledComponent(std::span<const ExprRef> constraints);

  size_t num_constraints() const { return roots_.size(); }
  size_t num_slots() const { return slot_syms_.size(); }
  uint32_t slot_sym(uint32_t slot) const { return slot_syms_[slot]; }
  // Slots constraint `ci` mentions, ascending.
  const std::vector<uint32_t>& constraint_slots(size_t ci) const { return con_slots_[ci]; }
  // Constraints that mention `slot`, ascending.
  const std::vector<uint32_t>& slot_constraints(uint32_t slot) const {
    return slot_cons_[slot];
  }

  // Reads every slot from `model` (unmapped symbols read 0, as in Eval) and
  // evaluates every node.
  void Load(const Model& model);
  // Sets `slot` to `value` and re-evaluates its cone.
  void Assign(uint32_t slot, uint32_t value);
  uint32_t slot_value(uint32_t slot) const { return slot_values_[slot]; }
  // Value of constraint `ci` under the current assignment.
  uint32_t value(size_t ci) const { return values_[roots_[ci]]; }
  // Writes every slot's value into `model` under its symbol id.
  void Store(Model* model) const;

 private:
  struct Node {
    ExprKind kind;
    uint8_t width;
    BinOp bin_op;
    uint8_t operand_width;  // width of operand a (kBin, kSExt)
    uint32_t value;         // kConst: constant; kExtract: byte index; kSym: slot
    uint32_t a, b, c;       // operand node indices
  };

  uint32_t SlotOf(uint32_t sym) const;
  uint32_t Flatten(const ExprRef& e, std::unordered_map<const Expr*, uint32_t>* index);
  uint32_t EvalNode(const Node& n) const;

  std::vector<Node> nodes_;
  std::vector<uint32_t> values_;  // per node, under the current assignment
  std::vector<uint32_t> roots_;   // per constraint: its root node
  std::vector<uint32_t> slot_syms_;
  std::vector<uint32_t> slot_values_;
  std::vector<std::vector<uint32_t>> con_slots_;
  std::vector<std::vector<uint32_t>> slot_cons_;
  std::vector<std::vector<uint32_t>> cones_;
};

// Collects the symbolic variable ids appearing in `e`. O(|syms|): reads the
// symbol set cached on the node at construction.
void CollectSyms(const ExprRef& e, std::set<uint32_t>* out);

// Ground-truth DAG walk behind CollectSyms; kept for tests that validate the
// cached symbol sets.
void CollectSymsWalk(const ExprRef& e, std::set<uint32_t>* out);

// Collects every constant literal in `e` (solver candidate seeding).
void CollectConstants(const ExprRef& e, std::set<uint32_t>* out);

// Number of DAG nodes (visits shared nodes once); guards expression blowup.
size_t ExprSize(const ExprRef& e);

// Debug rendering, e.g. "(add v3 0x10)".
std::string ToString(const ExprRef& e);

}  // namespace revnic::symex

#endif  // REVNIC_SYMEX_EXPR_H_

// Shared coverage map for intra-driver parallel exercising.
//
// The universe of coverable program points (static basic-block starts) is
// fixed before exploration begins, so coverage is a bitset over a sorted pc
// table: marking and testing are lock-free atomic bit operations, and the
// map is safely shared by every worker of a parallel exercise stage. Workers
// publish coverage as they execute; the merged count feeds live progress
// streaming and the final cross-check. Deliberately monitoring-only: no
// worker's *exploration decisions* read the racing live map (their skip
// gating comes from the coverage set restored with the step's RSS1
// snapshot instead), which is what keeps parallel results
// schedule-independent -- see README.md.
// Seed/SnapshotInto support bulk import/export of conventional coverage sets.
#ifndef REVNIC_SYMEX_COVERAGE_H_
#define REVNIC_SYMEX_COVERAGE_H_

#include <atomic>
#include <cstdint>
#include <set>
#include <vector>

namespace revnic::symex {

class SharedCoverageMap {
 public:
  // `universe` is the complete set of pcs that can ever be covered (pcs not
  // in it are ignored by Mark/Covered). The map starts empty.
  explicit SharedCoverageMap(const std::set<uint32_t>& universe);

  SharedCoverageMap(const SharedCoverageMap&) = delete;
  SharedCoverageMap& operator=(const SharedCoverageMap&) = delete;

  // Marks `pc` covered. Returns true when this call was the first to cover
  // it (false for repeats and for pcs outside the universe). Thread-safe.
  bool Mark(uint32_t pc);
  bool Covered(uint32_t pc) const;

  // Bulk-marks every pc of `covered`; returns how many were fresh.
  size_t Seed(const std::set<uint32_t>& covered);

  size_t CoveredCount() const { return count_.load(std::memory_order_relaxed); }
  size_t UniverseSize() const { return pcs_.size(); }

  // Copies the covered pcs into `out` (point-in-time, monotone under
  // concurrent marking: a snapshot never loses a bit it already observed).
  void SnapshotInto(std::set<uint32_t>* out) const;

 private:
  // Index of pc in the sorted universe, or -1 when absent.
  ptrdiff_t IndexOf(uint32_t pc) const;

  std::vector<uint32_t> pcs_;  // sorted universe, immutable after ctor
  std::vector<std::atomic<uint64_t>> bits_;
  std::atomic<size_t> count_{0};
};

}  // namespace revnic::symex

#endif  // REVNIC_SYMEX_COVERAGE_H_

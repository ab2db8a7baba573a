#include "core/result_codec.h"

namespace revnic::core {

void WriteEngineResult(trace::ByteWriter& w, const EngineResult& e) {
  trace::SerializeTo(e.bundle, &w);
  trace::WriteEntryTable(w, e.entries);
  w.U32Set(e.covered_blocks);
  w.U64(e.static_blocks);

  w.U32(static_cast<uint32_t>(e.timeline.size()));
  for (const CoverageSample& s : e.timeline) {
    w.U64(s.work);
    w.U64(s.covered_blocks);
    w.U64(s.faults);
  }

  w.Fields(e.stats);
  w.Fields(e.solver_stats);
  w.Fields(e.executor_stats);
  w.Fields(e.substrate);
  w.Fields(e.fault_stats);

  w.U32(static_cast<uint32_t>(e.call_counts.size()));
  for (const auto& [pc, count] : e.call_counts) {
    w.U32(pc);
    w.U64(count);
  }
  w.U64(e.functions_modeled);
  w.U32Set(e.apis_used);
  w.U8(e.cancelled ? 1 : 0);
}

bool ReadEngineResult(trace::ByteReader& r, EngineResult* e, std::string* error) {
  auto fail = [error](const char* what) {
    *error = what;
    return false;
  };
  if (!trace::DeserializeFrom(&r, &e->bundle, error)) {
    return false;
  }
  if (!trace::ReadEntryTable(r, &e->entries)) {
    return fail("bad entry table");
  }
  uint64_t static_blocks;
  if (!r.U32Set(&e->covered_blocks) || !r.U64(&static_blocks)) {
    return fail("truncated coverage");
  }
  e->static_blocks = static_cast<size_t>(static_blocks);

  uint32_t n;
  if (!r.U32(&n) || n > r.remaining() / 24) {  // 24 bytes per serialized sample
    return fail("bad timeline count");
  }
  e->timeline.resize(n);
  for (CoverageSample& s : e->timeline) {
    uint64_t covered;
    if (!r.U64(&s.work) || !r.U64(&covered) || !r.U64(&s.faults)) {
      return fail("truncated coverage sample");
    }
    s.covered_blocks = static_cast<size_t>(covered);
  }

  if (!r.Fields(&e->stats) || !r.Fields(&e->solver_stats) || !r.Fields(&e->executor_stats) ||
      !r.Fields(&e->substrate) || !r.Fields(&e->fault_stats)) {
    return fail("truncated counters");
  }
  // Invariant maintained by the engine: the substrate's fault fields are
  // projections of FaultStats, so they are derived here instead of stored.
  e->substrate.fault_decisions = e->fault_stats.decisions;
  e->substrate.faults_injected = e->fault_stats.TotalInjected();

  if (!r.U32(&n) || n > r.remaining() / 12) {  // 12 bytes per call count
    return fail("bad call-count table");
  }
  for (uint32_t k = 0; k < n; ++k) {
    uint32_t pc;
    uint64_t count;
    if (!r.U32(&pc) || !r.U64(&count)) {
      return fail("truncated call count");
    }
    e->call_counts[pc] = count;
  }
  uint8_t cancelled;
  if (!r.U64(&e->functions_modeled) || !r.U32Set(&e->apis_used) || !r.U8(&cancelled)) {
    return fail("truncated result tail");
  }
  e->cancelled = cancelled != 0;
  return true;
}

}  // namespace revnic::core

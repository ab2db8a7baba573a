// Wiretap trace format (paper §3.3).
//
// The wiretap records, per executed translation block: the block's vir code
// (stored once, keyed by guest pc), the register file at block entry and
// exit, the resolved successor, and the terminator type. Memory accesses are
// recorded with their classification (regular RAM vs device-mapped MMIO vs
// port I/O vs DMA region) -- the disambiguation that §2 argues requires a VM.
// OS API calls and asynchronous events (interrupt injection) are interleaved
// by sequence number.
//
// Execution paths form a tree (fork = state clone). Records carry the state
// id; `StateForkRecord`s give the parentage so the synthesizer can
// reconstruct each root-to-leaf path.
#ifndef REVNIC_TRACE_TRACE_H_
#define REVNIC_TRACE_TRACE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/ir.h"

namespace revnic::trace {

inline constexpr unsigned kNumRegs = 16;

// Register snapshot. `sym_mask` has bit i set when register i held a symbolic
// expression; `regs[i]` then holds a representative concretization.
struct RegSnapshot {
  std::array<uint32_t, kNumRegs> regs{};
  uint32_t sym_mask = 0;

  bool operator==(const RegSnapshot&) const = default;
};

enum class MemKind : uint8_t { kRam = 0, kMmio, kPort, kDma };

struct BlockRecord {
  uint64_t state_id = 0;
  uint64_t seq = 0;      // global wiretap sequence number
  uint32_t pc = 0;       // key into TraceBundle::blocks
  ir::Term term = ir::Term::kHalt;
  uint32_t next_pc = 0;  // resolved successor (0 if path ended)
  RegSnapshot before;
  RegSnapshot after;
  bool operator==(const BlockRecord&) const = default;
};

struct MemRecord {
  uint64_t state_id = 0;
  uint64_t seq = 0;
  uint32_t pc = 0;  // guest pc of the owning translation block
  MemKind kind = MemKind::kRam;
  uint8_t size = 4;
  bool is_write = false;
  bool value_symbolic = false;
  uint32_t addr = 0;
  uint32_t value = 0;  // representative value when symbolic
  bool operator==(const MemRecord&) const = default;
};

struct ApiRecord {
  uint64_t state_id = 0;
  uint64_t seq = 0;
  uint32_t pc = 0;       // pc of the `sys` site
  uint32_t api_id = 0;
  std::vector<uint32_t> args;
  uint32_t ret = 0;
  bool skipped = false;  // true when the exerciser skipped/modeled the call
  bool operator==(const ApiRecord&) const = default;
};

enum class EventKind : uint8_t {
  kEntryInvoke = 0,  // OS invoked a driver entry point
  kEntryReturn,
  kIrqInject,        // symbolic interrupt asserted (§3.2 heuristic 3)
  kStateFork,
  kStateKill,        // path discarded by a heuristic
  kStateComplete,    // path ran to completion
};

struct EventRecord {
  uint64_t state_id = 0;
  uint64_t seq = 0;
  EventKind kind = EventKind::kEntryInvoke;
  uint32_t value = 0;    // entry pc / child state id / kill reason
  std::string detail;    // entry-point role name, kill reason text
  bool operator==(const EventRecord&) const = default;
};

// The complete wiretap output for one RevNIC run.
struct TraceBundle {
  // Translated blocks by guest pc (the LLVM-bitcode analog, stored once).
  std::map<uint32_t, ir::Block> blocks;
  std::vector<BlockRecord> block_records;
  std::vector<MemRecord> mem_records;
  std::vector<ApiRecord> api_records;
  std::vector<EventRecord> events;
  // Driver layout metadata captured at load time.
  uint32_t code_begin = 0;
  uint32_t code_end = 0;
  uint32_t entry = 0;

  size_t ApproxBytes() const;
};

// Streaming sink the executor writes through; TraceBundle implements it, and
// tests substitute counters/filters.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnBlock(const ir::Block& block, const BlockRecord& record) = 0;
  virtual void OnMem(const MemRecord& record) = 0;
  virtual void OnApi(const ApiRecord& record) = 0;
  virtual void OnEvent(const EventRecord& record) = 0;
};

class BundleSink : public TraceSink {
 public:
  explicit BundleSink(TraceBundle* bundle) : bundle_(bundle) {}
  void OnBlock(const ir::Block& block, const BlockRecord& record) override;
  void OnMem(const MemRecord& record) override;
  void OnApi(const ApiRecord& record) override;
  void OnEvent(const EventRecord& record) override;

 private:
  TraceBundle* bundle_;
};

}  // namespace revnic::trace

#endif  // REVNIC_TRACE_TRACE_H_

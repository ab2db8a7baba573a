// Deterministic, seeded fault injection at the device<->driver boundary.
//
// Real NICs misbehave: IRQ edges get lost on flaky lines, DMA reads race the
// device and return stale bytes, the medium delivers runt and oversized
// frames, register read-backs glitch. The models under src/hw are perfectly
// well-behaved, so without this layer RevNIC never exercises (or synthesizes
// from) the error paths vendor drivers carry for exactly those events.
//
// The design constraint is reproducibility: a fault schedule must be a pure
// function of the FaultPlan, never of wall clock, thread timing, or pointer
// identity. Every boundary event consults the schedule at a monotonically
// advancing cursor, and the fire/no-fire decision (plus any poison value) is
// a hash of (plan seed, cursor index, address, fault kind). Two runs that
// perform the same boundary-event sequence therefore see the same faults --
// which is what makes the parallel exerciser's byte-identity guarantee
// survive fault injection: the cursor rides in RSS1 snapshots next to the
// shell-device serial, so a restored fan-out task resumes the schedule at
// exactly the point the spine reached. See src/hw/README.md for the full
// determinism argument and the spec grammar.
//
// Two consumers share the schedule:
//   * FaultInjector wraps a concrete NicDevice (same proxy shape as
//     CountingIoProxy) for the validation/perf hosts;
//   * core::ShellBridge consults a FaultSchedule during symbolic exercising
//     (register corruption and DMA poisoning become *concrete* poison values
//     there, pruning the unconstrained-symbol path space -- coverage degrades
//     gracefully instead of the engine hanging or crashing).
#ifndef REVNIC_HW_FAULTS_H_
#define REVNIC_HW_FAULTS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "hw/nic.h"
#include "util/fields.h"
#include "vm/memmap.h"

namespace revnic::hw {

enum class FaultKind : uint8_t {
  kIrqDrop = 0,     // raised IRQ edge swallowed before the OS sees it
  kIrqDup,          // one IRQ edge delivered twice (spurious interrupt)
  kIrqDelay,        // IRQ edge deferred (concrete: until the next register
                    // access; symbolic: delivered one script step late)
  kDmaReadStall,    // device DMA read observes stale zeros, not driver data
  kDmaWriteDrop,    // device DMA write never lands in RAM
  kBusError,        // DMA read poisoned with the 0xFF bus-error pattern
  kRegCorrupt,      // register read-back returns a seeded garbage value
  kFrameTruncate,   // injected frame truncated to a runt (< 60 bytes)
  kFrameOversize,   // injected frame padded past the 1514-byte Ethernet max
};
inline constexpr unsigned kNumFaultKinds = 9;

// "irq-drop", "dma-read-stall", ... (the spec grammar's kind tokens).
const char* FaultKindName(FaultKind kind);
bool FindFaultKind(const std::string& name, FaultKind* out);

// Per-kind firing rates in [0, 1] plus the schedule seed. Value semantics;
// travels inside core::EngineConfig.
struct FaultPlan {
  uint64_t seed = 0;
  double rates[kNumFaultKinds] = {};

  double rate(FaultKind k) const { return rates[static_cast<unsigned>(k)]; }
  void set_rate(FaultKind k, double r) { rates[static_cast<unsigned>(k)] = r; }
  bool Enabled() const {
    for (double r : rates) {
      if (r > 0) {
        return true;
      }
    }
    return false;
  }
};

// Parses "seed:kind=rate,kind=rate" (e.g. "42:irq-drop=0.2,reg-corrupt=0.05";
// "all=<rate>" sets every kind). Hostile input -- empty strings, unknown
// kinds, rates outside [0,1], junk numbers -- fails with *error set and the
// plan untouched; it never crashes or half-applies.
bool ParseFaultPlan(const std::string& spec, FaultPlan* plan, std::string* error);
// Renders a plan back into spec form (only nonzero kinds; round-trips
// through ParseFaultPlan).
std::string FormatFaultPlan(const FaultPlan& plan);

// Injection counters, surfaced next to NicStats on the concrete side and in
// core::EngineResult / perf::SubstrateCounters on the symbolic side.
struct FaultStats {
  uint64_t decisions = 0;  // schedule points consulted (cursor advances)
  uint64_t irq_dropped = 0;
  uint64_t irq_duplicated = 0;
  uint64_t irq_delayed = 0;
  uint64_t dma_read_stalls = 0;
  uint64_t dma_write_drops = 0;
  uint64_t bus_errors = 0;
  uint64_t reg_corruptions = 0;
  uint64_t frames_truncated = 0;
  uint64_t frames_oversized = 0;

  uint64_t TotalInjected() const {
    return irq_dropped + irq_duplicated + irq_delayed + dma_read_stalls + dma_write_drops +
           bus_errors + reg_corruptions + frames_truncated + frames_oversized;
  }

  // The field list (util/fields.h), in serialized order.
  static constexpr uint64_t FaultStats::*kFields[] = {
      &FaultStats::decisions, &FaultStats::irq_dropped, &FaultStats::irq_duplicated,
      &FaultStats::irq_delayed, &FaultStats::dma_read_stalls, &FaultStats::dma_write_drops,
      &FaultStats::bus_errors, &FaultStats::reg_corruptions, &FaultStats::frames_truncated,
      &FaultStats::frames_oversized};

  // Segment arithmetic for the parallel merge, same contract as EngineStats:
  // += sums a segment in, -= rebases against a BeginSegment mark.
  FaultStats& operator+=(const FaultStats& o) { return AddFields(*this, o); }
  FaultStats& operator-=(const FaultStats& o) { return SubtractFields(*this, o); }
};
static_assert(FieldListCovers<FaultStats>());

// One-line human-readable rendering (CLI reports).
std::string FormatFaultStats(const FaultStats& stats);

enum class IrqFault : uint8_t { kNone = 0, kDrop, kDup, kDelay };
enum class DmaReadFault : uint8_t { kNone = 0, kStall, kBusError };
enum class FrameFault : uint8_t { kNone = 0, kTruncate, kOversize };

// The seeded schedule. Every On* call is one boundary event: it advances the
// cursor by exactly one and decides, as a pure function of
// (plan, cursor index, address, kind), whether a fault fires there. A
// disabled plan makes every On* a no-op (cursor untouched), so wrapping with
// an empty plan is free.
class FaultSchedule {
 public:
  FaultSchedule() = default;
  explicit FaultSchedule(const FaultPlan& plan) : plan_(plan), enabled_(plan.Enabled()) {}

  bool enabled() const { return enabled_; }
  const FaultPlan& plan() const { return plan_; }

  // Device-register read-back: true => replace the device's data with
  // *poison (caller masks to the access width).
  bool OnRegRead(uint32_t addr, uint32_t* poison);
  // Device-side DMA read burst starting at `addr`.
  DmaReadFault OnDmaRead(uint32_t addr);
  // Device-side DMA write burst: true => drop it.
  bool OnDmaWrite(uint32_t addr);
  // Frame handed to the device by the medium; `length` keys the decision.
  FrameFault OnFrame(uint32_t length);
  // Applies OnFrame to `frame` in place (truncate to a seeded runt length /
  // pad past the Ethernet max with seeded fill).
  void ApplyFrameFault(Frame* frame);
  // Rising IRQ edge observed from the wrapped device.
  IrqFault OnIrqEdge();

  // Plan-shape decision for the engine's scripted IRQ injections (§3.2
  // heuristic 3): pure function of (plan, irq step ordinal); deliberately
  // does NOT touch the cursor, so every replica shapes the identical plan no
  // matter where its cursor stands.
  static IrqFault PlanIrqDecision(const FaultPlan& plan, uint32_t ordinal);
  // Deterministic 32-bit poison word for (plan, index, addr).
  static uint32_t PoisonValue(const FaultPlan& plan, uint64_t index, uint32_t addr);

  // ---- snapshot support ----
  // The cursor feeds every decision, so a restored chain must resume it
  // exactly (same contract as core::ShellBridge's symbol serial); the stats
  // ride along so segment deltas stay correct.
  uint64_t cursor() const { return cursor_; }
  void set_cursor(uint64_t c) { cursor_ = c; }
  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }
  void set_stats(const FaultStats& s) { stats_ = s; }

 private:
  bool Fires(FaultKind kind, uint64_t index, uint32_t addr) const;

  FaultPlan plan_;
  bool enabled_ = false;
  uint64_t cursor_ = 0;
  FaultStats stats_;
};

// RamPort proxy on the AttachRam path: perturbs the wrapped device's DMA
// bursts (stalled reads, dropped writes, bus-error poisoning) while the OS
// and CPU sides keep talking to the real MemoryMap.
class FaultRamPort : public vm::RamPort {
 public:
  FaultRamPort(vm::RamPort* inner, FaultSchedule* schedule)
      : inner_(inner), schedule_(schedule) {}

  uint32_t ReadRam(uint32_t addr, unsigned size) const override;
  void WriteRam(uint32_t addr, unsigned size, uint32_t value) override;
  void WriteRamBytes(uint32_t addr, const uint8_t* data, size_t len) override;
  void ReadRamBytes(uint32_t addr, uint8_t* out, size_t len) const override;

 private:
  vm::RamPort* inner_;
  FaultSchedule* schedule_;  // owned by the FaultInjector; mutated on reads
};

// Fault-injecting NicDevice proxy (the CountingIoProxy shape, lifted to the
// full device interface). Wraps any model: register traffic, DMA, frames,
// and the IRQ line all pass through the schedule; everything else forwards.
// Hosts (any os::MiniportHost) use it exactly like the inner device:
//
//   auto dev = drivers::MakeDevice(id);
//   hw::FaultInjector faulty(dev.get(), plan);
//   os::ConcreteWinSimHost host(image, &faulty);
class FaultInjector : public NicDevice {
 public:
  // `inner` must outlive the injector. The injector takes over the inner
  // device's tx/irq hooks; install observer hooks on the injector instead.
  FaultInjector(NicDevice* inner, const FaultPlan& plan);

  // vm::IoHandler -- the driver-facing register window.
  uint32_t IoRead(uint32_t addr, unsigned size) override;
  void IoWrite(uint32_t addr, unsigned size, uint32_t value) override;

  // NicDevice.
  const PciConfig& pci() const override { return inner_->pci(); }
  const char* name() const override { return inner_->name(); }
  void Reset() override;
  bool InjectReceive(const Frame& frame) override;
  void AttachRam(vm::RamPort* ram) override;
  const NicStats& stats() const override { return inner_->stats(); }
  MacAddr mac() const override { return inner_->mac(); }
  bool promiscuous() const override { return inner_->promiscuous(); }
  bool rx_enabled() const override { return inner_->rx_enabled(); }
  bool tx_enabled() const override { return inner_->tx_enabled(); }
  bool full_duplex() const override { return inner_->full_duplex(); }
  bool wol_armed() const override { return inner_->wol_armed(); }
  uint8_t led_state() const override { return inner_->led_state(); }
  bool MulticastAccepts(const MacAddr& mc) const override {
    return inner_->MulticastAccepts(mc);
  }

  FaultSchedule& schedule() { return schedule_; }
  const FaultStats& fault_stats() const { return schedule_.stats(); }

 private:
  void OnInnerIrq(bool level);
  // Delayed rising edges surface at the driver's next register access (the
  // next deterministic boundary event).
  void DeliverPendingIrq();

  NicDevice* inner_;
  FaultSchedule schedule_;
  std::unique_ptr<FaultRamPort> dma_ram_;
  bool seen_level_ = false;       // inner device's current line level
  bool delivered_level_ = false;  // level the outer hook has been told
  bool suppressed_ = false;       // current pulse was dropped
  bool pending_rise_ = false;     // current pulse is delayed
};

}  // namespace revnic::hw

#endif  // REVNIC_HW_FAULTS_H_

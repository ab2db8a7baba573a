// Deterministic fault injection (src/hw/faults.h): spec grammar round-trips,
// the schedule is a pure function of (plan, cursor, address, kind), the
// FaultInjector proxy's IRQ edge machine matches its contract, an empty plan
// is perfectly transparent, and -- the headline invariant -- the synthesized
// driver reproduces the original's hardware I/O trace even when the device
// misbehaves under a seeded fault plan (the §5.2 equivalence argument
// extended to the error paths).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/session.h"
#include "drivers/drivers.h"
#include "drivers/native.h"
#include "hw/faults.h"
#include "native/harness.h"
#include "os/recovered_host.h"
#include "os/winsim_host.h"

namespace revnic {
namespace {

using drivers::DriverId;
using hw::FaultKind;
using os::TargetOs;

// ---- spec grammar ----

TEST(FaultPlanSpec, ParsesAndRoundTrips) {
  hw::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(hw::ParseFaultPlan("42:irq-drop=0.2,reg-corrupt=0.05", &plan, &error)) << error;
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.rate(FaultKind::kIrqDrop), 0.2);
  EXPECT_DOUBLE_EQ(plan.rate(FaultKind::kRegCorrupt), 0.05);
  EXPECT_DOUBLE_EQ(plan.rate(FaultKind::kBusError), 0.0);
  EXPECT_TRUE(plan.Enabled());

  // Format -> reparse is the identity on (seed, rates).
  hw::FaultPlan reparsed;
  ASSERT_TRUE(hw::ParseFaultPlan(hw::FormatFaultPlan(plan), &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.seed, plan.seed);
  for (unsigned i = 0; i < hw::kNumFaultKinds; ++i) {
    EXPECT_DOUBLE_EQ(reparsed.rates[i], plan.rates[i]) << i;
  }
}

TEST(FaultPlanSpec, AllSetsEveryKind) {
  hw::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(hw::ParseFaultPlan("7:all=0.1", &plan, &error)) << error;
  EXPECT_EQ(plan.seed, 7u);
  for (unsigned i = 0; i < hw::kNumFaultKinds; ++i) {
    EXPECT_DOUBLE_EQ(plan.rates[i], 0.1) << i;
  }
  // A later entry refines the blanket rate.
  ASSERT_TRUE(hw::ParseFaultPlan("7:all=0.1,irq-drop=0.5", &plan, &error)) << error;
  EXPECT_DOUBLE_EQ(plan.rate(FaultKind::kIrqDrop), 0.5);
  EXPECT_DOUBLE_EQ(plan.rate(FaultKind::kIrqDup), 0.1);
}

TEST(FaultPlanSpec, KindNamesRoundTrip) {
  for (unsigned i = 0; i < hw::kNumFaultKinds; ++i) {
    FaultKind kind = static_cast<FaultKind>(i);
    FaultKind back;
    ASSERT_TRUE(hw::FindFaultKind(hw::FaultKindName(kind), &back)) << i;
    EXPECT_EQ(back, kind);
  }
  FaultKind unused;
  EXPECT_FALSE(hw::FindFaultKind("all", &unused));  // grammar keyword, not a kind
}

// ---- schedule purity ----

hw::FaultPlan MixedPlan(uint64_t seed) {
  hw::FaultPlan plan;
  plan.seed = seed;
  plan.set_rate(FaultKind::kRegCorrupt, 0.3);
  plan.set_rate(FaultKind::kDmaReadStall, 0.2);
  plan.set_rate(FaultKind::kBusError, 0.2);
  plan.set_rate(FaultKind::kIrqDrop, 0.25);
  plan.set_rate(FaultKind::kFrameTruncate, 0.4);
  return plan;
}

// One mixed boundary-event sequence; returns the decision trace as a string
// so two schedules can be compared decision-for-decision.
std::string DecisionTrace(hw::FaultSchedule& s, int events) {
  std::string trace;
  for (int i = 0; i < events; ++i) {
    uint32_t addr = static_cast<uint32_t>((i * 7) % 64);
    switch (i % 4) {
      case 0: {
        uint32_t poison = 0;
        trace += s.OnRegRead(addr, &poison) ? 'R' : '.';
        break;
      }
      case 1:
        trace += "ns b"[static_cast<int>(s.OnDmaRead(addr))];
        break;
      case 2:
        trace += s.OnDmaWrite(addr) ? 'W' : '.';
        break;
      default:
        trace += "nto"[static_cast<int>(s.OnFrame(addr + 64))];
        break;
    }
  }
  return trace;
}

TEST(FaultSchedule, PureFunctionOfPlanAndCursor) {
  hw::FaultSchedule a(MixedPlan(1));
  hw::FaultSchedule b(MixedPlan(1));
  std::string trace_a = DecisionTrace(a, 600);
  EXPECT_EQ(trace_a, DecisionTrace(b, 600));
  EXPECT_EQ(a.cursor(), b.cursor());
  EXPECT_EQ(a.cursor(), 600u);
  EXPECT_EQ(a.stats().decisions, 600u);
  EXPECT_EQ(a.stats().TotalInjected(), b.stats().TotalInjected());
  EXPECT_GT(a.stats().TotalInjected(), 0u);

  // A different seed reshuffles the decisions (deterministically).
  hw::FaultSchedule c(MixedPlan(2));
  EXPECT_NE(trace_a, DecisionTrace(c, 600));
}

TEST(FaultSchedule, RateEndpointsAreSwitches) {
  hw::FaultPlan plan;
  plan.seed = 9;
  plan.set_rate(FaultKind::kRegCorrupt, 1.0);  // rate 1: always
  // kDmaWriteDrop stays 0: never, even though the plan is enabled.
  hw::FaultSchedule s(plan);
  for (int i = 0; i < 100; ++i) {
    uint32_t poison = 0;
    EXPECT_TRUE(s.OnRegRead(static_cast<uint32_t>(i), &poison)) << i;
    EXPECT_FALSE(s.OnDmaWrite(static_cast<uint32_t>(i))) << i;
  }
  EXPECT_EQ(s.stats().reg_corruptions, 100u);
  EXPECT_EQ(s.stats().dma_write_drops, 0u);
  // Rate-0 events still advance the cursor: the decision *point* exists.
  EXPECT_EQ(s.stats().decisions, 200u);
  EXPECT_EQ(s.cursor(), 200u);
}

TEST(FaultSchedule, DisabledPlanIsFree) {
  hw::FaultSchedule s;  // default: all rates zero
  EXPECT_FALSE(s.enabled());
  uint32_t poison = 0;
  EXPECT_FALSE(s.OnRegRead(0x10, &poison));
  EXPECT_EQ(s.OnDmaRead(0x2000), hw::DmaReadFault::kNone);
  EXPECT_FALSE(s.OnDmaWrite(0x2000));
  EXPECT_EQ(s.OnFrame(64), hw::FrameFault::kNone);
  EXPECT_EQ(s.OnIrqEdge(), hw::IrqFault::kNone);
  EXPECT_EQ(s.cursor(), 0u);  // no-ops do not advance the schedule
  EXPECT_EQ(s.stats().decisions, 0u);
}

TEST(FaultSchedule, CursorRestoreResumesExactly) {
  // The snapshot contract: set_cursor/set_stats at any point resumes the
  // decision stream exactly where the donor schedule stood.
  hw::FaultSchedule full(MixedPlan(31));
  std::string want = DecisionTrace(full, 400);

  hw::FaultSchedule first(MixedPlan(31));
  std::string head = DecisionTrace(first, 200);
  hw::FaultSchedule resumed(MixedPlan(31));
  resumed.set_cursor(first.cursor());
  resumed.set_stats(first.stats());
  // DecisionTrace keys addresses off the loop index, so replay the tail with
  // the original indices.
  std::string tail;
  for (int i = 200; i < 400; ++i) {
    uint32_t addr = static_cast<uint32_t>((i * 7) % 64);
    switch (i % 4) {
      case 0: {
        uint32_t poison = 0;
        tail += resumed.OnRegRead(addr, &poison) ? 'R' : '.';
        break;
      }
      case 1:
        tail += "ns b"[static_cast<int>(resumed.OnDmaRead(addr))];
        break;
      case 2:
        tail += resumed.OnDmaWrite(addr) ? 'W' : '.';
        break;
      default:
        tail += "nto"[static_cast<int>(resumed.OnFrame(addr + 64))];
        break;
    }
  }
  EXPECT_EQ(head + tail, want);
  EXPECT_EQ(resumed.stats().TotalInjected(), full.stats().TotalInjected());
  EXPECT_EQ(resumed.cursor(), full.cursor());
}

TEST(FaultSchedule, PoisonValuesAreSeededAndKeyed) {
  hw::FaultPlan plan = MixedPlan(5);
  EXPECT_EQ(hw::FaultSchedule::PoisonValue(plan, 10, 0x30),
            hw::FaultSchedule::PoisonValue(plan, 10, 0x30));
  EXPECT_NE(hw::FaultSchedule::PoisonValue(plan, 10, 0x30),
            hw::FaultSchedule::PoisonValue(plan, 11, 0x30));
  EXPECT_NE(hw::FaultSchedule::PoisonValue(plan, 10, 0x30),
            hw::FaultSchedule::PoisonValue(plan, 10, 0x34));
}

TEST(FaultSchedule, PlanIrqDecisionIgnoresCursor) {
  hw::FaultPlan plan = MixedPlan(17);
  // Shape decisions depend on the ordinal alone -- never on schedule state --
  // so every replica shapes the identical exercise plan.
  for (uint32_t ordinal = 0; ordinal < 64; ++ordinal) {
    EXPECT_EQ(hw::FaultSchedule::PlanIrqDecision(plan, ordinal),
              hw::FaultSchedule::PlanIrqDecision(plan, ordinal));
  }
  EXPECT_EQ(hw::FaultSchedule::PlanIrqDecision(hw::FaultPlan{}, 3), hw::IrqFault::kNone);
}

// ---- FaultInjector proxy: IRQ edge machine + frame shaping ----

// Minimal inner device: InjectReceive raises the line, IoWrite acks it.
class PulseNic : public hw::NicDevice {
 public:
  uint32_t IoRead(uint32_t, unsigned) override { return 0; }
  void IoWrite(uint32_t, unsigned, uint32_t) override { SetIrq(false); }
  const hw::PciConfig& pci() const override { return pci_; }
  const char* name() const override { return "pulse"; }
  void Reset() override { SetIrq(false); }
  bool InjectReceive(const hw::Frame& frame) override {
    last_rx = frame;
    SetIrq(true);
    return true;
  }
  hw::MacAddr mac() const override { return {}; }
  bool promiscuous() const override { return false; }
  bool rx_enabled() const override { return true; }
  bool tx_enabled() const override { return true; }

  hw::Frame last_rx;

 private:
  hw::PciConfig pci_ = hw::Rtl8029Config();
};

hw::FaultPlan SingleKind(FaultKind kind, double rate = 1.0) {
  hw::FaultPlan plan;
  plan.seed = 77;
  plan.set_rate(kind, rate);
  return plan;
}

std::vector<bool> DriveOnePulse(FaultKind kind) {
  PulseNic inner;
  hw::FaultInjector faulty(&inner, SingleKind(kind));
  std::vector<bool> edges;
  faulty.set_irq_hook([&edges](bool level) { edges.push_back(level); });
  hw::Frame f = hw::BuildUdpFrame({1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2}, 100, 0xAB);
  EXPECT_TRUE(faulty.InjectReceive(f));
  faulty.IoRead(0x10, 2);      // a register access mid-pulse
  faulty.IoWrite(0x00, 2, 1);  // ack: inner lowers the line
  return edges;
}

TEST(FaultInjector, IrqDropSwallowsTheWholePulse) {
  EXPECT_TRUE(DriveOnePulse(FaultKind::kIrqDrop).empty());
}

TEST(FaultInjector, IrqDupDeliversASpuriousSecondEdge) {
  EXPECT_EQ(DriveOnePulse(FaultKind::kIrqDup),
            (std::vector<bool>{true, false, true, false}));
}

TEST(FaultInjector, IrqDelayDefersToTheNextRegisterAccess) {
  // With an access mid-pulse the delayed rise surfaces there, then the ack
  // (itself a register access, but the rise is already out) falls normally.
  EXPECT_EQ(DriveOnePulse(FaultKind::kIrqDelay), (std::vector<bool>{true, false}));

  // If the pulse ends before ANY register access -- the device deasserts
  // spontaneously, modeled by poking the inner device directly -- the rise
  // never surfaces and the stale pending edge is cancelled, not delivered at
  // some later unrelated access.
  PulseNic inner;
  hw::FaultInjector faulty(&inner, SingleKind(FaultKind::kIrqDelay));
  std::vector<bool> edges;
  faulty.set_irq_hook([&edges](bool level) { edges.push_back(level); });
  hw::Frame f = hw::BuildUdpFrame({1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2}, 100, 0xAB);
  EXPECT_TRUE(faulty.InjectReceive(f));
  inner.IoWrite(0x00, 2, 1);  // inner deasserts with no outer register access
  faulty.IoRead(0x10, 2);     // later access: nothing pending to deliver
  EXPECT_TRUE(edges.empty());
}

TEST(FaultInjector, FrameFaultsShapeRuntsAndGiants) {
  {
    PulseNic inner;
    hw::FaultInjector faulty(&inner, SingleKind(FaultKind::kFrameTruncate));
    hw::Frame f = hw::BuildUdpFrame({1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2}, 400, 0xCD);
    EXPECT_TRUE(faulty.InjectReceive(f));
    EXPECT_LT(inner.last_rx.size(), hw::kEthMinFrame);
    EXPECT_GE(inner.last_rx.size(), hw::kEthHeaderLen);
    EXPECT_EQ(faulty.fault_stats().frames_truncated, 1u);
  }
  {
    PulseNic inner;
    hw::FaultInjector faulty(&inner, SingleKind(FaultKind::kFrameOversize));
    hw::Frame f = hw::BuildUdpFrame({1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2}, 400, 0xCD);
    EXPECT_TRUE(faulty.InjectReceive(f));
    EXPECT_GT(inner.last_rx.size(), hw::kEthMaxFrame);
    EXPECT_EQ(faulty.fault_stats().frames_oversized, 1u);
  }
}

TEST(FaultInjector, RegCorruptionPoisonsReadback) {
  PulseNic inner;
  hw::FaultInjector faulty(&inner, SingleKind(FaultKind::kRegCorrupt));
  // Inner always reads 0; rate-1 corruption replaces it with the seeded
  // poison, masked to the access width.
  uint32_t byte = faulty.IoRead(0x04, 1);
  EXPECT_LE(byte, 0xFFu);
  EXPECT_EQ(byte, hw::FaultSchedule::PoisonValue(SingleKind(FaultKind::kRegCorrupt),
                                                 /*index=*/0, 0x04) &
                      0xFFu);
  EXPECT_EQ(faulty.fault_stats().reg_corruptions, 1u);
}

TEST(FaultInjector, EmptyPlanIsTransparent) {
  // Wrapping with a disabled plan must not change a single observable:
  // identical wire traces, device state, and delivered frames -- the proxy
  // costs nothing when off. rtl8139 is a bus master, so the interposed
  // FaultRamPort forwards DMA too.
  // The workload is native::RunRace's clean parity one.
  const DriverId id = DriverId::kRtl8139;
  auto dev_wrapped = drivers::MakeDevice(id);
  auto dev_plain = drivers::MakeDevice(id);
  hw::FaultInjector faulty(dev_wrapped.get(), hw::FaultPlan{});
  os::ConcreteWinSimHost wrapped(drivers::DriverImage(id), &faulty);
  os::ConcreteWinSimHost plain(drivers::DriverImage(id), dev_plain.get());
  ASSERT_TRUE(wrapped.Initialize());
  ASSERT_TRUE(plain.Initialize());
  std::string detail;
  EXPECT_TRUE(native::CleanParity(wrapped, plain, &detail)) << detail;
  EXPECT_EQ(faulty.fault_stats().decisions, 0u);
  EXPECT_EQ(dev_wrapped->stats().tx_frames, dev_plain->stats().tx_frames);
  EXPECT_EQ(dev_wrapped->stats().rx_frames, dev_plain->stats().rx_frames);
}

TEST(FaultInjector, HostileRatesNeverCrashTheHost) {
  // A third of every boundary event misbehaving is far beyond any real
  // line-quality scenario; the host and the rtl8139 model (DMA + IRQ + frame
  // paths all perturbed) must degrade into failed statuses, not UB or hangs.
  // ASan/UBSan builds run this under `ctest -L sanitize`.
  hw::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(hw::ParseFaultPlan("13:all=0.33", &plan, &error)) << error;
  auto dev = drivers::MakeDevice(DriverId::kRtl8139);
  hw::FaultInjector faulty(dev.get(), plan);
  os::ConcreteWinSimHost host(drivers::DriverImage(DriverId::kRtl8139), &faulty);
  bool up = host.Initialize();  // may legitimately fail under corruption
  hw::MacAddr bcast = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  for (int i = 0; i < 8; ++i) {
    host.SendFrame(hw::BuildUdpFrame({1, 2, 3, 4, 5, 6}, {2, 2, 2, 2, 2, 2},
                                     64 + i * 170, static_cast<uint8_t>(i)));
    faulty.InjectReceive(hw::BuildUdpFrame({3, 3, 3, 3, 3, 3}, bcast, 80 + i * 150,
                                           static_cast<uint8_t>(0x40 + i)));
    host.DeliverInterrupts();
  }
  if (up) {
    host.Halt();
  }
  EXPECT_GT(faulty.fault_stats().decisions, 0u);
  EXPECT_GT(faulty.fault_stats().TotalInjected(), 0u);
}

// ---- the headline invariant: the synthesized driver preserves the faulty
// I/O trace (§5.2 equivalence, extended to the error paths) ----

core::PipelineResult PipelineFor(DriverId id) {
  core::EngineConfig cfg;
  cfg.pci = drivers::DriverPci(id);
  cfg.max_work = 250'000;
  std::string error;
  auto session = core::CheckpointStore::Global().Resume(
      drivers::DriverName(id), drivers::DriverImage(id), cfg, "", &error);
  if (session == nullptr) {
    ADD_FAILURE() << error;
    return {};
  }
  session->RunAll();
  return session->TakeResult();
}

class FaultedPortedDriverTest
    : public ::testing::TestWithParam<std::tuple<DriverId, TargetOs>> {};

TEST_P(FaultedPortedDriverTest, FaultyIoTracePreservedBySynthesizedDriver) {
  auto [id, target] = GetParam();
  const core::PipelineResult& r = PipelineFor(id);

  // IRQ and frame faults only: these perturb the driver's *inputs* (missed
  // interrupts, runt/giant frames), which vendor drivers handle on code
  // paths the exerciser recovers. DMA/register corruption can instead steer
  // execution into the module's flagged coverage holes ("unexplored
  // branches", §4.2) where the synthesized driver -- by design -- bails to
  // the developer rather than diverging silently; those hostile rates are
  // covered by HostileRatesNeverCrashTheHost and the soak tier.
  hw::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(hw::ParseFaultPlan(
      "1729:irq-drop=0.2,irq-delay=0.15,frame-truncate=0.35,frame-oversize=0.25", &plan,
      &error))
      << error;

  auto dev_orig = drivers::MakeDevice(id);
  hw::FaultInjector faulty_orig(dev_orig.get(), plan);
  os::ConcreteWinSimHost orig(drivers::DriverImage(id), &faulty_orig);
  ASSERT_TRUE(orig.Initialize());
  auto dev_port = drivers::MakeDevice(id);
  hw::FaultInjector faulty_port(dev_port.get(), plan);
  os::RecoveredDriverHost port(&r.module, &faulty_port, target);
  ASSERT_TRUE(port.Initialize());

  // native::RunRace's faulted workload. The decisive comparison: identical
  // faults fired (same decision stream from the workload boundary on) and
  // every send status, rx acceptance, wire frame and upward delivery agree.
  std::string detail;
  EXPECT_TRUE(
      native::FaultedParity(orig, faulty_orig.schedule(), port, faulty_port.schedule(), &detail))
      << detail;
  EXPECT_EQ(faulty_orig.fault_stats().TotalInjected(),
            faulty_port.fault_stats().TotalInjected());
  EXPECT_GT(faulty_orig.fault_stats().TotalInjected(), 0u);
  EXPECT_EQ(dev_orig->rx_enabled(), dev_port->rx_enabled());
  EXPECT_EQ(dev_orig->stats().tx_frames, dev_port->stats().tx_frames);
  EXPECT_EQ(dev_orig->stats().rx_frames, dev_port->stats().rx_frames);
  EXPECT_EQ(dev_orig->stats().rx_dropped, dev_port->stats().rx_dropped);
}

std::string FaultedName(const ::testing::TestParamInfo<std::tuple<DriverId, TargetOs>>& info) {
  return std::string(drivers::DriverName(std::get<0>(info.param))) + "_to_" +
         os::TargetOsName(std::get<1>(info.param));
}

// All four drivers and all four target OSes appear (the paper's §5.1 porting
// matrix restricted to one tuple per driver keeps the exercising budget at
// one checkpointed run per driver).
INSTANTIATE_TEST_SUITE_P(
    DriversAcrossTargets, FaultedPortedDriverTest,
    ::testing::Values(std::tuple{DriverId::kRtl8029, TargetOs::kWindows},
                      std::tuple{DriverId::kRtl8139, TargetOs::kLinux},
                      std::tuple{DriverId::kPcnet, TargetOs::kKitos},
                      std::tuple{DriverId::kSmc91c111, TargetOs::kUcos},
                      std::tuple{DriverId::kEl3, TargetOs::kKitos}),
    FaultedName);

}  // namespace
}  // namespace revnic

// WinSim kernel-API semantics, independent of any driver, and the
// miniport workload protocol every driver host shares.
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "os/miniport_host.h"
#include "os/winsim.h"

namespace revnic::os {
namespace {

class WinSimTest : public ::testing::Test {
 protected:
  WinSimTest() : winsim_(hw::Rtl8139Config()), ram_(1 << 20), mem_(&ram_) {}
  WinSim winsim_;
  vm::MemoryMap ram_;
  RamGuestMem mem_;
};

TEST_F(WinSimTest, SignatureTableConsistent) {
  for (uint32_t id = 1; id < kNdisApiCount; ++id) {
    const ApiSignature& sig = SignatureOf(id);
    EXPECT_STRNE(sig.name, "?") << id;
    EXPECT_LE(sig.argc, 5u) << sig.name;
  }
  EXPECT_STREQ(SignatureOf(9999).name, "?");
}

TEST_F(WinSimTest, RegisterMiniportParsesCharacteristics) {
  // Build a characteristics table at 0x100.
  for (unsigned slot = 0; slot < 9; ++slot) {
    mem_.Write(0x100 + slot * 4, 4, 0x401000 + slot * 0x10);
  }
  auto out = winsim_.HandleApi(kNdisMRegisterMiniport, {0x100}, mem_);
  EXPECT_EQ(out.ret, kStatusSuccess);
  ASSERT_TRUE(winsim_.registered());
  EXPECT_EQ(winsim_.entries().size(), 9u);
  EXPECT_EQ(winsim_.EntryPc(EntryRole::kInitialize), 0x401000u);
  EXPECT_EQ(winsim_.EntryPc(EntryRole::kSend), 0x401030u);
  EXPECT_EQ(winsim_.EntryPc(EntryRole::kShutdown), 0x401080u);
}

TEST_F(WinSimTest, NullEntrySlotsAreSkipped) {
  mem_.Write(0x100 + kCharsInitialize, 4, 0x401000);
  // All other slots zero.
  winsim_.HandleApi(kNdisMRegisterMiniport, {0x100}, mem_);
  EXPECT_EQ(winsim_.entries().size(), 1u);
  EXPECT_EQ(winsim_.EntryPc(EntryRole::kSend), 0u);
}

TEST_F(WinSimTest, AllocationsDisjointAndAligned) {
  uint32_t p1_slot = 0x10, p2_slot = 0x14;
  winsim_.HandleApi(kNdisAllocateMemory, {p1_slot, 100}, mem_);
  winsim_.HandleApi(kNdisAllocateMemory, {p2_slot, 100}, mem_);
  uint32_t p1 = mem_.Read(p1_slot, 4);
  uint32_t p2 = mem_.Read(p2_slot, 4);
  EXPECT_GE(p1, kHeapBase);
  EXPECT_GE(p2, p1 + 100);
  EXPECT_EQ(p1 % 16, 0u);
}

TEST_F(WinSimTest, SharedMemoryRegistersDmaRegion) {
  winsim_.HandleApi(kNdisMAllocateSharedMemory, {512, 0x20, 0x24}, mem_);
  uint32_t va = mem_.Read(0x20, 4);
  uint32_t pa = mem_.Read(0x24, 4);
  EXPECT_EQ(va, pa);  // identity-mapped
  EXPECT_GE(va, kDmaBase);
  EXPECT_TRUE(winsim_.dma().IsDma(va));
  EXPECT_TRUE(winsim_.dma().IsDma(va + 511));
  EXPECT_FALSE(winsim_.dma().IsDma(va + 512));
}

TEST_F(WinSimTest, PciConfigSpaceLayout) {
  winsim_.HandleApi(kNdisReadPciSlotInformation, {0, 0x40, 4}, mem_);
  EXPECT_EQ(mem_.Read(0x40, 2), 0x10ECu);  // vendor
  EXPECT_EQ(mem_.Read(0x42, 2), 0x8139u);  // device
  winsim_.HandleApi(kNdisReadPciSlotInformation, {0x10, 0x40, 4}, mem_);
  EXPECT_EQ(mem_.Read(0x40, 4), hw::Rtl8139Config().io_base | 1u);  // BAR0 | IO bit
  winsim_.HandleApi(kNdisReadPciSlotInformation, {0x3C, 0x40, 1}, mem_);
  EXPECT_EQ(mem_.Read(0x40, 1), hw::Rtl8139Config().irq_line);
}

TEST_F(WinSimTest, InterruptRegistrationChecksLine) {
  EXPECT_EQ(winsim_.HandleApi(kNdisMRegisterInterrupt, {hw::Rtl8139Config().irq_line}, mem_).ret,
            kStatusSuccess);
  EXPECT_EQ(winsim_.HandleApi(kNdisMRegisterInterrupt, {99}, mem_).ret, kStatusFailure);
}

TEST_F(WinSimTest, RegistryConfigurable) {
  EXPECT_EQ(winsim_.HandleApi(kNdisReadConfiguration, {0, kCfgDuplexMode, 0x50}, mem_).ret,
            kStatusFailure);
  winsim_.SetConfig(kCfgDuplexMode, 2);
  EXPECT_EQ(winsim_.HandleApi(kNdisReadConfiguration, {0, kCfgDuplexMode, 0x50}, mem_).ret,
            kStatusSuccess);
  EXPECT_EQ(mem_.Read(0x50, 4), 2u);
}

TEST_F(WinSimTest, TimersRegisterAndArm) {
  auto out = winsim_.HandleApi(kNdisInitializeTimer, {0x405000, 0xC1}, mem_);
  uint32_t timer_id = out.ret;
  EXPECT_EQ(winsim_.timers().size(), 1u);
  EXPECT_FALSE(winsim_.timers()[0].pending);
  winsim_.HandleApi(kNdisSetTimer, {timer_id, 1000}, mem_);
  EXPECT_TRUE(winsim_.timers()[0].pending);
  winsim_.HandleApi(kNdisCancelTimer, {timer_id}, mem_);
  EXPECT_FALSE(winsim_.timers()[0].pending);
  // Timer registration also surfaces as a kTimer entry point (§3.2).
  EXPECT_EQ(winsim_.EntryPc(EntryRole::kTimer), 0x405000u);
}

TEST_F(WinSimTest, RxIndicationCopiesFrame) {
  for (int i = 0; i < 8; ++i) {
    mem_.Write(0x1000 + i, 1, 0xA0 + i);
  }
  winsim_.HandleApi(kNdisMEthIndicateReceive, {0x1000, 8}, mem_);
  ASSERT_EQ(winsim_.rx_delivered().size(), 1u);
  EXPECT_EQ(winsim_.rx_delivered()[0].size(), 8u);
  EXPECT_EQ(winsim_.rx_delivered()[0][0], 0xA0);
  EXPECT_EQ(winsim_.counters().rx_indicated, 1u);
}

TEST_F(WinSimTest, MoveAndZeroMemoryCounted) {
  mem_.Write(0x100, 4, 0x11223344);
  winsim_.HandleApi(kNdisMoveMemory, {0x200, 0x100, 4}, mem_);
  EXPECT_EQ(mem_.Read(0x200, 4), 0x11223344u);
  winsim_.HandleApi(kNdisZeroMemory, {0x200, 4}, mem_);
  EXPECT_EQ(mem_.Read(0x200, 4), 0u);
  EXPECT_EQ(winsim_.counters().bytes_moved, 8u);
}

TEST_F(WinSimTest, SynchronizeWithInterruptDefersToHost) {
  auto out = winsim_.HandleApi(kNdisMSynchronizeWithInterrupt, {0x406000, 0x1234}, mem_);
  EXPECT_EQ(out.effect, ApiEffect::kCallGuestFunction);
  EXPECT_EQ(out.callback_pc, 0x406000u);
  EXPECT_EQ(out.callback_arg, 0x1234u);
}

TEST_F(WinSimTest, StallExecutionAccumulates) {
  winsim_.HandleApi(kNdisStallExecution, {25}, mem_);
  winsim_.HandleApi(kNdisMSleep, {75}, mem_);
  EXPECT_EQ(winsim_.counters().stall_micros, 100u);
}

TEST_F(WinSimTest, ApiUsageTracked) {
  winsim_.HandleApi(kNdisStallExecution, {1}, mem_);
  winsim_.HandleApi(kNdisStallExecution, {1}, mem_);
  winsim_.HandleApi(kNdisFreeMemory, {0, 0}, mem_);
  EXPECT_EQ(winsim_.api_usage().at(kNdisStallExecution), 2u);
  EXPECT_EQ(winsim_.api_usage().size(), 2u);
}

TEST_F(WinSimTest, ResetRuntimeStateClearsEverything) {
  winsim_.HandleApi(kNdisMAllocateSharedMemory, {64, 0x20, 0x24}, mem_);
  winsim_.HandleApi(kNdisInitializeTimer, {0x405000, 0}, mem_);
  winsim_.ResetRuntimeState();
  EXPECT_FALSE(winsim_.registered());
  EXPECT_TRUE(winsim_.timers().empty());
  EXPECT_EQ(winsim_.dma().NumRegions(), 0u);
  EXPECT_EQ(winsim_.counters().stall_micros, 0u);
}

// ---- MiniportHost: the shared workload protocol ----

// A device whose IRQ line the test drives; everything else is inert.
class LineNic : public hw::NicDevice {
 public:
  uint32_t IoRead(uint32_t, unsigned) override { return 0; }
  void IoWrite(uint32_t, unsigned, uint32_t) override {}
  const hw::PciConfig& pci() const override { return pci_; }
  const char* name() const override { return "line"; }
  void Reset() override {}
  bool InjectReceive(const hw::Frame&) override { return false; }
  hw::MacAddr mac() const override { return {}; }
  bool promiscuous() const override { return false; }
  bool rx_enabled() const override { return false; }
  bool tx_enabled() const override { return false; }
  void Raise(bool level) { SetIrq(level); }

 private:
  hw::PciConfig pci_ = hw::Rtl8139Config();
};

using RoleCalls = std::vector<std::pair<EntryRole, std::vector<uint32_t>>>;

// Records every role call. A role missing from `returns` is one the driver
// did not register: CallRole gives nullopt for it.
class RecordingHost : public MiniportHost {
 public:
  explicit RecordingHost(LineNic* nic) : MiniportHost(nic, kGuestRamSize) {}

  vm::MemoryMap& ram = mm_;
  GuestMem& mem = guest_mem_;
  RoleCalls calls;
  std::map<EntryRole, uint32_t> returns;
  std::function<void(EntryRole)> on_call;  // the driver's side effects

 protected:
  std::optional<uint32_t> CallRole(EntryRole role, const std::vector<uint32_t>& args) override {
    calls.emplace_back(role, args);
    auto it = returns.find(role);
    if (it == returns.end()) {
      return std::nullopt;
    }
    if (on_call) {
      on_call(role);
    }
    return it->second;
  }
};

// The (role, args) sequence of each request, with the scratch addresses
// written out: 0x200000 packet, 0x200100 frame bytes, 0x2007F0 OID length,
// 0x200800 OID buffer, 0x2000 driver handle.
TEST(MiniportHostTest, RoleCallsStageAtTheScratchLayout) {
  LineNic nic;
  RecordingHost host(&nic);
  constexpr uint32_t kCtx = 0xC0FFEE;
  for (EntryRole role : {EntryRole::kInitialize, EntryRole::kSend, EntryRole::kQueryInformation,
                         EntryRole::kSetInformation, EntryRole::kReset, EntryRole::kHalt}) {
    host.returns[role] = kStatusSuccess;
  }
  const hw::MacAddr mac = {0x02, 0x11, 0x22, 0x33, 0x44, 0x55};
  host.on_call = [&](EntryRole role) {
    if (role == EntryRole::kInitialize) {  // the context is WinSim's, as registered
      host.api_service().HandleApi(kNdisMSetAttributes, {kCtx}, host.mem);
    } else if (role == EntryRole::kQueryInformation) {
      host.ram.WriteRamBytes(0x200800, mac.data(), mac.size());
    }
  };
  ASSERT_TRUE(host.Initialize());
  hw::Frame frame = hw::BuildUdpFrame({1, 2, 3, 4, 5, 6}, {2, 2, 2, 2, 2, 2}, 90, 7);
  EXPECT_EQ(host.SendFrame(frame), kStatusSuccess);
  EXPECT_EQ(host.ram.ReadRam(0x200000, 4), 0x200100u);
  EXPECT_EQ(host.ram.ReadRam(0x200004, 4), frame.size());
  hw::Frame staged(frame.size());
  host.ram.ReadRamBytes(0x200100, staged.data(), staged.size());
  EXPECT_EQ(staged, frame);
  host.ram.WriteRam(0x2007F0, 4, 0xFFFFFFFF);
  EXPECT_EQ(host.QueryMac(), mac);
  EXPECT_EQ(host.ram.ReadRam(0x2007F0, 4), 0u);  // zeroed before the call
  EXPECT_TRUE(host.SetPacketFilter(kFilterPromiscuous));
  EXPECT_EQ(host.ram.ReadRam(0x200800, 4), kFilterPromiscuous);
  EXPECT_TRUE(host.Reset());
  host.Halt();
  host.Halt();  // the driver is down: the second halt calls nothing
  EXPECT_EQ(host.calls,
            (RoleCalls{{EntryRole::kInitialize, {0x2000}},
                       {EntryRole::kSend, {kCtx, 0x200000, 0}},
                       {EntryRole::kQueryInformation,
                        {kCtx, kOid8023CurrentAddress, 0x200800, 6, 0x2007F0}},
                       {EntryRole::kSetInformation,
                        {kCtx, kOidGenCurrentPacketFilter, 0x200800, 4, 0x2007F0}},
                       {EntryRole::kReset, {kCtx}},
                       {EntryRole::kHalt, {kCtx}}}));
}

TEST(MiniportHostTest, InterruptLoopStopsAtEightRoundsOrFirstUnrecognizedIsr) {
  LineNic nic;
  RecordingHost host(&nic);
  host.returns = {{EntryRole::kInitialize, kStatusSuccess},
                  {EntryRole::kIsr, 1},
                  {EntryRole::kHandleInterrupt, 0}};
  ASSERT_TRUE(host.Initialize());
  EXPECT_EQ(host.calls.size(), 1u);  // line low: no delivery after init

  nic.Raise(true);  // stays raised: kMaxInterruptDeliveries rounds
  host.calls.clear();
  host.DeliverInterrupts();
  ASSERT_EQ(host.calls.size(), 2u * kMaxInterruptDeliveries);
  for (size_t i = 0; i < host.calls.size(); ++i) {
    EXPECT_EQ(host.calls[i],
              (RoleCalls::value_type{i % 2 == 0 ? EntryRole::kIsr : EntryRole::kHandleInterrupt,
                                     {0}}));
  }

  host.calls.clear();  // the DPC lowering the line ends the loop
  host.on_call = [&](EntryRole role) { nic.Raise(role != EntryRole::kHandleInterrupt); };
  host.DeliverInterrupts();
  EXPECT_EQ(host.calls.size(), 2u);
  EXPECT_FALSE(host.irq_pending());

  nic.Raise(true);  // an unrecognizing isr ends it before the DPC
  host.calls.clear();
  host.returns[EntryRole::kIsr] = 0;
  host.DeliverInterrupts();
  EXPECT_EQ(host.calls, (RoleCalls{{EntryRole::kIsr, {0}}}));
}

TEST(MiniportHostTest, MissingRolesGiveNulloptAndHaltBeforeInitializeCallsNothing) {
  LineNic nic;
  RecordingHost host(&nic);  // registers no role at all
  host.Halt();
  EXPECT_FALSE(host.SendFrame(hw::Frame(60, 0)).has_value());
  EXPECT_TRUE(host.calls.empty());
  EXPECT_FALSE(host.Query(kOid8023CurrentAddress, nullptr, 6).has_value());
  EXPECT_FALSE(host.Set(kOidGenCurrentPacketFilter, nullptr, 4));
  EXPECT_FALSE(host.Reset());
  nic.Raise(true);
  host.DeliverInterrupts();  // a missing isr ends the loop at once
  EXPECT_FALSE(host.Initialize());
  EXPECT_EQ(host.calls.size(), 5u);
}

}  // namespace
}  // namespace revnic::os

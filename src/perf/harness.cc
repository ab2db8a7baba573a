#include "perf/harness.h"

#include <chrono>

#include "drivers/native.h"
#include "hw/counting.h"
#include "native/host.h"
#include "os/winsim_host.h"
#include "perf/native.h"
#include "util/log.h"

namespace revnic::perf {

namespace {

struct PacketLedger {
  double io_accesses = 0;
  double bytes_copied = 0;
  double guest_instrs = 0;
  double stall_us = 0;
  double host_ns = 0;  // measured wall time (compiled drivers only)
  bool ok = false;
};

// Per-configuration measurement plumbing.
class Bench {
 public:
  virtual ~Bench() = default;
  virtual bool Up() = 0;
  virtual PacketLedger SendOne(const hw::Frame& frame) = 0;
};

// A driver on one of the miniport hosts: the original binary on WinSim or
// the synthesized module in a target-OS template. Stalls are charged as the
// driver issued them; a template strips them before they reach WinSim
// (§4.2), so synthesized drivers are charged none.
template <typename Host>
class HostBench : public Bench {
 public:
  // `make_host(device, io)` builds the host over the bench's device and
  // counting proxy. `template_instrs` is the per-packet glue charged on top
  // of the host's own instruction count.
  template <typename MakeHost>
  HostBench(drivers::DriverId id, double template_instrs, MakeHost make_host)
      : device_(drivers::MakeDevice(id)),
        proxy_(device_.get()),
        host_(make_host(device_.get(), &proxy_)),
        template_instrs_(template_instrs) {}

  bool Up() override { return host_->Initialize(); }

  PacketLedger SendOne(const hw::Frame& frame) override {
    PacketLedger ledger;
    const os::WinSimCounters& api = host_->api_service().counters();
    uint64_t io0 = proxy_.total();
    uint64_t in0 = host_->guest_instrs();
    uint64_t st0 = api.stall_micros;
    uint64_t bm0 = api.bytes_moved;
    auto status = host_->SendFrame(frame);
    ledger.ok = status.has_value() && *status == os::kStatusSuccess;
    ledger.io_accesses = static_cast<double>(proxy_.total() - io0);
    ledger.guest_instrs = static_cast<double>(host_->guest_instrs() - in0) + template_instrs_;
    ledger.stall_us = static_cast<double>(api.stall_micros - st0);
    ledger.bytes_copied = static_cast<double>(api.bytes_moved - bm0);
    return ledger;
  }

 private:
  std::unique_ptr<hw::NicDevice> device_;
  hw::CountingIoProxy proxy_;
  std::unique_ptr<Host> host_;
  double template_instrs_;
};

class NativeBench : public Bench {
 public:
  // Fixed per-packet instruction estimate for native compiled code: compact
  // hand-written drivers spend far fewer instructions than interpreted guest
  // code; their cost is dominated by the io/byte terms.
  static constexpr double kNativeFixedInstrs = 900;

  explicit NativeBench(drivers::DriverId id)
      : device_(drivers::MakeDevice(id)),
        proxy_(device_.get()),
        driver_(drivers::MakeNativeDriver(id)),
        mm_(os::kGuestRamSize) {
    device_->AttachRam(&mm_);
    device_->set_irq_hook([this](bool level) { irq_ = level; });
  }

  bool Up() override {
    if (!driver_->Init(&proxy_, &mm_)) {
      return false;
    }
    driver_->set_rx_callback([](const hw::Frame&) {});
    return true;
  }

  PacketLedger SendOne(const hw::Frame& frame) override {
    PacketLedger ledger;
    uint64_t io0 = proxy_.total();
    uint64_t bc0 = driver_->bytes_copied();
    ledger.ok = driver_->Send(frame);
    if (irq_) {
      driver_->HandleInterrupt();
    }
    ledger.io_accesses = static_cast<double>(proxy_.total() - io0);
    ledger.bytes_copied = static_cast<double>(driver_->bytes_copied() - bc0);
    ledger.guest_instrs = kNativeFixedInstrs;
    return ledger;
  }

 private:
  std::unique_ptr<hw::NicDevice> device_;
  hw::CountingIoProxy proxy_;
  std::unique_ptr<drivers::NativeNicDriver> driver_;
  vm::MemoryMap mm_;
  bool irq_ = false;
};

// The compiled kitos driver on native::NativeKitosHost: the ledger comes
// from executing it, plus host wall time per send. Compiled code has no
// interpreted-instruction term, and its template strips stalls.
class CompiledBench : public Bench {
 public:
  explicit CompiledBench(const NativeSweepInputs& inputs)
      : device_(drivers::MakeDevice(inputs.driver)),
        host_(inputs.module, inputs.recovered, device_.get()) {}

  bool Up() override {
    std::string error;
    if (!host_.Bind(&error)) {
      RLOG_WARN("native sweep: %s", error.c_str());
      return false;
    }
    return host_.Initialize();
  }

  PacketLedger SendOne(const hw::Frame& frame) override {
    PacketLedger ledger;
    uint64_t io0 = host_.counters().io_total();
    uint64_t bm0 = host_.api_service().counters().bytes_moved;
    auto t0 = std::chrono::steady_clock::now();
    auto status = host_.SendFrame(frame);
    auto t1 = std::chrono::steady_clock::now();
    ledger.ok = status.has_value() && *status == os::kStatusSuccess;
    ledger.io_accesses = static_cast<double>(host_.counters().io_total() - io0);
    ledger.bytes_copied = static_cast<double>(host_.api_service().counters().bytes_moved - bm0);
    ledger.host_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    return ledger;
  }

 private:
  std::unique_ptr<hw::NicDevice> device_;
  native::NativeKitosHost host_;
};

std::unique_ptr<Bench> MakeBench(const SweepConfig& config) {
  switch (config.kind) {
    case DriverKind::kOriginalBinary:
      return std::make_unique<HostBench<os::ConcreteWinSimHost>>(
          config.driver, 0, [&](hw::NicDevice* device, vm::IoHandler* io) {
            return std::make_unique<os::ConcreteWinSimHost>(drivers::DriverImage(config.driver),
                                                            device, io);
          });
    case DriverKind::kSynthesized:
      // +700 instrs: the generic template's entry lock and glue (§4.2) --
      // the "slightly higher CPU utilization" of synthesized drivers (§5.3).
      return std::make_unique<HostBench<os::RecoveredDriverHost>>(
          config.driver, 700, [&](hw::NicDevice* device, vm::IoHandler* io) {
            return std::make_unique<os::RecoveredDriverHost>(config.module, device,
                                                             config.target, io);
          });
    case DriverKind::kNativeReference:
      return std::make_unique<NativeBench>(config.driver);
  }
  return nullptr;
}

}  // namespace

std::vector<size_t> DefaultPayloadSizes() {
  return {64, 128, 256, 384, 512, 640, 768, 896, 1024, 1152, 1280, 1408, 1472};
}

namespace {

// Brings `bench` up and runs the size sweep on it; `os_profile` selects the
// OS per-packet cost of the cycle model.
SweepResult Sweep(Bench* bench, const std::string& label, os::TargetOs os_profile,
                  unsigned packets_per_size, const PlatformProfile& profile,
                  const std::vector<size_t>& sizes) {
  SweepResult result;
  result.label = label;
  if (bench == nullptr || !bench->Up()) {
    RLOG_WARN("perf sweep '%s': bring-up failed", label.c_str());
    return result;
  }

  for (size_t payload : sizes) {
    hw::Frame frame =
        hw::BuildUdpFrame({0x52, 0x54, 0, 0, 0, 1}, {0x52, 0x54, 0, 0, 0, 2}, payload, 0xA5);
    PacketLedger sum;
    unsigned ok_count = 0;
    for (unsigned i = 0; i < packets_per_size; ++i) {
      PacketLedger one = bench->SendOne(frame);
      if (!one.ok) {
        continue;
      }
      ++ok_count;
      sum.io_accesses += one.io_accesses;
      sum.bytes_copied += one.bytes_copied;
      sum.guest_instrs += one.guest_instrs;
      sum.stall_us += one.stall_us;
      sum.host_ns += one.host_ns;
    }
    if (ok_count == 0) {
      RLOG_WARN("perf sweep '%s': all sends failed at payload %zu", label.c_str(), payload);
      return result;
    }
    double n = ok_count;
    PerfPoint point;
    point.payload_bytes = payload;
    point.io_accesses = sum.io_accesses / n;
    point.bytes_copied = sum.bytes_copied / n;
    point.guest_instrs = sum.guest_instrs / n;
    point.stall_us = sum.stall_us / n;
    point.host_ns = sum.host_ns / n;

    double driver_cycles = point.io_accesses * profile.cycles_per_io +
                           point.bytes_copied * profile.cycles_per_byte +
                           point.guest_instrs * profile.cycles_per_instr;
    double os_cycles = OsPacketCycles(profile, os_profile);
    if (os_profile != os::TargetOs::kKitos) {
      os_cycles += static_cast<double>(frame.size()) * profile.os_per_byte_cycles;
    }
    double cpu_cycles = driver_cycles + point.stall_us * profile.cpu_mhz + os_cycles;
    double cpu_us = cpu_cycles / profile.cpu_mhz;
    double frame_bits = static_cast<double>(frame.size() + 8 + 12) * 8;  // preamble + IFG
    double wire_us = profile.link_mbps > 0 ? frame_bits / profile.link_mbps : 0;
    double packet_us = profile.dma_overlap ? std::max(cpu_us, wire_us) : cpu_us + wire_us;
    point.throughput_mbps = static_cast<double>(payload) * 8 / packet_us;
    point.cpu_util = packet_us > 0 ? cpu_us / packet_us : 1.0;
    point.driver_cpu_frac = cpu_cycles > 0 ? driver_cycles / cpu_cycles : 0;
    result.points.push_back(point);
  }
  result.ok = true;
  return result;
}

}  // namespace

SweepResult RunSweep(const SweepConfig& config, const PlatformProfile& profile,
                     const std::vector<size_t>& sizes) {
  os::TargetOs os_profile =
      config.kind == DriverKind::kOriginalBinary ? os::TargetOs::kWindows : config.target;
  return Sweep(MakeBench(config).get(), config.label, os_profile, config.packets_per_size,
               profile, sizes);
}

SweepResult RunNativeMeasuredSweep(const NativeSweepInputs& inputs,
                                   const PlatformProfile& profile,
                                   const std::vector<size_t>& sizes) {
  // Bind fails on a missing or unloaded module; without the recovered
  // module there is no role table to call through.
  CompiledBench bench(inputs);
  return Sweep(inputs.recovered != nullptr ? &bench : nullptr, inputs.label,
               os::TargetOs::kKitos, inputs.packets_per_size, profile, sizes);
}

}  // namespace revnic::perf

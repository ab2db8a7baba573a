#include "native/harness.h"

#include <chrono>
#include <memory>
#include <vector>

#include "hw/counting.h"
#include "hw/faults.h"
#include "native/host.h"
#include "native/loader.h"
#include "native/toolchain.h"
#include "os/api.h"
#include "os/winsim_host.h"

namespace revnic::native {

namespace {

using drivers::DriverId;
using std::chrono::steady_clock;

// Host cycle counter for per-frame cost; falls back to nanoseconds where no
// TSC is reachable, so the field stays comparable-within-a-run everywhere.
uint64_t HostCycles() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   steady_clock::now().time_since_epoch())
                                   .count());
#endif
}

double ElapsedNs(steady_clock::time_point t0, steady_clock::time_point t1) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

hw::Frame TxFrame(size_t payload, uint8_t tag) {
  return hw::BuildUdpFrame({1, 2, 3, 4, 5, 6}, {2, 2, 2, 2, 2, 2}, payload, tag);
}

hw::Frame RxFrame(size_t payload, uint8_t tag) {
  hw::MacAddr bcast = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  return hw::BuildUdpFrame({3, 3, 3, 3, 3, 3}, bcast, payload, tag);
}

// Boots the original binary and the compiled driver on fresh devices, each
// behind a hw::FaultInjector over `plan` when one is given, and runs the
// matching parity workload over them.
bool RunParity(DriverId id, const NativeModule& module, const synth::RecoveredModule& recovered,
               const hw::FaultPlan* plan, std::string* detail) {
  const std::string under = plan != nullptr ? " under faults" : "";
  auto dev_orig = drivers::MakeDevice(id);
  auto dev_nat = drivers::MakeDevice(id);
  std::unique_ptr<hw::FaultInjector> faulty_orig, faulty_nat;
  if (plan != nullptr) {
    faulty_orig = std::make_unique<hw::FaultInjector>(dev_orig.get(), *plan);
    faulty_nat = std::make_unique<hw::FaultInjector>(dev_nat.get(), *plan);
  }
  os::ConcreteWinSimHost orig(drivers::DriverImage(id),
                              plan != nullptr ? faulty_orig.get() : dev_orig.get());
  if (!orig.Initialize()) {
    *detail = "original driver failed to initialize" + under;
    return false;
  }
  NativeKitosHost nat(&module, &recovered, plan != nullptr ? faulty_nat.get() : dev_nat.get());
  std::string err;
  if (!nat.Bind(&err)) {
    *detail = "bind: " + err;
    return false;
  }
  if (!nat.Initialize()) {
    *detail = "compiled driver failed to initialize" + under;
    return false;
  }
  if (plan == nullptr) {
    return CleanParity(orig, nat, detail);
  }
  return FaultedParity(orig, faulty_orig->schedule(), nat, faulty_nat->schedule(), detail);
}

void FinishSide(RaceSideStats* out, double wall_ns, uint64_t cycles) {
  out->wall_ns = wall_ns;
  if (out->frames > 0 && wall_ns > 0) {
    out->frames_per_sec = static_cast<double>(out->frames) / (wall_ns * 1e-9);
    out->ns_per_frame = wall_ns / static_cast<double>(out->frames);
    out->host_cycles_per_frame =
        static_cast<double>(cycles) / static_cast<double>(out->frames);
  }
}

// The measured frame loop, either side: a send on every frame, plus a
// broadcast receive and interrupt delivery on every fourth. Fills the
// frame, tx, rx and timing fields of `out`.
void RunFrames(os::MiniportHost& host, uint64_t frames, size_t payload, RaceSideStats* out) {
  hw::Frame tx = TxFrame(payload, 0x5C);
  hw::Frame rx = RxFrame(payload, 0x7E);
  auto t0 = steady_clock::now();
  uint64_t c0 = HostCycles();
  for (uint64_t i = 0; i < frames; ++i) {
    auto st = host.SendFrame(tx);
    if (st.has_value() && *st == os::kStatusSuccess) {
      ++out->tx_ok;
    }
    if ((i & 3u) == 3u) {
      host.device()->InjectReceive(rx);
      host.DeliverInterrupts();
      out->rx_delivered += host.rx_delivered().size();
      host.rx_delivered().clear();  // don't let a million-frame run hoard RAM
    }
  }
  uint64_t c1 = HostCycles();
  auto t1 = steady_clock::now();
  out->frames = frames;
  out->rx_delivered += host.rx_delivered().size();
  host.rx_delivered().clear();
  FinishSide(out, ElapsedNs(t0, t1), c1 - c0);
}

// OS memcpy traffic plus device DMA bytes.
uint64_t BytesCopied(os::MiniportHost& host) {
  const hw::NicStats& s = host.device()->stats();
  return host.api_service().counters().bytes_moved + s.tx_bytes + s.rx_bytes;
}

bool MeasureNative(DriverId id, const NativeModule& module,
                   const synth::RecoveredModule& recovered, const RaceOptions& opts,
                   RaceSideStats* out, std::string* error) {
  auto dev = drivers::MakeDevice(id);
  NativeKitosHost host(&module, &recovered, dev.get());
  if (!host.Bind(error)) {
    return false;
  }
  if (!host.Initialize()) {
    *error = "compiled driver failed to initialize for measurement";
    return false;
  }
  RunFrames(host, opts.native_frames, opts.payload, out);
  out->io_accesses = host.counters().io_total();
  out->bytes_copied = BytesCopied(host);
  return true;
}

bool MeasureDbt(DriverId id, const RaceOptions& opts, RaceSideStats* out,
                std::string* error) {
  auto dev = drivers::MakeDevice(id);
  hw::CountingIoProxy io(dev.get());
  os::ConcreteWinSimHost host(drivers::DriverImage(id), dev.get(), &io);
  if (!host.Initialize()) {
    *error = "original driver failed to initialize for measurement";
    return false;
  }
  uint64_t instrs0 = host.guest_instrs();
  RunFrames(host, opts.dbt_frames, opts.payload, out);
  out->io_accesses = io.total();
  out->bytes_copied = BytesCopied(host);
  out->guest_instrs = host.guest_instrs() - instrs0;
  return true;
}

}  // namespace

bool CleanParity(os::MiniportHost& orig, os::MiniportHost& port, std::string* detail) {
  std::vector<hw::Frame> wire_orig, wire_port;
  orig.device()->set_tx_hook([&](const hw::Frame& f) { wire_orig.push_back(f); });
  port.device()->set_tx_hook([&](const hw::Frame& f) { wire_port.push_back(f); });
  for (int i = 0; i < 8; ++i) {
    hw::Frame f = TxFrame(64 + (i * 173) % 1300, static_cast<uint8_t>(i));
    auto st_orig = orig.SendFrame(f);
    auto st_port = port.SendFrame(f);
    if (!st_orig.has_value() || !st_port.has_value() || *st_orig != *st_port) {
      *detail = "send status diverges at frame " + std::to_string(i);
      return false;
    }
  }
  hw::Frame rx = RxFrame(200, 0x7E);
  bool in_orig = orig.device()->InjectReceive(rx);
  bool in_port = port.device()->InjectReceive(rx);
  orig.DeliverInterrupts();
  port.DeliverInterrupts();

  if (wire_orig != wire_port) {
    *detail = "clean hardware I/O traces diverge (" + std::to_string(wire_orig.size()) +
              " vs " + std::to_string(wire_port.size()) + " wire frames)";
    return false;
  }
  if (in_orig != in_port || orig.rx_delivered() != port.rx_delivered()) {
    *detail = "receive-path delivery diverges";
    return false;
  }
  const hw::NicDevice& dev_orig = *orig.device();
  const hw::NicDevice& dev_port = *port.device();
  if (dev_orig.mac() != dev_port.mac() || dev_orig.promiscuous() != dev_port.promiscuous() ||
      dev_orig.rx_enabled() != dev_port.rx_enabled()) {
    *detail = "device end state diverges";
    return false;
  }
  return true;
}

bool FaultedParity(os::MiniportHost& orig, hw::FaultSchedule& orig_faults,
                   os::MiniportHost& port, hw::FaultSchedule& port_faults, std::string* detail) {
  orig_faults.set_cursor(0);
  orig_faults.set_stats({});
  port_faults.set_cursor(0);
  port_faults.set_stats({});

  std::vector<hw::Frame> wire_orig, wire_port;
  orig.device()->set_tx_hook([&](const hw::Frame& f) { wire_orig.push_back(f); });
  port.device()->set_tx_hook([&](const hw::Frame& f) { wire_port.push_back(f); });
  for (int i = 0; i < 6; ++i) {
    hw::Frame tx = TxFrame(64 + (i * 173) % 1300, static_cast<uint8_t>(i));
    auto st_orig = orig.SendFrame(tx);
    auto st_port = port.SendFrame(tx);
    if (!st_orig.has_value() || !st_port.has_value() || *st_orig != *st_port) {
      *detail = "faulted send status diverges at frame " + std::to_string(i);
      return false;
    }
    hw::Frame rx = RxFrame(80 + (i * 211) % 1200, static_cast<uint8_t>(0x40 + i));
    if (orig.device()->InjectReceive(rx) != port.device()->InjectReceive(rx)) {
      *detail = "faulted rx acceptance diverges at frame " + std::to_string(i);
      return false;
    }
    orig.DeliverInterrupts();
    port.DeliverInterrupts();
  }

  if (wire_orig != wire_port) {
    *detail = "faulted hardware I/O traces diverge";
    return false;
  }
  if (orig.rx_delivered() != port.rx_delivered()) {
    *detail = "faulted receive-path delivery diverges";
    return false;
  }
  if (orig_faults.cursor() != port_faults.cursor()) {
    *detail = "fault decision streams diverge (cursor " + std::to_string(orig_faults.cursor()) +
              " vs " + std::to_string(port_faults.cursor()) + ")";
    return false;
  }
  return true;
}

RaceResult RunRace(DriverId id, const std::string& kitos_source,
                   const synth::RecoveredModule& recovered, const RaceOptions& opts) {
  RaceResult res;
  if (!ToolchainAvailable(&res.skip_reason)) {
    return res;
  }
  res.available = true;

  std::string dir = opts.workdir.empty() ? DefaultWorkDir() : opts.workdir;
  std::string so = dir + "/driver_kitos_" + drivers::DriverName(id) + ".so";
  if (!CompileSharedObject(kitos_source, so, &res.error)) {
    return res;
  }
  res.so_path = so;
  NativeModule module;
  if (!module.Load(so, &res.error)) {
    return res;
  }

  res.parity_checked = true;
  res.parity_ok = RunParity(id, module, recovered, nullptr, &res.parity_detail);
  if (res.parity_ok && !opts.fault_plan.empty()) {
    hw::FaultPlan plan;
    std::string err;
    if (!hw::ParseFaultPlan(opts.fault_plan, &plan, &err)) {
      res.parity_ok = false;
      res.parity_detail = "bad fault plan: " + err;
    } else {
      res.parity_ok = RunParity(id, module, recovered, &plan, &res.parity_detail);
    }
  }

  if (opts.measure) {
    if (!MeasureNative(id, module, recovered, opts, &res.native_side, &res.error)) {
      return res;
    }
    if (!MeasureDbt(id, opts, &res.dbt, &res.error)) {
      return res;
    }
    if (res.dbt.frames_per_sec > 0) {
      res.speedup = res.native_side.frames_per_sec / res.dbt.frames_per_sec;
    }
  }
  res.ok = true;
  return res;
}

}  // namespace revnic::native

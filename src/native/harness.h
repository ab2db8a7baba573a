// The race: compile the emitted kitos driver with the host cc, dlopen it,
// and drive the same workload through it and through the DBT-interpreted
// original on identical device models -- first for correctness (I/O-trace
// parity, clean and under a fault plan), then for speed (frames/sec, bytes
// copied, host cycles per frame on each side).
#ifndef REVNIC_NATIVE_HARNESS_H_
#define REVNIC_NATIVE_HARNESS_H_

#include <cstdint>
#include <string>

#include "drivers/drivers.h"
#include "hw/faults.h"
#include "os/miniport_host.h"
#include "synth/module.h"

namespace revnic::native {

struct RaceSideStats {
  uint64_t frames = 0;        // tx frames pushed through the send entry
  uint64_t tx_ok = 0;         // sends that returned kStatusSuccess
  uint64_t rx_delivered = 0;  // frames the driver handed upward
  uint64_t io_accesses = 0;   // device register reads + writes
  uint64_t bytes_copied = 0;  // OS memcpy traffic + device DMA bytes
  uint64_t guest_instrs = 0;  // DBT side only (interpreter steps)
  double wall_ns = 0;
  double frames_per_sec = 0;
  double ns_per_frame = 0;
  double host_cycles_per_frame = 0;
};

struct RaceOptions {
  uint64_t native_frames = 200'000;  // native side is fast; measure long
  uint64_t dbt_frames = 10'000;      // interpreter side: enough to average
  size_t payload = 256;              // UDP payload bytes per frame
  // Non-empty: also check trace parity under this seeded fault plan
  // (hw::ParseFaultPlan grammar).
  std::string fault_plan;
  // Where .c/.so land and stay; empty = DefaultWorkDir(), removed at exit.
  std::string workdir;
  bool measure = true;  // false: parity only (tests)
};

struct RaceResult {
  bool available = false;  // host cc + dlopen usable on this machine
  std::string skip_reason;

  bool ok = false;  // compile + load + bind + native init all succeeded
  std::string error;
  std::string so_path;

  bool parity_checked = false;
  bool parity_ok = false;
  std::string parity_detail;  // first divergence, for humans

  RaceSideStats native_side;
  RaceSideStats dbt;
  double speedup = 0;  // native fps / DBT fps
};

// The parity workloads RunRace checks, over any two initialized hosts of
// the same driver on fresh device models: `orig` runs the reference (the
// original binary), `port` the driver under test. Both return false at the
// first divergence, described in `detail`.
//
// Clean: 8 sends of varied length, then one broadcast receive. Compares
// each send status, the wire frames, receive acceptance, upward deliveries
// and the device end state (MAC, promiscuous, rx enabled).
bool CleanParity(os::MiniportHost& orig, os::MiniportHost& port, std::string* detail);

// Faulted: each host's device is a hw::FaultInjector over the same plan,
// whose schedule is passed alongside. Both schedules restart at cursor 0
// here, because the hosts' init boilerplate differs by design. Then 6
// rounds of one send and one broadcast receive. Compares each send status
// and receive acceptance, the wire frames, upward deliveries and the fault
// decision cursors.
bool FaultedParity(os::MiniportHost& orig, hw::FaultSchedule& orig_faults,
                   os::MiniportHost& port, hw::FaultSchedule& port_faults, std::string* detail);

// Compiles `kitos_source` (the emitted kKitos translation unit for
// `recovered`), races it against the original driver binary for `id`, and
// reports both sides. Never throws; an unusable toolchain yields
// {available=false, skip_reason}, any other failure yields {ok=false, error}.
RaceResult RunRace(drivers::DriverId id, const std::string& kitos_source,
                   const synth::RecoveredModule& recovered, const RaceOptions& opts = {});

}  // namespace revnic::native

#endif  // REVNIC_NATIVE_HARNESS_H_

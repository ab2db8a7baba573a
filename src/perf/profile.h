// Platform cost profiles for the performance experiments (§5.3).
//
// The paper measured on four testbeds: an x86 PC (RTL8139C), the FPGA4U
// Nios-II board (91C111), QEMU (RTL8029) and VMware Server (PCnet). We model
// each as a cycle budget per UDP packet:
//
//   cpu_cycles = io_accesses * cycles_per_io
//              + bytes_copied * cycles_per_byte
//              + guest_instrs * cycles_per_instr     (binary/synthesized only)
//              + stall_us * cpu_mhz                  (vendor quirk stalls)
//              + os_packet_cycles[target OS]         (network stack overhead)
//
//   wire_us  = frame_bits / link_mbps                (0 for virtual NICs:
//                                                     "the virtual NIC can
//                                                     confirm transmission
//                                                     immediately", §5.1)
//   packet_us = dma_overlap ? max(cpu_us, wire_us) : cpu_us + wire_us
//   throughput = payload_bits / packet_us;  cpu_util = cpu_us / packet_us
//
// Constants are calibrated to reproduce the paper's *shapes* (who wins, where
// curves bend), not the authors' absolute numbers -- see EXPERIMENTS.md.
#ifndef REVNIC_PERF_PROFILE_H_
#define REVNIC_PERF_PROFILE_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "os/recovered_host.h"
#include "util/fields.h"

namespace revnic::perf {

struct PlatformProfile {
  const char* name;
  double cpu_mhz = 2400;         // cycles per microsecond
  double cycles_per_io = 80;     // device register access (uncached, posted)
  double cycles_per_byte = 15;   // CPU byte move (stack copies, PIO staging)
  double cycles_per_instr = 0.5; // guest instruction (binary & synthesized)
  // Per-packet network stack overhead by target OS
  // (windows, linux, ucos, kitos).
  double os_packet_cycles[4] = {45000, 40000, 6000, 800};
  // Per-byte network stack cost (checksum + stack copies); KitOS hands raw
  // frames to the driver and pays none.
  double os_per_byte_cycles = 12;
  double link_mbps = 100;        // 0 = virtual NIC, instant wire
  bool dma_overlap = true;       // bus-master DMA overlaps wire with CPU
};

// x86 PC, Intel Core 2 Duo 2.4 GHz, RTL8139C at 100 Mbps (Figures 2-3).
PlatformProfile X86Pc();
// FPGA4U: Nios II at 75 MHz, 91C111 at 10 Mbps, PIO only (Figures 4-5).
PlatformProfile FpgaNios();
// QEMU on dual Xeon 2 GHz: virtual RTL8029, instant wire (Figure 6).
PlatformProfile QemuVm();
// VMware Server: virtual PCnet with DMA, instant wire (Figure 7).
PlatformProfile VmwareVm();

double OsPacketCycles(const PlatformProfile& p, os::TargetOs target);

// Substrate cache/interning counters gathered across the layers of one
// reverse-engineering run (solver query cache, expression interning, DBT
// translation cache). The wall-clock experiments (Figure 8/9 flavor) report
// them alongside coverage so cache effectiveness stays measurable.
struct SubstrateCounters {
  uint64_t solver_queries = 0;
  uint64_t solver_cache_hits = 0;
  uint64_t solver_cache_misses = 0;
  uint64_t solver_shelf_hits = 0;
  uint64_t intern_hits = 0;
  uint64_t intern_misses = 0;
  uint64_t intern_size = 0;
  uint64_t dbt_cache_hits = 0;
  uint64_t dbt_cache_misses = 0;
  // Fault-injection layer (hw::FaultSchedule): schedule points consulted and
  // faults actually fired. Zero unless EngineConfig::faults is enabled.
  uint64_t fault_decisions = 0;
  uint64_t faults_injected = 0;

  // The stored fields (util/fields.h), in serialized order. The two fault
  // fields are projections of hw::FaultStats and are derived from it on
  // decode instead of stored twice.
  static constexpr uint64_t SubstrateCounters::*kFields[] = {
      &SubstrateCounters::solver_queries, &SubstrateCounters::solver_cache_hits,
      &SubstrateCounters::solver_cache_misses, &SubstrateCounters::solver_shelf_hits,
      &SubstrateCounters::intern_hits, &SubstrateCounters::intern_misses,
      &SubstrateCounters::intern_size, &SubstrateCounters::dbt_cache_hits,
      &SubstrateCounters::dbt_cache_misses};

  double SolverHitRate() const {
    uint64_t total = solver_cache_hits + solver_cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(solver_cache_hits) / total;
  }
  double InternHitRate() const {
    uint64_t total = intern_hits + intern_misses;
    return total == 0 ? 0.0 : static_cast<double>(intern_hits) / total;
  }
  double DbtHitRate() const {
    uint64_t total = dbt_cache_hits + dbt_cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(dbt_cache_hits) / total;
  }

  // Sums another run's counters into this one (batch aggregation). The
  // intern-table size is a high-water mark, not a flow, so it takes the max.
  void Accumulate(const SubstrateCounters& o) {
    const uint64_t size = std::max(intern_size, o.intern_size);
    AddFields(*this, o);
    intern_size = size;
    fault_decisions += o.fault_decisions;
    faults_injected += o.faults_injected;
  }
};
static_assert(FieldListCovers<SubstrateCounters>(2));  // the 2 derived fault fields

// One-line human-readable rendering for run summaries.
std::string FormatSubstrateCounters(const SubstrateCounters& c);

}  // namespace revnic::perf

#endif  // REVNIC_PERF_PROFILE_H_

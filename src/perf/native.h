// Measured counterpart of perf::RunSweep: the same UDP size sweep, but the
// per-packet ledger (register accesses, bytes copied, host wall time) comes
// from actually executing the host-compiled kitos driver rather than from
// the interpreter. Throughput still goes through the PlatformProfile cycle
// model so the series is directly comparable with the modeled curves in
// figs 2/3/6/7 -- with the guest-instruction term dropped (compiled code
// runs at host speed; its real cost is reported as PerfPoint::host_ns).
// Defined in perf/harness.cc, on RunSweep's loop.
#ifndef REVNIC_PERF_NATIVE_H_
#define REVNIC_PERF_NATIVE_H_

#include <string>
#include <vector>

#include "drivers/drivers.h"
#include "native/loader.h"
#include "perf/harness.h"
#include "synth/module.h"

namespace revnic::perf {

struct NativeSweepInputs {
  drivers::DriverId driver;
  const native::NativeModule* module = nullptr;     // loaded kitos .so
  const synth::RecoveredModule* recovered = nullptr;
  unsigned packets_per_size = 8;
  std::string label;  // e.g. "Windows->KitOS (native)"
};

// Runs the sweep through native::NativeKitosHost. Bring-up or bind failure
// yields {ok=false} like RunSweep does; toolchain availability and module
// loading are the caller's concern (see native::RunRace in native/harness.h).
SweepResult RunNativeMeasuredSweep(const NativeSweepInputs& inputs,
                                   const PlatformProfile& profile,
                                   const std::vector<size_t>& sizes = DefaultPayloadSizes());

}  // namespace revnic::perf

#endif  // REVNIC_PERF_NATIVE_H_

// Registry of the evaluation drivers (the paper's Table 1 inputs plus the
// post-paper corpus additions).
//
// Each driver is written in r32 assembly (see *_asm.cc) and assembled into an
// opaque DRV1 image; the RevNIC pipeline consumes only the image. The
// assembly sources deliberately mimic how real vendor drivers are built:
// stdcall helpers, a global adapter context accessed via pointer arithmetic,
// polling loops with timeouts, chained OID dispatch, and quirk workarounds.
#ifndef REVNIC_DRIVERS_DRIVERS_H_
#define REVNIC_DRIVERS_DRIVERS_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hw/nic.h"
#include "hw/pci.h"
#include "isa/image.h"

namespace revnic::drivers {

enum class DriverId {
  kRtl8029 = 0,  // Realtek RTL8029 (NE2000), pcntpci5.sys analog: rtl8029.sys
  kRtl8139,      // Realtek RTL8139, rtl8139.sys
  kPcnet,        // AMD PCnet, pcntpci5.sys
  kSmc91c111,    // SMSC 91C111, lan9000.sys
  kEl3,          // 3Com EtherLink III (3c509), el3c509.sys
};
inline constexpr DriverId kAllDrivers[] = {DriverId::kRtl8029, DriverId::kRtl8139,
                                           DriverId::kPcnet, DriverId::kSmc91c111,
                                           DriverId::kEl3};

const char* DriverName(DriverId id);        // "rtl8029", ...
const char* DriverFileName(DriverId id);    // "rtl8029.sys", ...

// ---- target registry ----
//
// Benches, tests, and tools enumerate AllTargets() instead of hard-coding
// the four ids, so adding a driver is one registry entry.
struct TargetInfo {
  DriverId id;
  const char* name;  // registry key: "rtl8029", ...
  const char* file;  // the binary it stands in for: "rtl8029.sys", ...
};

const std::vector<TargetInfo>& AllTargets();
// Case-sensitive lookup by registry name; nullptr when unknown.
const TargetInfo* FindTarget(std::string_view name);
// PCI descriptor the exerciser needs (vendor/device id + I/O ranges, as a
// developer would read them from the device manager, §3.4).
hw::PciConfig DriverPci(DriverId id);

// Assembly source of the driver (exposed so tests can check the assembler,
// and to honestly label these as our stand-ins for closed-source binaries).
std::string DriverAsmSource(DriverId id);

// The assembled driver binary: one immutable image per id, assembled on
// first use and never freed, so the returned reference stays valid for the
// process lifetime (a BatchJob may hold it across RunBatch). Aborts on
// assembly errors -- these sources are part of the build.
const isa::Image& DriverImage(DriverId id);

// Instantiates the matching device model.
std::unique_ptr<hw::NicDevice> MakeDevice(DriverId id);

// Shared .equ prologue (API ids, OIDs, status codes) matching os/api.h.
std::string CommonAsmPrologue();

// Per-driver assembly bodies (defined in <name>_asm.cc).
const char* Rtl8029AsmBody();
const char* Rtl8139AsmBody();
const char* PcnetAsmBody();
const char* Smc91c111AsmBody();
const char* El3AsmBody();

}  // namespace revnic::drivers

#endif  // REVNIC_DRIVERS_DRIVERS_H_

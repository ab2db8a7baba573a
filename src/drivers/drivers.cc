#include "drivers/drivers.h"

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <mutex>

#include "hw/el3.h"
#include "hw/ne2000.h"
#include "hw/pcnet.h"
#include "hw/rtl8139.h"
#include "hw/smc91c111.h"
#include "isa/assembler.h"

namespace revnic::drivers {

const char* DriverName(DriverId id) {
  switch (id) {
    case DriverId::kRtl8029:
      return "rtl8029";
    case DriverId::kRtl8139:
      return "rtl8139";
    case DriverId::kPcnet:
      return "pcnet";
    case DriverId::kSmc91c111:
      return "smc91c111";
    case DriverId::kEl3:
      return "el3";
  }
  return "?";
}

const char* DriverFileName(DriverId id) {
  switch (id) {
    case DriverId::kRtl8029:
      return "rtl8029.sys";
    case DriverId::kRtl8139:
      return "rtl8139.sys";
    case DriverId::kPcnet:
      return "pcntpci5.sys";
    case DriverId::kSmc91c111:
      return "lan9000.sys";
    case DriverId::kEl3:
      return "el3c509.sys";
  }
  return "?";
}

std::string CommonAsmPrologue() {
  // Keep in sync with os/api.h (WinApi enum order) and the OID constants.
  return R"(
; ---- WinSim kernel API ids (import table analog) ----
.equ NDIS_M_REGISTER_MINIPORT, 1
.equ NDIS_M_SET_ATTRIBUTES, 2
.equ NDIS_M_REGISTER_INTERRUPT, 3
.equ NDIS_M_DEREGISTER_INTERRUPT, 4
.equ NDIS_M_REGISTER_SHUTDOWN_HANDLER, 5
.equ NDIS_M_DEREGISTER_SHUTDOWN_HANDLER, 6
.equ NDIS_ALLOCATE_MEMORY, 7
.equ NDIS_FREE_MEMORY, 8
.equ NDIS_M_ALLOCATE_SHARED_MEMORY, 9
.equ NDIS_M_FREE_SHARED_MEMORY, 10
.equ NDIS_ZERO_MEMORY, 11
.equ NDIS_MOVE_MEMORY, 12
.equ NDIS_M_MAP_IO_SPACE, 13
.equ NDIS_M_UNMAP_IO_SPACE, 14
.equ NDIS_M_REGISTER_IO_PORT_RANGE, 15
.equ NDIS_M_DEREGISTER_IO_PORT_RANGE, 16
.equ NDIS_READ_PCI_SLOT_INFORMATION, 17
.equ NDIS_WRITE_PCI_SLOT_INFORMATION, 18
.equ NDIS_OPEN_CONFIGURATION, 19
.equ NDIS_READ_CONFIGURATION, 20
.equ NDIS_CLOSE_CONFIGURATION, 21
.equ NDIS_INITIALIZE_TIMER, 22
.equ NDIS_SET_TIMER, 23
.equ NDIS_CANCEL_TIMER, 24
.equ NDIS_STALL_EXECUTION, 25
.equ NDIS_M_SLEEP, 26
.equ NDIS_M_ETH_INDICATE_RECEIVE, 27
.equ NDIS_M_ETH_INDICATE_RECEIVE_COMPLETE, 28
.equ NDIS_M_SEND_COMPLETE, 29
.equ NDIS_M_SEND_RESOURCES_AVAILABLE, 30
.equ NDIS_ALLOCATE_SPIN_LOCK, 31
.equ NDIS_ACQUIRE_SPIN_LOCK, 32
.equ NDIS_RELEASE_SPIN_LOCK, 33
.equ NDIS_FREE_SPIN_LOCK, 34
.equ NDIS_M_SYNCHRONIZE_WITH_INTERRUPT, 35
.equ NDIS_WRITE_ERROR_LOG_ENTRY, 36
.equ NDIS_M_INDICATE_STATUS, 37
.equ NDIS_M_INDICATE_STATUS_COMPLETE, 38
.equ NDIS_GET_CURRENT_SYSTEM_TIME, 39
.equ NDIS_INTERLOCKED_INCREMENT, 40
.equ NDIS_INTERLOCKED_DECREMENT, 41
.equ NDIS_M_QUERY_ADAPTER_RESOURCES, 42
.equ NDIS_READ_NETWORK_ADDRESS, 43

; ---- status codes ----
.equ STATUS_SUCCESS, 0
.equ STATUS_FAILURE, 0xC0000001
.equ STATUS_RESOURCES, 0xC000009A
.equ STATUS_NOT_SUPPORTED, 0xC00000BB

; ---- OIDs ----
.equ OID_GEN_MAXIMUM_FRAME_SIZE, 0x00010106
.equ OID_GEN_LINK_SPEED, 0x00010107
.equ OID_GEN_CURRENT_PACKET_FILTER, 0x0001010E
.equ OID_GEN_MEDIA_CONNECT_STATUS, 0x00010114
.equ OID_802_3_PERMANENT_ADDRESS, 0x01010101
.equ OID_802_3_CURRENT_ADDRESS, 0x01010102
.equ OID_802_3_MULTICAST_LIST, 0x01010103
.equ OID_PNP_ENABLE_WAKE_UP, 0xFD010106
.equ OID_VENDOR_LED_CONFIG, 0xFF8139ED
.equ OID_VENDOR_DUPLEX_MODE, 0xFF813900

; ---- packet filter bits ----
.equ FILTER_DIRECTED, 0x0001
.equ FILTER_MULTICAST, 0x0002
.equ FILTER_BROADCAST, 0x0004
.equ FILTER_PROMISCUOUS, 0x0020

; ---- registry keys ----
.equ CFG_DUPLEX_MODE, 1
.equ CFG_WAKE_ON_LAN, 2
.equ CFG_LED_MODE, 3
)";
}

std::string DriverAsmSource(DriverId id) {
  std::string src = CommonAsmPrologue();
  switch (id) {
    case DriverId::kRtl8029:
      src += Rtl8029AsmBody();
      break;
    case DriverId::kRtl8139:
      src += Rtl8139AsmBody();
      break;
    case DriverId::kPcnet:
      src += PcnetAsmBody();
      break;
    case DriverId::kSmc91c111:
      src += Smc91c111AsmBody();
      break;
    case DriverId::kEl3:
      src += El3AsmBody();
      break;
  }
  return src;
}

const std::vector<TargetInfo>& AllTargets() {
  static const std::vector<TargetInfo>& registry = *new std::vector<TargetInfo>([] {
    std::vector<TargetInfo> targets;
    for (DriverId id : kAllDrivers) {
      targets.push_back({id, DriverName(id), DriverFileName(id)});
    }
    return targets;
  }());
  return registry;
}

const TargetInfo* FindTarget(std::string_view name) {
  for (const TargetInfo& t : AllTargets()) {
    if (name == t.name) {
      return &t;
    }
  }
  return nullptr;
}

hw::PciConfig DriverPci(DriverId id) { return MakeDevice(id)->pci(); }

const isa::Image& DriverImage(DriverId id) {
  // One slot per id, assembled on first use (concurrent first callers --
  // RunBatch sessions -- wait on the once flag) and never freed.
  static std::once_flag once[std::size(kAllDrivers)];
  static const isa::Image* images[std::size(kAllDrivers)];
  const size_t slot = static_cast<size_t>(id);
  std::call_once(once[slot], [id, slot] {
    isa::AssembleResult result = isa::Assemble(DriverAsmSource(id));
    if (!result.ok) {
      fprintf(stderr, "FATAL: driver '%s' failed to assemble: %s\n", DriverName(id),
              result.error.c_str());
      abort();
    }
    images[slot] = new isa::Image(std::move(result.image));
  });
  return *images[slot];
}

std::unique_ptr<hw::NicDevice> MakeDevice(DriverId id) {
  switch (id) {
    case DriverId::kRtl8029:
      return std::make_unique<hw::Ne2000>();
    case DriverId::kRtl8139:
      return std::make_unique<hw::Rtl8139>();
    case DriverId::kPcnet:
      return std::make_unique<hw::Pcnet>();
    case DriverId::kSmc91c111:
      return std::make_unique<hw::Smc91c111>();
    case DriverId::kEl3:
      return std::make_unique<hw::El3>();
  }
  return nullptr;
}

}  // namespace revnic::drivers

#include "os/miniport_host.h"

#include <cstring>

#include "util/log.h"

namespace revnic::os {

MiniportHost::MiniportHost(hw::NicDevice* device, uint32_t ram_size)
    : device_(device), api_(device->pci()), mm_(ram_size), guest_mem_(&mm_) {
  device_->AttachRam(&mm_);
  device_->set_irq_hook([this](bool level) { irq_pending_ = level; });
}

void MiniportHost::MapDevice(vm::IoHandler* io_override) {
  const hw::PciConfig& pci = device_->pci();
  vm::IoHandler* io = io_override != nullptr ? io_override : device_;
  if (pci.io_size != 0) {
    mm_.AddPorts(pci.io_base, pci.io_size, io);
  }
  if (pci.mmio_size != 0) {
    mm_.AddMmio(pci.mmio_base, pci.mmio_size, io);
  }
}

bool MiniportHost::Initialize() {
  auto status = CallRole(EntryRole::kInitialize, {kDriverHandle});
  if (!status || *status != kStatusSuccess) {
    RLOG_WARN("%s: miniport initialize failed", device_->name());
    return false;
  }
  initialized_ = true;
  DeliverInterrupts();
  return true;
}

std::optional<uint32_t> MiniportHost::SendFrame(const hw::Frame& frame) {
  if (!initialized_) {
    return std::nullopt;
  }
  mm_.WriteRamBytes(kPacketDataAddr, frame.data(), frame.size());
  mm_.WriteRam(kPacketAddr + 0, 4, kPacketDataAddr);
  mm_.WriteRam(kPacketAddr + 4, 4, static_cast<uint32_t>(frame.size()));
  auto status = CallRole(EntryRole::kSend, {api_.adapter_context(), kPacketAddr, /*flags=*/0});
  DeliverInterrupts();
  return status;
}

void MiniportHost::DeliverInterrupts() {
  for (int round = 0; irq_pending_ && round < kMaxInterruptDeliveries; ++round) {
    auto recognized = CallAdapter(EntryRole::kIsr);
    if (!recognized || *recognized == 0) {
      break;
    }
    CallAdapter(EntryRole::kHandleInterrupt);
  }
}

std::optional<uint32_t> MiniportHost::Query(uint32_t oid, uint8_t* buf, uint32_t len) {
  mm_.WriteRam(kOidLenAddr, 4, 0);
  auto status = CallRole(EntryRole::kQueryInformation,
                         {api_.adapter_context(), oid, kOidBufAddr, len, kOidLenAddr});
  if (status && *status == kStatusSuccess && buf != nullptr) {
    mm_.ReadRamBytes(kOidBufAddr, buf, len);
  }
  return status;
}

bool MiniportHost::Set(uint32_t oid, const uint8_t* buf, uint32_t len) {
  if (buf != nullptr) {
    mm_.WriteRamBytes(kOidBufAddr, buf, len);
  }
  mm_.WriteRam(kOidLenAddr, 4, 0);
  auto status = CallRole(EntryRole::kSetInformation,
                         {api_.adapter_context(), oid, kOidBufAddr, len, kOidLenAddr});
  return status && *status == kStatusSuccess;
}

bool MiniportHost::SetPacketFilter(uint32_t filter_bits) {
  uint8_t buf[4];
  std::memcpy(buf, &filter_bits, 4);
  return Set(kOidGenCurrentPacketFilter, buf, 4);
}

bool MiniportHost::SetMulticastList(const std::vector<hw::MacAddr>& list) {
  std::vector<uint8_t> buf;
  for (const hw::MacAddr& m : list) {
    buf.insert(buf.end(), m.begin(), m.end());
  }
  return Set(kOid8023MulticastList, buf.data(), static_cast<uint32_t>(buf.size()));
}

std::optional<hw::MacAddr> MiniportHost::QueryMac() {
  uint8_t buf[6] = {};
  auto status = Query(kOid8023CurrentAddress, buf, 6);
  if (!status || *status != kStatusSuccess) {
    return std::nullopt;
  }
  hw::MacAddr mac;
  std::memcpy(mac.data(), buf, 6);
  return mac;
}

bool MiniportHost::Reset() {
  auto status = CallAdapter(EntryRole::kReset);
  return status && *status == kStatusSuccess;
}

void MiniportHost::Halt() {
  if (initialized_) {
    CallAdapter(EntryRole::kHalt);
    initialized_ = false;
  }
}

}  // namespace revnic::os

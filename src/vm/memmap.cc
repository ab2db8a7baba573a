#include "vm/memmap.h"

#include <cassert>
#include <cstring>

#include "util/bits.h"

namespace revnic::vm {

MemoryMap::MemoryMap(uint32_t ram_size)
    : owned_ram_(ram_size, 0), ram_(owned_ram_.data()), ram_size_(ram_size) {}

void MemoryMap::AddMmio(uint32_t begin, uint32_t size, IoHandler* handler) {
  assert(handler != nullptr);
  assert(begin >= ram_size_ && "MMIO window overlaps RAM");
  for (const IoRange& r : mmio_) {
    assert((begin + size <= r.begin || begin >= r.end) && "overlapping MMIO windows");
    (void)r;
  }
  mmio_.push_back({begin, begin + size, handler});
}

void MemoryMap::AddPorts(uint32_t begin, uint32_t size, IoHandler* handler) {
  assert(handler != nullptr);
  for (const IoRange& r : ports_) {
    assert((begin + size <= r.begin || begin >= r.end) && "overlapping port ranges");
    (void)r;
  }
  ports_.push_back({begin, begin + size, handler});
}

void MemoryMap::ClearDevices() {
  mmio_.clear();
  ports_.clear();
}

const IoRange* MemoryMap::FindMmio(uint32_t addr) const {
  for (const IoRange& r : mmio_) {
    if (r.Contains(addr)) {
      return &r;
    }
  }
  return nullptr;
}

const IoRange* MemoryMap::FindPort(uint32_t port) const {
  for (const IoRange& r : ports_) {
    if (r.Contains(port)) {
      return &r;
    }
  }
  return nullptr;
}

uint32_t MemoryMap::ReadRam(uint32_t addr, unsigned size) const {
  if (!IsRam(addr, size)) {
    return 0;
  }
  return LoadLE(ram_ + addr, size);
}

void MemoryMap::WriteRam(uint32_t addr, unsigned size, uint32_t value) {
  if (!IsRam(addr, size)) {
    return;
  }
  StoreLE(ram_ + addr, value, size);
}

void MemoryMap::WriteRamBytes(uint32_t addr, const uint8_t* data, size_t len) {
  // len == 0 must return before the memcpy: callers pass empty segments as
  // (nullptr, 0), and memcpy's pointer arguments may never be null (UB).
  if (len == 0 || addr + len > ram_size_ || addr + len < addr) {
    return;
  }
  std::memcpy(ram_ + addr, data, len);
}

void MemoryMap::ReadRamBytes(uint32_t addr, uint8_t* out, size_t len) const {
  if (len == 0) {
    return;
  }
  if (addr + len > ram_size_ || addr + len < addr) {
    std::memset(out, 0, len);
    return;
  }
  std::memcpy(out, ram_ + addr, len);
}

}  // namespace revnic::vm

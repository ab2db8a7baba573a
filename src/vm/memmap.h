// Guest physical memory map: flat RAM plus device-claimed MMIO windows and a
// separate port-I/O space.
//
// The VM catching every hardware access is what lets RevNIC distinguish
// device-mapped accesses from ordinary memory (paper §2, reason 3 for using
// virtualization over decompilation). The executor consults IsMmio() on each
// load/store and routes matching accesses to the owning device model.
#ifndef REVNIC_VM_MEMMAP_H_
#define REVNIC_VM_MEMMAP_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace revnic::vm {

// Implemented by device models (src/hw) and by the symbolic shell device.
class IoHandler {
 public:
  virtual ~IoHandler() = default;
  virtual uint32_t IoRead(uint32_t addr, unsigned size) = 0;
  virtual void IoWrite(uint32_t addr, unsigned size, uint32_t value) = 0;
};

struct IoRange {
  uint32_t begin = 0;
  uint32_t end = 0;  // exclusive
  IoHandler* handler = nullptr;

  bool Contains(uint32_t addr) const { return addr >= begin && addr < end; }
};

// Guest-RAM access surface handed to bus-mastering device models
// (hw::NicDevice::AttachRam). MemoryMap is the real backing store; proxies
// (e.g. hw::FaultRamPort) interpose on the same four accessors to perturb
// the DMA path without the device models knowing.
class RamPort {
 public:
  virtual ~RamPort() = default;
  virtual uint32_t ReadRam(uint32_t addr, unsigned size) const = 0;
  virtual void WriteRam(uint32_t addr, unsigned size, uint32_t value) = 0;
  virtual void WriteRamBytes(uint32_t addr, const uint8_t* data, size_t len) = 0;
  virtual void ReadRamBytes(uint32_t addr, uint8_t* out, size_t len) const = 0;
};

class MemoryMap final : public RamPort {
 public:
  // RAM occupies [0, ram_size). MMIO windows must lie outside RAM.
  explicit MemoryMap(uint32_t ram_size);
  MemoryMap(const MemoryMap&) = delete;
  MemoryMap& operator=(const MemoryMap&) = delete;

  // From now on RAM is the `size` bytes at `base`, which the caller owns
  // and keeps alive (a compiled driver's static array, native/host.h).
  void UseExternalRam(uint8_t* base, uint32_t size) {
    owned_ram_ = std::vector<uint8_t>();
    ram_ = base;
    ram_size_ = size;
  }

  uint32_t ram_size() const { return ram_size_; }
  const uint8_t* ram() const { return ram_; }
  uint8_t* mutable_ram() { return ram_; }

  // Registers an MMIO window / port range. Ranges must not overlap existing
  // ones; both assert on misuse (programming error, not guest-controlled).
  void AddMmio(uint32_t begin, uint32_t size, IoHandler* handler);
  void AddPorts(uint32_t begin, uint32_t size, IoHandler* handler);
  void ClearDevices();

  const IoRange* FindMmio(uint32_t addr) const;
  const IoRange* FindPort(uint32_t port) const;
  bool IsRam(uint32_t addr, unsigned size) const {
    return addr + size <= ram_size_ && addr + size >= addr;
  }

  // Direct RAM accessors (used to load images, build stacks, and implement
  // OS-side reads). Out-of-range accesses return 0 / are dropped.
  uint32_t ReadRam(uint32_t addr, unsigned size) const override;
  void WriteRam(uint32_t addr, unsigned size, uint32_t value) override;
  void WriteRamBytes(uint32_t addr, const uint8_t* data, size_t len) override;
  void ReadRamBytes(uint32_t addr, uint8_t* out, size_t len) const override;

 private:
  std::vector<uint8_t> owned_ram_;
  uint8_t* ram_;
  uint32_t ram_size_;
  std::vector<IoRange> mmio_;
  std::vector<IoRange> ports_;
};

}  // namespace revnic::vm

#endif  // REVNIC_VM_MEMMAP_H_

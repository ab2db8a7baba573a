// Binary (de)serialization of TraceBundle, plus the little-endian
// writer/reader and the shared field codecs (u32 sets, counter field lists,
// the entry-point table) that every container format builds on. Used to
// persist wiretap output (core/result_codec.h embeds a bundle via
// SerializeTo/DeserializeFrom) and by the synthesizer-throughput benchmark
// (§5.4 reports ~100 MB/minute of trace processed; we measure our own rate on
// the same representation).
#ifndef REVNIC_TRACE_SERIALIZE_H_
#define REVNIC_TRACE_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "trace/trace.h"
#include "util/bits.h"

namespace revnic::os {
struct EntryPoint;  // os/winsim.h
}  // namespace revnic::os

namespace revnic::trace {

// Little-endian append-only writer shared by the bundle format and by
// containers that embed a bundle (core checkpoints).
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) {
    size_t n = buf_.size();
    buf_.resize(n + 4);
    StoreLE(buf_.data() + n, v, 4);
  }
  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v));
    U32(static_cast<uint32_t>(v >> 32));
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  // Unframed bytes (fixed-size payloads like memory pages); the reader must
  // know the length from context.
  void Raw(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  // Count, then the values in ascending order.
  void U32Set(const std::set<uint32_t>& s) {
    U32(static_cast<uint32_t>(s.size()));
    for (uint32_t v : s) {
      U32(v);
    }
  }
  // A counter struct's field list (util/fields.h): one u64 per field, in
  // list order.
  template <typename T>
  void Fields(const T& s) {
    for (uint64_t T::*f : T::kFields) {
      U64(s.*f);
    }
  }
  size_t size() const { return buf_.size(); }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

// Cursor over a serialized buffer; every getter returns false on truncation.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& buf) : buf_(buf) {}
  bool U8(uint8_t* v) {
    if (pos_ + 1 > buf_.size()) {
      return false;
    }
    *v = buf_[pos_++];
    return true;
  }
  bool U32(uint32_t* v) {
    if (pos_ + 4 > buf_.size()) {
      return false;
    }
    *v = LoadLE(buf_.data() + pos_, 4);
    pos_ += 4;
    return true;
  }
  bool U64(uint64_t* v) {
    uint32_t lo, hi;
    if (!U32(&lo) || !U32(&hi)) {
      return false;
    }
    *v = static_cast<uint64_t>(hi) << 32 | lo;
    return true;
  }
  bool Str(std::string* s) {
    uint32_t n;
    if (!U32(&n) || pos_ + n > buf_.size()) {
      return false;
    }
    s->assign(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return true;
  }
  bool Raw(void* out, size_t n) {
    // n == 0 must not reach memcpy: callers pass empty buffers as
    // (nullptr, 0) (e.g. a zero-length section payload's vector::data()),
    // and memcpy's pointer arguments may never be null (UB).
    if (n == 0) {
      return true;
    }
    if (pos_ + n > buf_.size() || pos_ + n < pos_) {
      return false;
    }
    std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  // Fails on a count the remaining bytes cannot hold, before allocating.
  bool U32Set(std::set<uint32_t>* s) {
    uint32_t n;
    if (!U32(&n) || n > remaining() / 4) {
      return false;
    }
    for (uint32_t k = 0; k < n; ++k) {
      uint32_t v;
      if (!U32(&v)) {
        return false;
      }
      s->insert(s->end(), v);
    }
    return true;
  }
  template <typename T>
  bool Fields(T* s) {
    for (uint64_t T::*f : T::kFields) {
      if (!U64(&(s->*f))) {
        return false;
      }
    }
    return true;
  }
  // Unread bytes left; containers check ==0 to reject trailing garbage.
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

std::vector<uint8_t> Serialize(const TraceBundle& bundle);
bool Deserialize(const std::vector<uint8_t>& bytes, TraceBundle* out, std::string* error);

// Same format, but appended to / parsed from an open writer/reader so a
// larger container can embed the bundle alongside its own fields.
void SerializeTo(const TraceBundle& bundle, ByteWriter* w);
bool DeserializeFrom(ByteReader* r, TraceBundle* out, std::string* error);

// The entry-point table: count, then 9 bytes per entry (role, pc, timer
// context). The reader fails on a count the remaining bytes cannot hold, on
// truncation and on an unknown role.
void WriteEntryTable(ByteWriter& w, const std::vector<os::EntryPoint>& entries);
bool ReadEntryTable(ByteReader& r, std::vector<os::EntryPoint>* entries);

}  // namespace revnic::trace

#endif  // REVNIC_TRACE_SERIALIZE_H_

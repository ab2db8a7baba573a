// "RDP1" -- the RevNIC distributed-exercising shard protocol (PR 8).
//
// The coordinator/worker split (src/dist/coordinator.h) moves fan-out work
// items and result segments between processes over a socketpair. Everything
// on that socket is an RDP1 frame:
//
//   offset  size  field
//   0       4     magic 0x31504452 ("RDP1", little-endian)
//   4       2     protocol version (1)
//   6       2     frame type (FrameType)
//   8       8     payload length in bytes
//   16      len   payload
//   16+len  8     FNV-1a 64 checksum over header + payload
//
// All integers little-endian. The length prefix is capped at
// kMaxFramePayload; a reader never allocates or trusts beyond it. DecodeFrame
// is a pure buffer-level parser (no I/O) so corruption handling --
// truncation, bit flips, wrong version, oversized length -- is directly
// testable (tests/robustness_test.cc sweeps it); ReadFrame/WriteFrame wrap it
// over a blocking fd with a poll() deadline so a wedged peer can never hang
// the coordinator (the caller then fails the shard over to in-process
// execution, see src/dist/README.md).
#ifndef REVNIC_DIST_WIRE_H_
#define REVNIC_DIST_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace revnic::dist {

inline constexpr uint32_t kFrameMagic = 0x31504452;  // "RDP1"
inline constexpr uint16_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 16;
inline constexpr size_t kFrameChecksumBytes = 8;
// Generous cap: a work item carries one RSS1 snapshot, a result carries the
// sliced segments of one shard task -- both orders of magnitude smaller.
inline constexpr uint64_t kMaxFramePayload = 256ull << 20;

enum class FrameType : uint16_t {
  kHello = 1,     // handshake; payload = u32 worker index (echoed by child)
  kWork = 2,      // coordinator -> worker; payload = serialized fan-out work
  kResult = 3,    // worker -> coordinator; payload = serialized task result
  kError = 4,     // worker -> coordinator; payload = UTF-8 error string
  kShutdown = 5,  // coordinator -> worker; empty payload; child exits
  // Coordinator -> worker; payload = u32 key length + key + blob. Installs
  // the blob into the worker's context cache (no reply; the next kWork may
  // reference it by key). Shared state -- e.g. an RSS1 step snapshot -- is
  // shipped once per worker this way instead of once per task, so a stolen
  // task whose worker already holds the (job, step) snapshot costs only the
  // small kWork frame. Both ends apply the same FIFO byte-budget eviction
  // (dist::ContextCache), so the coordinator's per-worker mirror always
  // knows what the child still holds.
  kContext = 6,
};

struct Frame {
  FrameType type = FrameType::kError;
  std::vector<uint8_t> payload;
};

enum class DecodeStatus {
  kOk,        // one complete valid frame consumed
  kNeedMore,  // prefix of a plausible frame; feed more bytes
  kBad,       // unrecoverable: bad magic/version/type/length/checksum
};

// Serializes one frame (header + payload + checksum).
std::vector<uint8_t> EncodeFrame(FrameType type, const uint8_t* payload, size_t len);
inline std::vector<uint8_t> EncodeFrame(FrameType type, const std::vector<uint8_t>& payload) {
  return EncodeFrame(type, payload.data(), payload.size());
}

// Attempts to decode one frame from the front of [data, data+size). On kOk,
// fills *out and sets *consumed to the frame's full length. On kNeedMore,
// nothing is consumed and the caller should append more bytes. On kBad, the
// stream is poisoned (framing can't resync) and *error says why.
DecodeStatus DecodeFrame(const uint8_t* data, size_t size, Frame* out, size_t* consumed,
                         std::string* error);

// Blocking frame I/O over an fd (socketpair/pipe). WriteFrame sends the whole
// encoded frame (MSG_NOSIGNAL -- a dead peer yields an error, never SIGPIPE).
// ReadFrame polls with an overall deadline of timeout_ms (<0 = no deadline)
// and fails on timeout, EOF, or a kBad decode. Both return false with *error
// set on failure.
bool WriteFrame(int fd, FrameType type, const std::vector<uint8_t>& payload, std::string* error);
bool ReadFrame(int fd, Frame* out, int timeout_ms, std::string* error);

}  // namespace revnic::dist

#endif  // REVNIC_DIST_WIRE_H_

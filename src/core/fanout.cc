#include "core/fanout.h"

#include "core/result_codec.h"
#include "dist/coordinator.h"
#include "trace/serialize.h"
#include "util/bits.h"

namespace revnic::core {
namespace {

// Payload magics so a swapped work/result payload fails loudly instead of
// misparsing (the RDP1 frame already carries type + checksum; this guards
// against coordinator-side mixups). FWK3 drops FWK2's inline-snapshot field
// (the snapshot always travels by context key); FWR3 encodes each slot with
// the RCP1 codec (core/result_codec.h), which adds static_blocks to FWR2's
// slot layout. A payload of any old layout fails closed.
constexpr uint32_t kWorkMagic = 0x334B5746;    // "FWK3"
constexpr uint32_t kResultMagic = 0x33525746;  // "FWR3"

}  // namespace

void SerializeFanoutWorkInto(uint32_t job, const FanoutTask& task,
                             const std::string& context_key, std::vector<uint8_t>* out) {
  out->clear();
  auto u32 = [out](uint32_t v) {
    const size_t n = out->size();
    out->resize(n + 4);
    StoreLE(out->data() + n, v, 4);
  };
  auto u64 = [&u32](uint64_t v) {
    u32(static_cast<uint32_t>(v));
    u32(static_cast<uint32_t>(v >> 32));
  };
  u32(kWorkMagic);
  u32(job);
  u64(task.step);
  u32(task.sub_shard);
  u32(task.sub_shards);
  u32(static_cast<uint32_t>(context_key.size()));
  out->insert(out->end(), context_key.begin(), context_key.end());
}

bool DeserializeFanoutWork(const std::vector<uint8_t>& bytes, uint32_t* job, FanoutTask* task,
                           std::string* context_key, std::string* error) {
  trace::ByteReader r(bytes);
  auto fail = [&](const char* what) {
    *error = what;
    return false;
  };
  uint32_t magic;
  if (!r.U32(&magic) || magic != kWorkMagic) {
    return fail("fanout work: bad magic");
  }
  if (!r.U32(job) || !r.U64(&task->step) || !r.U32(&task->sub_shard) ||
      !r.U32(&task->sub_shards) || !r.Str(context_key)) {
    return fail("fanout work: truncated header");
  }
  if (context_key->empty()) {
    return fail("fanout work: empty context key");
  }
  if (r.remaining() != 0) {
    return fail("fanout work: trailing bytes");
  }
  return true;
}

std::vector<uint8_t> SerializeFanoutResult(const FanoutTaskResult& result) {
  trace::ByteWriter w;
  w.U32(kResultMagic);
  w.U64(result.root_count);
  w.U64(result.task_work);
  w.U64(result.enum_work);
  w.U64(result.restore_failures);
  w.U32(static_cast<uint32_t>(result.slots.size()));
  for (const FanoutSlot& slot : result.slots) {
    w.U32(slot.ordinal);
    w.U8(slot.begun ? 1 : 0);
    if (slot.begun) {
      WriteEngineResult(w, slot.result);
    }
  }
  return w.Take();
}

bool DeserializeFanoutResult(const std::vector<uint8_t>& bytes, FanoutTaskResult* out,
                             std::string* error) {
  trace::ByteReader r(bytes);
  auto fail = [&](const char* what) {
    *error = what;
    return false;
  };
  uint32_t magic;
  if (!r.U32(&magic) || magic != kResultMagic) {
    return fail("fanout result: bad magic");
  }
  uint32_t slot_count;
  if (!r.U64(&out->root_count) || !r.U64(&out->task_work) || !r.U64(&out->enum_work) ||
      !r.U64(&out->restore_failures) || !r.U32(&slot_count)) {
    return fail("fanout result: truncated header");
  }
  if (slot_count > r.remaining()) {  // >= 1 byte per slot
    return fail("fanout result: implausible slot count");
  }
  out->slots.resize(slot_count);
  for (FanoutSlot& slot : out->slots) {
    uint8_t begun;
    if (!r.U32(&slot.ordinal) || !r.U8(&begun)) {
      return fail("fanout result: truncated slot");
    }
    slot.begun = begun != 0;
    if (slot.begun && !ReadEngineResult(r, &slot.result, error)) {
      *error = "fanout result: slot: " + *error;
      return false;
    }
  }
  if (r.remaining() != 0) {
    return fail("fanout result: trailing bytes");
  }
  return true;
}

std::unique_ptr<dist::WorkerPool> ForkFanoutWorkers(std::vector<FanoutJob> jobs,
                                                    unsigned workers) {
  for (FanoutJob& j : jobs) {
    // Hooks and the scheduler must not cross the fork.
    j.config.cancel = nullptr;
    j.config.on_coverage = nullptr;
    j.config.fleet = nullptr;
  }
  auto table = std::make_shared<const std::vector<FanoutJob>>(std::move(jobs));
  dist::WorkerPool::Options options;
  options.workers = workers;
  auto pool = std::make_unique<dist::WorkerPool>(
      options, [table](const dist::ContextCache& contexts, const std::vector<uint8_t>& work,
                       std::vector<uint8_t>* reply, std::string* err) {
        uint32_t job = 0;
        FanoutTask task;
        std::string key;
        if (!DeserializeFanoutWork(work, &job, &task, &key, err)) {
          return false;
        }
        if (job >= table->size() || (*table)[job].image == nullptr) {
          *err = "fanout work names an unknown job";
          return false;
        }
        // Shipped at most once per worker per (job, step) by the
        // coordinator, referenced by key here.
        const std::vector<uint8_t>* snapshot = contexts.Find(key);
        if (snapshot == nullptr) {
          *err = "fanout work references uncached context: " + key;
          return false;
        }
        const FanoutJob& j = (*table)[job];
        *reply =
            SerializeFanoutResult(Engine::ExecuteFanoutTask(*j.image, j.config, task, *snapshot));
        return true;
      });
  if (pool->alive() == 0) {
    pool.reset();  // every fork/handshake failed; run fully in-process
  }
  return pool;
}

}  // namespace revnic::core

#include "trace/serialize.h"

#include <cstring>

#include "os/winsim.h"
#include "util/bits.h"

namespace revnic::trace {
namespace {

constexpr uint32_t kTraceMagic = 0x31435254;  // "TRC1"

void PutInstr(ByteWriter& w, const ir::Instr& i) {
  w.U8(static_cast<uint8_t>(i.op));
  w.U8(i.size);
  w.U8(i.guest_idx);
  w.U32(static_cast<uint32_t>(i.dst));
  w.U32(static_cast<uint32_t>(i.a));
  w.U32(static_cast<uint32_t>(i.b));
  w.U32(static_cast<uint32_t>(i.c));
  w.U32(i.imm);
}

bool GetInstr(ByteReader& r, ir::Instr* i) {
  uint8_t op;
  uint32_t dst, a, b, c;
  if (!r.U8(&op) || !r.U8(&i->size) || !r.U8(&i->guest_idx) || !r.U32(&dst) || !r.U32(&a) ||
      !r.U32(&b) || !r.U32(&c) || !r.U32(&i->imm)) {
    return false;
  }
  i->op = static_cast<ir::Op>(op);
  i->dst = static_cast<int32_t>(dst);
  i->a = static_cast<int32_t>(a);
  i->b = static_cast<int32_t>(b);
  i->c = static_cast<int32_t>(c);
  return true;
}

void PutSnapshot(ByteWriter& w, const RegSnapshot& s) {
  for (uint32_t r : s.regs) {
    w.U32(r);
  }
  w.U32(s.sym_mask);
}

bool GetSnapshot(ByteReader& r, RegSnapshot* s) {
  for (uint32_t& reg : s->regs) {
    if (!r.U32(&reg)) {
      return false;
    }
  }
  return r.U32(&s->sym_mask);
}

}  // namespace

void SerializeTo(const TraceBundle& b, ByteWriter* wp) {
  ByteWriter& w = *wp;
  w.U32(kTraceMagic);
  w.U32(b.code_begin);
  w.U32(b.code_end);
  w.U32(b.entry);

  w.U32(static_cast<uint32_t>(b.blocks.size()));
  for (const auto& [pc, block] : b.blocks) {
    w.U32(pc);
    w.U32(block.guest_size);
    w.U8(static_cast<uint8_t>(block.term));
    w.U32(block.target);
    w.U32(block.fallthrough);
    w.U32(static_cast<uint32_t>(block.cond_tmp));
    w.U32(static_cast<uint32_t>(block.num_temps));
    w.U32(static_cast<uint32_t>(block.instrs.size()));
    for (const ir::Instr& i : block.instrs) {
      PutInstr(w, i);
    }
  }

  w.U32(static_cast<uint32_t>(b.block_records.size()));
  for (const BlockRecord& rec : b.block_records) {
    w.U64(rec.state_id);
    w.U64(rec.seq);
    w.U32(rec.pc);
    w.U8(static_cast<uint8_t>(rec.term));
    w.U32(rec.next_pc);
    PutSnapshot(w, rec.before);
    PutSnapshot(w, rec.after);
  }

  w.U32(static_cast<uint32_t>(b.mem_records.size()));
  for (const MemRecord& rec : b.mem_records) {
    w.U64(rec.state_id);
    w.U64(rec.seq);
    w.U32(rec.pc);
    w.U8(static_cast<uint8_t>(rec.kind));
    w.U8(rec.size);
    w.U8(rec.is_write ? 1 : 0);
    w.U8(rec.value_symbolic ? 1 : 0);
    w.U32(rec.addr);
    w.U32(rec.value);
  }

  w.U32(static_cast<uint32_t>(b.api_records.size()));
  for (const ApiRecord& rec : b.api_records) {
    w.U64(rec.state_id);
    w.U64(rec.seq);
    w.U32(rec.pc);
    w.U32(rec.api_id);
    w.U32(static_cast<uint32_t>(rec.args.size()));
    for (uint32_t a : rec.args) {
      w.U32(a);
    }
    w.U32(rec.ret);
    w.U8(rec.skipped ? 1 : 0);
  }

  w.U32(static_cast<uint32_t>(b.events.size()));
  for (const EventRecord& rec : b.events) {
    w.U64(rec.state_id);
    w.U64(rec.seq);
    w.U8(static_cast<uint8_t>(rec.kind));
    w.U32(rec.value);
    w.Str(rec.detail);
  }
}

std::vector<uint8_t> Serialize(const TraceBundle& b) {
  ByteWriter w;
  SerializeTo(b, &w);
  return w.Take();
}

bool DeserializeFrom(ByteReader* rp, TraceBundle* out, std::string* error) {
  ByteReader& r = *rp;
  auto fail = [&](const char* what) {
    *error = what;
    return false;
  };
  uint32_t magic;
  if (!r.U32(&magic) || magic != kTraceMagic) {
    return fail("bad trace magic");
  }
  TraceBundle b;
  if (!r.U32(&b.code_begin) || !r.U32(&b.code_end) || !r.U32(&b.entry)) {
    return fail("truncated header");
  }

  uint32_t n;
  if (!r.U32(&n)) {
    return fail("truncated block table");
  }
  for (uint32_t k = 0; k < n; ++k) {
    uint32_t pc, cond, temps, count;
    ir::Block block;
    uint8_t term;
    if (!r.U32(&pc) || !r.U32(&block.guest_size) || !r.U8(&term) || !r.U32(&block.target) ||
        !r.U32(&block.fallthrough) || !r.U32(&cond) || !r.U32(&temps) || !r.U32(&count)) {
      return fail("truncated block");
    }
    block.guest_pc = pc;
    block.term = static_cast<ir::Term>(term);
    block.cond_tmp = static_cast<int32_t>(cond);
    block.num_temps = static_cast<int32_t>(temps);
    block.instrs.resize(count);
    for (ir::Instr& i : block.instrs) {
      if (!GetInstr(r, &i)) {
        return fail("truncated instr");
      }
    }
    b.blocks.emplace(pc, std::move(block));
  }

  if (!r.U32(&n)) {
    return fail("truncated block records");
  }
  b.block_records.resize(n);
  for (BlockRecord& rec : b.block_records) {
    uint8_t term;
    if (!r.U64(&rec.state_id) || !r.U64(&rec.seq) || !r.U32(&rec.pc) || !r.U8(&term) ||
        !r.U32(&rec.next_pc) || !GetSnapshot(r, &rec.before) || !GetSnapshot(r, &rec.after)) {
      return fail("truncated block record");
    }
    rec.term = static_cast<ir::Term>(term);
  }

  if (!r.U32(&n)) {
    return fail("truncated mem records");
  }
  b.mem_records.resize(n);
  for (MemRecord& rec : b.mem_records) {
    uint8_t kind, w8, s8;
    if (!r.U64(&rec.state_id) || !r.U64(&rec.seq) || !r.U32(&rec.pc) || !r.U8(&kind) ||
        !r.U8(&rec.size) || !r.U8(&w8) || !r.U8(&s8) || !r.U32(&rec.addr) || !r.U32(&rec.value)) {
      return fail("truncated mem record");
    }
    rec.kind = static_cast<MemKind>(kind);
    rec.is_write = w8 != 0;
    rec.value_symbolic = s8 != 0;
  }

  if (!r.U32(&n)) {
    return fail("truncated api records");
  }
  b.api_records.resize(n);
  for (ApiRecord& rec : b.api_records) {
    uint32_t argc;
    if (!r.U64(&rec.state_id) || !r.U64(&rec.seq) || !r.U32(&rec.pc) || !r.U32(&rec.api_id) ||
        !r.U32(&argc)) {
      return fail("truncated api record");
    }
    rec.args.resize(argc);
    for (uint32_t& a : rec.args) {
      if (!r.U32(&a)) {
        return fail("truncated api args");
      }
    }
    uint8_t skipped;
    if (!r.U32(&rec.ret) || !r.U8(&skipped)) {
      return fail("truncated api record tail");
    }
    rec.skipped = skipped != 0;
  }

  if (!r.U32(&n)) {
    return fail("truncated events");
  }
  b.events.resize(n);
  for (EventRecord& rec : b.events) {
    uint8_t kind;
    if (!r.U64(&rec.state_id) || !r.U64(&rec.seq) || !r.U8(&kind) || !r.U32(&rec.value) ||
        !r.Str(&rec.detail)) {
      return fail("truncated event");
    }
    rec.kind = static_cast<EventKind>(kind);
  }
  *out = std::move(b);
  return true;
}

bool Deserialize(const std::vector<uint8_t>& bytes, TraceBundle* out, std::string* error) {
  ByteReader r(bytes);
  return DeserializeFrom(&r, out, error);
}

void WriteEntryTable(ByteWriter& w, const std::vector<os::EntryPoint>& entries) {
  w.U32(static_cast<uint32_t>(entries.size()));
  for (const os::EntryPoint& e : entries) {
    w.U8(static_cast<uint8_t>(e.role));
    w.U32(e.pc);
    w.U32(e.timer_context);
  }
}

bool ReadEntryTable(ByteReader& r, std::vector<os::EntryPoint>* entries) {
  uint32_t n;
  if (!r.U32(&n) || n > r.remaining() / 9) {
    return false;
  }
  entries->resize(n);
  for (os::EntryPoint& e : *entries) {
    uint8_t role;
    if (!r.U8(&role) || role > static_cast<uint8_t>(os::EntryRole::kTimer) || !r.U32(&e.pc) ||
        !r.U32(&e.timer_context)) {
      return false;
    }
    e.role = static_cast<os::EntryRole>(role);
  }
  return true;
}

}  // namespace revnic::trace

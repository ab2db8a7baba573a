#include "synth/emit.h"

#include "util/strings.h"

namespace revnic::synth {

namespace {

// Entry-point roles and the stack-argument counts their template slots pass
// (mirrors the os::MiniportHost workload's role calls, src/os/miniport_host.h,
// plus the exerciser script's shutdown and timer steps, core/engine.cc).
struct RoleSpec {
  os::EntryRole role;
  unsigned argc;
};
constexpr RoleSpec kRoleSpecs[] = {
    {os::EntryRole::kInitialize, 1},      {os::EntryRole::kIsr, 1},
    {os::EntryRole::kHandleInterrupt, 1}, {os::EntryRole::kSend, 3},
    {os::EntryRole::kQueryInformation, 5}, {os::EntryRole::kSetInformation, 5},
    {os::EntryRole::kReset, 1},           {os::EntryRole::kHalt, 1},
    {os::EntryRole::kShutdown, 1},        {os::EntryRole::kTimer, 1},
};

const RecoveredFunction* RoleFunction(const RecoveredModule& m, os::EntryRole role) {
  uint32_t pc = m.EntryPc(role);
  return pc == 0 ? nullptr : m.FunctionAt(pc);
}

// The guest-stack call shim every template's boilerplate performs before
// entering pasted code: args pushed right-to-left, stop-pc return sentinel,
// sp in r12. Shared by all backends' glue.
std::string InvokeHelper() {
  return R"(/* Calls a synthesized entry point with stdcall args staged on the guest
 * stack -- what the template's boilerplate does before entering the pasted
 * code (sp in r12, stop-pc sentinel as the return address). */
uint32_t revnic_invoke(void (*fn)(struct revnic_cpu*), const uint32_t* args, unsigned argc)
{
    struct revnic_cpu cpu = {{0u}};
    uint32_t sp = 0x00100000u; /* template-owned guest stack top */
    unsigned i;
    for (i = argc; i > 0; --i) {
        sp -= 4u;
        revnic_store(sp, 4, args[i - 1]);
    }
    sp -= 4u;
    revnic_store(sp, 4, 0xFFFFFFF0u); /* stop-pc return sentinel */
    cpu.r[12] = sp;
    fn(&cpu);
    return cpu.r[0];
}

)";
}

// Role -> synthesized-function table: the template's placeholder slots,
// wired with the role metadata captured at registration time.
std::string EntryTable(const RecoveredModule& m) {
  std::string out;
  out += "struct revnic_entry_slot {\n"
         "    const char* role;\n"
         "    uint32_t pc;\n"
         "    void (*fn)(struct revnic_cpu*);\n"
         "};\n";
  out += "const struct revnic_entry_slot revnic_entry_table[] = {\n";
  for (const auto& [role, pc] : m.entry_roles) {
    const RecoveredFunction* fn = m.FunctionAt(pc);
    if (fn == nullptr) {
      continue;
    }
    out += StrFormat("    { \"%s\", 0x%xu, %s },\n", os::EntryRoleName(role), pc,
                     fn->name.c_str());
  }
  out += "};\n";
  out += "const unsigned revnic_entry_count =\n"
         "    sizeof(revnic_entry_table) / sizeof(revnic_entry_table[0]);\n\n";
  return out;
}

// One `<prefix>_<role>` wrapper per recovered role: explicit uint32 args in,
// revnic_invoke down to the synthesized function.
std::string RoleWrappers(const RecoveredModule& m, const char* prefix) {
  std::string out;
  for (const RoleSpec& spec : kRoleSpecs) {
    const RecoveredFunction* fn = RoleFunction(m, spec.role);
    if (fn == nullptr) {
      continue;
    }
    std::string params;
    std::string stores;
    for (unsigned a = 0; a < spec.argc; ++a) {
      params += StrFormat("%suint32_t a%u", a == 0 ? "" : ", ", a);
      stores += StrFormat("    args[%u] = a%u;\n", a, a);
    }
    out += StrFormat("uint32_t %s_%s(%s)\n{\n    uint32_t args[%u];\n", prefix,
                     os::EntryRoleName(spec.role), params.c_str(), spec.argc);
    out += stores;
    out += StrFormat("    return revnic_invoke(%s, args, %u);\n}\n\n", fn->name.c_str(),
                     spec.argc);
  }
  return out;
}

std::string GlueBanner(const char* target, const char* detail) {
  return StrFormat("/* ---- %s template glue ----\n * %s\n */\n", target, detail);
}

// ---- backends ----

class WindowsBackend : public EmitBackend {
 public:
  os::TargetOs target() const override { return os::TargetOs::kWindows; }
  std::string Prologue(const RecoveredModule&) const override {
    return "/* Synthesized by RevNIC: C encoding of the reverse-engineered driver\n"
           " * state machine. Control flow uses goto; driver state is reached via\n"
           " * the original pointer arithmetic (see paper, Listing 1).\n"
           " * Target OS: windows -- the generic runtime template (full NDIS-style\n"
           " * boilerplate lives behind the revnic_* hooks, paper Table 3: 5 p-days).\n"
           " */\n"
           "#include \"revnic_runtime.h\"\n\n";
  }
  std::string TemplateGlue(const RecoveredModule& m) const override {
    if (m.entry_roles.empty()) {
      return "";
    }
    std::string out = GlueBanner(
        "windows (generic NDIS-style)",
        "Miniport placeholder slots wired to the synthesized entry points.");
    out += EntryTable(m);
    out += InvokeHelper();
    out += RoleWrappers(m, "revnic_miniport");
    return out;
  }
};

class LinuxBackend : public EmitBackend {
 public:
  os::TargetOs target() const override { return os::TargetOs::kLinux; }
  std::string Prologue(const RecoveredModule&) const override {
    return "/* RevNIC-synthesized driver re-emitted for a Linux-style net_device\n"
           " * template (paper §4.2, Table 3: derived from the generic template in\n"
           " * ~3 person-days). The template supplies probe/remove, net_device_ops,\n"
           " * and IRQ boilerplate; the synthesized state machine below is pasted in\n"
           " * unchanged and reaches driver state through the original pointer\n"
           " * arithmetic. Source-OS quirks (NdisStallExecution) are stripped by the\n"
           " * template's revnic_os_call implementation.\n"
           " */\n"
           "#include \"revnic_runtime.h\"\n\n";
  }
  std::string TemplateGlue(const RecoveredModule& m) const override {
    if (m.entry_roles.empty()) {
      return "";
    }
    std::string out = GlueBanner(
        "linux (net_device)",
        "ndo_* shaped wrappers over the synthesized entry points.");
    out += EntryTable(m);
    out += InvokeHelper();
    out += RoleWrappers(m, "revnic_ndo");
    // net_device_ops-shaped dispatch table over the roles every NIC
    // template fills in.
    bool open = RoleFunction(m, os::EntryRole::kInitialize) != nullptr;
    bool stop = RoleFunction(m, os::EntryRole::kHalt) != nullptr;
    bool xmit = RoleFunction(m, os::EntryRole::kSend) != nullptr;
    if (open && stop && xmit) {
      out += "struct revnic_net_device_ops {\n"
             "    uint32_t (*ndo_open)(uint32_t dev);\n"
             "    uint32_t (*ndo_stop)(uint32_t dev);\n"
             "    uint32_t (*ndo_start_xmit)(uint32_t dev, uint32_t skb, uint32_t flags);\n"
             "};\n"
             "const struct revnic_net_device_ops revnic_netdev_ops = {\n"
             "    revnic_ndo_initialize,\n"
             "    revnic_ndo_halt,\n"
             "    revnic_ndo_send,\n"
             "};\n";
    }
    return out;
  }
};

class UcosBackend : public EmitBackend {
 public:
  os::TargetOs target() const override { return os::TargetOs::kUcos; }
  std::string Prologue(const RecoveredModule&) const override {
    return "/* RevNIC-synthesized driver re-emitted for a uC/OS-II style embedded\n"
           " * template (paper §4.2, Table 3: ~1 person-day -- a simple embedded\n"
           " * driver interface). The RTOS owns one task and one ISR hook; both\n"
           " * enter the synthesized state machine through the revnic_* hooks,\n"
           " * which the board support package maps onto PIO/MMIO with barriers.\n"
           " */\n"
           "#include \"revnic_runtime.h\"\n\n";
  }
  std::string TemplateGlue(const RecoveredModule& m) const override {
    if (m.entry_roles.empty()) {
      return "";
    }
    std::string out = GlueBanner(
        "uC/OS-II (embedded)",
        "Task + ISR shells over the synthesized entry points.");
    out += EntryTable(m);
    out += InvokeHelper();
    out += RoleWrappers(m, "revnic_ucos");
    if (RoleFunction(m, os::EntryRole::kIsr) != nullptr &&
        RoleFunction(m, os::EntryRole::kHandleInterrupt) != nullptr) {
      out += "/* ISR shell: acknowledge and drain the device, as OSIntEnter /\n"
             " * OSIntExit would bracket it on the real kernel. */\n"
             "void revnic_ucos_isr_shell(uint32_t ctx)\n"
             "{\n"
             "    unsigned guard;\n"
             "    for (guard = 0; guard < 8u; ++guard) {\n"
             "        if (revnic_ucos_isr(ctx) == 0u) {\n"
             "            break;\n"
             "        }\n"
             "        revnic_ucos_handle_interrupt(ctx);\n"
             "    }\n"
             "}\n";
    }
    return out;
  }
};

class KitosBackend : public EmitBackend {
 public:
  os::TargetOs target() const override { return os::TargetOs::kKitos; }
  std::string Prologue(const RecoveredModule&) const override {
    return R"(/* RevNIC-synthesized driver re-emitted for bare KitOS (paper §4.2,
 * Table 3: 0 person-days -- no template needed, the driver talks to
 * hardware directly). This translation unit is self-contained: the
 * runtime hooks are defined right here over a flat RAM array and raw
 * MMIO dereferences; there is no kernel to call, so revnic_os_call is
 * the empty OS.
 *
 * Native-harness C ABI (src/native/README.md): a host that compiles this
 * translation unit as a shared object may install hooks through
 * revnic_bind_host() to observe every device access and service kernel
 * calls; revnic_ram_base() exposes the flat RAM for DMA. Unbound, the
 * hooks fall back to the bare-KitOS behavior above each definition.
 */
#include <stdint.h>

struct revnic_cpu {
    uint32_t r[16]; /* r11=fp, r12=sp; r0 carries return values */
};

/* Layout-frozen host binding surface (mirror: src/native/abi.h). Bump the
 * version whenever the struct or any hook signature changes. */
#define REVNIC_NATIVE_ABI_VERSION 1u
const uint32_t revnic_abi_version = REVNIC_NATIVE_ABI_VERSION;

struct revnic_host_ops {
    void* ctx;
    uint32_t (*io_read)(void* ctx, uint32_t addr, unsigned size);
    void (*io_write)(void* ctx, uint32_t addr, unsigned size, uint32_t value);
    uint32_t (*os_call)(void* ctx, uint32_t api_id, struct revnic_cpu* cpu);
    void (*unexplored)(void* ctx, uint32_t pc);
    void (*trace_halt)(void* ctx);
};

static struct revnic_host_ops revnic_host; /* all-NULL until bound */
static uint32_t revnic_host_mmio_base;
static uint32_t revnic_host_mmio_size;

/* Flat guest memory image, sized to the source-OS layout (os/winsim.h
 * kGuestRamSize) so heap/DMA allocations land where the host expects.
 * Out-of-range accesses read 0 / are dropped, matching vm::MemoryMap. */
#define REVNIC_RAM_SIZE (16u << 20)
static uint8_t revnic_ram[REVNIC_RAM_SIZE];

uint8_t* revnic_ram_base(uint32_t* size_out)
{
    if (size_out != 0) {
        *size_out = REVNIC_RAM_SIZE;
    }
    return revnic_ram;
}

void revnic_bind_host(const struct revnic_host_ops* ops, uint32_t mmio_base,
                      uint32_t mmio_size)
{
    if (ops != 0) {
        revnic_host = *ops;
    } else {
        struct revnic_host_ops none = {0, 0, 0, 0, 0};
        revnic_host = none;
    }
    revnic_host_mmio_base = mmio_base;
    revnic_host_mmio_size = mmio_size;
}

uint32_t revnic_load(uint32_t addr, unsigned size)
{
    uint32_t v = 0;
    unsigned i;
    /* MMIO-window loads route to the bound device model: memory-mapped
     * chips (smc91c111) reach their registers via plain loads/stores. */
    if (revnic_host.io_read != 0 && addr - revnic_host_mmio_base < revnic_host_mmio_size) {
        return revnic_host.io_read(revnic_host.ctx, addr, size);
    }
    if (addr >= REVNIC_RAM_SIZE || size > REVNIC_RAM_SIZE - addr) {
        return 0;
    }
    for (i = 0; i < size; ++i) {
        v |= (uint32_t)revnic_ram[addr + i] << (8u * i);
    }
    return v;
}

void revnic_store(uint32_t addr, unsigned size, uint32_t value)
{
    unsigned i;
    if (revnic_host.io_write != 0 && addr - revnic_host_mmio_base < revnic_host_mmio_size) {
        revnic_host.io_write(revnic_host.ctx, addr, size, value);
        return;
    }
    if (addr >= REVNIC_RAM_SIZE || size > REVNIC_RAM_SIZE - addr) {
        return;
    }
    for (i = 0; i < size; ++i) {
        revnic_ram[addr + i] = (uint8_t)(value >> (8u * i));
    }
}

/* Device access: raw dereference into the platform's I/O window. KitOS
 * runs with the MMU off, so ports/MMIO are plain addresses. */
#define REVNIC_IO_WINDOW 0xF0000000u

uint32_t revnic_in(uint32_t port, unsigned size)
{
    volatile uint8_t* p;
    uint32_t v = 0;
    unsigned i;
    if (revnic_host.io_read != 0) {
        return revnic_host.io_read(revnic_host.ctx, port, size);
    }
    p = (volatile uint8_t*)(uintptr_t)(REVNIC_IO_WINDOW + port);
    for (i = 0; i < size; ++i) {
        v |= (uint32_t)p[i] << (8u * i);
    }
    return v;
}

void revnic_out(uint32_t port, unsigned size, uint32_t value)
{
    volatile uint8_t* p;
    unsigned i;
    if (revnic_host.io_write != 0) {
        revnic_host.io_write(revnic_host.ctx, port, size, value);
        return;
    }
    p = (volatile uint8_t*)(uintptr_t)(REVNIC_IO_WINDOW + port);
    for (i = 0; i < size; ++i) {
        p[i] = (uint8_t)(value >> (8u * i));
    }
}

uint32_t revnic_os_call(uint32_t api_id, struct revnic_cpu* cpu)
{
    if (revnic_host.os_call != 0) {
        /* The host services the call and pops the stdcall args (it adjusts
         * cpu->r[12] by 4 * argc, exactly as the in-process runner does). */
        return revnic_host.os_call(revnic_host.ctx, api_id, cpu);
    }
    /* No OS services on KitOS; source-OS stalls and kernel calls vanish. */
    (void)api_id;
    (void)cpu;
    return 0u;
}

void revnic_unexplored(uint32_t pc)
{
    if (revnic_host.unexplored != 0) {
        /* Every call site is followed by `return;`, so reporting the hole
         * to the host and returning unwinds the entry call cleanly. */
        revnic_host.unexplored(revnic_host.ctx, pc);
        return;
    }
    /* Reached a branch RevNIC never traced (§4.1): park the CPU. */
    (void)pc;
    for (;;) {
    }
}

void revnic_halt(void)
{
    if (revnic_host.trace_halt != 0) {
        revnic_host.trace_halt(revnic_host.ctx);
        return;
    }
    for (;;) {
    }
}

)";
  }
  std::string TemplateGlue(const RecoveredModule& m) const override {
    if (m.entry_roles.empty()) {
      return "";
    }
    std::string out = GlueBanner(
        "KitOS (bare hardware)",
        "No driver model: boot calls initialize, the main loop polls the ISR.");
    out += EntryTable(m);
    out += InvokeHelper();
    out += RoleWrappers(m, "revnic_kitos");
    // Whole-module pc -> function table plus a dispatch-by-pc call helper.
    // The native harness needs both: timer handlers and interrupt-sync
    // callbacks are reached by guest pc (WinSim hands the pc back through
    // an OS call), and nested callbacks must run on the *current* guest
    // stack -- revnic_invoke's fixed stack top would smash the live frame.
    out += "static const struct revnic_fn_slot {\n"
           "    uint32_t pc;\n"
           "    void (*fn)(struct revnic_cpu*);\n"
           "} revnic_fn_table[] = {\n";
    for (const auto& [pc, fn] : m.functions) {
      out += StrFormat("    { 0x%xu, %s },\n", pc, fn.name.c_str());
    }
    out += "};\n"
           "const unsigned revnic_fn_count =\n"
           "    sizeof(revnic_fn_table) / sizeof(revnic_fn_table[0]);\n\n";
    out += "/* Calls the synthesized function at guest pc with stdcall args staged\n"
           " * at `sp` (pass 0x00100000 for a fresh top-level stack). Unknown pcs\n"
           " * report a coverage hole and return 0. */\n"
           "uint32_t revnic_call_pc_at(uint32_t pc, uint32_t sp, const uint32_t* args,\n"
           "                           unsigned argc)\n"
           "{\n"
           "    struct revnic_cpu cpu = {{0u}};\n"
           "    void (*fn)(struct revnic_cpu*) = 0;\n"
           "    unsigned i;\n"
           "    for (i = 0; i < revnic_fn_count; ++i) {\n"
           "        if (revnic_fn_table[i].pc == pc) {\n"
           "            fn = revnic_fn_table[i].fn;\n"
           "            break;\n"
           "        }\n"
           "    }\n"
           "    if (fn == 0) {\n"
           "        revnic_unexplored(pc);\n"
           "        return 0u;\n"
           "    }\n"
           "    for (i = argc; i > 0; --i) {\n"
           "        sp -= 4u;\n"
           "        revnic_store(sp, 4, args[i - 1u]);\n"
           "    }\n"
           "    sp -= 4u;\n"
           "    revnic_store(sp, 4, 0xFFFFFFF0u); /* stop-pc return sentinel */\n"
           "    cpu.r[12] = sp;\n"
           "    fn(&cpu);\n"
           "    return cpu.r[0];\n"
           "}\n\n";
    if (RoleFunction(m, os::EntryRole::kInitialize) != nullptr) {
      out += "uint32_t revnic_kitos_boot(void)\n"
             "{\n"
             "    return revnic_kitos_initialize(0x2000u); /* driver handle */\n"
             "}\n";
    }
    return out;
  }
};

}  // namespace

std::unique_ptr<EmitBackend> MakeEmitBackend(os::TargetOs target) {
  switch (target) {
    case os::TargetOs::kWindows:
      return std::make_unique<WindowsBackend>();
    case os::TargetOs::kLinux:
      return std::make_unique<LinuxBackend>();
    case os::TargetOs::kUcos:
      return std::make_unique<UcosBackend>();
    case os::TargetOs::kKitos:
      return std::make_unique<KitosBackend>();
  }
  return nullptr;
}

std::string TargetFileName(os::TargetOs target) {
  return std::string("driver_") + os::TargetOsName(target) + ".c";
}

namespace {

// The target-independent share of every emission: forward declarations +
// function bodies from the shared renderer.
std::string RenderCore(const RecoveredModule& m, CEmitStats* stats) {
  std::string body;
  for (const auto& [pc, fn] : m.functions) {
    body += StrFormat("void %s(struct revnic_cpu* cpu);\n", fn.name.c_str());
  }
  body += "\n";
  for (const auto& [pc, fn] : m.functions) {
    body += EmitFunctionC(m, pc, stats);
    body += "\n";
  }
  return body;
}

TargetEmission WrapCore(const RecoveredModule& m, os::TargetOs target, const std::string& body,
                        const CEmitStats& body_stats) {
  std::unique_ptr<EmitBackend> backend = MakeEmitBackend(target);
  TargetEmission te;
  std::string prologue = backend->Prologue(m);
  std::string glue = backend->TemplateGlue(m);
  te.stats.core = body_stats;
  te.stats.core_bytes = body.size();
  te.stats.template_bytes = prologue.size() + glue.size();
  te.stats.core.bytes = body.size();
  te.source = prologue + body + glue;
  return te;
}

}  // namespace

TargetEmission EmitForTarget(const RecoveredModule& m, os::TargetOs target) {
  CEmitStats body_stats;
  std::string body = RenderCore(m, &body_stats);
  return WrapCore(m, target, body, body_stats);
}

std::map<os::TargetOs, TargetEmission> EmitForTargets(const RecoveredModule& m,
                                                      const std::vector<os::TargetOs>& targets) {
  std::map<os::TargetOs, TargetEmission> out;
  if (targets.empty()) {
    return out;
  }
  CEmitStats body_stats;
  std::string body = RenderCore(m, &body_stats);  // rendered once
  for (os::TargetOs target : targets) {
    if (out.count(target) == 0) {
      out.emplace(target, WrapCore(m, target, body, body_stats));
    }
  }
  return out;
}

}  // namespace revnic::synth

// Cross-commit determinism pin for the paper-faithful sequential exerciser.
//
// The byte-identity suites compare execution plans with each other inside
// one build; nothing there notices a change that moves every plan the same
// way (a solver rewrite that tries a different candidate, say). This test
// pins the absolute output instead: for every registered driver, the default
// sequential exercise at seed 1 must produce the same final RSS1 snapshot
// (FNV-1a-64 and length), the same work units and the same solver
// candidate-evaluation count as recorded below. The values are identical in
// Debug and RelWithDebInfo builds.
//
// A change that alters these bytes on purpose must update the table and say
// why; an accidental change is a determinism regression.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/engine.h"
#include "drivers/drivers.h"
#include "util/bits.h"

namespace revnic {
namespace {

struct Pin {
  drivers::DriverId id;
  uint64_t snapshot_fnv;
  size_t snapshot_bytes;
  uint64_t work;
  uint64_t evals;
};

constexpr Pin kPins[] = {
    {drivers::DriverId::kRtl8029, 0x3c00d6909a1a430eull, 230164, 8094, 3109104},
    {drivers::DriverId::kRtl8139, 0x9b4579e17e391bb8ull, 662143, 6613, 13158324},
    {drivers::DriverId::kPcnet, 0xa8730b9c5e01f81cull, 468789, 14882, 28373},
    {drivers::DriverId::kSmc91c111, 0x10e5296bd55d8a82ull, 251543, 5036, 2072526},
    {drivers::DriverId::kEl3, 0x41f56a00a8744cf3ull, 318889, 4842, 1025106},
};

const Pin* FindPin(drivers::DriverId id) {
  for (const Pin& p : kPins) {
    if (p.id == id) {
      return &p;
    }
  }
  return nullptr;
}

std::string Hex64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

TEST(ExercisePin, SequentialSeed1MatchesPinnedFingerprints) {
  for (const drivers::TargetInfo& t : drivers::AllTargets()) {
    SCOPED_TRACE(t.name);
    const Pin* pin = FindPin(t.id);
    ASSERT_NE(pin, nullptr) << "no pinned fingerprint for " << t.name << "; add a row";

    core::EngineConfig config;
    config.pci = drivers::DriverPci(t.id);
    config.seed = 1;
    core::Engine engine(drivers::DriverImage(t.id), config);
    core::EngineResult result = engine.Run();
    ASSERT_TRUE(result.error.empty()) << result.error;

    const std::vector<uint8_t>& snap = result.final_snapshot;
    uint64_t fnv = Fnv1a(snap.data(), snap.size());
    EXPECT_EQ(Hex64(fnv), Hex64(pin->snapshot_fnv));
    EXPECT_EQ(snap.size(), pin->snapshot_bytes);
    EXPECT_EQ(result.stats.work, pin->work);
    EXPECT_EQ(result.solver_stats.evals, pin->evals);
  }
}

}  // namespace
}  // namespace revnic

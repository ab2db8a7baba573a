// Cross-commit determinism pin for the exerciser's two output classes.
//
// The byte-identity suites compare execution plans with each other inside
// one build; nothing there notices a change that moves every plan the same
// way (a solver rewrite that tries a different candidate, say). This test
// pins the absolute output instead: for every registered driver, the default
// sequential exercise at seed 1 (run through core::Session, unlabelled) must
// produce the same final RSS1 snapshot (FNV-1a-64 and length), the same
// "RCP1" checkpoint (FNV-1a-64 and length), the same work units and the same
// solver candidate-evaluation count as recorded below; the whole-step
// parallel class (sub_shards 0, two lanes) must produce the same RCP1
// checkpoint as its own row records. The values are identical in Debug and
// RelWithDebInfo builds.
//
// A change that alters these bytes on purpose must update the table and say
// why; an accidental change is a determinism regression.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/session.h"
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
  uint64_t checkpoint_fnv;
  size_t checkpoint_bytes;
  // The same exercise under the whole-step parallel class, two lanes.
  uint64_t parallel_checkpoint_fnv;
  size_t parallel_checkpoint_bytes;
};

constexpr Pin kPins[] = {
    {drivers::DriverId::kRtl8029, 0x3c00d6909a1a430eull, 230164, 8094, 3109104,
     0x3e4259cf6182a703ull, 2285939, 0xb5ee496a6d097921ull, 4387344},
    {drivers::DriverId::kRtl8139, 0x9b4579e17e391bb8ull, 662143, 6613, 13158324,
     0xdab19ae3c3aea24dull, 2511275, 0x6b31b96eea07cd92ull, 3789164},
    {drivers::DriverId::kPcnet, 0xa8730b9c5e01f81cull, 468789, 14882, 28373,
     0x08f26fc80b68a8d3ull, 4786580, 0x8f234bb9c675cdeaull, 4277092},
    {drivers::DriverId::kSmc91c111, 0x10e5296bd55d8a82ull, 251543, 5036, 2072526,
     0x15fe947741f55c00ull, 1566368, 0x72f36d7fca546420ull, 2783393},
    {drivers::DriverId::kEl3, 0x41f56a00a8744cf3ull, 318889, 4842, 1025106,
     0x7e4d5aec5b4e8902ull, 1572758, 0xfd459f17a05f257full, 2665672},
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

core::EngineConfig PinConfig(drivers::DriverId id) {
  core::EngineConfig config;
  config.pci = drivers::DriverPci(id);
  config.seed = 1;
  return config;
}

TEST(ExercisePin, SequentialSeed1MatchesPinnedFingerprints) {
  for (const drivers::TargetInfo& t : drivers::AllTargets()) {
    SCOPED_TRACE(t.name);
    const Pin* pin = FindPin(t.id);
    ASSERT_NE(pin, nullptr) << "no pinned fingerprint for " << t.name << "; add a row";

    core::Session session(drivers::DriverImage(t.id), PinConfig(t.id));
    ASSERT_TRUE(session.Exercise()) << session.error();
    const core::EngineResult& result = session.engine();

    const std::vector<uint8_t>& snap = result.final_snapshot;
    EXPECT_EQ(Hex64(Fnv1a(snap.data(), snap.size())), Hex64(pin->snapshot_fnv));
    EXPECT_EQ(snap.size(), pin->snapshot_bytes);
    EXPECT_EQ(result.stats.work, pin->work);
    EXPECT_EQ(result.solver_stats.evals, pin->evals);

    const std::vector<uint8_t> rcp = session.SaveCheckpoint();
    EXPECT_EQ(Hex64(Fnv1a(rcp.data(), rcp.size())), Hex64(pin->checkpoint_fnv));
    EXPECT_EQ(rcp.size(), pin->checkpoint_bytes);
  }
}

TEST(ExercisePin, WholeStepParallelSeed1MatchesPinnedCheckpoints) {
  for (const drivers::TargetInfo& t : drivers::AllTargets()) {
    SCOPED_TRACE(t.name);
    const Pin* pin = FindPin(t.id);
    ASSERT_NE(pin, nullptr) << "no pinned fingerprint for " << t.name << "; add a row";

    core::EngineConfig config = PinConfig(t.id);
    config.plan.threads = 2;  // sub_shards 0: the whole-step parallel class
    core::Session session(drivers::DriverImage(t.id), config);
    ASSERT_TRUE(session.Exercise()) << session.error();

    const std::vector<uint8_t> rcp = session.SaveCheckpoint();
    EXPECT_EQ(Hex64(Fnv1a(rcp.data(), rcp.size())), Hex64(pin->parallel_checkpoint_fnv));
    EXPECT_EQ(rcp.size(), pin->parallel_checkpoint_bytes);
  }
}

}  // namespace
}  // namespace revnic

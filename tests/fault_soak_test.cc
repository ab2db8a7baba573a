// Seeded soak tier (`ctest -L soak`): every driver exercised under every
// fault kind, then under a combined all-kinds plan on the parallel engine,
// asserting the robustness contract -- the engine terminates cleanly, keeps
// producing coverage, and the downstream pipeline still synthesizes. The
// default work budget keeps the tier cheap enough for the plain `ctest` run;
// the nightly CI job raises REVNIC_SOAK_WORK and repeats the sweep under
// ASan/UBSan (every test here also carries the `sanitize` label).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/session.h"
#include "drivers/drivers.h"
#include "hw/faults.h"

namespace revnic {
namespace {

using drivers::DriverId;
using hw::FaultKind;

uint64_t SoakWork(uint64_t base) {
  // REVNIC_SOAK_WORK scales every budget in this file (nightly CI sets it an
  // order of magnitude above the default smoke level).
  if (const char* env = std::getenv("REVNIC_SOAK_WORK")) {
    uint64_t work = std::strtoull(env, nullptr, 0);
    if (work > 0) {
      return work;
    }
  }
  return base;
}

core::EngineConfig SoakConfig(DriverId id, uint64_t max_work) {
  core::EngineConfig cfg;
  cfg.pci = drivers::DriverPci(id);
  cfg.max_work = max_work;
  cfg.max_work_per_step = max_work / 4;
  return cfg;
}

class FaultSoakTest : public ::testing::TestWithParam<DriverId> {};

TEST_P(FaultSoakTest, EveryFaultKindExercisesCleanly) {
  const DriverId id = GetParam();
  const uint64_t work = SoakWork(4'000);
  for (unsigned k = 0; k < hw::kNumFaultKinds; ++k) {
    core::EngineConfig cfg = SoakConfig(id, work);
    cfg.plan.faults.seed = 100 + k;
    cfg.plan.faults.set_rate(static_cast<FaultKind>(k), 0.2);
    core::Session s(drivers::DriverImage(id), cfg);
    ASSERT_TRUE(s.Exercise())
        << drivers::DriverName(id) << " under " << hw::FaultKindName(static_cast<FaultKind>(k));
    // Graceful degradation, not collapse: the faulty run still covers code
    // and the schedule was actually consulted.
    EXPECT_GT(s.engine().covered_blocks.size(), 0u)
        << hw::FaultKindName(static_cast<FaultKind>(k));
    EXPECT_GT(s.engine().fault_stats.decisions, 0u)
        << hw::FaultKindName(static_cast<FaultKind>(k));
  }
}

TEST_P(FaultSoakTest, CombinedPlanSurvivesParallelExerciseAndSynthesis) {
  const DriverId id = GetParam();
  core::EngineConfig cfg = SoakConfig(id, SoakWork(4'000) * 2);
  std::string error;
  ASSERT_TRUE(hw::ParseFaultPlan("4242:all=0.1", &cfg.plan.faults, &error)) << error;
  cfg.plan.threads = 2;
  core::Session s(drivers::DriverImage(id), cfg);
  ASSERT_TRUE(s.Exercise()) << drivers::DriverName(id);
  EXPECT_EQ(s.engine().snapshot_restore_failures, 0u);
  EXPECT_GT(s.engine().fault_stats.decisions, 0u);
  EXPECT_GT(s.engine().fault_stats.TotalInjected(), 0u);
  // The wiretap a faulty run produced is still a valid synthesis input.
  ASSERT_TRUE(s.Synthesize()) << drivers::DriverName(id);
  EXPECT_FALSE(s.emitted().at(os::TargetOs::kWindows).empty());
}

INSTANTIATE_TEST_SUITE_P(AllDrivers, FaultSoakTest,
                         ::testing::Values(DriverId::kRtl8029, DriverId::kRtl8139,
                                           DriverId::kPcnet, DriverId::kSmc91c111,
                                           DriverId::kEl3),
                         [](const ::testing::TestParamInfo<DriverId>& info) {
                           return std::string(drivers::DriverName(info.param));
                         });

}  // namespace
}  // namespace revnic

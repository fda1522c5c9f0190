// DVFS tests: eco-frequency execution semantics and the energy effect.

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace gm::core {
namespace {

ExperimentConfig dvfs_config(double eco_speed) {
  ExperimentConfig config;
  config.cluster.racks = 2;
  config.cluster.nodes_per_rack = 8;
  config.cluster.placement.group_count = 128;
  config.cluster.placement.replication = 3;
  config.workload = workload::WorkloadSpec::canonical(3, 11);
  config.workload.foreground.base_rate_per_s = 0.5;
  // Keep the 16-node cluster unsaturated: eco mode stretches task
  // occupancy by 1/f, and the no-misses guarantee (urgent → full
  // speed) holds only while capacity remains for the urgent tasks.
  for (auto& c : config.workload.task_classes) c.mean_per_day *= 0.35;
  config.solar.horizon_days = 8;
  config.panel_area_m2 = 40.0;  // scarce solar: much night running
  config.battery = energy::BatteryConfig::lithium_ion(kwh_to_j(5));
  config.policy.kind = PolicyKind::kGreenMatch;
  config.policy.horizon_slots = 12;
  config.dvfs_eco_speed = eco_speed;
  return config;
}

TEST(Dvfs, EcoSpeedReducesBrownEnergy) {
  const auto full = run_experiment(dvfs_config(1.0)).result;
  const auto eco = run_experiment(dvfs_config(0.7)).result;
  // Energy per unit of night-time work drops with f²; the brown bill
  // must drop measurably.
  EXPECT_LT(eco.energy.brown_j, full.energy.brown_j * 0.995);
  // All work still completes.
  EXPECT_EQ(eco.qos.tasks_completed, eco.qos.tasks_total);
}

TEST(Dvfs, EcoSpeedStretchesSojourn) {
  const auto full = run_experiment(dvfs_config(1.0)).result;
  const auto eco = run_experiment(dvfs_config(0.6)).result;
  EXPECT_GE(eco.qos.mean_task_sojourn_h,
            full.qos.mean_task_sojourn_h * 0.999);
}

TEST(Dvfs, NoDeadlineMissesFromEcoMode) {
  // Urgent tasks are forced to full speed, so eco mode alone must not
  // create misses.
  for (double speed : {0.5, 0.7, 0.9}) {
    const auto r = run_experiment(dvfs_config(speed)).result;
    EXPECT_EQ(r.qos.deadline_misses, 0u) << "eco speed " << speed;
  }
}

TEST(Dvfs, ValidationRejectsBadSpeed) {
  auto config = dvfs_config(1.0);
  config.dvfs_eco_speed = 0.0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.dvfs_eco_speed = 1.5;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.dvfs_eco_speed = 0.7;
  config.dvfs_alpha = 0.5;
  EXPECT_THROW(config.validate(), InvalidArgument);
}

TEST(Dvfs, AlphaOneMeansNoEfficiencyGain) {
  // With alpha = 1, power scales like work rate: energy per work unit
  // is constant and eco mode only shifts timing. Brown should stay
  // roughly equal (small timing differences allowed).
  auto linear_full = dvfs_config(1.0);
  linear_full.dvfs_alpha = 1.0;
  auto linear_eco = dvfs_config(0.7);
  linear_eco.dvfs_alpha = 1.0;
  const auto full = run_experiment(linear_full).result;
  const auto eco = run_experiment(linear_eco).result;
  EXPECT_NEAR(eco.energy.brown_j, full.energy.brown_j,
              0.05 * full.energy.brown_j);
}

}  // namespace
}  // namespace gm::core

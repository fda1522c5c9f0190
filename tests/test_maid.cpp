// MAID per-disk power-management tests.

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace gm::core {
namespace {

ExperimentConfig maid_config(bool maid) {
  ExperimentConfig config;
  config.cluster.racks = 2;
  config.cluster.nodes_per_rack = 8;
  config.cluster.placement.group_count = 128;
  config.cluster.placement.replication = 3;
  config.workload = workload::WorkloadSpec::canonical(3, 23);
  config.workload.foreground.base_rate_per_s = 0.3;
  for (auto& c : config.workload.task_classes) c.mean_per_day *= 0.35;
  config.solar.horizon_days = 8;
  config.panel_area_m2 = 60.0;
  config.battery = energy::BatteryConfig::lithium_ion(kwh_to_j(10));
  config.policy.kind = PolicyKind::kGreenMatch;
  config.policy.horizon_slots = 12;
  config.maid_enabled = maid;
  return config;
}

TEST(Maid, ReducesDemandAndBrownWithoutMisses) {
  const auto off = run_experiment(maid_config(false)).result;
  const auto on = run_experiment(maid_config(true)).result;
  EXPECT_LT(on.energy.demand_j, off.energy.demand_j);
  EXPECT_LT(on.energy.brown_j, off.energy.brown_j);
  EXPECT_EQ(on.qos.tasks_completed, on.qos.tasks_total);
  // MAID must not add misses beyond whatever the baseline already has
  // (this seed saturates the tiny cluster once regardless of MAID).
  EXPECT_EQ(on.qos.deadline_misses, off.qos.deadline_misses);
}

TEST(Maid, ConservationStillHolds) {
  const auto artifacts = run_experiment(maid_config(true));
  const auto& e = artifacts.result.energy;
  EXPECT_NEAR(e.green_supply_j,
              e.green_direct_j + e.battery_charge_drawn_j + e.curtailed_j,
              1e-6 * std::max(1.0, e.green_supply_j));
  EXPECT_NEAR(e.demand_j,
              e.green_direct_j + e.battery_discharged_j + e.brown_j,
              1e-6 * std::max(1.0, e.demand_j));
}

TEST(Maid, EventModeStillServesAllRequests) {
  auto config = maid_config(true);
  config.fidelity = Fidelity::kEventLevel;
  const auto r = run_experiment(config).result;
  EXPECT_GT(r.qos.foreground_requests, 0u);
  EXPECT_EQ(r.qos.unavailable_reads, 0u);
  EXPECT_GT(r.qos.read_latency_p95_s, 0.0);
}

TEST(Maid, MinDisksRespected) {
  auto config = maid_config(true);
  config.maid_min_spinning_disks = 0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.maid_min_spinning_disks = 2;
  // With 2 disks kept, demand sits between maid-off and maid-min-1.
  const auto keep2 = run_experiment(config).result;
  const auto keep1 = run_experiment(maid_config(true)).result;
  const auto off = run_experiment(maid_config(false)).result;
  EXPECT_LT(keep2.energy.demand_j, off.energy.demand_j);
  EXPECT_GE(keep2.energy.demand_j, keep1.energy.demand_j * 0.999);
}

TEST(Maid, DeterministicWithMaid) {
  const auto a = run_experiment(maid_config(true)).result;
  const auto b = run_experiment(maid_config(true)).result;
  EXPECT_DOUBLE_EQ(a.energy.brown_j, b.energy.brown_j);
}

}  // namespace
}  // namespace gm::core

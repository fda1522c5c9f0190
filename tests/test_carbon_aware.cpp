// Carbon-aware scheduling tests: grid profiles, matcher behaviour and
// the engine-level carbon outcome.

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/policies.hpp"
#include "energy/grid.hpp"
#include "util/units.hpp"

namespace gm::core {
namespace {

TEST(GridProfiles, ShapesAreAsDocumented) {
  const auto wind = energy::GridConfig::wind_heavy();
  EXPECT_LT(wind.carbon_g_per_kwh(4.0), wind.carbon_g_per_kwh(19.0));
  EXPECT_LT(wind.carbon_g_per_kwh(2.0), wind.carbon_g_per_kwh(12.0));

  const auto solar = energy::GridConfig::solar_heavy();
  EXPECT_LT(solar.carbon_g_per_kwh(12.0), solar.carbon_g_per_kwh(0.0));
  EXPECT_LT(solar.carbon_g_per_kwh(12.0), solar.carbon_g_per_kwh(21.0));

  const auto flat = energy::GridConfig::flat(250.0);
  EXPECT_DOUBLE_EQ(flat.carbon_g_per_kwh(3.0), 250.0);
  EXPECT_DOUBLE_EQ(flat.carbon_g_per_kwh(15.0), 250.0);
}

ClusterFacts test_facts() {
  ClusterFacts f;
  f.total_nodes = 16;
  f.min_nodes_for_coverage = 6;
  f.task_slots_per_node = 4;
  f.node_idle_floor_w = 120.0;
  f.node_peak_w = 240.0;
  f.slot_length_s = 3600.0;
  f.max_utilization_per_node = 0.95;
  return f;
}

SlotContext dark_ctx(int horizon) {
  SlotContext ctx;
  ctx.start = 0;
  ctx.end = 3600;
  ctx.green_forecast_w.assign(horizon, 0.0);
  ctx.foreground_util_forecast.assign(horizon, 0.0);
  return ctx;
}

TEST(CarbonAware, DefersBrownRunIntoCleanHour) {
  // No green anywhere; slot 0 is dirty, slot 1 clean; the task must
  // finish within 2 slots. Carbon-aware waits for the clean hour; the
  // plain matcher runs immediately (earliness tiebreak).
  PendingTask task;
  task.task.id = 1;
  task.task.release = 0;
  task.task.deadline = 2 * 3600;
  task.task.work_s = 3600.0;
  task.remaining_s = 3600.0;

  SlotContext ctx = dark_ctx(8);
  ctx.grid_carbon_g_per_kwh = {500.0, 100.0, 500.0, 500.0,
                               500.0, 500.0, 500.0, 500.0};
  ctx.pending.push_back(task);

  GreenMatchPolicy plain(8, false, false, false);
  plain.initialize(test_facts());
  EXPECT_EQ(plain.decide(ctx).run_tasks.size(), 1u);

  GreenMatchPolicy carbon(8, false, false, true);
  carbon.initialize(test_facts());
  EXPECT_TRUE(carbon.decide(ctx).run_tasks.empty());
}

TEST(CarbonAware, NoCarbonDataFallsBackToFlatCost) {
  PendingTask task;
  task.task.id = 1;
  task.task.deadline = 2 * 3600;
  task.task.work_s = 3600.0;
  task.remaining_s = 3600.0;

  SlotContext ctx = dark_ctx(8);  // no carbon vector
  ctx.pending.push_back(task);
  GreenMatchPolicy carbon(8, false, false, true);
  carbon.initialize(test_facts());
  // Without data it behaves like the plain matcher: runs now.
  EXPECT_EQ(carbon.decide(ctx).run_tasks.size(), 1u);
}

TEST(CarbonAware, GreenStillBeatsCleanBrown) {
  // Green now, cleaner-brown later: green is free, so run now.
  PendingTask task;
  task.task.id = 1;
  task.task.deadline = 12 * 3600;
  task.task.work_s = 3600.0;
  task.remaining_s = 3600.0;

  SlotContext ctx = dark_ctx(8);
  ctx.green_forecast_w[0] = 30'000.0;
  ctx.grid_carbon_g_per_kwh = {500.0, 100.0, 100.0, 100.0,
                               100.0, 100.0, 100.0, 100.0};
  ctx.pending.push_back(task);
  GreenMatchPolicy carbon(8, false, false, true);
  carbon.initialize(test_facts());
  EXPECT_EQ(carbon.decide(ctx).run_tasks.size(), 1u);
}

TEST(CarbonAware, EngineRunLowersCarbonOnVaryingGrid) {
  auto base = [] {
    ExperimentConfig config;
    config.cluster.racks = 2;
    config.cluster.nodes_per_rack = 8;
    config.cluster.placement.group_count = 128;
    config.cluster.placement.replication = 3;
    config.workload = workload::WorkloadSpec::canonical(3, 31);
    config.workload.foreground.base_rate_per_s = 0.5;
    config.solar.horizon_days = 8;
    config.panel_area_m2 = 40.0;
    config.battery = energy::BatteryConfig::lithium_ion(kwh_to_j(5));
    config.grid = energy::GridConfig::wind_heavy();
    config.policy.kind = PolicyKind::kGreenMatch;
    config.policy.horizon_slots = 12;
    return config;
  };
  auto plain_config = base();
  auto carbon_config = base();
  carbon_config.policy.carbon_aware = true;
  const auto plain = run_experiment(plain_config).result;
  const auto carbon = run_experiment(carbon_config).result;
  EXPECT_LT(carbon.grid_carbon_g, plain.grid_carbon_g * 1.001);
  // The carbon win must come from *when* it draws, i.e. a lower
  // effective intensity, not just from using less energy.
  const double plain_eff = plain.grid_carbon_g / plain.brown_kwh();
  const double carbon_eff = carbon.grid_carbon_g / carbon.brown_kwh();
  EXPECT_LT(carbon_eff, plain_eff);
}

TEST(CarbonAware, FlatGridIsANoop) {
  auto config = ExperimentConfig::canonical();
  config.cluster.racks = 2;
  config.cluster.nodes_per_rack = 8;
  config.cluster.placement.group_count = 128;
  config.workload = workload::WorkloadSpec::canonical(2, 5);
  config.workload.foreground.base_rate_per_s = 0.5;
  config.solar.horizon_days = 6;
  config.grid = energy::GridConfig::flat(300.0);
  config.policy.kind = PolicyKind::kGreenMatch;
  config.policy.horizon_slots = 12;

  auto carbon_config = config;
  carbon_config.policy.carbon_aware = true;
  const auto plain = run_experiment(config).result;
  const auto carbon = run_experiment(carbon_config).result;
  EXPECT_DOUBLE_EQ(plain.energy.brown_j, carbon.energy.brown_j);
  EXPECT_DOUBLE_EQ(plain.grid_carbon_g, carbon.grid_carbon_g);
}

}  // namespace
}  // namespace gm::core

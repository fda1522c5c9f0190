// Randomized engine property sweep: derive a pseudo-random (but
// deterministic) configuration from each seed, run it, and check the
// invariants that must hold for *every* configuration — energy
// conservation, battery bounds, task accounting, coverage economics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/engine.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workload/trace.hpp"

namespace gm::core {
namespace {

ExperimentConfig random_config(std::uint64_t seed) {
  Rng rng(seed);
  ExperimentConfig config;
  config.cluster.racks = 2;
  config.cluster.nodes_per_rack = 6 + static_cast<int>(rng.uniform_u64(6));
  config.cluster.placement.group_count =
      64 << rng.uniform_u64(2);  // 64 or 128
  config.cluster.placement.replication =
      2 + static_cast<int>(rng.uniform_u64(2));
  config.workload =
      workload::WorkloadSpec::canonical(2 + static_cast<int>(
                                            rng.uniform_u64(2)),
                                        seed * 31 + 7);
  config.workload.foreground.base_rate_per_s = rng.uniform(0.1, 1.0);
  for (auto& c : config.workload.task_classes)
    c.mean_per_day *= rng.uniform(0.2, 0.6);
  config.solar.horizon_days = 8;
  config.solar.seed = seed * 17 + 3;
  config.panel_area_m2 = rng.uniform(0.0, 150.0);
  config.battery =
      rng.bernoulli(0.5)
          ? energy::BatteryConfig::lithium_ion(kwh_to_j(rng.uniform(0, 30)))
          : energy::BatteryConfig::lead_acid(kwh_to_j(rng.uniform(0, 30)));
  config.battery.initial_soc_fraction = rng.uniform(0.0, 1.0);
  const PolicyKind kinds[] = {
      PolicyKind::kAsap, PolicyKind::kOpportunistic,
      PolicyKind::kGreenMatch, PolicyKind::kGreenMatchGreedy,
      PolicyKind::kNightShift};
  config.policy.kind = kinds[rng.uniform_u64(5)];
  config.policy.deferral_fraction = rng.uniform(0.0, 1.0);
  config.policy.horizon_slots = 6 + static_cast<int>(rng.uniform_u64(18));
  // Formerly the plan-cache switch; the draw is kept so every later
  // field of each generated config stays what it was.
  (void)rng.bernoulli(0.7);
  config.policy.carbon_aware = rng.bernoulli(0.3);
  config.policy.battery_aware = rng.bernoulli(0.3);
  config.min_dwell_slots = static_cast<int>(rng.uniform_u64(4));
  config.dvfs_eco_speed = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.5, 1.0);
  config.noisy_forecast = rng.bernoulli(0.3);
  config.use_wind = rng.bernoulli(0.25);
  config.wind.horizon_days = 8;
  config.wind.seed = seed * 13 + 1;
  if (rng.bernoulli(0.3)) {
    config.node_failures.push_back(NodeFailureEvent{
        .fail_at = static_cast<SimTime>(rng.uniform_u64(36)) * 3600,
        .recover_at = 0,
        .node = static_cast<storage::NodeId>(
            rng.uniform_u64(config.cluster.total_nodes()))});
  }
  return config;
}

class EngineProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineProperties, InvariantsHoldForRandomConfigs) {
  const ExperimentConfig config = random_config(GetParam());
  SimulationEngine engine(config);
  const auto artifacts = engine.run();
  const auto& r = artifacts.result;
  const auto& e = r.energy;

  // --- global conservation (the per-slot identity is asserted inside
  // the ledger; re-derive it from the totals).
  EXPECT_NEAR(e.green_supply_j,
              e.green_direct_j + e.battery_charge_drawn_j + e.curtailed_j,
              1e-6 * std::max(1.0, e.green_supply_j));
  EXPECT_NEAR(e.demand_j,
              e.green_direct_j + e.battery_discharged_j + e.brown_j,
              1e-6 * std::max(1.0, e.demand_j));

  // --- battery never exceeds its usable capacity in any slot.
  const Joules usable = config.battery.usable_capacity_j();
  for (const auto& slot : artifacts.ledger.slots()) {
    EXPECT_GE(slot.battery_stored_end_j, -1e-6);
    EXPECT_LE(slot.battery_stored_end_j, usable + 1e-6);
  }

  // --- battery internal accounting closes.
  EXPECT_NEAR(r.battery.charged_in_j +
                  config.battery.initial_soc_fraction * usable,
              r.battery.discharged_out_j + r.battery.final_stored_j +
                  r.battery.conversion_loss_j +
                  r.battery.self_discharge_loss_j,
              1e-6 * std::max(1.0, r.battery.charged_in_j) + 1.0);

  // --- task accounting: completions never exceed admissions, and
  // anything uncompleted is reflected in the miss count.
  EXPECT_LE(r.qos.tasks_completed, r.qos.tasks_total);
  EXPECT_GE(r.qos.deadline_misses,
            r.qos.tasks_total - r.qos.tasks_completed);

  // --- the fleet never dips below the coverage economics: mean active
  // nodes is at least the (possibly failure-reduced) floor minus one
  // failed node, and never above the total.
  EXPECT_LE(r.scheduler.mean_active_nodes,
            static_cast<double>(config.cluster.total_nodes()));
  EXPECT_GT(r.scheduler.mean_active_nodes, 0.0);

  // --- fixed horizon: every run covers workload + drain exactly.
  const auto expected_slots = static_cast<std::size_t>(
      config.workload.duration_days * 24 + config.max_drain_slots);
  EXPECT_EQ(artifacts.ledger.size(), expected_slots);

  // --- grid totals consistent with brown energy.
  if (e.brown_j == 0.0) {
    EXPECT_DOUBLE_EQ(r.grid_carbon_g, 0.0);
  } else {
    EXPECT_GT(r.grid_carbon_g, 0.0);
  }

  // --- determinism: a second run of the same config is identical.
  const auto again = run_experiment(config);
  EXPECT_DOUBLE_EQ(again.result.energy.brown_j, e.brown_j);
  EXPECT_EQ(again.result.qos.tasks_completed, r.qos.tasks_completed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperties,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- trace replay order ------------------------------------------------

ExperimentConfig small_event_config() {
  ExperimentConfig config;
  config.cluster.racks = 2;
  config.cluster.nodes_per_rack = 6;
  config.cluster.placement.group_count = 64;
  config.workload = workload::WorkloadSpec::canonical(2, 11);
  config.workload.foreground.base_rate_per_s = 0.3;
  for (auto& c : config.workload.task_classes) c.mean_per_day *= 0.4;
  config.solar.horizon_days = 4;
  config.panel_area_m2 = 60.0;
  config.policy.kind = PolicyKind::kGreenMatch;
  config.fidelity = Fidelity::kEventLevel;
  return config;
}

/// `w` with its requests regrouped by arrival time and the groups laid
/// out in reverse: unsorted across slots, while requests that share an
/// arrival time keep their relative order.
workload::Workload reverse_arrival_groups(const workload::Workload& w) {
  workload::Workload out = w;
  out.requests.clear();
  std::size_t end = w.requests.size();
  while (end > 0) {
    std::size_t begin = end - 1;
    while (begin > 0 &&
           w.requests[begin - 1].arrival == w.requests[end - 1].arrival)
      --begin;
    out.requests.insert(out.requests.end(), w.requests.begin() + begin,
                        w.requests.begin() + end);
    end = begin;
  }
  return out;
}

workload::Workload trace_round_trip(const workload::Workload& w) {
  std::ostringstream os;
  workload::write_trace(os, w);
  return workload::read_trace(os.str());
}

std::string summary_of(const ExperimentConfig& base,
                       const workload::Workload& w) {
  ExperimentConfig config = base;
  config.preset_workload = std::make_shared<const workload::Workload>(w);
  std::ostringstream os;
  run_experiment(config).result.print_summary(os);
  return os.str();
}

// A trace file whose request rows are out of arrival order replays
// exactly like its sorted twin: read_trace restores arrival order.
TEST(TraceReplay, UnsortedTraceMatchesSortedTwin) {
  const auto config = small_event_config();
  const auto generated = workload::generate_workload(
      config.workload, config.cluster.placement.group_count);
  const auto shuffled = reverse_arrival_groups(generated);
  ASSERT_FALSE(std::is_sorted(
      shuffled.requests.begin(), shuffled.requests.end(),
      [](const auto& a, const auto& b) { return a.arrival < b.arrival; }));

  const auto sorted_twin = trace_round_trip(generated);
  const auto unsorted = trace_round_trip(shuffled);
  ASSERT_EQ(unsorted.requests.size(), sorted_twin.requests.size());
  for (std::size_t i = 0; i < sorted_twin.requests.size(); ++i)
    ASSERT_EQ(unsorted.requests[i].id, sorted_twin.requests[i].id);
  EXPECT_EQ(summary_of(config, unsorted), summary_of(config, sorted_twin));
}

// Requests are routed in vector order, so a preset workload that
// bypassed read_trace must already be sorted; the engine says so
// up front instead of failing mid-run.
TEST(TraceReplay, EngineRejectsUnsortedPresetWorkload) {
  auto config = small_event_config();
  config.preset_workload = std::make_shared<const workload::Workload>(
      reverse_arrival_groups(workload::generate_workload(
          config.workload, config.cluster.placement.group_count)));
  EXPECT_THROW(SimulationEngine engine(config), InvalidArgument);
}

}  // namespace
}  // namespace gm::core

#pragma once
// gm::scenario — stochastic adversarial-week generation (ROADMAP item
// 4). A ScenarioConfig describes *processes* (seeded Poisson/Weibull
// node-failure streams, grid carbon-price spikes, demand-response
// curtailment windows); materialization turns them into the concrete,
// deterministic event lists the engine consumes: NodeOutages that
// drive the repair-storm path, energy::GridEvents layered on the grid
// profile, and energy::ModulationWindows wrapped around the renewable
// supply. Everything is a pure function of (config, fleet size,
// horizon), so a run manifest carrying the scenario.* keys reproduces
// the exact same week.
//
// The library sits below gm::core: core's ExperimentConfig embeds a
// ScenarioConfig and the engine materializes it at construction (see
// docs/scenarios.md).

#include <cstdint>
#include <vector>

#include "energy/grid.hpp"
#include "energy/supply.hpp"
#include "util/time_types.hpp"

namespace gm::scenario {

/// Inter-failure time distribution of the per-node failure stream.
enum class FailureProcess : std::uint8_t {
  kNone = 0,  ///< no stochastic failures
  kPoisson,   ///< exponential inter-failure times (memoryless)
  kWeibull,   ///< Weibull(k, lambda); k < 1 clusters failures into
              ///< bursts (repair storms), k > 1 wears out gradually
};

struct FailureProcessConfig {
  FailureProcess process = FailureProcess::kNone;
  /// Mean time between failures per node, in hours. The Weibull scale
  /// is derived so the mean inter-failure time matches this too.
  double mtbf_hours = 24.0 * 365.0;
  /// Weibull shape k (ignored for Poisson; 1.0 degenerates to it).
  double weibull_shape = 1.0;
  /// Mean time to repair, in hours: a failed node recovers this long
  /// (exponentially jittered) after it fails.
  double mttr_hours = 12.0;
  std::uint64_t seed = 7;

  void validate() const;
};

/// One materialized node outage (core converts these into its
/// NodeFailureEvents; scenario cannot name that type without a cycle).
struct NodeOutage {
  SimTime fail_at = 0;
  SimTime recover_at = 0;  ///< 0 = never recovers
  std::uint32_t node = 0;
};

/// Materializes the failure stream for every node over [0, horizon_s),
/// sorted by fail_at. Each node draws from an independent substream
/// (seed forked by node id), so fleet-size changes do not reshuffle
/// the outages of existing nodes. Overlapping outages of one node are
/// merged (a node cannot fail while already down).
std::vector<NodeOutage> generate_node_outages(
    const FailureProcessConfig& config, int node_count,
    SimTime horizon_s);

/// Poisson-arriving grid carbon/price spike events.
struct GridSpikeConfig {
  double rate_per_day = 0.0;  ///< 0 disables spike generation
  double duration_h = 4.0;    ///< mean spike duration (exponential)
  double carbon_multiplier = 3.0;
  double price_multiplier = 3.0;
  std::uint64_t seed = 11;

  void validate() const;
};

std::vector<energy::GridEvent> generate_grid_spikes(
    const GridSpikeConfig& config, SimTime horizon_s);

/// Poisson-arriving demand-response curtailment windows: for each
/// window the site's renewable feed is derated to `supply_fraction`
/// of nominal (grid operator curtails the infeed).
struct CurtailmentConfig {
  double rate_per_day = 0.0;  ///< 0 disables curtailment generation
  double duration_h = 3.0;    ///< mean window length (exponential)
  double supply_fraction = 0.2;
  std::uint64_t seed = 13;

  void validate() const;
};

std::vector<energy::ModulationWindow> generate_curtailment_windows(
    const CurtailmentConfig& config, SimTime horizon_s);

/// The scenario block of an experiment: all three processes.
struct ScenarioConfig {
  FailureProcessConfig failures;
  GridSpikeConfig grid_spikes;
  CurtailmentConfig curtailment;

  /// True when any process would generate events.
  bool any() const {
    return failures.process != FailureProcess::kNone ||
           grid_spikes.rate_per_day > 0.0 ||
           curtailment.rate_per_day > 0.0;
  }
  void validate() const;
};

}  // namespace gm::scenario

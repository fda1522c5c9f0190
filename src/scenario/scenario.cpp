#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace gm::scenario {

namespace {

constexpr double kSecondsPerHour = 3600.0;
constexpr double kSecondsPerDay = 24.0 * 3600.0;

/// Exponential variate with the given mean. Guards uniform() == 0.
double exponential(Rng& rng, double mean) {
  double u = rng.uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

/// Weibull(shape k, scale lambda) variate via inverse transform.
double weibull(Rng& rng, double shape, double scale) {
  double u = rng.uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return scale * std::pow(-std::log(u), 1.0 / shape);
}

/// Weibull scale lambda such that the mean is `mean` for shape k:
/// E[X] = lambda * Gamma(1 + 1/k).
double weibull_scale_for_mean(double mean, double shape) {
  return mean / std::tgamma(1.0 + 1.0 / shape);
}

}  // namespace

void FailureProcessConfig::validate() const {
  if (process == FailureProcess::kNone) return;
  GM_CHECK(mtbf_hours > 0.0,
           "scenario failure mtbf_hours must be positive: " << mtbf_hours);
  GM_CHECK(mttr_hours > 0.0,
           "scenario failure mttr_hours must be positive: " << mttr_hours);
  GM_CHECK(weibull_shape > 0.0, "scenario failure weibull_shape must be "
                                "positive: "
                                    << weibull_shape);
}

std::vector<NodeOutage> generate_node_outages(
    const FailureProcessConfig& config, int node_count, SimTime horizon_s) {
  config.validate();
  std::vector<NodeOutage> outages;
  if (config.process == FailureProcess::kNone || node_count <= 0 ||
      horizon_s <= 0)
    return outages;

  const double mtbf_s = config.mtbf_hours * kSecondsPerHour;
  const double mttr_s = config.mttr_hours * kSecondsPerHour;
  const double scale_s =
      config.process == FailureProcess::kWeibull
          ? weibull_scale_for_mean(mtbf_s, config.weibull_shape)
          : mtbf_s;

  const Rng root(config.seed);
  for (int node = 0; node < node_count; ++node) {
    // Independent substream per node: adding nodes to the fleet never
    // reshuffles the outage history of existing ones.
    Rng rng = root.fork(static_cast<std::uint64_t>(node));
    double t = 0.0;
    while (true) {
      const double gap =
          config.process == FailureProcess::kWeibull
              ? weibull(rng, config.weibull_shape, scale_s)
              : exponential(rng, mtbf_s);
      t += gap;
      if (t >= static_cast<double>(horizon_s)) break;
      const double repair = exponential(rng, mttr_s);
      NodeOutage o;
      o.fail_at = static_cast<SimTime>(t);
      o.recover_at = static_cast<SimTime>(t + std::max(repair, 1.0));
      o.node = static_cast<std::uint32_t>(node);
      outages.push_back(o);
      // The node is down until recover_at; the next inter-failure gap
      // starts from there (a failed node cannot fail again).
      t = static_cast<double>(o.recover_at);
    }
  }
  std::sort(outages.begin(), outages.end(),
            [](const NodeOutage& a, const NodeOutage& b) {
              if (a.fail_at != b.fail_at) return a.fail_at < b.fail_at;
              return a.node < b.node;
            });
  return outages;
}

void GridSpikeConfig::validate() const {
  GM_CHECK(rate_per_day >= 0.0,
           "scenario spike rate_per_day must be >= 0: " << rate_per_day);
  if (rate_per_day == 0.0) return;
  GM_CHECK(duration_h > 0.0,
           "scenario spike duration_h must be positive: " << duration_h);
  GM_CHECK(carbon_multiplier >= 0.0, "scenario spike carbon_multiplier must "
                                     "be >= 0: "
                                         << carbon_multiplier);
  GM_CHECK(price_multiplier >= 0.0, "scenario spike price_multiplier must "
                                    "be >= 0: "
                                        << price_multiplier);
}

std::vector<energy::GridEvent> generate_grid_spikes(
    const GridSpikeConfig& config, SimTime horizon_s) {
  config.validate();
  std::vector<energy::GridEvent> events;
  if (config.rate_per_day <= 0.0 || horizon_s <= 0) return events;

  const double mean_gap_s = kSecondsPerDay / config.rate_per_day;
  const double mean_duration_s = config.duration_h * kSecondsPerHour;
  Rng rng(config.seed);
  double t = exponential(rng, mean_gap_s);
  while (t < static_cast<double>(horizon_s)) {
    const double duration = std::max(exponential(rng, mean_duration_s), 1.0);
    energy::GridEvent e;
    e.start = static_cast<SimTime>(t);
    e.end = static_cast<SimTime>(t + duration);
    e.carbon_multiplier = config.carbon_multiplier;
    e.price_multiplier = config.price_multiplier;
    events.push_back(e);
    t = static_cast<double>(e.end) + exponential(rng, mean_gap_s);
  }
  return events;
}

void CurtailmentConfig::validate() const {
  GM_CHECK(rate_per_day >= 0.0,
           "scenario curtailment rate_per_day must be >= 0: " << rate_per_day);
  if (rate_per_day == 0.0) return;
  GM_CHECK(duration_h > 0.0,
           "scenario curtailment duration_h must be positive: " << duration_h);
  GM_CHECK(supply_fraction >= 0.0 && supply_fraction <= 1.0,
           "scenario curtailment supply_fraction must be in [0, 1]: "
               << supply_fraction);
}

std::vector<energy::ModulationWindow> generate_curtailment_windows(
    const CurtailmentConfig& config, SimTime horizon_s) {
  config.validate();
  std::vector<energy::ModulationWindow> windows;
  if (config.rate_per_day <= 0.0 || horizon_s <= 0) return windows;

  const double mean_gap_s = kSecondsPerDay / config.rate_per_day;
  const double mean_duration_s = config.duration_h * kSecondsPerHour;
  Rng rng(config.seed);
  double t = exponential(rng, mean_gap_s);
  while (t < static_cast<double>(horizon_s)) {
    const double duration = std::max(exponential(rng, mean_duration_s), 1.0);
    energy::ModulationWindow w;
    w.start = static_cast<SimTime>(t);
    w.end = static_cast<SimTime>(t + duration);
    w.factor = config.supply_fraction;
    windows.push_back(w);
    t = static_cast<double>(w.end) + exponential(rng, mean_gap_s);
  }
  return windows;
}

void ScenarioConfig::validate() const {
  failures.validate();
  grid_spikes.validate();
  curtailment.validate();
}

}  // namespace gm::scenario

#pragma once
// Workload specification: the knobs that describe a storage cluster's
// demand. The synthetic generator substitutes for the private traces
// the original evaluation used; the spec is designed so the shapes
// that matter to a renewable-aware scheduler — diurnal foreground
// intensity, a deferrable background share with deadline slack, and
// skewed object popularity — are all first-class parameters.

#include <cstdint>
#include <string>
#include <vector>

#include "storage/types.hpp"
#include "util/math_utils.hpp"
#include "util/units.hpp"

namespace gm::workload {

/// Per-task-type generation parameters.
struct TaskClassSpec {
  storage::TaskType type = storage::TaskType::kScrub;
  double mean_per_day = 40.0;      ///< Poisson mean of daily task count
  Seconds mean_work_s = 6 * 3600;  ///< lognormal-distributed work
  double work_sigma = 0.5;         ///< lognormal sigma (log-space)
  Seconds deadline_slack_s = 12 * 3600;  ///< deadline = release + work + slack
  double utilization = 0.25;       ///< node utilization while running
  /// Release-hour preference: tasks arrive uniformly unless this names
  /// a daily window [window_start_h, window_end_h).
  bool windowed = false;
  double window_start_h = 0.0;
  double window_end_h = 24.0;
};

struct ForegroundSpec {
  double base_rate_per_s = 4.0;   ///< mean request arrival rate
  double read_fraction = 0.7;
  /// Diurnal modulation of arrival rate by hour of day (multiplier).
  PiecewiseLinear diurnal{
      std::vector<double>{0, 4, 8, 12, 16, 20, 24},
      std::vector<double>{0.35, 0.25, 0.9, 1.4, 1.5, 1.0, 0.35}};
  double weekend_factor = 0.6;    ///< Saturday/Sunday multiplier
  /// Object size: lognormal over bytes.
  double size_log_mu = 13.5;      ///< exp(13.5) ≈ 730 KB median
  double size_log_sigma = 1.2;
  std::uint64_t object_count = 2'000'000;
  double zipf_exponent = 0.9;
};

struct WorkloadSpec {
  int duration_days = 7;
  std::uint64_t seed = 1234;
  /// Multiplier applied to every task class's mean_per_day at
  /// generation time. The deep-queue knob for scale experiments:
  /// raising it floods the planner's pending pool without touching
  /// the per-class mix ratios.
  double task_scale = 1.0;
  /// Name of the preset that built this spec, carried so config_echo /
  /// run manifests can state which workload.preset reproduces it.
  std::string preset = "canonical";
  ForegroundSpec foreground;
  std::vector<TaskClassSpec> task_classes;

  /// Canonical evaluation mix: scrub + repair + backup + rebalance +
  /// compaction sized so background work ≈ 60% of disk-seconds.
  static WorkloadSpec canonical(int duration_days = 7,
                                std::uint64_t seed = 1234);
  /// Mix variants used by the policy-comparison table.
  static WorkloadSpec read_heavy(int duration_days = 7,
                                 std::uint64_t seed = 1234);
  static WorkloadSpec backup_heavy(int duration_days = 7,
                                   std::uint64_t seed = 1234);

  void validate() const;

  /// Stable 64-bit digest of every generation-relevant field; two
  /// specs with equal fingerprints generate identical workloads (used
  /// as a cache key by sweep harnesses).
  std::uint64_t fingerprint() const;
};

}  // namespace gm::workload

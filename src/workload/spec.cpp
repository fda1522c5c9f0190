#include "workload/spec.hpp"

#include <bit>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace gm::workload {

namespace {

TaskClassSpec scrub_class() {
  TaskClassSpec t;
  t.type = storage::TaskType::kScrub;
  t.mean_per_day = 96.0;
  t.mean_work_s = 5 * 3600.0;
  t.work_sigma = 0.4;
  t.deadline_slack_s = 12 * 3600.0;
  t.utilization = 0.45;
  return t;
}

TaskClassSpec repair_class() {
  TaskClassSpec t;
  t.type = storage::TaskType::kRepair;
  t.mean_per_day = 24.0;
  t.mean_work_s = 2 * 3600.0;
  t.work_sigma = 0.6;
  t.deadline_slack_s = 6 * 3600.0;  // repairs are more urgent
  t.utilization = 0.35;
  return t;
}

TaskClassSpec backup_class() {
  TaskClassSpec t;
  t.type = storage::TaskType::kBackup;
  t.mean_per_day = 40.0;
  t.mean_work_s = 4 * 3600.0;
  t.work_sigma = 0.5;
  t.deadline_slack_s = 18 * 3600.0;
  t.utilization = 0.30;
  t.windowed = true;  // backups are released in the evening
  t.window_start_h = 18.0;
  t.window_end_h = 23.0;
  return t;
}

TaskClassSpec rebalance_class() {
  TaskClassSpec t;
  t.type = storage::TaskType::kRebalance;
  t.mean_per_day = 12.0;
  t.mean_work_s = 8 * 3600.0;
  t.work_sigma = 0.4;
  t.deadline_slack_s = 24 * 3600.0;
  t.utilization = 0.40;
  return t;
}

TaskClassSpec compaction_class() {
  TaskClassSpec t;
  t.type = storage::TaskType::kCompaction;
  t.mean_per_day = 32.0;
  t.mean_work_s = 3 * 3600.0;
  t.work_sigma = 0.5;
  t.deadline_slack_s = 12 * 3600.0;
  t.utilization = 0.20;
  return t;
}

}  // namespace

WorkloadSpec WorkloadSpec::canonical(int duration_days,
                                     std::uint64_t seed) {
  WorkloadSpec spec;
  spec.duration_days = duration_days;
  spec.seed = seed;
  spec.preset = "canonical";
  spec.task_classes = {scrub_class(), repair_class(), backup_class(),
                       rebalance_class(), compaction_class()};
  spec.validate();
  return spec;
}

WorkloadSpec WorkloadSpec::read_heavy(int duration_days,
                                      std::uint64_t seed) {
  WorkloadSpec spec = canonical(duration_days, seed);
  spec.preset = "read-heavy";
  spec.foreground.base_rate_per_s = 10.0;
  spec.foreground.read_fraction = 0.92;
  // Halve the background volume: foreground dominates.
  for (auto& t : spec.task_classes) t.mean_per_day *= 0.5;
  spec.validate();
  return spec;
}

WorkloadSpec WorkloadSpec::backup_heavy(int duration_days,
                                        std::uint64_t seed) {
  WorkloadSpec spec = canonical(duration_days, seed);
  spec.preset = "backup-heavy";
  spec.foreground.base_rate_per_s = 2.0;
  for (auto& t : spec.task_classes) {
    if (t.type == storage::TaskType::kBackup ||
        t.type == storage::TaskType::kRebalance)
      t.mean_per_day *= 2.5;
  }
  spec.validate();
  return spec;
}

void WorkloadSpec::validate() const {
  GM_CHECK(duration_days > 0, "workload duration must be positive");
  GM_CHECK(task_scale > 0.0, "task scale must be positive");
  GM_CHECK(foreground.base_rate_per_s >= 0.0, "negative arrival rate");
  GM_CHECK(foreground.read_fraction >= 0.0 &&
               foreground.read_fraction <= 1.0,
           "read fraction must be a probability");
  GM_CHECK(foreground.object_count > 0, "need at least one object");
  GM_CHECK(foreground.weekend_factor >= 0.0, "negative weekend factor");
  for (const auto& t : task_classes) {
    GM_CHECK(t.mean_per_day >= 0.0, "negative task rate");
    GM_CHECK(t.mean_work_s > 0.0, "task work must be positive");
    GM_CHECK(t.deadline_slack_s >= 0.0, "negative deadline slack");
    GM_CHECK(t.utilization > 0.0 && t.utilization <= 1.0,
             "task utilization must be in (0, 1]");
    if (t.windowed)
      GM_CHECK(t.window_start_h >= 0.0 && t.window_end_h <= 24.0 &&
                   t.window_start_h < t.window_end_h,
               "invalid task release window");
  }
}

std::uint64_t WorkloadSpec::fingerprint() const {
  std::uint64_t h = seed;
  const auto mix_u = [&](std::uint64_t v) { h = mix_hash(h, v); };
  const auto mix_d = [&](double v) {
    mix_u(std::bit_cast<std::uint64_t>(v));
  };
  mix_u(static_cast<std::uint64_t>(duration_days));
  mix_d(task_scale);
  mix_d(foreground.base_rate_per_s);
  mix_d(foreground.read_fraction);
  mix_d(foreground.weekend_factor);
  mix_d(foreground.size_log_mu);
  mix_d(foreground.size_log_sigma);
  mix_u(foreground.object_count);
  mix_d(foreground.zipf_exponent);
  for (const auto& t : task_classes) {
    mix_u(static_cast<std::uint64_t>(t.type));
    mix_d(t.mean_per_day);
    mix_d(t.mean_work_s);
    mix_d(t.work_sigma);
    mix_d(t.deadline_slack_s);
    mix_d(t.utilization);
    mix_u(t.windowed ? 1 : 0);
    mix_d(t.window_start_h);
    mix_d(t.window_end_h);
  }
  return h;
}

}  // namespace gm::workload

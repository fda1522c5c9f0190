#include "core/config_io.hpp"

#include <charconv>
#include <iomanip>
#include <limits>
#include <span>
#include <sstream>
#include <type_traits>

#include "util/assert.hpp"
#include "util/csv.hpp"

namespace gm::core {

namespace {

// --------------------------------------------------------- value types

/// A decimal integer that fits `T`: out-of-range values are rejected
/// instead of wrapped, and unsigned types reject a minus sign.
template <typename T>
T parse_integer(const std::string& text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc() && ptr == end) return v;
  throw InvalidArgument("not an integer in [" +
                        std::to_string(std::numeric_limits<T>::min()) +
                        ", " +
                        std::to_string(std::numeric_limits<T>::max()) +
                        "]: '" + text + "'");
}

std::string echo_num(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

/// Parse and echo for a field of type T; the echo re-parses exactly.
template <typename T>
T parse_value(const std::string& text) {
  if constexpr (std::is_same_v<T, bool>)
    return parse_bool(text);
  else if constexpr (std::is_integral_v<T>)
    return parse_integer<T>(text);
  else if constexpr (std::is_floating_point_v<T>)
    return csv_to_double(text);
  else
    return text;
}

template <typename T>
std::string echo_value(const T& v) {
  if constexpr (std::is_same_v<T, bool>)
    return v ? "true" : "false";
  else if constexpr (std::is_integral_v<T>)
    return std::to_string(v);
  else if constexpr (std::is_floating_point_v<T>)
    return echo_num(v);
  else
    return v;
}

template <typename T>
constexpr KeyType key_type() {
  if constexpr (std::is_same_v<T, bool>) return KeyType::kBool;
  if constexpr (std::is_integral_v<T>) return KeyType::kInteger;
  if constexpr (std::is_floating_point_v<T>) return KeyType::kNumber;
  return KeyType::kText;
}

/// Accessor for one config field, usable on const and mutable configs.
#define GM_FIELD(path) [](auto& c) -> auto& { return c.path; }

/// A key bound to one field; its type follows the field's C++ type.
template <typename Field>
ConfigKey field_key(std::string name, Field field, std::string note = {}) {
  using T = std::remove_cvref_t<decltype(field(
      std::declval<ExperimentConfig&>()))>;
  return {std::move(name), key_type<T>(), {}, std::move(note),
          [field](ExperimentConfig& c, const std::string& v) {
            field(c) = parse_value<T>(v);
          },
          [field](const ExperimentConfig& c) -> std::optional<std::string> {
            return echo_value(field(c));
          }};
}

// ------------------------------------------------------------- choices

/// One accepted spelling of a choice key. In a name list the first
/// entry for a value is the name config_echo emits; later entries for
/// the same value are parse-only aliases.
template <typename V>
struct Named {
  const char* name;
  V value;
};

template <typename V>
std::vector<std::string> choice_names(std::span<const Named<V>> names) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    bool alias = false;
    for (std::size_t j = 0; j < i; ++j)
      alias = alias || names[j].value == names[i].value;
    if (!alias) out.emplace_back(names[i].name);
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (const auto& p : parts) out += (out.empty() ? "" : sep) + p;
  return out;
}

template <typename V>
V lookup(std::span<const Named<V>> names, const std::string& text) {
  for (const auto& n : names)
    if (text == n.name) return n.value;
  throw InvalidArgument("unknown value '" + text + "' (expected " +
                        join(choice_names(names), "|") + ")");
}

template <typename V>
const char* name_of(std::span<const Named<V>> names, const V& value) {
  for (const auto& n : names)
    if (n.value == value) return n.name;
  GM_UNREACHABLE("value missing from its name list");
}

const Named<PolicyKind> kPolicyKinds[] = {
    {"asap", PolicyKind::kAsap},
    {"opportunistic", PolicyKind::kOpportunistic},
    {"greenmatch", PolicyKind::kGreenMatch},
    {"greenmatch-greedy", PolicyKind::kGreenMatchGreedy},
    {"night-shift", PolicyKind::kNightShift},
    {"esd-only", PolicyKind::kAsap},
    {"nightshift", PolicyKind::kNightShift}};

const Named<Fidelity> kFidelities[] = {{"slot", Fidelity::kSlotLevel},
                                       {"event", Fidelity::kEventLevel}};

const Named<AdmissionOverflow> kOverflows[] = {
    {"grid", AdmissionOverflow::kGrid},
    {"reject", AdmissionOverflow::kReject}};

const Named<scenario::FailureProcess> kFailureProcesses[] = {
    {"none", scenario::FailureProcess::kNone},
    {"poisson", scenario::FailureProcess::kPoisson},
    {"weibull", scenario::FailureProcess::kWeibull}};

/// Battery technologies; kCustom echoes as the ideal preset.
const Named<energy::BatteryTechnology> kBatteryTechnologies[] = {
    {"li", energy::BatteryTechnology::kLithiumIon},
    {"la", energy::BatteryTechnology::kLeadAcid},
    {"ideal", energy::BatteryTechnology::kCustom},
    {"lithium-ion", energy::BatteryTechnology::kLithiumIon},
    {"lead-acid", energy::BatteryTechnology::kLeadAcid}};

/// Grid and workload presets are factories; the built config carries
/// its preset's name (GridConfig::profile, WorkloadSpec::preset).
using GridPreset = energy::GridConfig (*)();
const Named<GridPreset> kGridProfiles[] = {
    {"flat", [] { return energy::GridConfig::flat(); }},
    {"wind-heavy", &energy::GridConfig::wind_heavy},
    {"solar-heavy", &energy::GridConfig::solar_heavy}};

using WorkloadPreset = workload::WorkloadSpec (*)(int, std::uint64_t);
const Named<WorkloadPreset> kWorkloadPresets[] = {
    {"canonical", &workload::WorkloadSpec::canonical},
    {"read-heavy", &workload::WorkloadSpec::read_heavy},
    {"backup-heavy", &workload::WorkloadSpec::backup_heavy}};

/// A key whose value is one of `list`'s names: applying hands the
/// named value to `set`, and `echo` states the current name.
template <typename V, std::size_t N>
ConfigKey choice_key(
    std::string name, const Named<V> (&list)[N],
    std::function<void(ExperimentConfig&, V)> set,
    std::function<std::optional<std::string>(const ExperimentConfig&)>
        echo) {
  const std::span<const Named<V>> names(list);
  return {std::move(name), KeyType::kChoice, choice_names(names), {},
          [names, set](ExperimentConfig& c, const std::string& v) {
            set(c, lookup(names, v));
          },
          std::move(echo)};
}

/// A choice key bound to one enum field.
template <typename Field, typename V, std::size_t N>
ConfigKey enum_key(std::string name, Field field,
                   const Named<V> (&list)[N]) {
  return choice_key<V>(
      std::move(name), list,
      [field](ExperimentConfig& c, V v) { field(c) = v; },
      [field, &list](const ExperimentConfig& c)
          -> std::optional<std::string> {
        return name_of<V>(list, field(c));
      });
}

// -------------------------------------------------------- special keys

/// Rebuilds the battery from its technology's preset at `kwh`. The
/// preset resets every battery field, so the configured initial state
/// of charge is carried over (battery.initial_soc follows in the
/// table and may override it).
void rebuild_battery(ExperimentConfig& c, energy::BatteryTechnology tech,
                     double kwh) {
  const double initial_soc = c.battery.initial_soc_fraction;
  switch (tech) {
    case energy::BatteryTechnology::kLeadAcid:
      c.battery = energy::BatteryConfig::lead_acid(kwh_to_j(kwh));
      break;
    case energy::BatteryTechnology::kLithiumIon:
      c.battery = energy::BatteryConfig::lithium_ion(kwh_to_j(kwh));
      break;
    case energy::BatteryTechnology::kCustom:
      c.battery = energy::BatteryConfig::ideal(kwh_to_j(kwh));
      break;
  }
  c.battery.initial_soc_fraction = initial_soc;
}

/// failures.events value: `node@fail_s@recover_s` entries separated by
/// ';' (recover_s 0 = the node never comes back). All integers, so the
/// echo round-trips exactly.
std::vector<NodeFailureEvent> parse_failure_events(
    const std::string& text) {
  std::vector<NodeFailureEvent> events;
  std::istringstream stream(text);
  std::string entry;
  while (std::getline(stream, entry, ';')) {
    if (entry.empty()) continue;
    const auto first = entry.find('@');
    const auto second =
        first == std::string::npos ? first : entry.find('@', first + 1);
    if (second == std::string::npos)
      throw InvalidArgument("entry must be node@fail_s@recover_s: '" +
                            entry + "'");
    NodeFailureEvent e;
    e.node = parse_integer<storage::NodeId>(entry.substr(0, first));
    e.fail_at =
        parse_integer<SimTime>(entry.substr(first + 1, second - first - 1));
    e.recover_at = parse_integer<SimTime>(entry.substr(second + 1));
    events.push_back(e);
  }
  return events;
}

std::string echo_failure_events(
    const std::vector<NodeFailureEvent>& events) {
  std::ostringstream os;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) os << ';';
    os << events[i].node << '@' << events[i].fail_at << '@'
       << events[i].recover_at;
  }
  return os.str();
}

/// Echoes `key` only while `enabled(config)`. A config where it is
/// false echoes nothing for the key, and replaying that echo leaves
/// the key at its default, so echo → apply → echo stays a fixed point.
ConfigKey echo_if(bool (*enabled)(const ExperimentConfig&), ConfigKey key) {
  key.echo = [enabled, echo = std::move(key.echo)](
                 const ExperimentConfig& c) -> std::optional<std::string> {
    if (!enabled(c)) return std::nullopt;
    return echo(c);
  };
  return key;
}

/// Open-system keys are echoed only when the mode is on, so closed-loop
/// echoes (and the goldens that pin them) carry no arrivals.* or
/// admission.* keys.
bool open_system(const ExperimentConfig& c) { return c.arrivals.enabled; }

std::vector<ConfigKey> build_config_keys() {
  using energy::BatteryTechnology;
  return {
      field_key("cluster.racks", GM_FIELD(cluster.racks)),
      field_key("cluster.nodes_per_rack", GM_FIELD(cluster.nodes_per_rack)),
      field_key("cluster.replication",
                GM_FIELD(cluster.placement.replication)),
      field_key("cluster.groups", GM_FIELD(cluster.placement.group_count)),
      field_key("cluster.task_slots", GM_FIELD(cluster.node.task_slots)),

      // The preset rebuilds the whole workload (keeping days and
      // seed), so it precedes the workload keys that refine it.
      choice_key<WorkloadPreset>(
          "workload.preset", kWorkloadPresets,
          [](ExperimentConfig& c, WorkloadPreset build) {
            c.workload = build(c.workload.duration_days, c.workload.seed);
          },
          [](const ExperimentConfig& c) -> std::optional<std::string> {
            if (c.workload.preset == kWorkloadPresets[0].name)
              return std::nullopt;
            return c.workload.preset;
          }),
      field_key("workload.days", GM_FIELD(workload.duration_days)),
      field_key("workload.seed", GM_FIELD(workload.seed)),
      field_key("workload.foreground_rate",
                GM_FIELD(workload.foreground.base_rate_per_s)),
      field_key("workload.task_scale", GM_FIELD(workload.task_scale)),

      field_key("solar.panel_area_m2", GM_FIELD(panel_area_m2)),
      field_key("solar.latitude_deg", GM_FIELD(solar.latitude_deg)),
      field_key("solar.seed", GM_FIELD(solar.seed)),
      field_key("solar.horizon_days", GM_FIELD(solar.horizon_days)),
      echo_if([](const ExperimentConfig& c) {
                return !c.solar_trace_csv.empty();
              },
              field_key("solar.trace_csv", GM_FIELD(solar_trace_csv),
                        "hourly watts, one per line; replaces the "
                        "synthetic solar model")),
      field_key("wind.enabled", GM_FIELD(use_wind)),
      {"wind.rated_kw", KeyType::kNumber, {}, {},
       [](ExperimentConfig& c, const std::string& v) {
         c.wind.rated_power_w = csv_to_double(v) * 1000.0;
       },
       [](const ExperimentConfig& c) -> std::optional<std::string> {
         return echo_num(c.wind.rated_power_w / 1000.0);
       }},
      field_key("wind.horizon_days", GM_FIELD(wind.horizon_days)),

      // Both rebuild the battery from its technology's preset.
      // Technology goes first, so with both keys the capacity comes
      // straight from battery.kwh; initial_soc follows them.
      choice_key<BatteryTechnology>(
          "battery.technology", kBatteryTechnologies,
          [](ExperimentConfig& c, BatteryTechnology tech) {
            rebuild_battery(c, tech, j_to_kwh(c.battery.capacity_j));
          },
          [](const ExperimentConfig& c) -> std::optional<std::string> {
            return name_of<BatteryTechnology>(kBatteryTechnologies,
                                              c.battery.technology);
          }),
      {"battery.kwh", KeyType::kNumber, {}, {},
       [](ExperimentConfig& c, const std::string& v) {
         rebuild_battery(c, c.battery.technology, csv_to_double(v));
       },
       [](const ExperimentConfig& c) -> std::optional<std::string> {
         return echo_num(j_to_kwh(c.battery.capacity_j));
       }},
      field_key("battery.initial_soc",
                GM_FIELD(battery.initial_soc_fraction)),

      enum_key("policy.kind", GM_FIELD(policy.kind), kPolicyKinds),
      field_key("policy.deferral", GM_FIELD(policy.deferral_fraction)),
      field_key("policy.horizon", GM_FIELD(policy.horizon_slots)),
      field_key("policy.battery_aware", GM_FIELD(policy.battery_aware)),
      field_key("policy.carbon_aware", GM_FIELD(policy.carbon_aware)),
      choice_key<GridPreset>(
          "grid.profile", kGridProfiles,
          [](ExperimentConfig& c, GridPreset build) { c.grid = build(); },
          [](const ExperimentConfig& c) -> std::optional<std::string> {
            return c.grid.profile;
          }),
      field_key("policy.window_start_h", GM_FIELD(policy.window_start_h)),
      field_key("policy.window_end_h", GM_FIELD(policy.window_end_h)),
      field_key("scheduler.shards", GM_FIELD(policy.shards),
                "placement-group scheduling shards (1 = flat planner)"),

      enum_key("sim.fidelity", GM_FIELD(fidelity), kFidelities),
      field_key("sim.slot_seconds", GM_FIELD(slot_length_s)),
      field_key("sim.dwell_slots", GM_FIELD(min_dwell_slots)),
      field_key("sim.drain_slots", GM_FIELD(max_drain_slots)),
      field_key("sim.dvfs_eco_speed", GM_FIELD(dvfs_eco_speed)),
      field_key("sim.maid", GM_FIELD(maid_enabled)),
      field_key("sim.maid_min_disks", GM_FIELD(maid_min_spinning_disks)),
      field_key("forecast.noisy", GM_FIELD(noisy_forecast)),
      field_key("forecast.error_at_1h",
                GM_FIELD(forecast_noise.error_at_1h)),
      field_key("forecast.error_cap", GM_FIELD(forecast_noise.error_cap)),
      field_key("forecast.bias_at_1h", GM_FIELD(forecast_noise.bias_at_1h)),
      field_key("forecast.ar1_rho", GM_FIELD(forecast_noise.ar1_rho)),
      field_key("forecast.seed", GM_FIELD(forecast_noise.seed)),

      echo_if(open_system,
              field_key("arrivals.enabled", GM_FIELD(arrivals.enabled),
                        "open-system mode; arrivals.* and admission.* "
                        "are echoed only when true")),
      echo_if(open_system, field_key("arrivals.rate_per_h",
                                     GM_FIELD(arrivals.rate_per_h))),
      echo_if(open_system,
              field_key("arrivals.seed", GM_FIELD(arrivals.seed))),
      echo_if(open_system, field_key("arrivals.mean_work_s",
                                     GM_FIELD(arrivals.mean_work_s))),
      echo_if(open_system, field_key("arrivals.work_sigma",
                                     GM_FIELD(arrivals.work_sigma))),
      echo_if(open_system, field_key("arrivals.deadline_slack_s",
                                     GM_FIELD(arrivals.deadline_slack_s))),
      echo_if(open_system, field_key("arrivals.utilization",
                                     GM_FIELD(arrivals.utilization))),
      echo_if(open_system,
              field_key("arrivals.diurnal", GM_FIELD(arrivals.diurnal))),
      echo_if(open_system, field_key("admission.horizon",
                                     GM_FIELD(admission.horizon_slots))),
      echo_if(open_system,
              field_key("admission.battery_reserve_soc",
                        GM_FIELD(admission.battery_reserve_soc))),
      echo_if(open_system, enum_key("admission.overflow",
                                    GM_FIELD(admission.overflow),
                                    kOverflows)),

      {"failures.events", KeyType::kText, {},
       "node@fail_s@recover_s;... (recover_s 0 = never)",
       [](ExperimentConfig& c, const std::string& v) {
         c.node_failures = parse_failure_events(v);
       },
       [](const ExperimentConfig& c) -> std::optional<std::string> {
         if (c.node_failures.empty()) return std::nullopt;
         return echo_failure_events(c.node_failures);
       }},
      field_key("failures.repair_rate_bytes_per_s",
                GM_FIELD(repair_rate_bytes_per_s)),
      field_key("failures.repair_deadline_s", GM_FIELD(repair_deadline_s)),

      enum_key("scenario.failure_process",
               GM_FIELD(scenario.failures.process), kFailureProcesses),
      field_key("scenario.mtbf_hours",
                GM_FIELD(scenario.failures.mtbf_hours)),
      field_key("scenario.weibull_shape",
                GM_FIELD(scenario.failures.weibull_shape)),
      field_key("scenario.mttr_hours",
                GM_FIELD(scenario.failures.mttr_hours)),
      field_key("scenario.failure_seed", GM_FIELD(scenario.failures.seed)),
      field_key("scenario.spike_rate_per_day",
                GM_FIELD(scenario.grid_spikes.rate_per_day)),
      field_key("scenario.spike_duration_h",
                GM_FIELD(scenario.grid_spikes.duration_h)),
      field_key("scenario.spike_carbon_x",
                GM_FIELD(scenario.grid_spikes.carbon_multiplier)),
      field_key("scenario.spike_price_x",
                GM_FIELD(scenario.grid_spikes.price_multiplier)),
      field_key("scenario.spike_seed", GM_FIELD(scenario.grid_spikes.seed)),
      field_key("scenario.curtail_rate_per_day",
                GM_FIELD(scenario.curtailment.rate_per_day)),
      field_key("scenario.curtail_duration_h",
                GM_FIELD(scenario.curtailment.duration_h)),
      field_key("scenario.curtail_supply_fraction",
                GM_FIELD(scenario.curtailment.supply_fraction)),
      field_key("scenario.curtail_seed",
                GM_FIELD(scenario.curtailment.seed)),
  };
}

#undef GM_FIELD

}  // namespace

const std::vector<ConfigKey>& config_keys() {
  static const std::vector<ConfigKey> keys = build_config_keys();
  return keys;
}

PolicyKind parse_policy_kind(const std::string& name) {
  return lookup<PolicyKind>(kPolicyKinds, name);
}

const char* policy_kind_name(PolicyKind kind) {
  return name_of<PolicyKind>(kPolicyKinds, kind);
}

void apply_config(ExperimentConfig& config, const KeyValueConfig& kv) {
  for (const ConfigKey& key : config_keys()) {
    const auto value = kv.get_string(key.name);
    if (!value) continue;
    try {
      key.apply(config, *value);
    } catch (const InvalidArgument& e) {
      throw InvalidArgument("config key '" + key.name + "': " + e.what());
    }
  }
  const auto unknown = kv.unconsumed_keys();
  if (!unknown.empty()) {
    std::ostringstream os;
    os << "unknown config keys:";
    for (const auto& k : unknown) os << " '" << k << "'";
    throw InvalidArgument(os.str());
  }
  config.validate();
}

ExperimentConfig config_from_file(const std::string& path) {
  ExperimentConfig config = ExperimentConfig::canonical();
  apply_config(config, KeyValueConfig::load_file(path));
  return config;
}

std::vector<std::pair<std::string, std::string>> config_echo(
    const ExperimentConfig& config) {
  std::vector<std::pair<std::string, std::string>> kv;
  for (const ConfigKey& key : config_keys())
    if (auto value = key.echo(config))
      kv.emplace_back(key.name, std::move(*value));
  return kv;
}

std::string config_keys_help() {
  std::ostringstream os;
  for (const ConfigKey& key : config_keys()) {
    std::string type;
    switch (key.type) {
      case KeyType::kInteger: type = "integer"; break;
      case KeyType::kNumber: type = "number"; break;
      case KeyType::kBool: type = "bool"; break;
      case KeyType::kChoice: type = join(key.choices, "|"); break;
      case KeyType::kText: type = "text"; break;
    }
    os << "  " << std::left << std::setw(34) << key.name << type;
    if (!key.note.empty()) os << "  " << key.note;
    os << '\n';
  }
  return os.str();
}

}  // namespace gm::core

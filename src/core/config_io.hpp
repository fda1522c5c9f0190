#pragma once
// Experiment configuration from key=value files (and CLI overrides).
// Every supported key is one entry of `config_keys()`: applying,
// echoing and the help text all read that one table, so a key cannot
// be applied without being echoed (or the reverse). Unknown keys are
// an error so typos fail loudly instead of silently running the
// default.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "util/config_kv.hpp"

namespace gm::core {

/// What a key's value parses as. The parse accepts exactly the C++
/// type's range (an int key rejects 2^32 instead of wrapping it);
/// semantic ranges are ExperimentConfig::validate()'s job.
enum class KeyType : std::uint8_t {
  kInteger,  ///< decimal integer that fits the field's integer type
  kNumber,   ///< finite double
  kBool,     ///< true/false, yes/no, on/off, 1/0
  kChoice,   ///< one of `choices` (or a parse-only alias of one)
  kText,     ///< free-form text (a path, an event list)
};

/// One configuration key.
struct ConfigKey {
  std::string name;
  KeyType type = KeyType::kText;
  /// kChoice: the names config_echo emits (aliases are not listed).
  std::vector<std::string> choices;
  /// Extra help text ("" for most keys).
  std::string note;
  /// Sets the config from a present value; throws gm::InvalidArgument
  /// when the value is malformed for the key's type.
  std::function<void(ExperimentConfig&, const std::string&)> apply;
  /// The value that reproduces `config`, or nullopt when the key is
  /// left out of the echo (it is then at the default its enabling key
  /// implies: empty, disabled or canonical).
  std::function<std::optional<std::string>(const ExperimentConfig&)>
      echo;
};

/// Every accepted key, in echo order. apply_config applies them in
/// this order too, so a key that rebuilds a sub-config (workload.preset,
/// battery.technology) precedes the keys that refine it.
const std::vector<ConfigKey>& config_keys();

/// Applies the keys in `kv` on top of `config`. Throws
/// gm::InvalidArgument on unknown keys or malformed values (the message
/// names the key).
void apply_config(ExperimentConfig& config, const KeyValueConfig& kv);

/// Builds a config from a file (canonical defaults + file contents).
ExperimentConfig config_from_file(const std::string& path);

/// One line per key: name, value type or choices, and any note.
std::string config_keys_help();

/// Echoes a config back as (key, value) pairs in the same key space
/// `apply_config` consumes, so a run manifest doubles as a config file
/// that reproduces the run. Fields only reachable through the C++ API
/// (custom grids, hand-edited task classes) are not representable and
/// are echoed by their nearest key-space equivalent (battery kCustom
/// echoes as "ideal").
std::vector<std::pair<std::string, std::string>> config_echo(
    const ExperimentConfig& config);

/// Parses policy names as used in config files and CLIs.
PolicyKind parse_policy_kind(const std::string& name);

}  // namespace gm::core

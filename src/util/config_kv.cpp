#include "util/config_kv.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/assert.hpp"
#include "util/csv.hpp"

namespace gm {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

bool parse_bool(const std::string& text) {
  std::string v = text;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw InvalidArgument("not a boolean: '" + text + "'");
}

KeyValueConfig KeyValueConfig::parse(const std::string& text) {
  KeyValueConfig config;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    GM_CHECK(eq != std::string::npos,
             "config line " << line_no << " has no '=': '" << line << "'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    GM_CHECK(!key.empty(), "config line " << line_no << " has empty key");
    GM_CHECK(config.values_.find(key) == config.values_.end(),
             "duplicate config key '" << key << "' at line " << line_no);
    config.values_[key] = value;
  }
  return config;
}

KeyValueConfig KeyValueConfig::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw RuntimeError("cannot open config file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

bool KeyValueConfig::has(const std::string& key) const {
  return values_.find(key) != values_.end();
}

std::optional<std::string> KeyValueConfig::get_string(
    const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  consumed_[key] = true;
  return it->second;
}

std::optional<double> KeyValueConfig::get_double(
    const std::string& key) const {
  const auto raw = get_string(key);
  if (!raw) return std::nullopt;
  try {
    return csv_to_double(*raw);
  } catch (const InvalidArgument&) {
    throw InvalidArgument("config key '" + key +
                          "' is not a number: '" + *raw + "'");
  }
}

std::optional<std::int64_t> KeyValueConfig::get_int(
    const std::string& key) const {
  const auto raw = get_string(key);
  if (!raw) return std::nullopt;
  try {
    return csv_to_int(*raw);
  } catch (const InvalidArgument&) {
    throw InvalidArgument("config key '" + key +
                          "' is not an integer: '" + *raw + "'");
  }
}

std::optional<bool> KeyValueConfig::get_bool(
    const std::string& key) const {
  const auto raw = get_string(key);
  if (!raw) return std::nullopt;
  try {
    return parse_bool(*raw);
  } catch (const InvalidArgument&) {
    throw InvalidArgument("config key '" + key +
                          "' is not a boolean: '" + *raw + "'");
  }
}

std::string KeyValueConfig::get_string_or(
    const std::string& key, const std::string& fallback) const {
  return get_string(key).value_or(fallback);
}

double KeyValueConfig::get_double_or(const std::string& key,
                                     double fallback) const {
  return get_double(key).value_or(fallback);
}

std::int64_t KeyValueConfig::get_int_or(const std::string& key,
                                        std::int64_t fallback) const {
  return get_int(key).value_or(fallback);
}

bool KeyValueConfig::get_bool_or(const std::string& key,
                                 bool fallback) const {
  return get_bool(key).value_or(fallback);
}

void KeyValueConfig::set(const std::string& key,
                         const std::string& value) {
  GM_CHECK(!key.empty(), "cannot set empty config key");
  values_[key] = value;
  consumed_.erase(key);
}

std::vector<std::string> KeyValueConfig::unconsumed_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_)
    if (!consumed_.count(key)) out.push_back(key);
  return out;
}

}  // namespace gm

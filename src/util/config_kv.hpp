#pragma once
// Minimal key=value configuration format for experiment files:
//
//   # comment
//   cluster.racks = 4
//   policy.kind   = greenmatch
//
// Keys are dotted lowercase identifiers; values are strings parsed on
// demand. Lookup is tracked so a caller can reject files containing
// keys nothing consumed (typo protection).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gm {

/// Parses a boolean spelled true/false, yes/no, on/off or 1/0 (any
/// case); throws InvalidArgument otherwise.
bool parse_bool(const std::string& text);

class KeyValueConfig {
 public:
  KeyValueConfig() = default;

  /// Parses config text; throws InvalidArgument on malformed lines or
  /// duplicate keys.
  static KeyValueConfig parse(const std::string& text);
  /// Reads and parses a file; throws RuntimeError if unreadable.
  static KeyValueConfig load_file(const std::string& path);

  bool has(const std::string& key) const;

  /// Typed getters; throw InvalidArgument when present but malformed.
  /// All mark the key as consumed.
  std::optional<std::string> get_string(const std::string& key) const;
  std::optional<double> get_double(const std::string& key) const;
  std::optional<std::int64_t> get_int(const std::string& key) const;
  std::optional<bool> get_bool(const std::string& key) const;

  /// Convenience with default.
  std::string get_string_or(const std::string& key,
                            const std::string& fallback) const;
  double get_double_or(const std::string& key, double fallback) const;
  std::int64_t get_int_or(const std::string& key,
                          std::int64_t fallback) const;
  bool get_bool_or(const std::string& key, bool fallback) const;

  /// Set/override programmatically (CLI flags layer on top of files).
  void set(const std::string& key, const std::string& value);

  /// Keys present in the file that no getter consumed.
  std::vector<std::string> unconsumed_keys() const;
  std::size_t size() const { return values_.size(); }

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
};

}  // namespace gm

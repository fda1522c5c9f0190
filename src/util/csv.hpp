#pragma once
// Minimal CSV reading/writing for trace files and bench output.
// Handles quoting of fields containing commas/quotes/newlines; numeric
// columns are written with full round-trip precision.

#include <iosfwd>
#include <string>
#include <vector>

namespace gm {

/// Streaming CSV writer. Rows are buffered per line and flushed to the
/// underlying stream; the stream must outlive the writer.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  CsvWriter& field(const std::string& v);
  CsvWriter& field(const char* v) { return field(std::string(v)); }
  CsvWriter& field(double v);
  CsvWriter& field(std::int64_t v);
  CsvWriter& field(std::uint64_t v);
  CsvWriter& field(int v) { return field(static_cast<std::int64_t>(v)); }

  /// Terminates the current row.
  void end_row();

  /// Convenience: write a full row of strings.
  void row(const std::vector<std::string>& fields);

 private:
  std::ostream& out_;
  bool at_row_start_ = true;
};

/// In-memory parse of CSV text into rows of string fields.
std::vector<std::vector<std::string>> parse_csv(const std::string& text);

/// Reads and parses a CSV file. Throws gm::RuntimeError if unreadable.
std::vector<std::vector<std::string>> read_csv_file(const std::string& path);

/// Strict numeric conversions for parsed fields. Both throw
/// InvalidArgument on garbage; csv_to_double also on values outside
/// double's range and on inf/nan.
double csv_to_double(const std::string& field);
std::int64_t csv_to_int(const std::string& field);

}  // namespace gm

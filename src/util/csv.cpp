#include "util/csv.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "util/assert.hpp"

namespace gm {
namespace {

bool needs_quoting(const std::string& v) {
  return v.find_first_of(",\"\n\r") != std::string::npos;
}

std::string quote(const std::string& v) {
  std::string out;
  out.reserve(v.size() + 2);
  out.push_back('"');
  for (char c : v) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

CsvWriter& CsvWriter::field(const std::string& v) {
  if (!at_row_start_) out_ << ',';
  out_ << (needs_quoting(v) ? quote(v) : v);
  at_row_start_ = false;
  return *this;
}

CsvWriter& CsvWriter::field(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  if (!at_row_start_) out_ << ',';
  out_ << buf;
  at_row_start_ = false;
  return *this;
}

CsvWriter& CsvWriter::field(std::int64_t v) {
  if (!at_row_start_) out_ << ',';
  out_ << v;
  at_row_start_ = false;
  return *this;
}

CsvWriter& CsvWriter::field(std::uint64_t v) {
  if (!at_row_start_) out_ << ',';
  out_ << v;
  at_row_start_ = false;
  return *this;
}

void CsvWriter::end_row() {
  out_ << '\n';
  at_row_start_ = true;
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  for (const auto& f : fields) field(f);
  end_row();
}

std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string cur;
  bool in_quotes = false;
  bool row_has_content = false;

  const auto flush_field = [&] {
    row.push_back(cur);
    cur.clear();
  };
  const auto flush_row = [&] {
    flush_field();
    rows.push_back(std::move(row));
    row.clear();
    row_has_content = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_content = true;
        break;
      case ',':
        flush_field();
        row_has_content = true;
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        if (row_has_content || !cur.empty() || !row.empty()) flush_row();
        break;
      default:
        cur.push_back(c);
        row_has_content = true;
    }
  }
  GM_CHECK(!in_quotes, "CSV text ends inside a quoted field");
  if (row_has_content || !cur.empty() || !row.empty()) flush_row();
  return rows;
}

std::vector<std::vector<std::string>> read_csv_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw RuntimeError("cannot open CSV file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_csv(ss.str());
}

double csv_to_double(const std::string& field) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(field, &pos);
  } catch (const std::invalid_argument&) {
    throw InvalidArgument("not a number: '" + field + "'");
  } catch (const std::out_of_range&) {
    throw InvalidArgument("number out of range: '" + field + "'");
  }
  if (pos != field.size())
    throw InvalidArgument("trailing garbage after number: '" + field +
                          "'");
  if (!std::isfinite(v))
    throw InvalidArgument("not a finite number: '" + field + "'");
  return v;
}

std::int64_t csv_to_int(const std::string& field) {
  std::int64_t v = 0;
  const char* begin = field.data();
  const char* end = begin + field.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  GM_CHECK(ec == std::errc() && ptr == end,
           "non-integer CSV field: '" << field << "'");
  return v;
}

}  // namespace gm

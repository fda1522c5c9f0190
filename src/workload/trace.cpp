#include "workload/trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/assert.hpp"
#include "util/csv.hpp"

namespace gm::workload {

namespace {

storage::TaskType task_type_from_int(std::int64_t v) {
  GM_CHECK(v >= 0 && v <= static_cast<int>(storage::TaskType::kCompaction),
           "bad task type in trace: " << v);
  return static_cast<storage::TaskType>(v);
}

}  // namespace

// Columns: kind,id,t0,a,b,c,d,e
//   R: id, arrival, object, size_bytes, is_write, 0
//   T: id, release, type, deadline, work_s, utilization, group
void write_trace(std::ostream& out, const Workload& workload) {
  CsvWriter csv(out);
  csv.field("kind").field("id").field("t0").field("a").field("b")
      .field("c").field("d").field("e");
  csv.end_row();
  for (const auto& r : workload.requests) {
    csv.field("R")
        .field(static_cast<std::uint64_t>(r.id))
        .field(r.arrival)
        .field(static_cast<std::uint64_t>(r.object))
        .field(static_cast<std::uint64_t>(r.size_bytes))
        .field(static_cast<std::int64_t>(r.is_write ? 1 : 0))
        .field(static_cast<std::int64_t>(0))
        .field(static_cast<std::int64_t>(0));
    csv.end_row();
  }
  for (const auto& t : workload.tasks) {
    csv.field("T")
        .field(static_cast<std::uint64_t>(t.id))
        .field(t.release)
        .field(static_cast<std::int64_t>(t.type))
        .field(t.deadline)
        .field(t.work_s)
        .field(t.utilization)
        .field(static_cast<std::int64_t>(t.group));
    csv.end_row();
  }
}

void write_trace_file(const std::string& path, const Workload& workload) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw RuntimeError("cannot write trace file: " + path);
  write_trace(out, workload);
}

Workload read_trace(const std::string& text) {
  const auto rows = parse_csv(text);
  GM_CHECK(!rows.empty(), "empty workload trace");
  Workload out;
  std::size_t row_index = 0;
  if (!rows[0].empty() && rows[0][0] == "kind") row_index = 1;  // header

  for (; row_index < rows.size(); ++row_index) {
    const auto& row = rows[row_index];
    GM_CHECK(row.size() == 8, "trace row has " << row.size()
                                               << " fields, expected 8");
    const std::string& kind = row[0];
    if (kind == "R") {
      storage::IoRequest r;
      r.id = static_cast<storage::RequestId>(csv_to_int(row[1]));
      r.arrival = csv_to_int(row[2]);
      r.object = static_cast<storage::ObjectId>(csv_to_int(row[3]));
      r.size_bytes = static_cast<std::uint64_t>(csv_to_int(row[4]));
      r.is_write = csv_to_int(row[5]) != 0;
      out.requests.push_back(r);
    } else if (kind == "T") {
      storage::BackgroundTask t;
      t.id = static_cast<storage::TaskId>(csv_to_int(row[1]));
      t.release = csv_to_int(row[2]);
      t.type = task_type_from_int(csv_to_int(row[3]));
      t.deadline = csv_to_int(row[4]);
      t.work_s = csv_to_double(row[5]);
      t.utilization = csv_to_double(row[6]);
      t.group = static_cast<storage::GroupId>(csv_to_int(row[7]));
      out.tasks.push_back(t);
    } else {
      GM_CHECK(false, "unknown trace row kind: '" << kind << "'");
    }
  }

  // Replay routes requests in vector order, so restore arrival order
  // here; ties keep their file order.
  std::stable_sort(out.requests.begin(), out.requests.end(),
                   [](const storage::IoRequest& a,
                      const storage::IoRequest& b) {
                     return a.arrival < b.arrival;
                   });

  SimTime max_t = 0;
  for (const auto& r : out.requests) max_t = std::max(max_t, r.arrival);
  for (const auto& t : out.tasks) max_t = std::max(max_t, t.deadline);
  out.duration = max_t;
  return out;
}

Workload read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw RuntimeError("cannot open trace file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return read_trace(ss.str());
}

}  // namespace gm::workload

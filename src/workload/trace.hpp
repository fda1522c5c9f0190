#pragma once
// Workload trace serialization: CSV round-trip so generated workloads
// can be archived, inspected or replayed exactly (and so external
// traces can be imported in the same format).
//
// Request rows:  R,id,arrival,object,size_bytes,is_write
// Task rows:     T,id,type,release,deadline,work_s,utilization,group

#include <iosfwd>
#include <string>

#include "workload/generator.hpp"

namespace gm::workload {

void write_trace(std::ostream& out, const Workload& workload);
void write_trace_file(const std::string& path, const Workload& workload);

/// Parses a trace. Requests come back stably sorted by arrival (the
/// order the engine routes them in), whatever their order in the file.
Workload read_trace(const std::string& text);
Workload read_trace_file(const std::string& path);

}  // namespace gm::workload

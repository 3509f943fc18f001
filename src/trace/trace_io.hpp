// Trace (de)serialization.
//
// Two formats:
//  * CSV — human-inspectable, one record per line, with a header; this is
//    the interchange format the examples write.
//  * Binary — fixed-width little-endian records behind a magic/version
//    header; used for large traces.
// Both round-trip exactly (timestamps are stored as IEEE doubles).
//
// Readers throw std::runtime_error, and only that, on malformed input,
// naming the CSV line and field or the binary record.  Fields are strict
// (harl::FieldReader, read_le); a record's op is read or write, its times
// are finite and offset + size fits in Bytes; no count sizes an allocation.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/trace/record.hpp"

namespace harl::trace {

/// Writes records as CSV with header
/// `pid,rank,fd,op,offset,size,t_start,t_end`.
void write_csv(std::ostream& os, const std::vector<TraceRecord>& records);

/// Parses CSV produced by write_csv.  Throws std::runtime_error on malformed
/// input (wrong header, wrong field count, unknown op).
std::vector<TraceRecord> read_csv(std::istream& is);

/// Writes the binary format (magic "HARLTRC1", u64 count, packed records).
void write_binary(std::ostream& os, const std::vector<TraceRecord>& records);

/// Reads the binary format; throws std::runtime_error on a bad magic or a
/// truncated stream.
std::vector<TraceRecord> read_binary(std::istream& is);

/// File-path conveniences (format chosen by extension: ".csv" vs anything
/// else = binary).
void save_trace(const std::string& path, const std::vector<TraceRecord>& records);
std::vector<TraceRecord> load_trace(const std::string& path);

}  // namespace harl::trace

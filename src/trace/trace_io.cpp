#include "src/trace/trace_io.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "src/common/config.hpp"

namespace harl::trace {

namespace {

constexpr char kCsvHeader[] = "pid,rank,fd,op,offset,size,t_start,t_end";
constexpr char kMagic[8] = {'H', 'A', 'R', 'L', 'T', 'R', 'C', '1'};
constexpr char kBinaryFormat[] = "binary trace";
constexpr std::uint64_t kMaxId = std::numeric_limits<std::uint32_t>::max();

/// What makes a decoded record invalid in either encoding, or nullptr: the
/// op must be read or write (op code 0 or 1), both timestamps finite and
/// the extent must fit in Bytes.
const char* record_defect(const TraceRecord& r) {
  if (r.op != IoOp::kRead && r.op != IoOp::kWrite) {
    return "op is not read or write";
  }
  if (!std::isfinite(r.t_start) || !std::isfinite(r.t_end)) {
    return "timestamps must be finite";
  }
  if (r.offset > std::numeric_limits<Bytes>::max() - r.size) {
    return "offset + size overflows 64 bits";
  }
  return nullptr;
}

}  // namespace

void write_csv(std::ostream& os, const std::vector<TraceRecord>& records) {
  os << kCsvHeader << '\n';
  os.precision(17);
  for (const auto& r : records) {
    os << r.pid << ',' << r.rank << ',' << r.fd << ',' << to_string(r.op)
       << ',' << r.offset << ',' << r.size << ',' << r.t_start << ','
       << r.t_end << '\n';
  }
}

std::vector<TraceRecord> read_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kCsvHeader) {
    throw std::runtime_error("bad trace CSV header");
  }
  std::vector<TraceRecord> out;
  for (std::size_t n = 2; std::getline(is, line); ++n) {
    if (line.empty()) continue;
    FieldReader row("trace CSV", n, line);
    TraceRecord r;
    r.pid = static_cast<std::uint32_t>(row.u64("pid", kMaxId));
    r.rank = static_cast<std::uint32_t>(row.u64("rank", kMaxId));
    r.fd = static_cast<std::uint32_t>(row.u64("fd", kMaxId));
    const std::string_view op = row.text("op");
    r.op = static_cast<IoOp>(op == "read" ? 0 : op == "write" ? 1 : 2);
    r.offset = row.u64("offset");
    r.size = row.u64("size");
    r.t_start = row.number("t_start");
    r.t_end = row.number("t_end");
    row.end();
    if (const char* defect = record_defect(r)) {
      throw std::runtime_error(row.where() + ": " + defect);
    }
    out.push_back(r);
  }
  return out;
}

void write_binary(std::ostream& os, const std::vector<TraceRecord>& records) {
  os.write(kMagic, sizeof(kMagic));
  write_le<std::uint64_t>(os, records.size());
  for (const auto& r : records) {
    write_le(os, r.pid);
    write_le(os, r.rank);
    write_le(os, r.fd);
    write_le<std::uint8_t>(os, r.op == IoOp::kRead ? 0 : 1);
    write_le(os, r.offset);
    write_le(os, r.size);
    write_le(os, r.t_start);
    write_le(os, r.t_end);
  }
}

std::vector<TraceRecord> read_binary(std::istream& is) {
  std::array<char, 8> magic{};
  is.read(magic.data(), magic.size());
  if (!is || std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("bad binary trace magic");
  }
  // The count sizes nothing: records are appended as their bytes arrive,
  // so a corrupt count ends in "truncated", not in a huge allocation.
  const auto count = read_le<std::uint64_t>(is, kBinaryFormat);
  std::vector<TraceRecord> out;
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceRecord r;
    r.pid = read_le<std::uint32_t>(is, kBinaryFormat);
    r.rank = read_le<std::uint32_t>(is, kBinaryFormat);
    r.fd = read_le<std::uint32_t>(is, kBinaryFormat);
    r.op = static_cast<IoOp>(read_le<std::uint8_t>(is, kBinaryFormat));
    r.offset = read_le<Bytes>(is, kBinaryFormat);
    r.size = read_le<Bytes>(is, kBinaryFormat);
    r.t_start = read_le<double>(is, kBinaryFormat);
    r.t_end = read_le<double>(is, kBinaryFormat);
    if (const char* defect = record_defect(r)) {
      throw std::runtime_error("binary trace record " + std::to_string(i) +
                               ": " + defect);
    }
    out.push_back(r);
  }
  return out;
}

void save_trace(const std::string& path, const std::vector<TraceRecord>& records) {
  const bool csv = path.ends_with(".csv");
  std::ofstream os(path, csv ? std::ios::out : std::ios::out | std::ios::binary);
  if (!os) throw std::runtime_error("cannot open trace file for write: " + path);
  csv ? write_csv(os, records) : write_binary(os, records);
}

std::vector<TraceRecord> load_trace(const std::string& path) {
  const bool csv = path.ends_with(".csv");
  std::ifstream is(path, csv ? std::ios::in : std::ios::in | std::ios::binary);
  if (!is) throw std::runtime_error("cannot open trace file for read: " + path);
  return csv ? read_csv(is) : read_binary(is);
}

}  // namespace harl::trace

// Tests for the trace collector, (de)serialization and workload analysis.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/trace/analysis.hpp"
#include "src/trace/collector.hpp"
#include "src/trace/trace_io.hpp"

namespace harl::trace {
namespace {

TraceRecord make_record(std::uint32_t rank, IoOp op, Bytes offset, Bytes size,
                        Seconds t0 = 0.0) {
  TraceRecord r;
  r.pid = rank;
  r.rank = rank;
  r.fd = 0;
  r.op = op;
  r.offset = offset;
  r.size = size;
  r.t_start = t0;
  r.t_end = t0 + 1e-3;
  return r;
}

TEST(Collector, RecordsInTemporalOrder) {
  TraceCollector c;
  c.record(0, 0, IoOp::kWrite, 100, 10, 0.0, 0.1);
  c.record(1, 0, IoOp::kRead, 50, 20, 0.2, 0.3);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.records()[0].offset, 100u);
  EXPECT_EQ(c.records()[1].offset, 50u);
}

TEST(Collector, SortedByOffsetAppliesPaperOrdering) {
  TraceCollector c;
  c.record(0, 0, IoOp::kWrite, 300, 10, 0.0, 0.1);
  c.record(1, 0, IoOp::kWrite, 100, 10, 0.1, 0.2);
  c.record(2, 0, IoOp::kWrite, 200, 10, 0.2, 0.3);
  const auto sorted = c.sorted_by_offset();
  EXPECT_EQ(sorted[0].offset, 100u);
  EXPECT_EQ(sorted[1].offset, 200u);
  EXPECT_EQ(sorted[2].offset, 300u);
}

TEST(Collector, EqualOffsetsTieBreakByTimeThenRank) {
  TraceCollector c;
  c.record(5, 0, IoOp::kRead, 100, 10, 2.0, 2.1);
  c.record(3, 0, IoOp::kRead, 100, 10, 1.0, 1.1);
  c.record(1, 0, IoOp::kRead, 100, 10, 1.0, 1.1);
  const auto sorted = c.sorted_by_offset();
  EXPECT_EQ(sorted[0].rank, 1u);
  EXPECT_EQ(sorted[1].rank, 3u);
  EXPECT_EQ(sorted[2].rank, 5u);
}

TEST(Collector, FilterByFileDescriptor) {
  TraceCollector c;
  c.record(TraceRecord{0, 0, 7, IoOp::kRead, 10, 1, 0, 0});
  c.record(TraceRecord{0, 0, 8, IoOp::kRead, 20, 1, 0, 0});
  c.record(TraceRecord{0, 0, 7, IoOp::kRead, 5, 1, 0, 0});
  const auto fd7 = c.sorted_by_offset(7);
  ASSERT_EQ(fd7.size(), 2u);
  EXPECT_EQ(fd7[0].offset, 5u);
  EXPECT_EQ(fd7[1].offset, 10u);
}

TEST(Collector, ClearEmptiesTheBuffer) {
  TraceCollector c;
  c.record(0, 0, IoOp::kRead, 0, 1, 0.0, 0.1);
  c.clear();
  EXPECT_TRUE(c.empty());
}

TEST(TraceIo, CsvRoundTripsExactly) {
  std::vector<TraceRecord> records = {
      make_record(0, IoOp::kWrite, 0, 512 * KiB, 0.125),
      make_record(3, IoOp::kRead, 1234567890123ULL, 7, 3.14159),
  };
  std::stringstream ss;
  write_csv(ss, records);
  const auto parsed = read_csv(ss);
  EXPECT_EQ(parsed, records);
}

TEST(TraceIo, BinaryRoundTripsExactly) {
  std::vector<TraceRecord> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back(make_record(static_cast<std::uint32_t>(i % 8),
                                  i % 3 ? IoOp::kRead : IoOp::kWrite,
                                  static_cast<Bytes>(i) * 4096, 4096,
                                  i * 0.001));
  }
  std::stringstream ss;
  write_binary(ss, records);
  const auto parsed = read_binary(ss);
  EXPECT_EQ(parsed, records);
}

TEST(TraceIo, CsvRejectsBadHeaderAndMalformedRows) {
  {
    std::stringstream ss("not,a,header\n");
    EXPECT_THROW(read_csv(ss), std::runtime_error);
  }
  {
    std::stringstream ss("pid,rank,fd,op,offset,size,t_start,t_end\n1,2,3\n");
    EXPECT_THROW(read_csv(ss), std::runtime_error);
  }
  {
    std::stringstream ss(
        "pid,rank,fd,op,offset,size,t_start,t_end\n1,2,3,erase,0,1,0,0\n");
    EXPECT_THROW(read_csv(ss), std::runtime_error);
  }
}

TEST(TraceIo, BinaryRejectsBadMagicAndTruncation) {
  {
    std::stringstream ss("XXXXXXXXgarbage");
    EXPECT_THROW(read_binary(ss), std::runtime_error);
  }
  {
    std::vector<TraceRecord> records = {make_record(0, IoOp::kRead, 0, 1)};
    std::stringstream ss;
    write_binary(ss, records);
    std::string data = ss.str();
    data.resize(data.size() - 4);  // truncate
    std::stringstream cut(data);
    EXPECT_THROW(read_binary(cut), std::runtime_error);
  }
}

/// The message of the std::runtime_error `fn` throws ("" if none).
template <typename Fn>
std::string runtime_error_message(Fn fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(TraceIo, CsvRejectsEveryMalformedFieldNamingLineAndField) {
  const std::string header = "pid,rank,fd,op,offset,size,t_start,t_end\n";
  const std::string good = "1,0,3,read,0,4096,0,0.5\n";
  const auto error = [&](const std::string& row) {
    return runtime_error_message([&] {
      std::stringstream ss(header + good + row);
      read_csv(ss);
    });
  };
  EXPECT_EQ(error("1,0,3,read,0,16x,0,0.5\n"),
            "trace CSV line 3, size: '16x' is not an unsigned integer");
  EXPECT_EQ(error("1,0,3,read,0,-5,0,0.5\n"),
            "trace CSV line 3, size: '-5' is not an unsigned integer");
  EXPECT_EQ(error("1,0,3,read,0,5,nan,0.5\n"),
            "trace CSV line 3, t_start: 'nan' is not a finite number");
  EXPECT_EQ(error("1,0,3,read,0,18446744073709551616,0,0.5\n"),
            "trace CSV line 3, size: '18446744073709551616' is not an "
            "unsigned integer");
  EXPECT_EQ(error("4294967296,0,3,read,0,5,0,0.5\n"),
            "trace CSV line 3, pid: 4294967296 exceeds 4294967295");
  EXPECT_EQ(error("1,0,3,erase,0,5,0,0.5\n"),
            "trace CSV line 3: op is not read or write");
  EXPECT_EQ(error("1,0,3,read,18446744073709551615,2,0,0.5\n"),
            "trace CSV line 3: offset + size overflows 64 bits");
  EXPECT_EQ(error("1,0,3,read,0,5,0,0.5,\n"),
            "trace CSV line 3: unexpected field ''");
  EXPECT_EQ(error(""), "");
}

TEST(TraceIo, BinaryRejectsBadOpsNonFiniteTimesAndOverflow) {
  const auto error = [](TraceRecord r, int op_byte) {
    std::stringstream ss;
    write_binary(ss, {r});
    std::string bytes = ss.str();
    bytes[16 + 12] = static_cast<char>(op_byte);  // header, pid/rank/fd
    return runtime_error_message([&] {
      std::stringstream cut(bytes);
      read_binary(cut);
    });
  };
  const TraceRecord good = make_record(0, IoOp::kRead, 0, 1);
  EXPECT_EQ(error(good, 1), "");
  EXPECT_EQ(error(good, 7), "binary trace record 0: op is not read or write");
  TraceRecord nan = good;
  nan.t_end = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(error(nan, 0), "binary trace record 0: timestamps must be finite");
  TraceRecord wrap = good;
  wrap.offset = std::numeric_limits<Bytes>::max();
  EXPECT_EQ(error(wrap, 0),
            "binary trace record 0: offset + size overflows 64 bits");
}

TEST(TraceIo, BinaryCountSizesNoAllocation) {
  // Magic plus a count of 2^40 records and no record bytes: the reader
  // must run out of input, not reserve 2^40 records first.
  std::string bytes = "HARLTRC1";
  for (int i = 0; i < 8; ++i) bytes += static_cast<char>(i == 5 ? 1 : 0);
  ASSERT_EQ(bytes.size(), 16u);
  std::stringstream ss(bytes);
  EXPECT_NE(runtime_error_message([&] { read_binary(ss); }).find("truncated"),
            std::string::npos);
}

TEST(TraceIo, SaveLoadPicksFormatByExtension) {
  const auto dir = std::filesystem::temp_directory_path() / "harl_trace_test";
  std::filesystem::create_directories(dir);
  std::vector<TraceRecord> records = {make_record(1, IoOp::kWrite, 42, 4096)};

  const auto csv_path = (dir / "t.csv").string();
  const auto bin_path = (dir / "t.trc").string();
  save_trace(csv_path, records);
  save_trace(bin_path, records);
  EXPECT_EQ(load_trace(csv_path), records);
  EXPECT_EQ(load_trace(bin_path), records);

  // CSV file really is text.
  std::ifstream is(csv_path);
  std::string header;
  std::getline(is, header);
  EXPECT_EQ(header, "pid,rank,fd,op,offset,size,t_start,t_end");
  std::filesystem::remove_all(dir);
}

TEST(Analysis, CharacterizeSplitsReadsAndWrites) {
  std::vector<TraceRecord> records = {
      make_record(0, IoOp::kWrite, 0, 100),
      make_record(0, IoOp::kWrite, 100, 300),
      make_record(0, IoOp::kRead, 400, 50),
  };
  const WorkloadStats stats = characterize(records);
  EXPECT_EQ(stats.total_requests, 3u);
  EXPECT_EQ(stats.write_requests, 2u);
  EXPECT_EQ(stats.read_requests, 1u);
  EXPECT_EQ(stats.write_bytes, 400u);
  EXPECT_EQ(stats.read_bytes, 50u);
  EXPECT_DOUBLE_EQ(stats.request_size.mean, 150.0);
  EXPECT_EQ(stats.min_offset, 0u);
  EXPECT_EQ(stats.max_end, 450u);
}

TEST(Analysis, CharacterizeEmptyTrace) {
  const WorkloadStats stats = characterize({});
  EXPECT_EQ(stats.total_requests, 0u);
  EXPECT_EQ(stats.max_end, 0u);
}

TEST(Analysis, IoPhasesDetectOpSwitches) {
  std::vector<TraceRecord> records = {
      make_record(0, IoOp::kWrite, 0, 10),   make_record(0, IoOp::kWrite, 10, 10),
      make_record(0, IoOp::kRead, 20, 10),   make_record(0, IoOp::kWrite, 30, 10),
      make_record(0, IoOp::kWrite, 40, 10),
  };
  const auto phases = io_phases(records);
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0].op, IoOp::kWrite);
  EXPECT_EQ(phases[0].count, 2u);
  EXPECT_EQ(phases[0].bytes, 20u);
  EXPECT_EQ(phases[1].op, IoOp::kRead);
  EXPECT_EQ(phases[1].count, 1u);
  EXPECT_EQ(phases[2].count, 2u);
  EXPECT_EQ(phases[2].first, 3u);
}

TEST(Analysis, DescribeMentionsKeyNumbers) {
  std::vector<TraceRecord> records = {make_record(0, IoOp::kWrite, 0, MiB)};
  const std::string text = describe(characterize(records));
  EXPECT_NE(text.find("1 writes"), std::string::npos);
  EXPECT_NE(text.find("write 1M"), std::string::npos);
}

}  // namespace
}  // namespace harl::trace

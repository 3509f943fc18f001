// Seeded mutation test of every reader of outside input: trace CSV and
// binary, Plan artifact CSV and binary (from a two-tier and a three-tier
// seed) and the key=value option table.
//
// Each format starts from a valid seed file (the plan encodings from two).
// Every mutant (truncated, bit-flipped, overwritten, fields spliced between
// rows, rows swapped, duplicated or deleted, numeric fields replaced by
// hostile spellings) must either load or throw exactly the reader's one
// error type: std::runtime_error for files, std::invalid_argument for
// options.  A mutant that loads must satisfy the format's invariants, and
// save -> load -> save must reach a byte fixed point.  Seeds are fixed, so a
// failure reproduces from the printed format and mutant index; run under
// ASan/UBSan it also catches reads past a buffer and overflowing arithmetic.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "src/common/config.hpp"
#include "src/core/plan_artifact.hpp"
#include "src/core/rst.hpp"
#include "src/trace/trace_io.hpp"

namespace harl {
namespace {

constexpr int kMutantsPerFormat = 4000;

/// Hostile spellings of a numeric field.
const char* const kBadNumbers[] = {"",    "-1",  "+1",    " 1",
                                   "1x",  "nan", "inf",   "1e999",
                                   "18446744073709551616", "0x10"};

/// Interesting 64-bit words for overwriting binary fields: counts that
/// would size huge allocations, sign and boundary bits, non-finite doubles.
std::uint64_t interesting_word(std::mt19937_64& rng) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::uint64_t words[] = {0,
                                 1,
                                 2,
                                 7,
                                 1u << 28,
                                 std::uint64_t{1} << 40,
                                 std::uint64_t{1} << 63,
                                 ~std::uint64_t{0},
                                 std::bit_cast<std::uint64_t>(nan),
                                 std::bit_cast<std::uint64_t>(inf),
                                 std::bit_cast<std::uint64_t>(-1.0),
                                 std::bit_cast<std::uint64_t>(1.5)};
  return words[rng() % std::size(words)];
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string::npos ? text.size() : nl;
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const auto& line : lines) text += line + '\n';
  return text;
}

/// [begin, end) of every field of `line`, split at any of `delims`.
std::vector<std::pair<std::size_t, std::size_t>> fields_of(
    const std::string& line, const std::string& delims) {
  std::vector<std::pair<std::size_t, std::size_t>> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || delims.find(line[i]) != std::string::npos) {
      fields.emplace_back(start, i);
      start = i + 1;
    }
  }
  return fields;
}

/// One mutation of `bytes`.  Text formats (non-empty `delims`) also get
/// row and field mutations.
std::string mutate_once(std::string bytes, const std::string& delims,
                        std::mt19937_64& rng) {
  const int kinds = delims.empty() ? 4 : 9;
  switch (static_cast<int>(rng() % kinds)) {
    case 0:  // truncate
      bytes.resize(bytes.empty() ? 0 : rng() % bytes.size());
      return bytes;
    case 1:  // flip one bit
      if (!bytes.empty()) bytes[rng() % bytes.size()] ^= char(1 << (rng() % 8));
      return bytes;
    case 2:  // overwrite one byte
      if (!bytes.empty()) bytes[rng() % bytes.size()] = char(rng() % 256);
      return bytes;
    case 3:  // overwrite an 8-byte word (text: an 8-character run)
      if (bytes.size() >= 8) {
        const std::uint64_t word = interesting_word(rng);
        std::memcpy(bytes.data() + rng() % (bytes.size() - 7), &word, 8);
      }
      return bytes;
    default:
      break;
  }
  std::vector<std::string> lines = split_lines(bytes);
  if (lines.empty()) return bytes;
  const std::size_t a = rng() % lines.size();
  const std::size_t b = rng() % lines.size();
  switch (static_cast<int>(rng() % 5)) {
    case 0:  // swap rows
      std::swap(lines[a], lines[b]);
      break;
    case 1:  // duplicate a row
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(a), lines[b]);
      break;
    case 2:  // delete a row
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(a));
      break;
    case 3: {  // splice a field of row b into row a
      const auto to = fields_of(lines[a], delims);
      const auto from = fields_of(lines[b], delims);
      const auto [tb, te] = to[rng() % to.size()];
      const auto [fb, fe] = from[rng() % from.size()];
      lines[a].replace(tb, te - tb, lines[b].substr(fb, fe - fb));
      break;
    }
    default: {  // replace a field by a hostile number
      const auto to = fields_of(lines[a], delims);
      const auto [tb, te] = to[rng() % to.size()];
      lines[a].replace(tb, te - tb, kBadNumbers[rng() % std::size(kBadNumbers)]);
      break;
    }
  }
  return join_lines(lines);
}

/// Runs the mutants of one format.  `F` provides Value, load(bytes),
/// save(value), check(value) (the invariants, via gtest expectations),
/// seed(), kDelims and Error (the one exception type load may throw).
template <typename F>
void run_format(const char* name, std::uint64_t seed) {
  const std::string original = F::seed();
  {
    // The seed itself is valid and already at its fixed point.
    SCOPED_TRACE(std::string(name) + " seed");
    const auto value = F::load(original);
    F::check(value);
    ASSERT_EQ(F::save(value), original);
  }
  std::mt19937_64 rng(seed);
  int loaded = 0;
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    std::string mutant = original;
    for (int m = 1 + static_cast<int>(rng() % 3); m > 0; --m) {
      mutant = mutate_once(std::move(mutant), F::kDelims, rng);
    }
    SCOPED_TRACE(std::string(name) + " mutant " + std::to_string(i));
    typename F::Value value;
    try {
      value = F::load(mutant);
    } catch (const std::exception& e) {
      ASSERT_TRUE(typeid(e) == typeid(typename F::Error))
          << "threw " << typeid(e).name() << ": " << e.what();
      continue;
    } catch (...) {
      FAIL() << "threw a non-std exception";
    }
    ++loaded;
    F::check(value);
    const std::string once = F::save(value);
    const auto again = F::load(once);
    F::check(again);
    ASSERT_EQ(F::save(again), once);
    if (::testing::Test::HasFailure()) return;
  }
  // The mutations must leave some mutants loadable, or the fixed-point
  // half of the oracle never runs.
  EXPECT_GT(loaded, 0) << name;
}

// ------------------------------------------------------------- traces ----

std::vector<trace::TraceRecord> seed_records() {
  std::vector<trace::TraceRecord> records;
  for (std::uint32_t i = 0; i < 6; ++i) {
    trace::TraceRecord r;
    r.pid = 100 + i;
    r.rank = i;
    r.fd = 3;
    r.op = i % 3 == 0 ? IoOp::kWrite : IoOp::kRead;
    r.offset = std::uint64_t{i} * 3 * MiB + 4096;
    r.size = (i + 1) * 64 * KiB;
    r.t_start = 0.25 * i;
    r.t_end = 0.25 * i + 0.1;
    records.push_back(r);
  }
  return records;
}

void check_records(const std::vector<trace::TraceRecord>& records) {
  for (const auto& r : records) {
    EXPECT_TRUE(r.op == IoOp::kRead || r.op == IoOp::kWrite);
    EXPECT_TRUE(std::isfinite(r.t_start) && std::isfinite(r.t_end));
    EXPECT_LE(r.offset, std::numeric_limits<Bytes>::max() - r.size);
  }
}

struct TraceCsv {
  using Value = std::vector<trace::TraceRecord>;
  using Error = std::runtime_error;
  static constexpr const char* kDelims = ",";
  static Value load(const std::string& bytes) {
    std::istringstream is(bytes);
    return trace::read_csv(is);
  }
  static std::string save(const Value& v) {
    std::ostringstream os;
    trace::write_csv(os, v);
    return os.str();
  }
  static void check(const Value& v) { check_records(v); }
  static std::string seed() { return save(seed_records()); }
};

struct TraceBinary {
  using Value = std::vector<trace::TraceRecord>;
  using Error = std::runtime_error;
  static constexpr const char* kDelims = "";
  static Value load(const std::string& bytes) {
    std::istringstream is(bytes);
    return trace::read_binary(is);
  }
  static std::string save(const Value& v) {
    std::ostringstream os;
    trace::write_binary(os, v);
    return os.str();
  }
  static void check(const Value& v) { check_records(v); }
  static std::string seed() { return save(seed_records()); }
};

TEST(InputMutation, TraceCsv) { run_format<TraceCsv>("trace CSV", 11); }
TEST(InputMutation, TraceBinary) { run_format<TraceBinary>("trace binary", 12); }

// ---------------------------------------------------------- Plan artifact --

void check_rst(const core::RegionStripeTable& rst) {
  for (std::size_t i = 0; i < rst.size(); ++i) {
    const core::RstEntry& e = rst.entry(i);
    EXPECT_EQ(e.offset == 0, i == 0);
    if (i > 0) {
      EXPECT_GT(e.offset, rst.entry(i - 1).offset);
    }
    EXPECT_EQ(e.stripes.size(), rst.num_tiers());
    EXPECT_TRUE(e.members.empty() || e.members.size() == e.stripes.size());
  }
}

/// The seed artifact; `Tiers` selects its tier table (2: the paper's shape
/// with a cache section, 3: no cache).  Each has a member-restricted region.
template <int Tiers>
core::PlanArtifact seed_artifact() {
  core::PlanArtifact a;
  a.calibration_fingerprint = 0xfeedfacecafebeefull;
  if (Tiers == 3) {
    a.tier_counts = {4, 2, 2};
    a.device_factors = {{}, {1.0, 1.5}, {1.0, 2.0}};
    a.rst.add(0, {16 * KiB, 64 * KiB, 128 * KiB});
    a.rst.add(64 * MiB, {0, 32 * KiB, 256 * KiB}, {0, 1, 2});
    a.rst.add(96 * MiB, {4 * KiB, 0, 0});
  } else {
    a.tier_counts = {6, 4};
    a.device_factors = {{}, {1.0, 1.0, 2.5, 3.0}};
    a.rst.add(0, {16 * KiB, 64 * KiB});
    a.rst.add(128 * MiB, {0, 128 * KiB}, {0, 2});
    a.rst.add(192 * MiB, {36 * KiB, 144 * KiB});
    a.cache = core::PlanCacheSpec{1, 1, 64 * MiB, MiB,
                                  storage::CachePolicy::kSlru, 0.375};
  }
  a.region_files = {"app.dat.r0", "app.dat.r1", "app.dat.r2"};
  return a;
}

void check_artifact(const core::PlanArtifact& a) {
  const std::size_t k = a.tier_counts.size();
  EXPECT_GE(k, 1u);
  check_rst(a.rst);
  if (!a.rst.empty()) {
    EXPECT_EQ(a.rst.num_tiers(), k);
  }
  EXPECT_TRUE(a.region_files.empty() || a.region_files.size() == a.rst.size());
  if (!a.device_factors.empty()) {
    ASSERT_EQ(a.device_factors.size(), k);
    for (std::size_t j = 0; j < k; ++j) {
      const auto& f = a.device_factors[j];
      EXPECT_TRUE(f.empty() || f.size() == a.tier_counts[j]);
      for (double x : f) EXPECT_TRUE(std::isfinite(x) && x > 0.0);
    }
  }
  if (a.cache) {
    ASSERT_LT(a.cache->tier, k);
    EXPECT_GT(a.cache->devices, 0u);
    EXPECT_LT(a.cache->devices, a.tier_counts[a.cache->tier]);
    EXPECT_GT(a.cache->chunk, 0u);
    EXPECT_GE(a.cache->expected_hit_rate, 0.0);
    EXPECT_LE(a.cache->expected_hit_rate, 1.0);
  }
}

template <int Tiers>
struct PlanCsv {
  using Value = core::PlanArtifact;
  using Error = std::runtime_error;
  static constexpr const char* kDelims = ",";
  static Value load(const std::string& bytes) {
    std::istringstream is(bytes);
    return core::load_plan_csv(is);
  }
  static std::string save(const Value& v) {
    std::ostringstream os;
    core::save_plan_csv(v, os);
    return os.str();
  }
  static void check(const Value& v) { check_artifact(v); }
  static std::string seed() { return save(seed_artifact<Tiers>()); }
};

template <int Tiers>
struct PlanBinary {
  using Value = core::PlanArtifact;
  using Error = std::runtime_error;
  static constexpr const char* kDelims = "";
  static Value load(const std::string& bytes) {
    std::istringstream is(bytes);
    return core::load_plan_binary(is);
  }
  static std::string save(const Value& v) {
    std::ostringstream os;
    core::save_plan_binary(v, os);
    return os.str();
  }
  static void check(const Value& v) { check_artifact(v); }
  static std::string seed() { return save(seed_artifact<Tiers>()); }
};

TEST(InputMutation, PlanCsv) {
  run_format<PlanCsv<2>>("plan CSV", 21);
  run_format<PlanCsv<3>>("plan CSV, three tiers", 23);
}
TEST(InputMutation, PlanBinary) {
  run_format<PlanBinary<2>>("plan binary", 22);
  run_format<PlanBinary<3>>("plan binary, three tiers", 24);
}

// ------------------------------------------------------------- options ----

void check_choice(const std::string& value) {
  if (value != "a" && value != "b") throw std::invalid_argument("not a or b");
}

/// One row of every OptionKind, with ranges and a check.
const OptionSpec kMutationOptions[] = {
    {.name = "count", .kind = OptionKind::kInt, .fallback = "4",
     .help = "int", .min = 1, .max = 1024},
    {.name = "ratio", .kind = OptionKind::kDouble, .fallback = "0.5",
     .help = "double", .min = 0, .max = 1, .min_open = true},
    {.name = "size", .kind = OptionKind::kSize, .fallback = "1M",
     .help = "size", .min = 1},
    {.name = "mode", .kind = OptionKind::kString, .fallback = "a",
     .help = "string", .check = check_choice},
    {.name = "flag", .kind = OptionKind::kFlag, .fallback = "0",
     .help = "flag"},
    {.name = "items", .kind = OptionKind::kList, .fallback = "x,y",
     .help = "list"},
};

/// Options as a file: one key=value argument per line.
struct OptionArgs {
  struct Value {
    std::vector<std::string> args;  ///< the given arguments, canonical
  };
  using Error = std::invalid_argument;
  static constexpr const char* kDelims = "=,";
  static Value load(const std::string& bytes) {
    const Options opts(kMutationOptions, split_lines(bytes));
    Value v;
    for (const OptionSpec& spec : kMutationOptions) {
      if (opts.given(spec.name)) {
        v.args.push_back(std::string(spec.name) + "=" +
                         opts.get_string(spec.name));
      }
    }
    // Every typed getter serves a value inside its row's range.
    const std::int64_t count = opts.get_int("count");
    EXPECT_TRUE(count >= 1 && count <= 1024);
    const double ratio = opts.get_double("ratio");
    EXPECT_TRUE(ratio > 0.0 && ratio <= 1.0);
    EXPECT_GE(opts.get_size("size"), 1u);
    EXPECT_NO_THROW(check_choice(opts.get_string("mode")));
    opts.get_flag("flag");
    for (const auto& item : opts.get_list("items")) EXPECT_FALSE(item.empty());
    return v;
  }
  static std::string save(const Value& v) { return join_lines(v.args); }
  static void check(const Value&) {}
  static std::string seed() {
    return "count=16\nratio=0.25\nsize=64K\nmode=b\nflag=yes\nitems=p,q\n";
  }
};

TEST(InputMutation, Options) { run_format<OptionArgs>("options", 41); }

}  // namespace
}  // namespace harl

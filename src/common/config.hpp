// Key=value configuration parsing for the tools, bench binaries and examples.
//
// The bench harness accepts overrides such as `--harl file_size=1G procs=32`
// so paper-scale and CI-scale runs share one binary.  Values are stored as
// strings and converted on access; byte-size values accept "64K"-style units.
//
// A tool describes its keys once, as a table of OptionSpec rows; Options
// parses arguments against that table (unknown keys, malformed values and
// out-of-range values are errors naming the key), serves each row's default
// when its key is absent, and describe_options() prints the same rows as
// help text.
//
// The file readers decode their fields with the same strict parsers
// (FieldReader for text rows, read_le for binary fields).
#pragma once

#include <bit>
#include <cstdint>
#include <istream>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/units.hpp"

namespace harl {

/// Strict number parsers: the whole text must be one finite number (no
/// trailing characters, no leading whitespace).  Throw std::invalid_argument.
std::int64_t parse_int(std::string_view text);
double parse_double(std::string_view text);
/// Decimal digits only (no sign, no whitespace), at most 2^64 - 1.
std::uint64_t parse_uint(std::string_view text);
/// "1"/"true"/"yes"/"on" or "0"/"false"/"no"/"off", in any case.
bool parse_bool(std::string_view text);
/// Splits comma-separated items; empty items are dropped.
std::vector<std::string> split_list(std::string_view text);

class Config {
 public:
  Config() = default;

  /// Parses entries of the form "key=value"; later duplicates win.
  /// Entries without '=' are rejected with std::invalid_argument.
  static Config from_args(const std::vector<std::string>& args);

  void set(std::string key, std::string value);

  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, std::string fallback) const;
  /// The typed getters consume the whole value and throw
  /// std::invalid_argument naming the key when it does not parse.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  /// Accepts unit suffixes: "64K", "1G", plain bytes.
  Bytes get_size(const std::string& key, Bytes fallback) const;

  const std::map<std::string, std::string>& entries() const { return entries_; }

 private:
  std::map<std::string, std::string> entries_;
};

/// Value syntax of an option: get_int / get_double / get_size / get_bool
/// syntax, free text, or a comma-separated list.
enum class OptionKind { kInt, kDouble, kSize, kString, kFlag, kList };

/// A default that replaces OptionSpec::fallback while `mode` is selected.
struct ModeDefault {
  const char* mode = nullptr;  ///< label, e.g. "files>=1"; help prints it
  const char* value = nullptr;
};

/// One key of a tool's option table, the only place the key is described.
struct OptionSpec {
  const char* name;
  OptionKind kind;
  /// Default, written in the kind's syntax; "" = no default (empty text).
  const char* fallback;
  /// Help text: a summary line, then optional continuation lines.
  const char* help;
  /// Range of numeric kinds, inclusive unless min_open.
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_open = false;
  /// Up to two mode-dependent defaults (see Options::select_mode).
  ModeDefault modes[2] = {};
  /// Validation beyond kind and range; throws std::invalid_argument.
  void (*check)(const std::string& value) = nullptr;
};

/// Arguments parsed against an option table.
class Options {
 public:
  /// Parses key=value `args`; later duplicates win.  Throws
  /// std::invalid_argument naming the key for an unknown key (listing the
  /// valid ones) and for any given value, overridden or not, that does not
  /// parse as its row's kind, lies outside its range or fails its check.
  /// Every default in the table is validated the same way.  `table` must
  /// outlive the Options.
  Options(std::span<const OptionSpec> table,
          const std::vector<std::string>& args);

  /// Returns a command's positional path argument unchanged.  Throws
  /// std::invalid_argument naming it when it has the key=value form of an
  /// option (a key with no '/' before the first '='), so a mistyped
  /// `out=t.trace` is an error instead of a file of that name; "./a=b"
  /// names such a file.
  static const std::string& path(const std::string& arg);

  /// Rows holding a default for `mode` serve it instead of their fallback.
  void select_mode(std::string mode) { mode_ = std::move(mode); }

  /// True when the key was given on the command line.
  bool given(const std::string& key) const;

  std::int64_t get_int(const std::string& key) const {
    return parse_int(text(key));
  }
  double get_double(const std::string& key) const {
    return parse_double(text(key));
  }
  Bytes get_size(const std::string& key) const { return parse_size(text(key)); }
  bool get_flag(const std::string& key) const { return parse_bool(text(key)); }
  std::string get_string(const std::string& key) const { return text(key); }
  std::vector<std::string> get_list(const std::string& key) const {
    return split_list(text(key));
  }

 private:
  /// The row of `key`; an unknown key is an error listing the valid ones.
  const OptionSpec& row(const std::string& key) const;
  /// The given value, else the selected mode's default, else the fallback.
  std::string text(const std::string& key) const;

  std::span<const OptionSpec> table_;
  Config values_;
  std::string mode_;
};

/// Reads the delimited fields of one row of a text input format through the
/// strict parsers above; a missing or extra field is an error.  Errors are
/// std::runtime_error naming format, line and field, e.g.
/// "trace CSV line 3, size: '16x' is not an unsigned integer".
class FieldReader {
 public:
  FieldReader(std::string_view format, std::size_t line, std::string_view row,
              char delimiter = ',')
      : format_(format), line_(line), rest_(row), delimiter_(delimiter) {}

  std::string_view text(std::string_view field);  ///< verbatim
  std::uint64_t u64(std::string_view field,
                    std::uint64_t max = ~std::uint64_t{0});
  double number(std::string_view field);  ///< finite
  /// This field and every later one, delimiters included.
  std::string_view rest(std::string_view field);
  bool more() const { return more_; }  ///< unread fields remain
  void end() const;                    ///< throws if fields remain
  /// "<format> line <n>", the prefix of every error.
  std::string where() const {
    return std::string(format_) + " line " + std::to_string(line_);
  }
  /// Throws "<where>, <field>: <what>".
  [[noreturn]] void fail(std::string_view field, std::string_view what) const;

 private:
  std::string_view format_;
  std::size_t line_;
  std::string_view rest_;
  char delimiter_;
  bool more_ = true;
};

/// Little-endian binary fields: unsigned integers, and doubles as their
/// IEEE-754 bits (LeBits<double>).
template <typename T>
using LeBits = std::conditional_t<std::is_same_v<T, double>, std::uint64_t, T>;

template <typename T>
void write_le(std::ostream& os, T value) {
  char bytes[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>(std::bit_cast<LeBits<T>>(value) >> (8 * i));
  }
  os.write(bytes, sizeof(T));
}

/// Throws std::runtime_error "truncated <format>" when the stream ends early.
template <typename T>
T read_le(std::istream& is, std::string_view format) {
  unsigned char bytes[sizeof(T)];
  if (!is.read(reinterpret_cast<char*>(bytes), sizeof(T))) {
    throw std::runtime_error("truncated " + std::string(format));
  }
  LeBits<T> bits = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bits |= static_cast<LeBits<T>>(LeBits<T>{bytes[i]} << (8 * i));
  }
  return std::bit_cast<T>(bits);
}

/// Help text of `table`: one entry per row, the key at the start of its
/// line followed by the help, every default (per mode) and the range.
std::string describe_options(std::span<const OptionSpec> table);

}  // namespace harl

#include "src/common/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace harl {

namespace {

/// Runs `parse(value)`, prefixing a parse error with the key.
template <typename Parse>
auto parse_value(const std::string& key, const std::string& value,
                 Parse parse) {
  try {
    return parse(value);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(key + ": " + e.what());
  }
}

/// All of `text` as one finite T (from_chars syntax: no leading space or
/// '+', no trailing text), else std::invalid_argument "'text' is not <what>".
template <typename T>
T parse_number(std::string_view text, const char* what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end ||
      !std::isfinite(static_cast<double>(value))) {
    throw std::invalid_argument("'" + std::string(text) + "' is not " + what);
  }
  return value;
}

/// "[0, 1024]", "(0, 1]", ">= 1", "> 0", "<= 8", or "" for no range.
std::string range_text(const OptionSpec& spec) {
  std::ostringstream out;
  if (std::isfinite(spec.min) && std::isfinite(spec.max)) {
    out << (spec.min_open ? '(' : '[') << spec.min << ", " << spec.max << ']';
  } else if (std::isfinite(spec.min)) {
    out << (spec.min_open ? "> " : ">= ") << spec.min;
  } else if (std::isfinite(spec.max)) {
    out << "<= " << spec.max;
  }
  return out.str();
}

/// Checks one value (given or default) of `spec`: its kind's syntax, its
/// check and its range.  Errors name the key.
void validate(const OptionSpec& spec, const std::string& value) {
  const std::string key = spec.name;
  std::optional<double> number;
  parse_value(key, value, [&](const std::string& v) {
    switch (spec.kind) {
      case OptionKind::kInt:
        number = static_cast<double>(parse_int(v));
        break;
      case OptionKind::kDouble:
        number = parse_double(v);
        break;
      case OptionKind::kSize:
        number = static_cast<double>(parse_size(v));
        break;
      case OptionKind::kFlag:
        parse_bool(v);
        break;
      case OptionKind::kString:
      case OptionKind::kList:
        break;
    }
    if (spec.check != nullptr) spec.check(v);
    return 0;
  });
  if (number && !((spec.min_open ? *number > spec.min : *number >= spec.min) &&
                  *number <= spec.max)) {
    const std::string range = range_text(spec);
    const bool interval = range[0] == '[' || range[0] == '(';
    throw std::invalid_argument(key + ": " + value + " must be " +
                                (interval ? "in " : "") + range);
  }
}

}  // namespace

bool parse_bool(std::string_view text) {
  std::string lowered(text);
  std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lowered == "1" || lowered == "true" || lowered == "yes" || lowered == "on") return true;
  if (lowered == "0" || lowered == "false" || lowered == "no" || lowered == "off") return false;
  throw std::invalid_argument("'" + std::string(text) + "' is not a boolean");
}

std::int64_t parse_int(std::string_view text) {
  return parse_number<std::int64_t>(text, "an integer");
}

double parse_double(std::string_view text) {
  return parse_number<double>(text, "a finite number");
}

std::uint64_t parse_uint(std::string_view text) {
  return parse_number<std::uint64_t>(text, "an unsigned integer");
}

std::vector<std::string> split_list(std::string_view text) {
  std::vector<std::string> items;
  std::istringstream in{std::string(text)};
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

Config Config::from_args(const std::vector<std::string>& args) {
  Config cfg;
  for (const auto& arg : args) {
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("config entry must be key=value: " + arg);
    }
    cfg.set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  return cfg;
}

void Config::set(std::string key, std::string value) {
  entries_[std::move(key)] = std::move(value);
}

std::optional<std::string> Config::get(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_or(const std::string& key, std::string fallback) const {
  auto v = get(key);
  return v ? *v : std::move(fallback);
}

std::int64_t Config::get_int(const std::string& key, std::int64_t fallback) const {
  auto v = get(key);
  return v ? parse_value(key, *v, parse_int) : fallback;
}

double Config::get_double(const std::string& key, double fallback) const {
  auto v = get(key);
  return v ? parse_value(key, *v, parse_double) : fallback;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  auto v = get(key);
  return v ? parse_value(key, *v, parse_bool) : fallback;
}

Bytes Config::get_size(const std::string& key, Bytes fallback) const {
  auto v = get(key);
  return v ? parse_value(key, *v,
                         [](const std::string& s) { return parse_size(s); })
           : fallback;
}

Options::Options(std::span<const OptionSpec> table,
                 const std::vector<std::string>& args)
    : table_(table), values_(Config::from_args(args)) {
  // Every argument is checked, also one that a later duplicate overrides.
  for (const auto& arg : args) {
    const std::string key = arg.substr(0, arg.find('='));
    validate(row(key), arg.substr(key.size() + 1));
  }
  for (const OptionSpec& spec : table_) {
    validate(spec, spec.fallback);
    for (const ModeDefault& m : spec.modes) {
      if (m.mode != nullptr) validate(spec, m.value);
    }
  }
}

const std::string& Options::path(const std::string& arg) {
  const auto eq = arg.find('=');
  if (eq != std::string::npos && eq != 0 && arg.find('/') > eq) {
    throw std::invalid_argument("'" + arg +
                                "' is a key=value option where a path "
                                "belongs (write ./" + arg +
                                " for a file of that name)");
  }
  return arg;
}

bool Options::given(const std::string& key) const {
  return values_.get(key).has_value();
}

const OptionSpec& Options::row(const std::string& key) const {
  for (const OptionSpec& spec : table_) {
    if (key == spec.name) return spec;
  }
  std::string valid;
  for (const OptionSpec& spec : table_) {
    valid += (valid.empty() ? "" : ", ") + std::string(spec.name);
  }
  throw std::invalid_argument("unknown option '" + key +
                              "'; valid keys: " + valid);
}

std::string Options::text(const std::string& key) const {
  const OptionSpec& spec = row(key);
  if (auto v = values_.get(key)) return *v;
  for (const ModeDefault& m : spec.modes) {
    if (m.mode != nullptr && mode_ == m.mode) return m.value;
  }
  return spec.fallback;
}

std::string_view FieldReader::text(std::string_view field) {
  if (!more_) fail(field, "missing");
  const std::size_t cut = rest_.find(delimiter_);
  const std::string_view value = rest_.substr(0, cut);
  more_ = cut != std::string_view::npos;
  rest_.remove_prefix(more_ ? cut + 1 : rest_.size());
  return value;
}

std::uint64_t FieldReader::u64(std::string_view field, std::uint64_t max) {
  const std::string_view value = text(field);
  std::uint64_t v = 0;
  try {
    v = parse_uint(value);
  } catch (const std::invalid_argument& e) {
    fail(field, e.what());
  }
  if (v > max) {
    fail(field, std::string(value) + " exceeds " + std::to_string(max));
  }
  return v;
}

double FieldReader::number(std::string_view field) {
  const std::string_view value = text(field);
  try {
    return parse_double(value);
  } catch (const std::invalid_argument& e) {
    fail(field, e.what());
  }
}

std::string_view FieldReader::rest(std::string_view field) {
  if (!more_) fail(field, "missing");
  more_ = false;
  return std::exchange(rest_, {});
}

void FieldReader::end() const {
  if (more_) {
    const std::string_view next = rest_.substr(0, rest_.find(delimiter_));
    throw std::runtime_error(where() + ": unexpected field '" +
                             std::string(next) + "'");
  }
}

void FieldReader::fail(std::string_view field, std::string_view what) const {
  throw std::runtime_error(where() + ", " + std::string(field) + ": " +
                           std::string(what));
}

std::string describe_options(std::span<const OptionSpec> table) {
  std::ostringstream out;
  for (const OptionSpec& spec : table) {
    // "(default, mode: default; range)" closes the help text.
    std::string notes = spec.fallback;
    for (const ModeDefault& m : spec.modes) {
      if (m.mode != nullptr) {
        notes += std::string(", ") + m.mode + ": " + m.value;
      }
    }
    const std::string range = range_text(spec);
    if (!range.empty()) notes += (notes.empty() ? "" : "; ") + range;
    std::string help = spec.help + (notes.empty() ? "" : " (" + notes + ")");
    for (std::size_t nl = help.find('\n'); nl != std::string::npos;
         nl = help.find('\n', nl + 1)) {
      help.insert(nl + 1, std::string(15, ' '));
    }
    const std::string key(spec.name);
    out << "  " << key
        << std::string(key.size() < 13 ? 13 - key.size() : 1, ' ') << help
        << "\n";
  }
  return out.str();
}

}  // namespace harl

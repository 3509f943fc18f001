#include "src/common/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

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
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || text.empty()) {
    throw std::invalid_argument("'" + std::string(text) +
                                "' is not an integer");
  }
  return value;
}

double parse_double(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || text.empty() ||
      !std::isfinite(value)) {
    throw std::invalid_argument("'" + std::string(text) +
                                "' is not a finite number");
  }
  return value;
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

#include "src/obs/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <span>
#include <stdexcept>

namespace harl::obs {

void write_json_string(std::ostream& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out << '"';
  for (char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (byte < 0x20) {
          out << "\\u00" << kHex[byte >> 4] << kHex[byte & 0xF];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

std::ostream& operator<<(std::ostream& out, Real r) {
  char buf[32];  // "%.17g" needs at most 24: sign, 17 digits, '.', e-308
  const auto end = std::to_chars(buf, buf + sizeof buf, r.v,
                                 std::chars_format::general, 17)
                       .ptr;
  return out.write(buf, end - buf);
}

namespace {

bool is_distribution(MetricsRegistry::Kind kind) {
  return kind == MetricsRegistry::Kind::kHistogram ||
         kind == MetricsRegistry::Kind::kSketch;
}

void write_labels(std::ostream& out, const LabelSet& labels) {
  bool first = true;
  auto field = [&](const char* key, bool present, auto&& value) {
    if (!present) return;
    out << (first ? "" : ", ");
    first = false;
    out << '"' << key << "\": " << value;
  };
  out << '{';
  field("server", labels.server_value() != LabelSet::kNone,
        labels.server_value());
  field("tier", labels.tier_value() != 0xFFu, labels.tier_value());
  field("region", labels.region_value() != LabelSet::kNoneRegion,
        labels.region_value());
  field("client", labels.client_value() != LabelSet::kNone,
        labels.client_value());
  field("file", labels.file_value() != LabelSet::kNone, labels.file_value());
  field("tenant", labels.tenant_value() != LabelSet::kNone,
        labels.tenant_value());
  if (labels.has_op()) {
    out << (first ? "" : ", ");
    first = false;
    out << "\"op\": \"" << to_string(labels.op_value()) << '"';
  }
  out << '}';
}

/// kHistogram series export p50/p95/p99; kSketch series add the p999.
void write_distribution(std::ostream& out, const QuantileSketch& s,
                        bool p999) {
  static constexpr double kQs[] = {0.5, 0.95, 0.99, 0.999};
  double q[4];
  const std::size_t n = p999 ? 4 : 3;
  s.quantiles(std::span(kQs, n), std::span(q, n));
  out << "\"count\": " << s.count() << ", \"sum\": " << Real{s.sum()}
      << ", \"min\": " << Real{s.min()} << ", \"max\": " << Real{s.max()}
      << ", \"mean\": " << Real{s.mean()} << ", \"p50\": " << Real{q[0]}
      << ", \"p95\": " << Real{q[1]} << ", \"p99\": " << Real{q[2]};
  if (p999) out << ", \"p999\": " << Real{q[3]};
  out << ", \"buckets\": [";
  bool first = true;
  for (const auto& b : s.buckets()) {
    if (!first) out << ", ";
    first = false;
    out << '[' << Real{b.lo} << ", " << Real{b.hi} << ", " << b.count << ']';
  }
  out << ']';
}

}  // namespace

MetricsRegistry::FamilyId MetricsRegistry::family(std::string_view name,
                                                  Kind kind) {
  if (auto it = by_name_.find(std::string(name)); it != by_name_.end()) {
    if (families_[it->second].kind != kind) {
      throw std::invalid_argument("metric family kind mismatch: " +
                                  std::string(name));
    }
    return it->second;
  }
  const auto id = static_cast<FamilyId>(families_.size());
  Family f;
  f.name = std::string(name);
  f.kind = kind;
  families_.push_back(std::move(f));
  by_name_.emplace(std::string(name), id);
  return id;
}

MetricsRegistry::Series MetricsRegistry::series(FamilyId family,
                                                LabelSet labels) {
  Family& f = families_.at(family);
  const bool distribution = is_distribution(f.kind);
  const std::size_t next = distribution ? f.sketches.size() : f.scalars.size();
  auto [it, inserted] =
      f.series.try_emplace(SeriesKey{labels.bits(), labels.ext_bits()}, next);
  if (inserted) {
    if (distribution) {
      f.sketches.emplace_back(f.kind == Kind::kHistogram ? kHistogramSubBits
                                                         : kSketchSubBits);
    } else {
      f.scalars.push_back(0.0);
    }
  }
  return Series{family, static_cast<std::uint32_t>(it->second)};
}

void MetricsRegistry::add(FamilyId family, LabelSet labels, double delta) {
  add(series(family, labels), delta);
}

void MetricsRegistry::set(FamilyId family, LabelSet labels, double value) {
  const Series s = series(family, labels);
  families_[family].scalars[s.index] = value;
}

void MetricsRegistry::set_max(FamilyId family, LabelSet labels, double value) {
  const Series s = series(family, labels);
  double& slot = families_[family].scalars[s.index];
  slot = std::max(slot, value);
}

void MetricsRegistry::observe(FamilyId family, LabelSet labels, double value) {
  observe(series(family, labels), value);
}

MetricsRegistry::Family* MetricsRegistry::find(std::string_view name) {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? nullptr : &families_[it->second];
}

const MetricsRegistry::Family* MetricsRegistry::find(
    std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? nullptr : &families_[it->second];
}

double MetricsRegistry::value(std::string_view name, LabelSet labels) const {
  const Family* f = find(name);
  if (f == nullptr) return 0.0;
  auto it = f->series.find(SeriesKey{labels.bits(), labels.ext_bits()});
  if (it == f->series.end() ||
      (f->kind != Kind::kCounter && f->kind != Kind::kGauge)) {
    return 0.0;
  }
  return f->scalars[it->second];
}

const QuantileSketch* MetricsRegistry::sketch(std::string_view name,
                                              LabelSet labels) const {
  const Family* f = find(name);
  if (f == nullptr || !is_distribution(f->kind)) return nullptr;
  auto it = f->series.find(SeriesKey{labels.bits(), labels.ext_bits()});
  return it == f->series.end() ? nullptr : &f->sketches[it->second];
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const Family& of : other.families_) {
    const FamilyId id = family(of.name, of.kind);
    Family& f = families_[id];
    // Deterministic order: sort the other side's series by label bits so the
    // merged registry's series insertion order never depends on hash layout.
    std::vector<std::pair<SeriesKey, std::size_t>> entries(of.series.begin(),
                                                           of.series.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, idx] : entries) {
      const std::size_t mine =
          series(id, LabelSet::from_bits(key.bits, key.ext)).index;
      switch (f.kind) {
        case Kind::kCounter:
          f.scalars[mine] += of.scalars[idx];
          break;
        case Kind::kGauge:
          f.scalars[mine] = std::max(f.scalars[mine], of.scalars[idx]);
          break;
        case Kind::kHistogram:
        case Kind::kSketch:
          f.sketches[mine].merge(of.sketches[idx]);
          break;
      }
    }
  }
}

void MetricsRegistry::write_json(std::ostream& out, int indent) const {
  out.precision(17);  // round-trip doubles: 6 digits would corrupt merges
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::vector<std::size_t> order(families_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return families_[a].name < families_[b].name;
  });

  out << "[";
  bool first_series = true;
  for (std::size_t fi : order) {
    const Family& f = families_[fi];
    std::vector<std::pair<SeriesKey, std::size_t>> entries(f.series.begin(),
                                                           f.series.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, idx] : entries) {
      if (!first_series) out << ",";
      first_series = false;
      out << "\n" << pad << "  {\"name\": ";
      write_json_string(out, f.name);
      out << ", \"type\": \""
          << (f.kind == Kind::kCounter
                  ? "counter"
                  : f.kind == Kind::kGauge
                        ? "gauge"
                        : f.kind == Kind::kSketch ? "sketch" : "histogram")
          << "\", \"labels\": ";
      write_labels(out, LabelSet::from_bits(key.bits, key.ext));
      out << ", ";
      if (is_distribution(f.kind)) {
        write_distribution(out, f.sketches[idx], f.kind == Kind::kSketch);
      } else {
        out << "\"value\": " << Real{f.scalars[idx]};
      }
      out << '}';
    }
  }
  out << "\n" << pad << "]";
}

}  // namespace harl::obs

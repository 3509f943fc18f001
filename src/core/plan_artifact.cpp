#include "src/core/plan_artifact.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "src/common/config.hpp"

namespace harl::core {

namespace {

constexpr char kMagic[8] = {'H', 'A', 'R', 'L', 'P', 'L', 'A', 'N'};
/// Marker of the optional trailing cache section (cache-aware plans only).
constexpr char kCacheMagic[8] = {'H', 'A', 'R', 'L', 'C', 'A', 'C', 'H'};
constexpr char kCsvHeader[] = "harl-plan-csv-v1";
constexpr char kBinaryFormat[] = "plan artifact";
constexpr char kCsvFormat[] = "plan CSV";
/// Guards against corrupt length fields that size an allocation before the
/// bytes behind them are read; generous compared to any realistic cluster
/// (tiers) or file name.
constexpr std::uint64_t kMaxTiers = 1024;
constexpr std::uint32_t kMaxNameLength = 1u << 16;

/// The RST and the device table match the tier table, the R2F names the RST.
void check_shape(const PlanArtifact& artifact) {
  if (!artifact.rst.empty() &&
      artifact.rst.num_tiers() != artifact.tier_counts.size()) {
    throw std::runtime_error("plan artifact RST does not match tier table");
  }
  if (!artifact.region_files.empty() &&
      artifact.region_files.size() != artifact.rst.size()) {
    throw std::runtime_error("plan artifact R2F size does not match RST");
  }
  if (artifact.device_factors.empty()) return;
  if (artifact.device_factors.size() != artifact.tier_counts.size()) {
    throw std::runtime_error(
        "plan artifact device table does not match tier table");
  }
  for (std::size_t j = 0; j < artifact.device_factors.size(); ++j) {
    const auto& f = artifact.device_factors[j];
    if (!f.empty() && f.size() != artifact.tier_counts[j]) {
      throw std::runtime_error(
          "plan artifact device table does not match tier counts");
    }
  }
}

/// A loaded cache reservation must fit the tier table: an existing tier
/// keeps at least one device unreserved, chunks are nonzero and the hit
/// rate is a fraction.
void check_cache(const PlanCacheSpec& spec, const PlanArtifact& artifact,
                 const std::string& where) {
  if (spec.tier >= artifact.tier_counts.size() || spec.devices == 0 ||
      spec.devices >= artifact.tier_counts[spec.tier] || spec.chunk == 0 ||
      !(spec.expected_hit_rate >= 0.0 && spec.expected_hit_rate <= 1.0)) {
    throw std::runtime_error(where + ": corrupt cache reservation");
  }
}

/// Adds loaded regions to the RST; RegionStripeTable::add's rejection
/// becomes the readers' one error type, naming the region's line or index.
void add_regions(PlanArtifact& artifact, std::vector<RstEntry>& entries,
                 const std::vector<std::string>& where) {
  for (std::size_t r = 0; r < entries.size(); ++r) {
    try {
      artifact.rst.add(entries[r].offset, std::move(entries[r].stripes),
                       std::move(entries[r].members));
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(where[r] + ": " + e.what());
    }
  }
}

/// Whether the artifact carries any device information (and thus needs the
/// version-2 encoding).
bool has_device_info(const PlanArtifact& artifact) {
  for (const auto& f : artifact.device_factors) {
    if (!f.empty()) return true;
  }
  for (const RstEntry& e : artifact.rst.entries()) {
    if (!e.members.empty()) return true;
  }
  return false;
}

}  // namespace

PlanArtifact PlanArtifact::from_plan(const Plan& plan) {
  PlanArtifact artifact;
  artifact.tier_counts = plan.tier_counts;
  artifact.calibration_fingerprint = plan.calibration_fingerprint;
  artifact.device_factors = plan.device_factors;
  artifact.rst = plan.rst;
  artifact.cache = plan.cache;
  return artifact;
}

void save_plan_binary(const PlanArtifact& artifact, std::ostream& os) {
  check_shape(artifact);
  // Version 2 only when device information is present: homogeneous plans
  // stay byte-identical to the pre-device-model version-1 encoding.
  const bool v2 = has_device_info(artifact);
  os.write(kMagic, sizeof(kMagic));
  write_le<std::uint32_t>(os, v2 ? 2 : 1);
  write_le(os, static_cast<std::uint32_t>(artifact.tier_counts.size()));
  write_le<std::uint64_t>(os, artifact.calibration_fingerprint);
  for (std::size_t c : artifact.tier_counts) write_le<std::uint64_t>(os, c);
  write_le<std::uint64_t>(os, artifact.rst.size());
  for (const RstEntry& e : artifact.rst.entries()) {
    write_le<std::uint64_t>(os, e.offset);
    for (Bytes s : e.stripes) write_le<std::uint64_t>(os, s);
  }
  write_le<std::uint64_t>(os, artifact.region_files.size());
  for (const std::string& name : artifact.region_files) {
    write_le(os, static_cast<std::uint32_t>(name.size()));
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
  }
  if (v2) {
    // Device table: one row per tier — factor count (0 = homogeneous tier)
    // then each factor's IEEE-754 bit pattern.
    for (std::size_t j = 0; j < artifact.tier_counts.size(); ++j) {
      const std::vector<double>& f = artifact.device_factors.empty()
                                         ? std::vector<double>{}
                                         : artifact.device_factors[j];
      write_le<std::uint64_t>(os, f.size());
      for (double v : f) write_le(os, v);
    }
    // Member section: flag, then per region the k member counts (all zeros
    // = unrestricted region).
    bool any_members = false;
    for (const RstEntry& e : artifact.rst.entries()) {
      if (!e.members.empty()) any_members = true;
    }
    write_le<std::uint64_t>(os, any_members ? 1 : 0);
    if (any_members) {
      for (const RstEntry& e : artifact.rst.entries()) {
        for (std::size_t j = 0; j < artifact.tier_counts.size(); ++j) {
          write_le<std::uint64_t>(os, e.members.empty() ? 0 : e.members[j]);
        }
      }
    }
  }
  if (artifact.cache) {
    // Optional trailing section (does not bump the version — readers that
    // stop after the sections above simply never see it).
    os.write(kCacheMagic, sizeof(kCacheMagic));
    write_le<std::uint64_t>(os, artifact.cache->tier);
    write_le<std::uint64_t>(os, artifact.cache->devices);
    write_le<std::uint64_t>(os, artifact.cache->budget);
    write_le<std::uint64_t>(os, artifact.cache->chunk);
    write_le<std::uint32_t>(
        os, artifact.cache->policy == storage::CachePolicy::kSlru ? 1 : 0);
    write_le(os, artifact.cache->expected_hit_rate);
  }
  if (!os) throw std::runtime_error("plan artifact write failed");
}

PlanArtifact load_plan_binary(std::istream& is) {
  char magic[sizeof(kMagic)];
  if (!is.read(magic, sizeof(magic)) ||
      !std::equal(std::begin(magic), std::end(magic), std::begin(kMagic))) {
    throw std::runtime_error("bad plan artifact magic");
  }
  const auto u32 = [&is] { return read_le<std::uint32_t>(is, kBinaryFormat); };
  const auto u64 = [&is] { return read_le<std::uint64_t>(is, kBinaryFormat); };
  const std::uint32_t version = u32();
  if (version != 1 && version != 2) {
    throw std::runtime_error("unsupported plan artifact version " +
                             std::to_string(version));
  }
  const std::uint64_t k = u32();
  if (k == 0 || k > kMaxTiers) {
    throw std::runtime_error("corrupt plan artifact tier count");
  }
  PlanArtifact artifact;
  artifact.calibration_fingerprint = u64();
  for (std::uint64_t j = 0; j < k; ++j) artifact.tier_counts.push_back(u64());
  // Counts size nothing: regions, names and factors are appended as their
  // bytes arrive, so a corrupt count ends in "truncated".  Regions wait for
  // the (version-2) member section before they enter the RST.
  const std::uint64_t regions = u64();
  std::vector<RstEntry> entries;
  std::vector<std::string> where;
  for (std::uint64_t r = 0; r < regions; ++r) {
    RstEntry& e = entries.emplace_back();
    e.offset = u64();
    for (std::uint64_t j = 0; j < k; ++j) e.stripes.push_back(u64());
    where.push_back("plan artifact region " + std::to_string(r));
  }
  const std::uint64_t files = u64();
  for (std::uint64_t f = 0; f < files; ++f) {
    const std::uint32_t len = u32();
    if (len > kMaxNameLength) {
      throw std::runtime_error("corrupt plan artifact file name");
    }
    std::string name(len, '\0');
    if (!is.read(name.data(), len)) {
      throw std::runtime_error("truncated plan artifact");
    }
    artifact.region_files.push_back(std::move(name));
  }
  if (version >= 2) {
    for (std::uint64_t j = 0; j < k; ++j) {
      std::vector<double> factors;
      for (std::uint64_t i = 0, count = u64(); i < count; ++i) {
        factors.push_back(read_le<double>(is, kBinaryFormat));
        if (!storage::valid_device_factor(factors.back())) {
          throw std::runtime_error("plan artifact tier " + std::to_string(j) +
                                   ": device factor is not finite and > 0");
        }
      }
      if (artifact.device_factors.empty() && !factors.empty()) {
        artifact.device_factors.resize(k);
      }
      if (!artifact.device_factors.empty()) {
        artifact.device_factors[j] = std::move(factors);
      }
    }
    const std::uint64_t any_members = u64();
    if (any_members > 1) {
      throw std::runtime_error("corrupt plan artifact member section");
    }
    if (any_members == 1) {
      for (RstEntry& e : entries) {
        for (std::uint64_t j = 0; j < k; ++j) e.members.push_back(u64());
      }
    }
  }
  add_regions(artifact, entries, where);
  // Optional trailing cache section; EOF here is the cache-less case.
  if (is.peek() != std::istream::traits_type::eof()) {
    char cache_magic[sizeof(kCacheMagic)];
    if (!is.read(cache_magic, sizeof(cache_magic))) {
      throw std::runtime_error("truncated plan artifact");
    }
    if (!std::equal(std::begin(cache_magic), std::end(cache_magic),
                    std::begin(kCacheMagic))) {
      throw std::runtime_error("bad plan artifact cache section magic");
    }
    PlanCacheSpec spec;
    spec.tier = u64();
    spec.devices = u64();
    spec.budget = u64();
    spec.chunk = u64();
    const std::uint32_t policy = u32();
    if (policy > 1) {
      throw std::runtime_error("corrupt plan artifact cache policy");
    }
    spec.policy =
        policy == 1 ? storage::CachePolicy::kSlru : storage::CachePolicy::kLru;
    spec.expected_hit_rate = read_le<double>(is, kBinaryFormat);
    check_cache(spec, artifact, "plan artifact cache section");
    artifact.cache = spec;
  }
  check_shape(artifact);
  return artifact;
}

void save_plan_csv(const PlanArtifact& artifact, std::ostream& os) {
  check_shape(artifact);
  os << kCsvHeader << '\n';
  os << "fingerprint," << artifact.calibration_fingerprint << '\n';
  os << "tiers";
  for (std::size_t c : artifact.tier_counts) os << ',' << c;
  os << '\n';
  // Device rows appear only for heterogeneous tiers, so homogeneous plans
  // stay byte-identical to the pre-device-model output.
  for (std::size_t j = 0; j < artifact.device_factors.size(); ++j) {
    if (artifact.device_factors[j].empty()) continue;
    os << "devtier," << j;
    const auto old_precision = os.precision(17);
    for (double f : artifact.device_factors[j]) os << ',' << f;
    os.precision(old_precision);
    os << '\n';
  }
  std::size_t region_index = 0;
  for (const RstEntry& e : artifact.rst.entries()) {
    os << "region," << e.offset;
    for (Bytes s : e.stripes) os << ',' << s;
    os << '\n';
    if (!e.members.empty()) {
      os << "members," << region_index;
      for (std::size_t m : e.members) os << ',' << m;
      os << '\n';
    }
    ++region_index;
  }
  for (std::size_t i = 0; i < artifact.region_files.size(); ++i) {
    os << "file," << i << ',' << artifact.region_files[i] << '\n';
  }
  if (artifact.cache) {
    // Optional trailing row, mirroring the binary cache section.
    const auto old_precision = os.precision(17);
    os << "cache," << artifact.cache->tier << ',' << artifact.cache->devices
       << ',' << artifact.cache->budget << ',' << artifact.cache->chunk << ','
       << to_string(artifact.cache->policy) << ','
       << artifact.cache->expected_hit_rate << '\n';
    os.precision(old_precision);
  }
  if (!os) throw std::runtime_error("plan artifact write failed");
}

PlanArtifact load_plan_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kCsvHeader) {
    throw std::runtime_error("bad plan artifact CSV header");
  }
  PlanArtifact artifact;
  bool saw_fingerprint = false;
  // Region rows are buffered so "members" rows (which follow their region
  // row) can be attached before the RST is assembled.
  std::vector<RstEntry> entries;
  std::vector<std::string> where;
  for (std::size_t n = 2; std::getline(is, line); ++n) {
    if (line.empty()) continue;
    FieldReader row(kCsvFormat, n, line);
    const std::string kind(row.text("row"));
    const std::size_t k = artifact.tier_counts.size();
    if (k == 0 && kind != "fingerprint" && kind != "tiers") {
      row.fail("row", kind + " row before tiers row");
    }
    if (kind == "fingerprint") {
      artifact.calibration_fingerprint = row.u64("fingerprint");
      saw_fingerprint = true;
    } else if (kind == "tiers") {
      if (k > 0) row.fail("row", "tiers row repeated");
      while (row.more() && artifact.tier_counts.size() < kMaxTiers) {
        artifact.tier_counts.push_back(row.u64("tier count"));
      }
    } else if (kind == "region") {
      RstEntry& e = entries.emplace_back();
      e.offset = row.u64("offset");
      for (std::size_t j = 0; j < k; ++j) {
        e.stripes.push_back(row.u64("stripe"));
      }
      where.push_back(row.where());
    } else if (kind == "devtier") {
      const std::uint64_t j = row.u64("tier", k - 1);
      std::vector<double> factors;
      do {
        factors.push_back(row.number("factor"));
        if (!storage::valid_device_factor(factors.back())) {
          row.fail("factor", "must be > 0");
        }
      } while (row.more());
      artifact.device_factors.resize(k);
      artifact.device_factors[j] = std::move(factors);
    } else if (kind == "members") {
      const std::uint64_t index = row.u64("region");
      if (index >= entries.size()) row.fail("region", "no such region row");
      entries[index].members.clear();
      for (std::size_t j = 0; j < k; ++j) {
        entries[index].members.push_back(row.u64("member"));
      }
    } else if (kind == "cache") {
      PlanCacheSpec spec;
      spec.tier = row.u64("tier");
      spec.devices = row.u64("devices");
      spec.budget = row.u64("budget");
      spec.chunk = row.u64("chunk");
      try {
        spec.policy = storage::parse_cache_policy(row.text("policy"));
      } catch (const std::invalid_argument& e) {
        row.fail("policy", e.what());
      }
      spec.expected_hit_rate = row.number("hit rate");
      check_cache(spec, artifact, row.where());
      artifact.cache = spec;
    } else if (kind == "file") {
      if (row.u64("region") != artifact.region_files.size()) {
        row.fail("region", "file rows out of order");
      }
      artifact.region_files.emplace_back(row.rest("name"));
    } else {
      row.fail("row", "unknown row kind '" + kind + "'");
    }
    row.end();
  }
  if (!saw_fingerprint || artifact.tier_counts.empty()) {
    throw std::runtime_error("plan artifact CSV missing header rows");
  }
  add_regions(artifact, entries, where);
  check_shape(artifact);
  return artifact;
}

void save_plan(const PlanArtifact& artifact, const std::string& path) {
  const bool csv = path.ends_with(".csv");
  std::ofstream os(path, csv ? std::ios::out : std::ios::out | std::ios::binary);
  if (!os) throw std::runtime_error("cannot open plan artifact for write: " + path);
  csv ? save_plan_csv(artifact, os) : save_plan_binary(artifact, os);
}

PlanArtifact load_plan(const std::string& path) {
  std::ifstream is(path, std::ios::in | std::ios::binary);
  if (!is) throw std::runtime_error("cannot open plan artifact: " + path);
  // Sniff: binary artifacts start with the magic "HARLPLAN", CSV ones with
  // the header "harl-plan-csv-v1".
  return is.peek() == 'H' ? load_plan_binary(is) : load_plan_csv(is);
}

}  // namespace harl::core

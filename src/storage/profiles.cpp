#include "src/storage/profiles.hpp"

#include <algorithm>
#include <cmath>

namespace harl::storage {

namespace {

OpProfile scaled_op(const OpProfile& p, double f) {
  return OpProfile{p.startup_min * f, p.startup_max * f, p.per_byte * f};
}

}  // namespace

TierProfile scaled_profile(const TierProfile& p, double speed_factor) {
  TierProfile out;
  out.name = p.name;
  out.read = scaled_op(p.read, speed_factor);
  out.write = scaled_op(p.write, speed_factor);
  return out;
}

DeviceProfile make_device_profile(const TierProfile& tier, std::size_t index,
                                  double speed_factor) {
  DeviceProfile d;
  d.name = tier.name + std::to_string(index);
  d.speed_factor = speed_factor;
  d.profile = scaled_profile(tier, speed_factor);
  return d;
}

bool valid_device_factor(double factor) {
  return std::isfinite(factor) && factor > 0.0;
}

void canonicalize_device_factors(std::vector<double>& factors) {
  std::sort(factors.begin(), factors.end());
  if (std::all_of(factors.begin(), factors.end(),
                  [](double f) { return f == 1.0; })) {
    factors.clear();
  }
}

double worst_device_factor(std::span<const double> factors,
                           std::size_t members) {
  if (factors.empty() || members == 0) return 1.0;
  return factors[std::min(members, factors.size()) - 1];
}

double mean_device_factor(std::span<const double> factors,
                          std::size_t members) {
  if (factors.empty() || members == 0) return 1.0;
  const std::size_t n = std::min(members, factors.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += factors[i];
  return sum / static_cast<double>(n);
}

namespace {
constexpr double mbps(double megabytes_per_second) {
  // Seconds per byte for a given MB/s media rate.
  return 1.0 / (megabytes_per_second * 1024.0 * 1024.0);
}
constexpr Seconds us(double microseconds) { return microseconds * 1e-6; }
constexpr Seconds ms(double milliseconds) { return milliseconds * 1e-3; }
}  // namespace

TierProfile hdd_profile() {
  TierProfile p;
  p.name = "hdd";
  // Effective server-level behaviour of a 2009-era 250 GB SATA drive under
  // a PFS server stack (filesystem + kernel + OrangeFS overhead): sustained
  // rate far below the raw media rate, positioning from track-to-track up to
  // short-stroke seeks.  Calibrated so the default 64 KiB layout reproduces
  // the paper's Fig. 1a imbalance (HServers ~3.5x SServer I/O time).
  // Single-stream sequential access (how the paper measures its model
  // parameters) sees only the sequential fraction of the startup window.
  p.read = OpProfile{ms(0.15), ms(0.9), mbps(35.0)};
  p.write = OpProfile{ms(0.18), ms(1.0), mbps(32.0)};
  return p;
}

TierProfile pcie_ssd_profile() {
  TierProfile p;
  p.name = "pcie_ssd";
  p.read = OpProfile{us(25.0), us(120.0), mbps(520.0)};
  // Writes pay for garbage collection and wear leveling: larger, more
  // variable startup and a lower sustained rate (paper Section III-D).
  p.write = OpProfile{us(60.0), us(350.0), mbps(330.0)};
  return p;
}

TierProfile sata_ssd_profile() {
  TierProfile p;
  p.name = "sata_ssd";
  p.read = OpProfile{us(60.0), us(200.0), mbps(250.0)};
  p.write = OpProfile{us(90.0), us(450.0), mbps(180.0)};
  return p;
}

TierProfile nvme_ssd_profile() {
  TierProfile p;
  p.name = "nvme_ssd";
  p.read = OpProfile{us(10.0), us(60.0), mbps(1800.0)};
  p.write = OpProfile{us(20.0), us(150.0), mbps(1200.0)};
  return p;
}

}  // namespace harl::storage

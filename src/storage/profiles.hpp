// Storage tier parameter sets (paper Table I, "Storage Parameters").
//
// A `TierProfile` carries, per operation type, the uniform startup-latency
// window [alpha_min, alpha_max] and the per-byte transfer time beta.  The
// paper gives HServers one (read==write) profile and SServers asymmetric
// read/write profiles; we keep both operations explicit for every tier so the
// model generalizes to the multi-tier extension.
//
// The preset constants are *calibrated* to 2009-era devices behind Gigabit
// Ethernet so the simulated system reproduces the paper's observed ratios
// (e.g. HServers ~3.5x slower than SServers under the default 64 KiB layout,
// Fig. 1a).  They are defaults, not baked-in: every component takes a profile.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/common/io.hpp"
#include "src/common/units.hpp"

namespace harl::storage {

/// Startup window and transfer rate for one operation direction.
struct OpProfile {
  Seconds startup_min = 0.0;   ///< alpha^min
  Seconds startup_max = 0.0;   ///< alpha^max
  Seconds per_byte = 0.0;      ///< beta, seconds per byte

  /// Mean startup of a single access: midpoint of the uniform window.
  Seconds startup_mean() const { return 0.5 * (startup_min + startup_max); }
};

/// Full performance profile of a storage tier.
struct TierProfile {
  std::string name;
  OpProfile read;
  OpProfile write;

  const OpProfile& op(IoOp o) const { return o == IoOp::kRead ? read : write; }
};

/// One concrete server's device: a tier profile degraded (or improved) by a
/// per-device speed factor.  The factor is a *time multiplier* — 1.0 is a
/// fresh device matching the tier profile, 2.0 takes twice as long per
/// access (an aged SSD, a worn disk).  A tier whose members all carry factor
/// 1.0 is exactly the homogeneous tier the paper models.
struct DeviceProfile {
  std::string name;           ///< e.g. "sserver1"
  double speed_factor = 1.0;  ///< time multiplier vs the tier profile
  TierProfile profile;        ///< the already-scaled per-op parameters
};

/// The tier profile with every time parameter (startup window and per-byte
/// time) multiplied by `speed_factor`.  scaled_profile(p, 1.0) is bit-equal
/// to p (IEEE multiplication by 1.0 is exact for finite values).
TierProfile scaled_profile(const TierProfile& p, double speed_factor);

/// Builds the device profile of one tier member.
DeviceProfile make_device_profile(const TierProfile& tier, std::size_t index,
                                  double speed_factor);

/// Whether `factor` can scale a device: finite and > 0.  Every source of
/// factors (cluster config, Plan artifacts, the aging= option) checks it.
bool valid_device_factor(double factor);

/// Canonicalizes a per-device factor vector in place: sorts ascending
/// (fastest member first — the slot order the planner's member-prefix
/// candidates and the cluster's server construction both use) and clears
/// the vector entirely when every factor is 1.0, so the homogeneous case is
/// always represented by the empty vector.
void canonicalize_device_factors(std::vector<double>& factors);

/// The worst (largest) factor among the first `members` devices of a
/// canonical (ascending) factor vector; 1.0 for an empty vector or zero
/// members.
double worst_device_factor(std::span<const double> factors,
                           std::size_t members);

/// The mean factor among the first `members` devices of a canonical
/// (ascending) factor vector; 1.0 for an empty vector or zero members.
/// The throughput (busy-time) analogue of worst_device_factor: a bandwidth
/// bound cares about aggregate service rate, not the straggler.
double mean_device_factor(std::span<const double> factors,
                          std::size_t members);

/// 7200-rpm SATA HDD (HServer default): multi-millisecond positioning,
/// ~100 MB/s media rate, read ~= write.
TierProfile hdd_profile();

/// PCIe x4 SSD (SServer default): tens-of-microsecond startup, read faster
/// than write (garbage collection / wear-leveling overhead on writes).
TierProfile pcie_ssd_profile();

/// SATA SSD: between HDD and PCIe SSD; used by the multi-tier extension.
TierProfile sata_ssd_profile();

/// Modern NVMe drive; used by the multi-tier extension experiments.
TierProfile nvme_ssd_profile();

}  // namespace harl::storage

// The serialized Plan artifact: HARL's hand-off from the Analysis Phase to
// the Placing Phase (paper Fig. 3), as one self-describing file.
//
// An artifact carries everything the Placing Phase needs to install a layout
// without re-running analysis: the per-tier server counts the plan was
// computed for, the calibration fingerprint (params_fingerprint) so a stale
// plan is detected, the Region Stripe Table, and (optionally) the R2F
// region-to-file names the middleware assigned.  Analysis and Placing can
// therefore run as separate processes: `harl_sim save-plan=` writes the
// artifact and `harl_sim load-plan=` installs it.
//
// Two encodings share one logical schema:
//  * binary — magic "HARLPLAN", little-endian, versioned; the compact form.
//  * CSV    — header "harl-plan-csv-v1"; the inspectable/diffable form.
// save_plan()/load_plan() pick by file extension (".csv") and magic sniffing
// respectively.
//
// Compatibility rule: the version is bumped only for incompatible schema
// changes; readers reject artifacts whose version (or magic/header) they do
// not know, rather than guessing.  Adding optional trailing sections is a
// compatible change and does not bump the version.
//
// Loaders throw std::runtime_error, and only that, on malformed input
// (a region the RST rejects included), naming the CSV line and field or
// the binary section.  Fields are strict (harl::FieldReader, read_le),
// device factors finite and > 0, the cache hit rate in [0, 1]; no count
// sizes an allocation (a file name is capped at 64 KiB).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/core/planner.hpp"
#include "src/core/rst.hpp"

namespace harl::core {

/// Current binary schema version.  Version 1 is the pre-device-model
/// format; version 2 appends a per-tier device-factor table and a
/// per-region member section.  Writers emit version 1 byte-identically
/// whenever the plan carries no device information, so homogeneous plans
/// round-trip with version-1 readers; readers accept both versions (a v1
/// artifact loads with all factors defaulting to 1.0, i.e. empty).
inline constexpr std::uint32_t kPlanArtifactVersion = 2;

struct PlanArtifact {
  std::vector<std::size_t> tier_counts;   ///< servers per tier, in order
  std::uint64_t calibration_fingerprint = 0;
  /// Per-tier device speed factors the plan assumed (canonical ascending;
  /// empty inner vector = homogeneous tier; empty outer vector = no device
  /// model, the only form version-1 artifacts can express).  When non-empty
  /// the outer size must equal tier_counts.size() and each non-empty inner
  /// vector's size the tier's count.
  std::vector<std::vector<double>> device_factors;
  RegionStripeTable rst;
  /// R2F: physical file name per RST region (paper Fig. 6's Region-to-File
  /// table).  Either empty (not yet placed) or exactly rst.size() entries.
  std::vector<std::string> region_files;
  /// Cache reservation of a cache-aware plan (Plan::cache).  Serialized as
  /// an optional *trailing* section in both encodings, so cache-less
  /// artifacts stay byte-identical to the pre-cache formats and old readers
  /// reject nothing they used to accept.
  std::optional<PlanCacheSpec> cache;

  /// Snapshot of an Analysis Phase result (region_files left empty; the
  /// Placing Phase fills them when it installs the plan).
  static PlanArtifact from_plan(const Plan& plan);
};

/// Binary encoding.  Throws std::runtime_error on truncated or corrupt
/// input and on version mismatch.
void save_plan_binary(const PlanArtifact& artifact, std::ostream& os);
PlanArtifact load_plan_binary(std::istream& is);

/// CSV encoding (one "region,offset,s_0,...,s_{k-1}" row per RST entry).
void save_plan_csv(const PlanArtifact& artifact, std::ostream& os);
PlanArtifact load_plan_csv(std::istream& is);

/// Path-based convenience: a ".csv" suffix selects the CSV encoding on
/// save; load() sniffs the leading bytes and accepts either encoding.
void save_plan(const PlanArtifact& artifact, const std::string& path);
PlanArtifact load_plan(const std::string& path);

}  // namespace harl::core

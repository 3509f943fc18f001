// Layout schemes compared in the paper's evaluation.
//
//  * fixed   — one stripe size for every server and the whole file
//              (the conventional layout; 64K is the OrangeFS default)
//  * random  — per-server stripe sizes drawn at random (the paper's
//              "randomly-chosen stripe" strategy)
//  * HARL    — trace -> Algorithm 1 regions -> Algorithm 2 stripes -> RST
//  * HARL-file    — ablation: heterogeneity-aware stripes, single region
//  * segment-level — ablation: Algorithm 1 regions, homogeneous stripes
//                    (the segment-level scheme the paper cites as [10])
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "src/core/planner.hpp"
#include "src/pfs/cluster.hpp"
#include "src/pfs/layout.hpp"
#include "src/pfs/region_layout.hpp"
#include "src/trace/record.hpp"

namespace harl::harness {

enum class SchemeKind {
  kFixed,
  kRandomStripes,
  kHarl,
  kFileLevelHarl,
  kSegmentLevel,
  kCarl,
  kHarlSpaceBounded,
  kLoadedPlan,
};

struct LayoutScheme {
  SchemeKind kind = SchemeKind::kFixed;
  Bytes fixed_stripe = 64 * KiB;   ///< kFixed only
  std::uint64_t random_seed = 1;   ///< kRandomStripes only
  Bytes carl_ssd_capacity = 0;     ///< kCarl only
  double max_sserver_share = 1.0;  ///< kHarlSpaceBounded only
  std::string plan_file;           ///< kLoadedPlan only

  static LayoutScheme fixed(Bytes stripe);
  static LayoutScheme random_stripes(std::uint64_t seed);
  static LayoutScheme harl();
  static LayoutScheme file_level_harl();
  static LayoutScheme segment_level();
  /// CARL baseline (paper reference [31]): each region entirely on one tier,
  /// hottest regions moved to SServers under `ssd_capacity`.
  static LayoutScheme carl(Bytes ssd_capacity);
  /// PSA-style space-bounded HARL ([33] / the paper's Discussion): full
  /// region-level optimization with each region's SServer byte share capped.
  static LayoutScheme harl_space_bounded(double max_sserver_share);
  /// Placing Phase from a saved Plan artifact (see core/plan_artifact.hpp):
  /// no trace or analysis; build_layout() installs it through
  /// load_validated_plan() and place_plan().
  static LayoutScheme from_plan_file(std::string path);

  /// Figure-legend style label: "64K", "rand1", "HARL", ...
  std::string label() const;

  /// True for the schemes that require a trace + Analysis Phase.
  bool needs_analysis() const {
    return kind == SchemeKind::kHarl || kind == SchemeKind::kFileLevelHarl ||
           kind == SchemeKind::kSegmentLevel || kind == SchemeKind::kCarl ||
           kind == SchemeKind::kHarlSpaceBounded;
  }

  /// True when build_layout() yields a Plan (analysis-based schemes and
  /// loaded Plan artifacts).
  bool produces_plan() const {
    return needs_analysis() || kind == SchemeKind::kLoadedPlan;
  }
};

/// Materializes a scheme into a concrete layout for `cluster`.  For
/// analysis-based schemes, `trace` (the first-execution trace) and `params`
/// (calibrated model) drive the planner; `plan_out` (optional) receives the
/// plan for diagnostics.  With `cache_options` enabled, the HARL scheme
/// (kHarl) runs the cache-aware Analysis Phase
/// (core::analyze_cached); a winning reservation shows up as plan.cache and
/// the returned layout withholds those devices from every region.  Loaded
/// plan artifacts honour their own embedded cache section instead.  Every
/// plan, analyzed or loaded, becomes its layout through place_plan().
std::shared_ptr<const pfs::Layout> build_layout(
    const LayoutScheme& scheme, const pfs::ClusterConfig& cluster,
    std::span<const trace::TraceRecord> trace_records,
    const core::TieredCostParams& params,
    const core::PlannerOptions& planner_options, core::Plan* plan_out = nullptr,
    const core::CachePlannerOptions& cache_options = {});

/// The Placing Phase's one check of a saved plan (paper Fig. 3): loads the
/// Plan artifact at `path` and accepts it only for the calibration and
/// cluster it was computed for.  Its calibration fingerprint must equal
/// params_fingerprint(params), its tier table the cluster's servers per
/// tier (the two-tier (M, N) view, zero-count tiers included, unless
/// `cluster.tiers` lists the groups), and its device-factor table the
/// cluster's fleet within a relative 1e-6.  Throws std::runtime_error
/// naming `path` and the failed check.
core::Plan load_validated_plan(const std::string& path,
                               const pfs::ClusterConfig& cluster,
                               const core::TieredCostParams& params);

/// Turns a plan into the region layout it installs: the RST over the
/// plan's own tier table, with the devices of a cache reservation
/// (plan.cache) withheld from every region.
std::shared_ptr<pfs::RegionLayout> place_plan(const core::Plan& plan);

}  // namespace harl::harness

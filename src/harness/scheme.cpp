#include "src/harness/scheme.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/plan_artifact.hpp"

namespace harl::harness {

namespace {

/// Whether a plan artifact's per-tier device-factor table matches the
/// cluster's configured fleet.  Factors are compared with a relative
/// tolerance because the artifact carries *measured* factors (probed device
/// ratios) while the cluster carries configured ones; they agree to ~1e-15
/// but are not bit-equal by construction.  An absent table (empty outer or
/// inner vector) means "homogeneous" on either side.
bool device_table_matches(const std::vector<std::vector<double>>& artifact,
                          const std::vector<pfs::TierGroup>& tiers) {
  const auto tier_factors = [&](std::size_t j) -> const std::vector<double>& {
    static const std::vector<double> kEmpty;
    return j < artifact.size() ? artifact[j] : kEmpty;
  };
  for (std::size_t j = 0; j < tiers.size(); ++j) {
    const std::vector<double>& a = tier_factors(j);
    const std::vector<double>& c = tiers[j].device_factors;
    if (a.empty() != c.empty()) return false;
    if (a.size() != c.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double scale = std::max({std::abs(a[i]), std::abs(c[i]), 1.0});
      if (std::abs(a[i] - c[i]) > 1e-6 * scale) return false;
    }
  }
  return true;
}

}  // namespace

LayoutScheme LayoutScheme::fixed(Bytes stripe) {
  if (stripe == 0) throw std::invalid_argument("fixed stripe must be nonzero");
  LayoutScheme s;
  s.kind = SchemeKind::kFixed;
  s.fixed_stripe = stripe;
  return s;
}

LayoutScheme LayoutScheme::random_stripes(std::uint64_t seed) {
  LayoutScheme s;
  s.kind = SchemeKind::kRandomStripes;
  s.random_seed = seed;
  return s;
}

LayoutScheme LayoutScheme::harl() {
  LayoutScheme s;
  s.kind = SchemeKind::kHarl;
  return s;
}

LayoutScheme LayoutScheme::file_level_harl() {
  LayoutScheme s;
  s.kind = SchemeKind::kFileLevelHarl;
  return s;
}

LayoutScheme LayoutScheme::segment_level() {
  LayoutScheme s;
  s.kind = SchemeKind::kSegmentLevel;
  return s;
}

LayoutScheme LayoutScheme::carl(Bytes ssd_capacity) {
  LayoutScheme s;
  s.kind = SchemeKind::kCarl;
  s.carl_ssd_capacity = ssd_capacity;
  return s;
}

LayoutScheme LayoutScheme::harl_space_bounded(double max_sserver_share) {
  LayoutScheme s;
  s.kind = SchemeKind::kHarlSpaceBounded;
  s.max_sserver_share = max_sserver_share;
  return s;
}

LayoutScheme LayoutScheme::from_plan_file(std::string path) {
  if (path.empty()) throw std::invalid_argument("plan file path is empty");
  LayoutScheme s;
  s.kind = SchemeKind::kLoadedPlan;
  s.plan_file = std::move(path);
  return s;
}

std::string LayoutScheme::label() const {
  switch (kind) {
    case SchemeKind::kFixed: return format_size(fixed_stripe);
    case SchemeKind::kRandomStripes: return "rand" + std::to_string(random_seed);
    case SchemeKind::kHarl: return "HARL";
    case SchemeKind::kFileLevelHarl: return "HARL-file";
    case SchemeKind::kSegmentLevel: return "segment";
    case SchemeKind::kCarl: return "CARL";
    case SchemeKind::kHarlSpaceBounded: {
      std::ostringstream os;
      os << "HARL<=" << static_cast<int>(max_sserver_share * 100.0) << "%ssd";
      return os.str();
    }
    case SchemeKind::kLoadedPlan: return "plan";
  }
  return "?";
}

std::shared_ptr<const pfs::Layout> build_layout(
    const LayoutScheme& scheme, const pfs::ClusterConfig& cluster,
    std::span<const trace::TraceRecord> trace_records,
    const core::TieredCostParams& params,
    const core::PlannerOptions& planner_options, core::Plan* plan_out,
    const core::CachePlannerOptions& cache_options) {
  core::Plan plan;
  switch (scheme.kind) {
    case SchemeKind::kFixed:
      return pfs::make_fixed_layout(cluster.num_servers(), scheme.fixed_stripe);

    case SchemeKind::kRandomStripes: {
      // Independent random power-of-two stripe per server in [16K, 2M],
      // the paper's "randomly varied stripe sizes" strategy.
      Rng rng(scheme.random_seed * 0x9E3779B97F4A7C15ULL + 1);
      std::vector<Bytes> stripes(cluster.num_servers());
      for (auto& st : stripes) {
        st = (16 * KiB) << rng.uniform_u64(0, 7);  // 16K..2M
      }
      return std::make_shared<pfs::VariedStripeLayout>(std::move(stripes));
    }

    case SchemeKind::kHarl:
    case SchemeKind::kFileLevelHarl:
    case SchemeKind::kSegmentLevel:
    case SchemeKind::kCarl:
    case SchemeKind::kHarlSpaceBounded:
      if (trace_records.empty()) {
        throw std::invalid_argument(
            "analysis-based scheme requires a first-execution trace");
      }
      if (scheme.kind == SchemeKind::kHarl) {
        plan = cache_options.enabled()
                   ? core::analyze_cached(trace_records, params, cache_options,
                                          planner_options)
                   : core::analyze(trace_records, params, planner_options);
      } else if (scheme.kind == SchemeKind::kHarlSpaceBounded) {
        core::PlannerOptions bounded = planner_options;
        bounded.optimizer.max_sserver_share = scheme.max_sserver_share;
        plan = core::analyze(trace_records, params, bounded);
      } else if (scheme.kind == SchemeKind::kFileLevelHarl) {
        plan = core::analyze_file_level(trace_records, params, planner_options);
      } else if (scheme.kind == SchemeKind::kCarl) {
        plan = core::analyze_carl(trace_records, params,
                                  scheme.carl_ssd_capacity, planner_options);
      } else {
        plan = core::analyze_segment_level(trace_records, params,
                                           planner_options);
      }
      break;

    case SchemeKind::kLoadedPlan:
      plan = load_validated_plan(scheme.plan_file, cluster, params);
      break;
  }
  auto layout = place_plan(plan);
  if (plan_out != nullptr) *plan_out = std::move(plan);
  return layout;
}

core::Plan load_validated_plan(const std::string& path,
                               const pfs::ClusterConfig& cluster,
                               const core::TieredCostParams& params) {
  core::PlanArtifact artifact = core::load_plan(path);
  if (artifact.calibration_fingerprint != core::params_fingerprint(params)) {
    throw std::runtime_error(
        "plan artifact was produced under a different calibration: " + path);
  }
  const std::vector<pfs::TierGroup> groups = cluster.effective_tiers();
  std::vector<std::size_t> counts;
  for (const pfs::TierGroup& tier : groups) counts.push_back(tier.count);
  if (artifact.tier_counts != counts) {
    throw std::runtime_error(
        "plan artifact tier table does not match the cluster: " + path);
  }
  // A plan computed against a different device fleet must not install:
  // its member restrictions and stripe choices assume per-slot speeds
  // this cluster does not have.
  if (!device_table_matches(artifact.device_factors, groups)) {
    throw std::runtime_error(
        "plan artifact device-factor table does not match the cluster's "
        "fleet: " +
        path);
  }
  core::Plan plan;
  plan.tier_counts = artifact.tier_counts;
  plan.device_factors = artifact.device_factors;
  plan.calibration_fingerprint = artifact.calibration_fingerprint;
  plan.regions_before_merge = artifact.rst.size();
  plan.regions_after_merge = artifact.rst.size();
  plan.cache = artifact.cache;
  plan.rst = std::move(artifact.rst);
  return plan;
}

std::shared_ptr<pfs::RegionLayout> place_plan(const core::Plan& plan) {
  // No reservation passes none: an all-zero one would take
  // make_tiered_layout's reserved-layout branch.
  if (!plan.cache.has_value()) return plan.rst.to_layout(plan.tier_counts);
  std::vector<std::size_t> reserved(plan.tier_counts.size(), 0);
  reserved.at(plan.cache->tier) = plan.cache->devices;
  return plan.rst.to_layout(plan.tier_counts, reserved);
}

}  // namespace harl::harness

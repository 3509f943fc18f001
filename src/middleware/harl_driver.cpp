#include "src/middleware/harl_driver.hpp"

#include <fstream>
#include <stdexcept>
#include <vector>

namespace harl::mw {

namespace {

std::string rst_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".rst";
}
std::string r2f_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".r2f";
}
std::string plan_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".plan";
}

/// The cluster's tier counts shaped to match `rst`: normally the cluster's
/// own tier topology; a two-tier RST against a cluster whose tier list
/// collapsed (e.g. zero HServers configured) falls back to the two-tier
/// (num_hservers, num_sservers) view so absent tiers keep their slot.
std::vector<std::size_t> tier_counts_for(const core::RegionStripeTable& rst,
                                         const pfs::Cluster& cluster) {
  std::vector<std::size_t> counts = cluster.tier_counts();
  if (counts.size() != rst.num_tiers()) {
    if (rst.num_tiers() == 2) {
      counts = {cluster.num_hservers(), cluster.num_sservers()};
    } else {
      throw std::runtime_error("RST tier count does not match cluster tiers");
    }
  }
  return counts;
}

/// Shared installation: register the logical file's region layout and each
/// per-region physical file, striped with that region's stripes alone.
std::shared_ptr<pfs::RegionLayout> install_with_names(
    const core::RegionStripeTable& rst, const std::string& logical_name,
    const std::vector<std::string>& physical_names, pfs::Cluster& cluster) {
  const std::vector<std::size_t> counts = tier_counts_for(rst, cluster);
  auto layout = rst.to_layout(counts);
  cluster.mds().register_file(logical_name, layout);
  for (std::size_t i = 0; i < rst.size(); ++i) {
    cluster.mds().register_file(
        physical_names[i],
        pfs::make_tiered_layout(counts, rst.entry(i).stripes));
  }
  return layout;
}

std::vector<std::string> canonical_names(const std::string& logical_name,
                                         std::size_t region_count) {
  const auto r2f = RegionFileMap::for_file(logical_name, region_count);
  std::vector<std::string> names;
  names.reserve(region_count);
  for (std::size_t i = 0; i < region_count; ++i) names.push_back(r2f.physical(i));
  return names;
}

}  // namespace

void HarlDriver::save(const std::string& directory,
                      const std::string& logical_name, const core::Plan& plan) {
  {
    std::ofstream os(rst_path(directory, logical_name));
    if (!os) throw std::runtime_error("cannot write RST for " + logical_name);
    plan.rst.save(os);
  }
  {
    std::ofstream os(r2f_path(directory, logical_name));
    if (!os) throw std::runtime_error("cannot write R2F for " + logical_name);
    RegionFileMap::for_file(logical_name, plan.rst.size()).save(os);
  }
}

void HarlDriver::save_plan(const std::string& directory,
                           const std::string& logical_name,
                           const core::Plan& plan) {
  core::PlanArtifact artifact = core::PlanArtifact::from_plan(plan);
  artifact.region_files = canonical_names(logical_name, plan.rst.size());
  core::save_plan(artifact, plan_path(directory, logical_name));
}

core::RegionStripeTable HarlDriver::load_rst(const std::string& directory,
                                             const std::string& logical_name) {
  std::ifstream is(rst_path(directory, logical_name));
  if (!is) throw std::runtime_error("cannot read RST for " + logical_name);
  return core::RegionStripeTable::load(is);
}

RegionFileMap HarlDriver::load_r2f(const std::string& directory,
                                   const std::string& logical_name) {
  std::ifstream is(r2f_path(directory, logical_name));
  if (!is) throw std::runtime_error("cannot read R2F for " + logical_name);
  return RegionFileMap::load(is);
}

core::PlanArtifact HarlDriver::load_plan(const std::string& directory,
                                         const std::string& logical_name) {
  return core::load_plan(plan_path(directory, logical_name));
}

std::shared_ptr<pfs::RegionLayout> HarlDriver::install(
    const core::RegionStripeTable& rst, const std::string& logical_name,
    pfs::Cluster& cluster) {
  return install_with_names(rst, logical_name,
                            canonical_names(logical_name, rst.size()), cluster);
}

std::shared_ptr<pfs::RegionLayout> HarlDriver::install(
    const core::PlanArtifact& artifact, const std::string& logical_name,
    pfs::Cluster& cluster) {
  const std::vector<std::size_t> counts = tier_counts_for(artifact.rst, cluster);
  if (artifact.tier_counts != counts) {
    throw std::runtime_error(
        "plan artifact tier table does not match the cluster");
  }
  const std::vector<std::string> names =
      artifact.region_files.empty()
          ? canonical_names(logical_name, artifact.rst.size())
          : artifact.region_files;
  return install_with_names(artifact.rst, logical_name, names, cluster);
}

std::shared_ptr<pfs::RegionLayout> HarlDriver::load_and_install(
    const std::string& directory, const std::string& logical_name,
    pfs::Cluster& cluster) {
  return install(load_rst(directory, logical_name), logical_name, cluster);
}

}  // namespace harl::mw

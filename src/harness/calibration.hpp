// Cost-model parameter calibration (the paper's Analysis-Phase measurement).
//
// The paper derives its model parameters by benchmarking one file server of
// each class (startup and transfer times, repeated "thousands of times") and
// one client/server pair for the network unit time.  This module does the
// same against the simulated devices: it instantiates one device per tier
// group of ClusterConfig::tiers (a group without servers included, so tier
// indices match the cluster's), fits its OpProfile with the storage
// profiler, and assembles core::TieredCostParams with one tier per group,
// named after it.  For the default fleet that is the paper's two tiers,
// "hserver" and "sserver".  The network terms take the cluster's network
// parameters: one hop per byte plus two message latencies, because the
// simulated data path crosses the server NIC and the client NIC.
#pragma once

#include "src/core/tiered_cost_model.hpp"
#include "src/pfs/cluster.hpp"

namespace harl::harness {

struct CalibrationOptions {
  int samples_per_size = 1500;
  std::uint64_t seed = 99;
  /// Random-offset accesses per effective-beta probe.
  int beta_samples = 3000;
  /// Ignore per-device aging: calibrate the tier profiles only and leave the
  /// per-slot factor vectors empty, as a pre-device-model HARL would.  The
  /// heterogeneity ablation uses this as its tier-blind arm.
  bool device_blind = false;
};

/// Cost-model parameters for the given cluster, measured by probing
/// simulated devices: tier j is config.tiers[j], probed on a device seeded
/// options.seed + j (aged probes use options.seed + 2).
core::TieredCostParams calibrate(const pfs::ClusterConfig& config,
                                 const CalibrationOptions& options = {});

}  // namespace harl::harness

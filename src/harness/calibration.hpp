// Cost-model parameter calibration (the paper's Analysis-Phase measurement).
//
// The paper derives its model parameters by benchmarking one file server of
// each class (startup and transfer times, repeated "thousands of times") and
// one client/server pair for the network unit time.  This module does the
// same against the simulated devices: it instantiates one HDD and one SSD
// device from the cluster config, fits their OpProfiles with the storage
// profiler, fits the network, and assembles the two-tier
// core::TieredCostParams (tier 0 "hserver", tier 1 "sserver").  The network
// terms use two hops plus two message latencies because the simulated data
// path crosses the server NIC and the client NIC (store-and-forward).
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

/// Cost-model parameters for the given cluster shape, measured by probing
/// simulated devices: tier 0 = HServers, tier 1 = SServers.
core::TieredCostParams calibrate(const pfs::ClusterConfig& config,
                                 const CalibrationOptions& options = {});

}  // namespace harl::harness

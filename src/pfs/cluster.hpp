// Hybrid PFS cluster assembly.
//
// Mirrors the paper's testbed shape: M HServers (HDD-backed) followed by N
// SServers (SSD-backed) behind one file system namespace, a metadata server,
// and a set of compute nodes (client NICs) over a shared-parameter network.
// Global server indices [0, M) are HServers and [M, M+N) are SServers — the
// same convention the layouts and the cost model use.
//
// Beyond the paper, the cluster generalizes to any number of *tier groups*
// (the paper's stated future work: "extend our cost model to accommodate
// more than two server performance profiles"): set ClusterConfig::tiers to
// an ordered list of groups and the two-tier fields are ignored.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/network.hpp"
#include "src/pfs/client.hpp"
#include "src/pfs/data_server.hpp"
#include "src/pfs/mds.hpp"
#include "src/sim/simulator.hpp"
#include "src/storage/hdd.hpp"
#include "src/storage/profiles.hpp"
#include "src/storage/ssd.hpp"

namespace harl::pfs {

/// One group of file servers sharing a tier profile.  `device_factors`
/// optionally ages individual members: factor i multiplies every time
/// parameter of member i's device (1.0 = fresh, matching the tier profile).
/// Canonicalized ascending (fastest member first) at cluster construction,
/// matching the slot order the device-aware planner assumes; empty = all
/// members run the tier profile exactly (the paper's homogeneous tier).
struct TierGroup {
  std::string name;                 ///< e.g. "hserver", "sata", "nvme"
  std::size_t count = 0;
  storage::TierProfile profile;
  bool is_ssd = false;              ///< selects the SSD vs HDD device model
  std::vector<double> device_factors;  ///< empty, or one factor per member
};

struct ClusterConfig {
  // --- two-tier convenience (the paper's shape); used when `tiers` empty --
  std::size_t num_hservers = 6;  ///< paper default
  std::size_t num_sservers = 2;  ///< paper default
  storage::TierProfile hdd = storage::hdd_profile();
  storage::TierProfile ssd = storage::pcie_ssd_profile();
  /// Two-tier convenience device aging (see TierGroup::device_factors):
  /// per-member speed factors for the H/S tiers.  Empty = homogeneous.
  std::vector<double> hdd_factors;
  std::vector<double> ssd_factors;

  /// Generalized form: ordered tier groups (slowest first by convention).
  /// When non-empty this overrides the two-tier fields above.
  std::vector<TierGroup> tiers;

  std::size_t num_clients = 8;   ///< compute nodes (paper: 8)
  net::NetworkParams network = net::gigabit_ethernet();
  Seconds mds_lookup_cost = 200e-6;
  /// Added per RST region on MDS placement lookups (metadata management
  /// overhead of rich region tables, paper Section III-C).
  Seconds mds_per_region_cost = 2e-6;
  /// Per-stripe-unit request processing on data servers (flow buffers,
  /// request protocol): what makes small stripes costly for large requests.
  Seconds server_per_stripe_overhead = 50e-6;
  double hdd_sequential_factor = 0.55;
  storage::SsdDevice::GcModel ssd_gc{};  ///< disabled by default
  std::uint64_t seed = 1;                ///< per-device streams fork from this

  /// Periodic GC-pause service-time inflation on one server — the telemetry
  /// plane's canonical straggler (DESIGN.md §15).  Disabled while duration
  /// is 0; a positive duration needs a positive period (the Cluster
  /// constructor throws otherwise).  `server` < 0 targets the first SSD
  /// server (first member of the first is_ssd tier; server 0 when there is
  /// none).
  struct GcPause {
    Seconds period = 0.0;    ///< pause cycle length (sim seconds)
    Seconds duration = 0.0;  ///< inflated prefix of each cycle
    double factor = 8.0;     ///< service multiplier during the pause (>= 1)
    std::int64_t server = -1;
  };
  GcPause gc_pause;

  /// Whole-server failure injection: server `fail_server` (global index)
  /// fails at simulated time `fail_at` (DataServer::set_failed_at) — the
  /// failure/rebuild-storm scenario.  fail_server < 0 disarms.  Like the GC
  /// pause, failure is a pure function of simulated time, so degraded
  /// routing is deterministic.  Only replicated population runs accept a
  /// failure (harness::run_population); unreplicated runs reject it.
  std::int64_t fail_server = -1;
  Seconds fail_at = 0.0;

  /// The tier-group view, synthesizing it from the two-tier fields when
  /// `tiers` is empty.  Device factors are returned canonical (sorted
  /// ascending, all-1.0 collapsed to empty); throws std::invalid_argument
  /// when a non-empty factor vector's size disagrees with its tier count.
  std::vector<TierGroup> effective_tiers() const;
};

class Cluster {
 public:
  Cluster(sim::Simulator& sim, const ClusterConfig& config);

  /// Servers in non-SSD groups (== the paper's M for two-tier clusters).
  std::size_t num_hservers() const { return num_hservers_; }
  /// Servers in SSD groups (== the paper's N for two-tier clusters).
  std::size_t num_sservers() const { return num_sservers_; }
  std::size_t num_servers() const { return servers_.size(); }
  std::size_t num_clients() const { return clients_.size(); }

  /// Tier-group topology (ordered; global server indices are contiguous
  /// per group, in order).
  std::size_t num_tiers() const { return tiers_.size(); }
  const TierGroup& tier(std::size_t i) const { return tiers_.at(i); }
  /// Global index of tier i's first server.
  std::size_t tier_begin(std::size_t i) const { return tier_begin_.at(i); }
  /// Per-tier server counts, in tier order — the shape the tier-vector
  /// layout path (RST, RegionLayout, Plan artifact) is keyed by.
  std::vector<std::size_t> tier_counts() const;

  DataServer& server(std::size_t i) { return *servers_.at(i); }
  const DataServer& server(std::size_t i) const { return *servers_.at(i); }
  Client& client(std::size_t i) { return *clients_.at(i); }
  MetadataServer& mds() { return *mds_; }
  net::Network& network() { return *network_; }
  const net::Network& network() const { return *network_; }
  sim::Simulator& simulator() { return sim_; }
  const ClusterConfig& config() const { return config_; }

  /// Per-server "I/O time" including NIC serialization — the quantity the
  /// paper plots in Fig. 1a.
  Seconds server_io_time(std::size_t i) const;

  /// Zeroes all server/NIC statistics and device state between phases.
  void reset_stats();

 private:
  sim::Simulator& sim_;
  ClusterConfig config_;
  std::vector<TierGroup> tiers_;
  std::vector<std::size_t> tier_begin_;
  std::size_t num_hservers_ = 0;
  std::size_t num_sservers_ = 0;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<DataServer>> servers_;
  std::unique_ptr<MetadataServer> mds_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace harl::pfs

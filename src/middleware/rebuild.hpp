// Failure rebuild plane: re-materialize redundancy after a data server dies.
//
// A ClusterConfig::fail_server run kills one data server at a simulated
// instant.  Foreground reads of that server's share fail over to per-region
// replicas (pfs::Client's degraded path over a pfs::ReplicaMap); this module
// is the background half of the story — the storm that makes failures
// expensive in real systems.  From `start_at` on, the RebuildManager scans
// each registered file chunk by chunk, skipping chunks that do not touch the
// failed server, and reconstructs the touched ones:
//
//   1. a degraded read of the chunk — surviving extents from their primaries,
//      lost extents from their replica homes (the reconstruction read), then
//   2. a re-replicated write of the chunk — every extent refreshed primary +
//      replica, with the failed primary's share landing only on its replica
//      home — restoring two live copies for every byte of the chunk.
//
// Both legs run through the *real* simulated servers, NICs and the shared
// client-0 node link, so rebuild traffic measurably contends with
// foreground I/O; a bandwidth throttle paces the chunks.  The manager's
// private client is not attach_observer'd: rebuild I/O never pollutes
// request attribution, but per-server counters and queue contention see
// every byte.
//
// Determinism: chunk order is a pure function of the registered files and
// the chunk size, and the start instant is simulated time — a rebuild-storm
// run is bit-reproducible.
//
// This header also hosts choose_replica_tiers(): replica placement is per
// *region* and should follow the same economics as primary placement, so the
// chooser prices each region's replica tier with the offline cost model's
// read profiles (pfs::ReplicaMap itself stays below core and cannot do
// this).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/planner.hpp"
#include "src/obs/metrics.hpp"
#include "src/pfs/cluster.hpp"
#include "src/pfs/replication.hpp"

namespace harl::mw {

/// Per-region replica tiers for `plan`, chosen by the cost model: a region's
/// replica serves degraded reads, so it lands on the tier with the cheapest
/// modeled read of the region's probe size (the region's largest planned
/// stripe, 64 KiB when the region stripes nothing) — scaled by the tier's
/// mean device factor when the fleet is heterogeneous.  Tiers with fewer
/// than two servers cannot absorb a same-tier failure and are skipped; if no
/// tier qualifies the region falls back to tier 0 (ReplicaMap then chains
/// over the whole cluster).  Index = post-merge region id, ready for
/// pfs::ReplicaMap::tiered().
std::vector<std::uint32_t> choose_replica_tiers(
    const core::Plan& plan, const core::TieredCostParams& params);

class RebuildManager {
 public:
  struct Options {
    std::size_t failed_server = 0;  ///< global index of the dead server
    Seconds start_at = 0.0;         ///< storm start (>= the failure instant)
    /// Rebuild throttle (bytes of scanned chunk per simulated second).
    double bandwidth = 256.0 * static_cast<double>(MiB);
    Bytes chunk = 4 * MiB;  ///< bytes reconstructed per round trip
  };

  RebuildManager(pfs::Cluster& cluster, Options options);

  /// Registers one file of the namespace for rebuild.  `replicas` (caller
  /// owned, must outlive the manager) is the file's replica placement; files
  /// without replicas have nothing to rebuild from and are rejected.  Call
  /// before arm().
  void add_file(std::shared_ptr<const pfs::Layout> layout, Bytes file_size,
                const pfs::ReplicaMap* replicas);

  /// Schedules the storm at start_at (immediately if already past).  The
  /// registered files are scanned in registration order.
  void arm();

  bool active() const { return active_; }
  bool done() const { return done_; }
  /// Failed-server bytes re-materialized (the lost share, not the scan).
  Bytes rebuilt_bytes() const { return rebuilt_bytes_; }
  std::uint64_t chunks() const { return chunks_; }
  /// Simulated seconds rebuild chunks were in flight — the window in which
  /// they contend with foreground I/O.
  Seconds interference() const { return interference_; }
  Seconds finished_at() const { return finished_at_; }

  /// Fired once when the last chunk lands: (lost bytes rebuilt, now).
  void set_done_hook(std::function<void(Bytes, Seconds)> hook) {
    done_hook_ = std::move(hook);
  }

  /// Rebuild metric families (rebuild.*).  Counters only, so merging into a
  /// recorder's registry is order-independent.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct Item {
    std::shared_ptr<const pfs::Layout> layout;
    Bytes size = 0;
    const pfs::ReplicaMap* replicas = nullptr;
  };

  void next_chunk();

  sim::Simulator& sim_;
  pfs::Client client_;
  Options options_;

  std::vector<Item> items_;
  std::size_t item_ = 0;   ///< scan cursor: current file
  Bytes cursor_ = 0;       ///< scan cursor: offset within the current file

  bool armed_ = false;
  bool active_ = false;
  bool done_ = false;
  Bytes rebuilt_bytes_ = 0;
  std::uint64_t chunks_ = 0;
  Seconds interference_ = 0.0;
  Seconds finished_at_ = 0.0;
  std::function<void(Bytes, Seconds)> done_hook_;

  obs::MetricsRegistry metrics_;
  obs::MetricsRegistry::FamilyId m_bytes_;
  obs::MetricsRegistry::FamilyId m_chunks_;
  obs::MetricsRegistry::FamilyId m_interference_;
};

}  // namespace harl::mw

// Runtime read-cache tier over the fastest SSD devices (HACache direction).
//
// CacheManager is the *mechanism* half of the cache layer: it owns a
// storage::CacheTier directory plus the slot pool mapping cached chunks onto
// the reserved devices, and drives the honest data path.  The cache fronts
// the *file*: chunks are aligned ranges of logical file offsets, intercepted
// in Client::io before layout mapping — the same granularity the planner's
// replay estimates hit rates at, and the reason a hit is one contiguous read
// no matter how wide the home layout stripes.
//
//   read hit : cache device disk -> device NIC -> client NIC -> done
//   read miss: the miss run maps through the home layout (normal striped
//              read), then admitted chunks *fill*: the full chunk is re-read
//              from its home servers (read-around), shipped to the client,
//              and forwarded to the cache device's disk — every leg charged
//              over the same simulated links and queues as foreground
//              traffic: promotions queue and interfere, they are never free
//              copies.
//   write    : overlapped chunks are invalidated at issue time; a fill in
//              flight for an invalidated chunk is poisoned and its landed
//              bytes discarded.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/obs/sink.hpp"
#include "src/pfs/cluster.hpp"
#include "src/pfs/layout.hpp"
#include "src/storage/cache_tier.hpp"

namespace harl::pfs {

class CacheManager {
 public:
  struct Config {
    Bytes budget = 0;         ///< total cache capacity in bytes (0 disables)
    Bytes chunk = MiB;        ///< chunk granularity
    std::size_t tier = 1;     ///< cluster tier whose fastest prefix caches
    std::size_t devices = 0;  ///< reserved device count (tier's slot prefix)
    storage::CachePolicy policy = storage::CachePolicy::kLru;
    /// Ablation arm: the cache runs, but the planner did not reserve the
    /// devices — foreground regions still stripe over them and the two
    /// roles contend (the "bolted-on cache" the cost model cannot see).
    bool blind = false;
  };

  struct Stats {
    storage::CacheTier::Stats tier;   ///< directory counters
    Bytes hit_read_bytes = 0;         ///< foreground bytes served by cache devices
    Bytes miss_read_bytes = 0;        ///< foreground bytes read from home servers
    Bytes fill_bytes = 0;             ///< promotion traffic issued
    std::size_t active_devices = 0;
  };

  /// `cluster` must outlive the manager.  Throws std::invalid_argument when
  /// the tier/devices do not fit the cluster shape.
  CacheManager(Cluster& cluster, Config config);

  /// False when the budget or device count is zero (every hook no-ops).
  bool enabled() const { return active_devices_ > 0 && tier_.slots() > 0; }

  const Config& config() const { return config_; }
  const storage::CacheTier& tier() const { return tier_; }
  std::size_t active_devices() const { return active_devices_; }
  /// Global server index of cache device i (i < config().devices).
  std::size_t cache_server(std::size_t i) const { return cache_base_ + i; }
  Stats stats() const;

  /// Issues the whole read request [offset, offset + size) through the
  /// cache: resident chunk spans are read from the cache devices, miss runs
  /// map through `layout` onto the home servers, and missed chunks are
  /// admitted and filled in the background.  `join->done()` fires exactly
  /// once, when every foreground piece has reached client `client_id` (fills
  /// are background traffic and do not hold the request).  With `obs` set,
  /// each piece gets its own sub-request attribution under `obs_req`.
  /// `file` namespaces the directory: one manager is shared by every file of
  /// a population, entries are keyed (file, chunk), and the eviction policy
  /// arbitrates across files — a hot tenant's working set evicts a cold
  /// tenant's under LRU/SLRU pressure.  kNoId is the legacy single-file
  /// namespace (keys degenerate to the bare chunk index, bit-identical to
  /// the pre-namespace directory).
  void issue_read(std::size_t client_id, const Layout& layout, Bytes offset,
                  Bytes size, const std::shared_ptr<sim::JoinCounter>& join,
                  obs::Sink* obs = nullptr,
                  std::uint32_t obs_req = obs::kNoId,
                  std::uint32_t file = obs::kNoId);

  /// Write-invalidate: drops every cached chunk of `file` overlapping the
  /// write [offset, offset + size) (in-flight fills for those chunks are
  /// poisoned).
  void invalidate(Bytes offset, Bytes size, std::uint32_t file = obs::kNoId);

 private:
  /// Physical object id of the cache area on a device — far above any
  /// foreground region object, so cache extents never alias foreground
  /// extents on a shared device (the blind arm).
  static constexpr std::uint32_t kCacheObject = 1u << 22;

  struct SlotInfo {
    std::uint32_t slot = 0;
    std::uint64_t seq = 0;  ///< fill sequence, to detect stale fills
  };
  /// An admitted chunk whose data is being promoted.  The home mapping is
  /// captured at issue time, so the fill never touches the caller's Layout
  /// after the request returns.
  struct Fill {
    std::uint64_t key = 0;  ///< file chunk index
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::vector<SubRequest> subs;  ///< the chunk's home mapping
  };

  /// Directory key of (file, chunk-index): the file namespace (file + 1, 0
  /// for the legacy kNoId namespace) rides the high bits above the chunk
  /// index, so legacy keys equal the bare chunk index bit-for-bit.
  static std::uint64_t chunk_key(std::uint32_t file, Bytes chunk_index) {
    const std::uint64_t ns = file == obs::kNoId ? 0 : std::uint64_t{file} + 1;
    return (ns << 40) | chunk_index;
  }

  std::size_t slot_device(std::uint32_t slot) const {
    return cache_base_ + slot % active_devices_;
  }
  Bytes slot_address(std::uint32_t slot) const {
    return (static_cast<Bytes>(slot) / active_devices_) * config_.chunk;
  }
  void free_slot(std::uint64_t key);
  void issue_fill(std::size_t client_id, const Fill& fill);
  void fill_landed(std::uint64_t key, std::uint64_t seq);

  Cluster& cluster_;
  sim::Simulator& sim_;
  Config config_;
  storage::CacheTier tier_;
  std::size_t cache_base_ = 0;      ///< global index of the first cache device
  std::size_t active_devices_ = 0;  ///< config_.devices, 0 when disabled
  std::unordered_map<std::uint64_t, SlotInfo> slots_;
  std::vector<std::uint32_t> free_slots_;  ///< LIFO, deterministic
  std::uint64_t fill_seq_ = 0;
  std::vector<std::uint64_t> evicted_scratch_;
  Bytes hit_read_bytes_ = 0;
  Bytes miss_read_bytes_ = 0;
  Bytes fill_bytes_ = 0;
};

}  // namespace harl::pfs

#include "src/pfs/cache_manager.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/net/network.hpp"
#include "src/pfs/data_server.hpp"
#include "src/sim/resource.hpp"

namespace harl::pfs {

CacheManager::CacheManager(Cluster& cluster, Config config)
    : cluster_(cluster),
      sim_(cluster.simulator()),
      config_(config),
      tier_(storage::CacheTier::Config{config.budget, config.chunk,
                                       config.policy}) {
  if (config_.devices == 0 || tier_.slots() == 0) {
    // Disabled manager: enabled() is false and every hook no-ops, so hook
    // sites need no null checks beyond the pointer itself.
    return;
  }
  if (config_.tier >= cluster_.num_tiers()) {
    throw std::invalid_argument("cache tier out of range for cluster");
  }
  if (config_.devices > cluster_.tier_counts()[config_.tier]) {
    throw std::invalid_argument("cache devices exceed tier size");
  }
  cache_base_ = cluster_.tier_begin(config_.tier);
  active_devices_ = config_.devices;
  free_slots_.reserve(tier_.slots());
  for (std::size_t i = tier_.slots(); i-- > 0;) {
    free_slots_.push_back(static_cast<std::uint32_t>(i));
  }
}

CacheManager::Stats CacheManager::stats() const {
  Stats stats;
  stats.tier = tier_.stats();
  stats.hit_read_bytes = hit_read_bytes_;
  stats.miss_read_bytes = miss_read_bytes_;
  stats.fill_bytes = fill_bytes_;
  stats.active_devices = active_devices_;
  return stats;
}

void CacheManager::issue_read(std::size_t client_id, const Layout& layout,
                              Bytes offset, Bytes size,
                              const std::shared_ptr<sim::JoinCounter>& join,
                              obs::Sink* obs, std::uint32_t obs_req,
                              std::uint32_t file) {
  // Walk the file range chunk by chunk, coalescing adjacent resident chunks
  // into cache-device reads and adjacent non-resident chunks into *miss
  // runs* that map through the home layout as one striped read.  Missed
  // chunks are admitted here, at issue time; their fills launch once the
  // owning miss run's data has reached the client, each re-reading the full
  // chunk from its home servers (read-around — the mapping is captured now,
  // so the fill is independent of the layout's lifetime).
  const Bytes chunk = config_.chunk;
  const Bytes end = offset + size;

  struct HitPiece {
    std::size_t device = 0;
    Bytes address = 0;
    Bytes size = 0;
  };
  struct MissRun {
    Bytes begin = 0;
    Bytes end = 0;
    std::vector<Fill> fills;  ///< launched when this run reaches the client
  };
  std::vector<HitPiece> hits;
  std::vector<MissRun> runs;
  bool run_open = false;
  Bytes call_hit = 0;
  Bytes call_miss = 0;

  for (Bytes c = offset / chunk; c <= (end - 1) / chunk; ++c) {
    const std::uint64_t key = chunk_key(file, c);
    const Bytes chunk_begin = c * chunk;
    const Bytes span_begin = std::max(offset, chunk_begin);
    const Bytes span_end = std::min(end, chunk_begin + chunk);
    const auto state = tier_.lookup(key);
    if (state == storage::CacheTier::State::kResident) {
      run_open = false;
      const SlotInfo& info = slots_.at(key);
      hit_read_bytes_ += span_end - span_begin;
      call_hit += span_end - span_begin;
      hits.push_back({slot_device(info.slot),
                      slot_address(info.slot) + (span_begin - chunk_begin),
                      span_end - span_begin});
    } else {
      miss_read_bytes_ += span_end - span_begin;
      call_miss += span_end - span_begin;
      if (!run_open) {
        run_open = true;
        runs.push_back({span_begin, span_end, {}});
      } else {
        runs.back().end = span_end;
      }
      if (state == storage::CacheTier::State::kAbsent) {
        evicted_scratch_.clear();
        if (tier_.admit(key, evicted_scratch_)) {
          for (const std::uint64_t victim : evicted_scratch_) {
            free_slot(victim);
          }
          const std::uint32_t slot = free_slots_.back();
          free_slots_.pop_back();
          const std::uint64_t seq = ++fill_seq_;
          slots_[key] = SlotInfo{slot, seq};
          runs.back().fills.push_back(
              Fill{key, seq, slot, layout.map(chunk_begin, chunk)});
        }
      }
    }
  }

  if (obs != nullptr && call_hit + call_miss > 0) {
    obs->cache_event(call_hit, call_miss, sim_.now());
  }

  // The foreground request completes when every hit piece and every miss
  // run's mapped sub-request has reached the client.
  auto inner = std::make_shared<sim::JoinCounter>(hits.size() + runs.size(),
                                                  [join] { join->done(); });
  for (const HitPiece& hit : hits) {
    const std::uint32_t osub =
        obs != nullptr
            ? obs->begin_sub(obs_req, hit.device, kCacheObject, sim_.now())
                       : obs::kNoId;
    DataServer& device = cluster_.server(hit.device);
    const std::size_t device_idx = hit.device;
    const Bytes bytes = hit.size;
    device.submit(
        IoOp::kRead, kCacheObject, hit.address, bytes, 1,
        [this, client_id, device_idx, bytes, osub, inner] {
          cluster_.network().transfer(
              client_id, device_idx, bytes, net::Direction::kServerToClient,
              [this, osub, inner] {
                if (osub != obs::kNoId) {
                  sim_.observer()->sub_net_done(osub, sim_.now());
                }
                inner->done();
              });
        },
        osub);
  }
  for (MissRun& run : runs) {
    auto subs = layout.map(run.begin, run.end - run.begin);
    if (subs.empty()) throw std::logic_error("layout mapped run to nothing");
    // The run's fills launch once all of its home sub-requests have landed;
    // the data the client forwards is then in hand.
    auto run_join = std::make_shared<sim::JoinCounter>(
        subs.size(),
        [this, client_id, inner, fills = std::move(run.fills)]() mutable {
          for (const Fill& fill : fills) issue_fill(client_id, fill);
          inner->done();
        });
    for (const SubRequest& sub : subs) {
      const std::uint32_t osub =
          obs != nullptr
              ? obs->begin_sub(obs_req, sub.server, sub.object, sim_.now())
                         : obs::kNoId;
      DataServer& server = cluster_.server(sub.server);
      const std::size_t server_idx = sub.server;
      const Bytes bytes = sub.size;
      server.submit(
          IoOp::kRead, sub.object, sub.server_offset, bytes, sub.pieces,
          [this, client_id, server_idx, bytes, osub, run_join] {
            cluster_.network().transfer(
                client_id, server_idx, bytes, net::Direction::kServerToClient,
                [this, osub, run_join] {
                  if (osub != obs::kNoId) {
                    sim_.observer()->sub_net_done(osub, sim_.now());
                  }
                  run_join->done();
                });
          },
          osub);
    }
  }
}

void CacheManager::issue_fill(std::size_t client_id, const Fill& fill) {
  // The admission may have been superseded (write-invalidate, even a
  // re-admission) while the miss run was in flight; a stale
  // fill is discarded before it touches the network.
  const auto it = slots_.find(fill.key);
  if (it == slots_.end() || it->second.seq != fill.seq) {
    tier_.discard_fill();
    return;
  }
  // Read-around promotion: the full chunk is read from its home servers
  // (captured mapping), shipped to the client, and forwarded to the cache
  // device — honest legs that queue behind and interfere with foreground
  // traffic.
  fill_bytes_ += config_.chunk;
  const std::size_t device_idx = slot_device(fill.slot);
  const Bytes address = slot_address(fill.slot);
  const Bytes chunk = config_.chunk;
  auto forward = std::make_shared<sim::JoinCounter>(
      fill.subs.size(),
      [this, client_id, device_idx, address, chunk, key = fill.key,
       seq = fill.seq] {
        cluster_.network().transfer(
            client_id, device_idx, chunk, net::Direction::kClientToServer,
            [this, device_idx, address, chunk, key, seq] {
              cluster_.server(device_idx)
                  .submit(IoOp::kWrite, kCacheObject, address, chunk, 1,
                          [this, key, seq] { fill_landed(key, seq); });
            });
      });
  for (const SubRequest& sub : fill.subs) {
    DataServer& server = cluster_.server(sub.server);
    const std::size_t server_idx = sub.server;
    const Bytes bytes = sub.size;
    server.submit(IoOp::kRead, sub.object, sub.server_offset, bytes,
                  sub.pieces, [this, client_id, server_idx, bytes, forward] {
                    cluster_.network().transfer(
                        client_id, server_idx, bytes,
                        net::Direction::kServerToClient,
                        [forward] { forward->done(); });
                  });
  }
}

void CacheManager::fill_landed(std::uint64_t key, std::uint64_t seq) {
  const auto it = slots_.find(key);
  if (it == slots_.end() || it->second.seq != seq) {
    // Invalidated (and possibly re-admitted with a fresh fill) after launch.
    tier_.discard_fill();
    return;
  }
  tier_.fill_complete(key);
}

void CacheManager::invalidate(Bytes offset, Bytes size, std::uint32_t file) {
  if (!enabled() || size == 0) return;
  const Bytes chunk = config_.chunk;
  const Bytes end = offset + size;
  for (Bytes c = offset / chunk; c <= (end - 1) / chunk; ++c) {
    const std::uint64_t key = chunk_key(file, c);
    if (tier_.invalidate(key)) free_slot(key);
  }
}

void CacheManager::free_slot(std::uint64_t key) {
  const auto it = slots_.find(key);
  if (it == slots_.end()) return;
  free_slots_.push_back(it->second.slot);
  slots_.erase(it);
}

}  // namespace harl::pfs

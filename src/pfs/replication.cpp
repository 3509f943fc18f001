#include "src/pfs/replication.hpp"

#include <stdexcept>

namespace harl::pfs {

ReplicaMap ReplicaMap::chained(std::size_t server_count) {
  if (server_count < 2) {
    throw std::invalid_argument("replication needs at least two servers");
  }
  ReplicaMap map;
  map.server_count_ = server_count;
  return map;
}

ReplicaMap ReplicaMap::tiered(const std::vector<std::size_t>& tier_counts,
                              std::vector<std::uint32_t> region_tiers) {
  std::size_t total = 0;
  for (std::size_t c : tier_counts) total += c;
  ReplicaMap map = chained(total);
  for (std::uint32_t tier : region_tiers) {
    if (tier >= tier_counts.size()) {
      throw std::invalid_argument("replica tier out of range");
    }
  }
  map.tier_counts_ = tier_counts;
  map.tier_begin_.reserve(tier_counts.size());
  std::size_t begin = 0;
  for (std::size_t c : tier_counts) {
    map.tier_begin_.push_back(begin);
    begin += c;
  }
  map.region_tiers_ = std::move(region_tiers);
  return map;
}

std::size_t ReplicaMap::replica_server(std::size_t server,
                                       std::uint32_t region) const {
  if (region < region_tiers_.size()) {
    const std::uint32_t tier = region_tiers_[region];
    const std::size_t base = tier_begin_[tier];
    const std::size_t count = tier_counts_[tier];
    const bool inside = server >= base && server < base + count;
    if (count >= 2 || (count == 1 && !inside)) {
      std::size_t slot;
      if (inside) {
        slot = base + (server - base + 1 + region) % count;
        if (slot == server) slot = base + (server - base + 1) % count;
      } else {
        slot = base + (server + region) % count;
      }
      if (slot != server) return slot;
    }
    // The tier cannot host a distinct replica for this primary — chain over
    // the whole cluster instead.
  }
  std::size_t slot = (server + 1 + region) % server_count_;
  if (slot == server) slot = (server + 1) % server_count_;
  return slot;
}

SubRequest ReplicaMap::replica_of(const SubRequest& sub) const {
  SubRequest replica = sub;
  replica.server = replica_server(sub.server, sub.object);
  replica.object = kReplicaObject + sub.object;
  return replica;
}

}  // namespace harl::pfs

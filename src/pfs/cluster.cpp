#include "src/pfs/cluster.hpp"

#include <stdexcept>
#include <string>

#include "src/common/rng.hpp"

namespace harl::pfs {

std::vector<TierGroup> ClusterConfig::effective_tiers() const {
  std::vector<TierGroup> groups = tiers;
  for (auto& g : groups) {
    if (!g.device_factors.empty() && g.device_factors.size() != g.count) {
      throw std::invalid_argument("tier \"" + g.name + "\" has " +
                                  std::to_string(g.device_factors.size()) +
                                  " device factors for " +
                                  std::to_string(g.count) + " servers");
    }
    // Checked before canonicalization: a NaN would break its sort.
    for (const double f : g.device_factors) {
      if (!storage::valid_device_factor(f)) {
        throw std::invalid_argument("tier \"" + g.name + "\" device factor " +
                                    std::to_string(f) +
                                    " must be finite and > 0");
      }
    }
    storage::canonicalize_device_factors(g.device_factors);
  }
  return groups;
}

std::size_t ClusterConfig::num_servers() const {
  std::size_t total = 0;
  for (const TierGroup& g : tiers) total += g.count;
  return total;
}

std::vector<std::size_t> Cluster::tier_counts() const {
  std::vector<std::size_t> counts;
  counts.reserve(tiers_.size());
  for (const auto& t : tiers_) counts.push_back(t.count);
  return counts;
}

Cluster::Cluster(sim::Simulator& sim, const ClusterConfig& config)
    : sim_(sim), config_(config), tiers_(config.effective_tiers()) {
  std::size_t total = 0;
  for (const auto& t : tiers_) {
    tier_begin_.push_back(total);
    total += t.count;
    (t.is_ssd ? num_sservers_ : num_hservers_) += t.count;
  }
  if (total == 0) throw std::invalid_argument("cluster needs file servers");
  if (config.num_clients == 0) throw std::invalid_argument("cluster needs clients");

  network_ = std::make_unique<net::Network>(sim_, config.network,
                                            config.num_clients, total);

  Rng seeder(config.seed);
  for (const auto& t : tiers_) {
    for (std::size_t i = 0; i < t.count; ++i) {
      const std::string name = t.name + std::to_string(i);
      // Slot i runs factor i of the tier's canonical (ascending) vector, so
      // the fastest members occupy the lowest global indices — the order the
      // device-aware member-prefix search assumes.  A homogeneous tier uses
      // t.profile directly: byte-identity with the pre-device-model cluster.
      const double factor =
          t.device_factors.empty() ? 1.0 : t.device_factors[i];
      const storage::TierProfile profile =
          t.device_factors.empty() ? t.profile
                                   : storage::scaled_profile(t.profile, factor);
      std::unique_ptr<storage::StorageDevice> device;
      if (t.is_ssd) {
        device = std::make_unique<storage::SsdDevice>(profile, seeder.next(),
                                                      config.ssd_gc);
      } else {
        device = std::make_unique<storage::HddDevice>(
            profile, seeder.next(), config.hdd_sequential_factor);
      }
      servers_.push_back(std::make_unique<DataServer>(
          sim_, std::move(device), name, t.is_ssd,
          config.server_per_stripe_overhead * factor, factor));
    }
  }

  if (config.gc_pause.duration > 0.0) {
    if (!(config.gc_pause.period > 0.0)) {
      throw std::invalid_argument(
          "gc_pause.period must be > 0 when gc_pause.duration is set");
    }
    if (!(config.gc_pause.factor >= 1.0)) {
      throw std::invalid_argument(
          "gc_pause.factor must be >= 1");
    }
    std::size_t target = 0;
    if (config.gc_pause.server >= 0) {
      target = static_cast<std::size_t>(config.gc_pause.server);
      if (target >= servers_.size()) {
        throw std::invalid_argument("gc_pause.server out of range");
      }
    } else {
      // Default: the first SSD server — the paper's long-tailed device class.
      for (std::size_t ti = 0; ti < tiers_.size(); ++ti) {
        if (tiers_[ti].is_ssd && tiers_[ti].count > 0) {
          target = tier_begin_[ti];
          break;
        }
      }
    }
    servers_[target]->set_gc_pause(config.gc_pause.period,
                                   config.gc_pause.duration,
                                   config.gc_pause.factor);
  }

  if (config.fail_server >= 0) {
    const auto target = static_cast<std::size_t>(config.fail_server);
    if (target >= servers_.size()) {
      throw std::invalid_argument("fail_server out of range");
    }
    if (!(config.fail_at >= 0.0)) {
      throw std::invalid_argument("fail_at must be >= 0");
    }
    servers_[target]->set_failed_at(config.fail_at);
  }

  mds_ = std::make_unique<MetadataServer>(sim_, config.mds_lookup_cost,
                                          config.mds_per_region_cost);

  std::vector<DataServer*> server_ptrs;
  server_ptrs.reserve(servers_.size());
  for (auto& s : servers_) server_ptrs.push_back(s.get());
  for (std::size_t i = 0; i < config.num_clients; ++i) {
    clients_.push_back(std::make_unique<Client>(sim_, *network_, server_ptrs, i));
  }

  // Set the simulator's observer *before* constructing the cluster to get
  // per-component tracks and attribution; a cluster built without one runs
  // the uninstrumented fast paths.
  if (sim_.observer() != nullptr) {
    std::size_t global = 0;
    for (std::size_t ti = 0; ti < tiers_.size(); ++ti) {
      for (std::size_t i = 0; i < tiers_[ti].count; ++i, ++global) {
        servers_[global]->attach_observer(static_cast<std::uint32_t>(global),
                                          static_cast<std::uint32_t>(ti));
      }
    }
    network_->attach_observer();
    for (auto& c : clients_) c->attach_observer();
  }
}

Seconds Cluster::server_io_time(std::size_t i) const {
  return servers_.at(i)->io_time() + network_->server_link(i).busy_time();
}

void Cluster::reset_stats() {
  for (auto& s : servers_) s->reset_stats();
  for (std::size_t i = 0; i < num_servers(); ++i) {
    network_->server_link(i).reset_stats();
  }
  for (std::size_t i = 0; i < num_clients(); ++i) {
    network_->client_link(i).reset_stats();
  }
}

}  // namespace harl::pfs

#include "src/middleware/rebuild.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/storage/profiles.hpp"

namespace harl::mw {

namespace {

std::vector<pfs::DataServer*> server_ptrs(pfs::Cluster& cluster) {
  std::vector<pfs::DataServer*> servers;
  servers.reserve(cluster.num_servers());
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    servers.push_back(&cluster.server(i));
  }
  return servers;
}

double mean_factor(const std::vector<double>& factors) {
  if (factors.empty()) return 1.0;
  double sum = 0.0;
  for (double f : factors) sum += f;
  return sum / static_cast<double>(factors.size());
}

}  // namespace

std::vector<std::uint32_t> choose_replica_tiers(
    const core::Plan& plan, const core::TieredCostParams& params) {
  std::vector<std::size_t> counts = plan.tier_counts;
  if (counts.empty()) {
    for (const auto& tier : params.tiers) counts.push_back(tier.count);
  }
  if (counts.size() != 2 || params.tiers.size() != 2) {
    throw std::invalid_argument("replica tier choice needs a two-tier plan");
  }
  // Modeled read cost of `probe` bytes on each tier, scaled by the tier's
  // mean device factor (a slower fleet serves the degraded read slower).
  const auto tier_cost = [&](std::size_t tier, Bytes probe) {
    const storage::OpProfile& profile = params.tiers[tier].profile.read;
    const double factor = mean_factor(params.tiers[tier].device_factors);
    return factor * (profile.startup_mean() +
                     static_cast<double>(probe) * profile.per_byte);
  };

  std::vector<std::uint32_t> tiers;
  tiers.reserve(plan.rst.size());
  for (std::size_t r = 0; r < plan.rst.size(); ++r) {
    Bytes probe = 0;
    for (Bytes st : plan.rst.entry(r).stripes) probe = std::max(probe, st);
    if (probe == 0) probe = 64 * KiB;

    std::uint32_t best = 0;
    double best_cost = 0.0;
    bool found = false;
    for (std::uint32_t tier = 0; tier < counts.size(); ++tier) {
      if (counts[tier] < 2) continue;  // cannot absorb a same-tier failure
      const double cost = tier_cost(tier, probe);
      if (!found || cost < best_cost) {
        best = tier;
        best_cost = cost;
        found = true;
      }
    }
    tiers.push_back(found ? best : 0);
  }
  return tiers;
}

RebuildManager::RebuildManager(pfs::Cluster& cluster, Options options)
    : sim_(cluster.simulator()),
      // Client-NIC id 0: rebuild shares compute node 0's link, so its
      // transfers contend with that node's foreground traffic too.
      client_(cluster.simulator(), cluster.network(), server_ptrs(cluster), 0),
      options_(options) {
  if (options_.failed_server >= cluster.num_servers()) {
    throw std::invalid_argument("failed server index out of range");
  }
  if (!(options_.bandwidth > 0.0) || options_.chunk == 0) {
    throw std::invalid_argument("rebuild needs bandwidth > 0 and chunk > 0");
  }
  using Kind = obs::MetricsRegistry::Kind;
  m_bytes_ = metrics_.family("rebuild.rebuilt_bytes", Kind::kCounter);
  m_chunks_ = metrics_.family("rebuild.chunks", Kind::kCounter);
  m_interference_ = metrics_.family("rebuild.interference_s", Kind::kCounter);
}

void RebuildManager::add_file(std::shared_ptr<const pfs::Layout> layout,
                              Bytes file_size,
                              const pfs::ReplicaMap* replicas) {
  if (armed_) throw std::logic_error("cannot add files after arm()");
  if (layout == nullptr) throw std::invalid_argument("rebuild needs a layout");
  if (replicas == nullptr) {
    throw std::invalid_argument("an unreplicated file cannot be rebuilt");
  }
  items_.push_back(Item{std::move(layout), file_size, replicas});
}

void RebuildManager::arm() {
  if (armed_) throw std::logic_error("rebuild already armed");
  armed_ = true;
  const Seconds now = sim_.now();
  const Seconds delay = options_.start_at > now ? options_.start_at - now : 0.0;
  sim_.schedule_after(delay, [this] {
    active_ = true;
    next_chunk();
  });
}

void RebuildManager::next_chunk() {
  // Advance the scan cursor past chunks that do not touch the failed server:
  // their data is fully alive, so they cost neither traffic nor time.
  while (item_ < items_.size()) {
    Item* item = &items_[item_];
    if (cursor_ >= item->size) {
      ++item_;
      cursor_ = 0;
      continue;
    }
    const Bytes begin = cursor_;
    const Bytes len = std::min<Bytes>(options_.chunk, item->size - begin);
    cursor_ += len;

    Bytes lost = 0;
    for (const auto& sub : item->layout->map(begin, len)) {
      if (sub.server == options_.failed_server) lost += sub.size;
    }
    if (lost == 0) continue;

    const Seconds issue = sim_.now();
    // Reconstruction read (lost extents come from their replica homes), then
    // a re-replicated write restoring two live copies of the whole chunk.
    client_.io(
        *item->layout, IoOp::kRead, begin, len,
        [this, item, begin, len, lost, issue] {
          client_.io(
              *item->layout, IoOp::kWrite, begin, len,
              [this, lost, issue] {
                rebuilt_bytes_ += lost;
                ++chunks_;
                const Seconds now = sim_.now();
                const Seconds inflight = now - issue;
                interference_ += inflight;
                const obs::LabelSet labels;
                metrics_.add(m_bytes_, labels, static_cast<double>(lost));
                metrics_.add(m_chunks_, labels, 1.0);
                metrics_.add(m_interference_, labels, inflight);
                // Throttle: pace the scan by the configured bandwidth.
                const Seconds earliest =
                    issue + static_cast<double>(lost) / options_.bandwidth;
                if (earliest > now) {
                  sim_.schedule_after(earliest - now, [this] { next_chunk(); });
                } else {
                  next_chunk();
                }
              },
              obs::kNoId, item->replicas);
        },
        obs::kNoId, item->replicas);
    return;
  }

  active_ = false;
  done_ = true;
  finished_at_ = sim_.now();
  if (done_hook_) done_hook_(rebuilt_bytes_, finished_at_);
}

}  // namespace harl::mw

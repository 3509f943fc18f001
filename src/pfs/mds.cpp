#include "src/pfs/mds.hpp"

#include "src/pfs/region_layout.hpp"

#include <utility>

namespace harl::pfs {

MetadataServer::MetadataServer(sim::Simulator& sim, Seconds lookup_cost,
                               Seconds per_region_cost)
    : queue_(sim, "mds"),
      lookup_cost_(lookup_cost),
      per_region_cost_(per_region_cost) {}

void MetadataServer::register_file(const std::string& name,
                                   std::shared_ptr<const Layout> layout) {
  files_[name] = std::move(layout);
}

void MetadataServer::remove_file(const std::string& name) { files_.erase(name); }

bool MetadataServer::has_file(const std::string& name) const {
  return files_.count(name) > 0;
}

void MetadataServer::lookup(
    const std::string& name,
    std::function<void(std::shared_ptr<const Layout>)> cb) {
  // Resolve at service time: by the instant the RPC is actually served the
  // namespace may have dropped (or replaced) the file, and the caller must
  // see that state, not a layout pinned when the RPC entered the queue.
  // The name rides behind a shared_ptr so the task fits InlineTask's
  // in-place buffer (8 + 32 + 16 = 56 = kCapacity).
  queue_.submit(lookup_cost_,
                [this, cb = std::move(cb),
                 name = std::make_shared<const std::string>(name)] {
                  cb(layout_of(*name));
                });
}

void MetadataServer::placement_lookup(
    const std::string& name,
    std::function<void(std::shared_ptr<const Layout>)> cb) {
  // The RST consulted for costing is the one visible at submission (the
  // service time of a FIFO job is fixed when it enqueues); the layout handed
  // to the callback is re-resolved at service time, like lookup().
  auto layout = layout_of(name);
  const std::size_t regions = layout ? region_count_of(*layout) : 1;
  const Seconds service =
      lookup_cost_ + per_region_cost_ * static_cast<double>(regions);
  queue_.submit(service,
                [this, cb = std::move(cb),
                 name = std::make_shared<const std::string>(name)] {
                  cb(layout_of(*name));
                });
}

std::size_t MetadataServer::region_count_of(const Layout& layout) {
  if (const auto* region = dynamic_cast<const RegionLayout*>(&layout)) {
    return region->region_count();
  }
  return 1;
}

std::shared_ptr<const Layout> MetadataServer::layout_of(
    const std::string& name) const {
  auto it = files_.find(name);
  return it == files_.end() ? nullptr : it->second;
}

}  // namespace harl::pfs

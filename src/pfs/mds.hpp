// Metadata server.
//
// Holds per-file layout metadata (including HARL's region stripe table once
// installed).  Clients contact the MDS once per open; lookups are charged a
// constant service time through a FIFO queue, modelling the metadata RPC of
// a real PFS.  During reads/writes clients talk to data servers directly,
// exactly as the paper describes (Section III-F).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/pfs/layout.hpp"
#include "src/sim/resource.hpp"
#include "src/sim/simulator.hpp"

namespace harl::pfs {

class MetadataServer {
 public:
  /// `lookup_cost` is the base metadata RPC service time; `per_region_cost`
  /// is added per RST region during placement lookups (paper Section III-C:
  /// too many regions "leads to substantial extra metadata management
  /// overhead"), making region-count control measurable.
  MetadataServer(sim::Simulator& sim, Seconds lookup_cost,
                 Seconds per_region_cost = 2e-6);

  /// Registers (or replaces) a file's layout.
  void register_file(const std::string& name,
                     std::shared_ptr<const Layout> layout);

  void remove_file(const std::string& name);
  bool has_file(const std::string& name) const;

  /// Asynchronous lookup with the RPC cost applied; the callback receives
  /// the layout (nullptr if the file is unknown).  The layout is resolved at
  /// *service* time, not submission time: a remove_file that lands while the
  /// lookup is queued yields nullptr instead of a layout the namespace no
  /// longer owns (the dangling-layout hazard of concurrent open/unlink).
  void lookup(const std::string& name,
              std::function<void(std::shared_ptr<const Layout>)> cb);

  /// Per-request placement lookup (paper Section III-F: "MDSs look up the
  /// RST table according to the request's offset and length").  Costed as
  /// lookup_cost + per_region_cost * (the layout's region count), so richer
  /// RSTs are more expensive to consult.
  void placement_lookup(const std::string& name,
                        std::function<void(std::shared_ptr<const Layout>)> cb);

  /// Region count used for placement costing (1 for non-region layouts).
  static std::size_t region_count_of(const Layout& layout);

  /// Immediate, cost-free lookup for tools and assertions.
  std::shared_ptr<const Layout> layout_of(const std::string& name) const;

  /// Registered file count (namespace size).
  std::size_t file_count() const { return files_.size(); }

  std::uint64_t lookups_served() const { return queue_.jobs(); }

 private:
  std::map<std::string, std::shared_ptr<const Layout>> files_;
  sim::FifoResource queue_;
  Seconds lookup_cost_;
  Seconds per_region_cost_;
};

}  // namespace harl::pfs

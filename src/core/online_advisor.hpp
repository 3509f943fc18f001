// On-line data layout advisor (paper Section V future work: "explore
// on-line data layout and data migration methods to make heterogeneous I/O
// systems more intelligent").
//
// The offline pipeline optimizes once from a first-execution trace; if the
// workload later drifts (request sizes change, read/write mix flips), the
// installed RST goes stale.  The advisor watches the live request stream in
// fixed-size windows: when a completed window's requests would cost
// materially less under a re-optimized layout than under the current RST,
// it emits a re-layout recommendation (new RST, expected model gain, and
// the extent of data whose placement changes — the migration cost driver).
// Adoption is explicit (`adopt`), since acting on it means migrating data.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "src/core/cost_memo.hpp"
#include "src/core/planner.hpp"

namespace harl::core {

class OnlineAdvisor {
 public:
  struct Options {
    std::size_t window = 1024;  ///< requests per analysis window
    /// Minimum relative model-cost reduction to recommend a re-layout
    /// (re-striping implies migration, so small gains are not worth it).
    double min_gain = 0.10;
    PlannerOptions planner;
  };

  struct Recommendation {
    RegionStripeTable rst;          ///< proposed replacement table
    Seconds current_cost = 0.0;     ///< window cost under the current RST
    Seconds optimized_cost = 0.0;   ///< window cost under the proposal
    double gain = 0.0;              ///< 1 - optimized/current
    Bytes affected_extent = 0;      ///< bytes of file span whose stripes change
    std::size_t window_requests = 0;
    /// Maximal [begin, end) spans (within the window's touched extent) whose
    /// governing stripes change — exactly the data a migration must move.
    /// Their lengths sum to `affected_extent`.
    std::vector<std::pair<Bytes, Bytes>> changed_ranges;
  };

  /// `current` is the RST installed by the offline Analysis Phase (or a
  /// single-region default).  Must be non-empty.
  OnlineAdvisor(TieredCostParams params, RegionStripeTable current,
                Options options);

  /// Feeds one completed request.  Returns a recommendation when this
  /// request completes a window whose re-optimization clears `min_gain`.
  std::optional<Recommendation> observe(const trace::TraceRecord& record);

  /// Installs a recommendation as the new current table.
  void adopt(const Recommendation& recommendation);

  const RegionStripeTable& current() const { return current_; }
  std::size_t windows_analyzed() const { return windows_analyzed_; }
  std::size_t recommendations_made() const { return recommendations_made_; }

  /// Cost-kernel evaluations performed / avoided across every per-window
  /// re-optimization so far.  The scratch memo and (when serial) the planner
  /// pool are threaded through `observe`'s analyze call, so saved
  /// evaluations accumulate across windows instead of starting cold.
  std::uint64_t cost_evals() const { return cost_evals_; }
  std::uint64_t cost_evals_saved() const { return cost_evals_saved_; }

  /// Model cost of `records` when each request is striped per `rst`'s
  /// governing region — its stripes and member restriction, priced by the
  /// device-aware request_cost (requests spanning a boundary are costed with
  /// the layout of their starting region, the dominant share of their
  /// bytes).
  static Seconds cost_under(const TieredCostParams& params,
                            const RegionStripeTable& rst,
                            std::span<const trace::TraceRecord> records);

 private:
  TieredCostParams params_;
  RegionStripeTable current_;
  Options options_;
  /// Kept in ByOffset order by insertion, so each full window is already the
  /// sorted trace `analyze` expects — no per-window re-sort of the world.
  std::vector<trace::TraceRecord> window_;
  /// Optimizer scratch threaded through every window's analyze call.
  CostMemo memo_;
  std::size_t windows_analyzed_ = 0;
  std::size_t recommendations_made_ = 0;
  std::uint64_t cost_evals_ = 0;
  std::uint64_t cost_evals_saved_ = 0;
};

}  // namespace harl::core

#include "src/core/online_advisor.hpp"

#include <algorithm>
#include <stdexcept>

namespace harl::core {

OnlineAdvisor::OnlineAdvisor(TieredCostParams params, RegionStripeTable current,
                             Options options)
    : params_(std::move(params)),
      current_(std::move(current)),
      options_(options) {
  if (current_.empty()) {
    throw std::invalid_argument("advisor needs a non-empty current RST");
  }
  if (options_.window == 0) {
    throw std::invalid_argument("window must be positive");
  }
  if (options_.min_gain < 0.0 || options_.min_gain >= 1.0) {
    throw std::invalid_argument("min_gain must be in [0, 1)");
  }
  window_.reserve(options_.window);
}

Seconds OnlineAdvisor::cost_under(const TieredCostParams& params,
                                  const RegionStripeTable& rst,
                                  std::span<const trace::TraceRecord> records) {
  Seconds total = 0.0;
  for (const auto& r : records) {
    const RstEntry& entry = rst.lookup(r.offset);
    total += request_cost(params, r.op, r.offset, r.size, entry.stripes,
                          entry.members);
  }
  return total;
}

std::optional<OnlineAdvisor::Recommendation> OnlineAdvisor::observe(
    const trace::TraceRecord& record) {
  // Binary insertion keeps the window in ByOffset order as it fills, so a
  // full window is already the sorted trace `analyze` expects (its
  // pre-sorted fast path takes over) instead of re-sorting per window.
  window_.insert(
      std::upper_bound(window_.begin(), window_.end(), record, trace::ByOffset{}),
      record);
  if (window_.size() < options_.window) return std::nullopt;

  // Window complete: re-run the Analysis Phase on the window alone.
  ++windows_analyzed_;
  std::vector<trace::TraceRecord> window;
  window.swap(window_);
  window_.reserve(options_.window);

  const Seconds current_cost = cost_under(params_, current_, window);
  // Thread the persistent scratch memo through the re-optimization (the
  // planner drops it automatically on the region-parallel path, where
  // per-shard memos apply instead).
  PlannerOptions planner = options_.planner;
  planner.optimizer.scratch = &memo_;
  Plan plan;
  try {
    plan = analyze(window, params_, planner);
  } catch (const std::exception&) {
    return std::nullopt;  // degenerate window (should not happen in practice)
  }
  cost_evals_ += plan.total_cost_evals();
  cost_evals_saved_ += plan.total_cost_evals_saved();
  const Seconds optimized_cost = cost_under(params_, plan.rst, window);
  if (current_cost <= 0.0) return std::nullopt;
  const double gain = 1.0 - optimized_cost / current_cost;
  if (gain < options_.min_gain) return std::nullopt;

  Recommendation rec;
  rec.current_cost = current_cost;
  rec.optimized_cost = optimized_cost;
  rec.gain = gain;
  rec.window_requests = window.size();

  // Affected extent: file span covered by the window whose governing stripe
  // pair changes — the upper bound on bytes a migration would move.  The
  // changed spans themselves (coalesced) ride along for the migration
  // engine.
  Bytes max_end = 0;
  for (const auto& r : window) max_end = std::max(max_end, r.offset + r.size);
  Bytes affected = 0;
  Bytes cursor = 0;
  while (cursor < max_end) {
    const RstEntry& old_entry = current_.lookup(cursor);
    const RstEntry& new_entry = plan.rst.lookup(cursor);
    // Next boundary in either table.
    Bytes next = max_end;
    const std::size_t old_idx = current_.region_of(cursor);
    const std::size_t new_idx = plan.rst.region_of(cursor);
    if (old_idx + 1 < current_.size()) {
      next = std::min(next, current_.entry(old_idx + 1).offset);
    }
    if (new_idx + 1 < plan.rst.size()) {
      next = std::min(next, plan.rst.entry(new_idx + 1).offset);
    }
    if (!(old_entry.stripes == new_entry.stripes)) {
      affected += next - cursor;
      if (!rec.changed_ranges.empty() &&
          rec.changed_ranges.back().second == cursor) {
        rec.changed_ranges.back().second = next;  // coalesce adjacent spans
      } else {
        rec.changed_ranges.emplace_back(cursor, next);
      }
    }
    cursor = next;
  }
  rec.affected_extent = affected;
  rec.rst = std::move(plan.rst);

  ++recommendations_made_;
  return rec;
}

void OnlineAdvisor::adopt(const Recommendation& recommendation) {
  if (recommendation.rst.empty()) {
    throw std::invalid_argument("cannot adopt an empty RST");
  }
  current_ = recommendation.rst;
}

}  // namespace harl::core

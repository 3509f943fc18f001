#include "src/core/region_divider.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/common/stats.hpp"

namespace harl::core {

namespace {

/// Multiplier applied to the threshold each tuning round.
constexpr double kThresholdGrowth = 2.0;
/// Tuning rounds after which the current division is accepted.
constexpr int kMaxTuningRounds = 16;

/// One pass of Algorithm 1 at a fixed threshold: the batch view of the
/// streaming core.
std::vector<DividedRegion> divide_once(
    std::span<const trace::TraceRecord> sorted, double threshold,
    std::vector<StreamingDivider::CvSample>* trajectory = nullptr) {
  StreamingDivider divider(threshold, trajectory);
  for (const auto& record : sorted) divider.add(record.offset, record.size);
  return divider.finish();
}

}  // namespace

StreamingDivider::StreamingDivider(double threshold,
                                   std::vector<CvSample>* trajectory)
    : threshold_(threshold),
      trajectory_(trajectory),
      trajectory_base_(trajectory != nullptr ? trajectory->size() : 0) {
  if (threshold <= 0.0) {
    throw std::invalid_argument("divider threshold must be positive");
  }
}

void StreamingDivider::add(Bytes offset, Bytes size) {
  if (index_ > 0 && offset < last_offset_) {
    throw std::invalid_argument("StreamingDivider requires ascending offsets");
  }
  last_offset_ = offset;
  max_end_ = std::max(max_end_, offset + size);
  if (window_.count() == 0) {
    reg_init_ = index_;
    region_offset_ = offset;
  }
  window_.add(static_cast<double>(size));
  const double cv_new = window_.cv();

  bool split = false;
  double relative_change = 0.0;
  if (window_.count() <= 2) {
    // Seeding: the paper computes the first CV from the first two entries
    // and only tests from the third onwards.
    cv_prev_ = cv_new;
  } else {
    // Relative CV change.  The denominator is floored at kCvFloor so that a
    // jump away from a zero CV (constant-size window) is a very large but
    // *finite* relative change — otherwise raising the threshold (the
    // paper's region-count control) could never loosen such splits.
    relative_change = std::abs(cv_new - cv_prev_) / std::max(cv_prev_, kCvFloor);
    if (relative_change < threshold_) {
      cv_prev_ = cv_new;
    } else {
      // CV jumped: this request closes the region (it is included, as in the
      // printed algorithm where avg is computed before the split) and the
      // next region starts at the following request.
      split = true;
      DividedRegion reg;
      reg.offset = region_offset_;
      reg.avg_request = window_.mean();
      reg.first_request = reg_init_;
      reg.last_request = index_ + 1;
      regions_.push_back(reg);
      window_.reset();
      cv_prev_ = 0.0;
    }
  }
  if (trajectory_ != nullptr) {
    trajectory_->push_back(
        CvSample{index_, offset, size, cv_new, relative_change, split});
  }
  ++index_;
}

std::vector<DividedRegion> StreamingDivider::finish() {
  if (window_.count() > 0) {
    DividedRegion reg;
    reg.offset = region_offset_;
    reg.avg_request = window_.mean();
    reg.first_request = reg_init_;
    reg.last_request = index_;
    regions_.push_back(reg);
    window_.reset();
  }
  // Tile the touched extent: clamp the first region to offset 0 and set each
  // region's end to its successor's start.
  if (!regions_.empty()) {
    regions_.front().offset = 0;
    for (std::size_t i = 0; i + 1 < regions_.size(); ++i) {
      regions_[i].end = regions_[i + 1].offset;
    }
    regions_.back().end = max_end_;
  }
  // Several requests at one offset can close a region and open the next at
  // that same offset, leaving an empty [X, X) region.  Fold each empty region
  // into its successor, which starts at the same byte, and withdraw the split
  // that closed it from the trajectory.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    DividedRegion reg = regions_[i];
    if (kept > 0 && regions_[kept - 1].offset == regions_[kept - 1].end) {
      const DividedRegion& empty = regions_[--kept];
      const auto n_empty = static_cast<double>(empty.request_count());
      const auto n_reg = static_cast<double>(reg.request_count());
      reg.avg_request = (empty.avg_request * n_empty + reg.avg_request * n_reg) /
                        (n_empty + n_reg);
      reg.offset = empty.offset;
      reg.first_request = empty.first_request;
      if (trajectory_ != nullptr) {
        (*trajectory_)[trajectory_base_ + empty.last_request - 1].split = false;
      }
    }
    regions_[kept++] = reg;
  }
  regions_.resize(kept);
  return std::move(regions_);
}

RegionDivision divide_regions_fixed(std::span<const trace::TraceRecord> sorted,
                                    Bytes chunk_size) {
  if (chunk_size == 0) throw std::invalid_argument("chunk size must be > 0");
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].offset < sorted[i - 1].offset) {
      throw std::invalid_argument("trace must be sorted by ascending offset");
    }
  }
  RegionDivision division;
  if (sorted.empty()) return division;

  Bytes max_end = 0;
  for (const auto& r : sorted) max_end = std::max(max_end, r.offset + r.size);

  std::size_t i = 0;
  while (i < sorted.size()) {
    // The chunk of request i; extend over any empty chunks that follow by
    // taking requests while they fall into this chunk.
    const Bytes chunk_index = sorted[i].offset / chunk_size;
    const Bytes chunk_begin = chunk_index * chunk_size;
    const Bytes chunk_end = chunk_begin + chunk_size;

    DividedRegion region;
    region.first_request = i;
    RunningStats sizes;
    while (i < sorted.size() && sorted[i].offset < chunk_end) {
      sizes.add(static_cast<double>(sorted[i].size));
      ++i;
    }
    region.last_request = i;
    region.offset = chunk_begin;
    region.avg_request = sizes.mean();
    division.regions.push_back(region);
  }

  // Tile: clamp the first region to 0 and close each at its successor.
  division.regions.front().offset = 0;
  for (std::size_t r = 0; r + 1 < division.regions.size(); ++r) {
    division.regions[r].end = division.regions[r + 1].offset;
  }
  division.regions.back().end = max_end;
  return division;
}

RegionDivision divide_regions(std::span<const trace::TraceRecord> sorted,
                              const DividerOptions& options) {
  return divide_regions_traced(sorted, options, nullptr, nullptr);
}

RegionDivision divide_regions_traced(
    std::span<const trace::TraceRecord> sorted, const DividerOptions& options,
    std::vector<StreamingDivider::CvSample>* trajectory,
    std::vector<TuningRound>* rounds) {
  if (options.threshold <= 0.0) {
    throw std::invalid_argument("divider threshold must be positive");
  }
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].offset < sorted[i - 1].offset) {
      throw std::invalid_argument("trace must be sorted by ascending offset");
    }
  }

  RegionDivision division;
  division.threshold_used = options.threshold;
  if (sorted.empty()) return division;

  Bytes max_end = 0;
  for (const auto& r : sorted) max_end = std::max(max_end, r.offset + r.size);
  const std::size_t fixed_count = options.fixed_region_size > 0
                                      ? static_cast<std::size_t>(
                                            (max_end + options.fixed_region_size - 1) /
                                            options.fixed_region_size)
                                      : 0;

  double threshold = options.threshold;
  for (int round = 0;; ++round) {
    division.regions = divide_once(sorted, threshold);
    division.threshold_used = threshold;
    division.tuning_rounds = round;
    if (rounds != nullptr) {
      rounds->push_back(TuningRound{round, threshold, division.regions.size()});
    }
    const bool too_many = fixed_count > 0 && division.regions.size() > fixed_count;
    if (!too_many || round >= kMaxTuningRounds) break;
    threshold *= kThresholdGrowth;
  }
  if (trajectory != nullptr) {
    // The trajectory of the accepted round only: one extra O(n) pass at the
    // final threshold (the tuning loop above may have tried several).
    trajectory->clear();
    divide_once(sorted, division.threshold_used, trajectory);
  }
  return division;
}

}  // namespace harl::core

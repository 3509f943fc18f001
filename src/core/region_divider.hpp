// File region division (paper Section III-C, Algorithm 1).
//
// Walks the trace's requests in ascending-offset order, growing a window and
// tracking the coefficient of variation (CV) of request sizes.  When the CV
// jumps by more than `threshold` (relative, 100% by default), the window is
// closed as a region and a new one starts.  If the division produces more
// regions than a fixed-size division (file_extent / fixed_region_size) would,
// the threshold is raised and the division re-run, loosening sensitivity and
// bounding metadata overhead.
//
// Edge-case conventions (the printed algorithm divides by cv_prev, which is
// zero initially and after every split):
//  * each window is seeded with its first two requests unconditionally (the
//    paper "reads the first two entries ... and calculates the CV"), so the
//    test applies from the third request on;
//  * with cv_prev == 0 (constant-size window so far), the relative change
//    denominator is floored at a small constant, so a CV jump reads as a
//    very large but finite change — it splits at the default threshold yet
//    can still be loosened by the region-count tuning.
#pragma once

#include <span>
#include <vector>

#include "src/common/stats.hpp"
#include "src/common/units.hpp"
#include "src/trace/record.hpp"

namespace harl::core {

struct DividerOptions {
  /// Initial relative-CV split threshold; 1.0 == the paper's 100%.
  double threshold = 1.0;
  /// Region-count cap reference: the fixed-size division's chunk size.
  Bytes fixed_region_size = 64 * MiB;
  /// Multiplier applied to the threshold each tuning round.
  double threshold_growth = 2.0;
  /// Maximum tuning rounds before accepting the current division.
  int max_tuning_rounds = 16;
};

/// One divided region: covers requests [first_request, last_request) of the
/// sorted input and file bytes [offset, end).
struct DividedRegion {
  Bytes offset = 0;          ///< region start (first request's offset)
  Bytes end = 0;             ///< region end (next region's start / file end)
  double avg_request = 0.0;  ///< average request size in the region (paper A_i)
  std::size_t first_request = 0;
  std::size_t last_request = 0;  ///< exclusive

  std::size_t request_count() const { return last_request - first_request; }
};

struct RegionDivision {
  std::vector<DividedRegion> regions;
  double threshold_used = 1.0;  ///< after auto-tuning
  int tuning_rounds = 0;
};

/// Incremental Algorithm 1: one CV update per appended request, O(1) state.
///
/// The batch `divide_regions` is this class fed in a loop (the two are
/// bit-identical by construction); the streaming form exists so a consumer
/// such as `harl_trace divide` can process each request once as it arrives
/// and record the per-request CV trajectory.  Offsets must be appended in
/// ascending order; `finish` closes the open region and tiles the touched
/// extent exactly like the batch pass.  One-shot: construct anew per pass.
class StreamingDivider {
 public:
  /// Relative-CV denominator floor (see divide_regions header comment): a
  /// jump away from a zero-CV window reads as a large but finite change.
  static constexpr double kCvFloor = 0.01;

  /// Per-request CV trajectory sample (captured when a trajectory vector is
  /// supplied — the `harl_trace divide` dump).
  struct CvSample {
    std::size_t index = 0;  ///< request index in feed order
    Bytes offset = 0;
    Bytes size = 0;
    double cv = 0.0;               ///< window CV after this request
    double relative_change = 0.0;  ///< 0 while the window is seeding
    bool split = false;            ///< this request closed a region
  };

  explicit StreamingDivider(double threshold,
                            std::vector<CvSample>* trajectory = nullptr);

  /// Appends one request; throws if `offset` decreases.
  void add(Bytes offset, Bytes size);
  void add(const trace::TraceRecord& record) { add(record.offset, record.size); }

  std::size_t fed() const { return index_; }
  /// Regions closed so far plus the open window (if any).
  std::size_t region_count() const {
    return regions_.size() + (window_.count() > 0 ? 1 : 0);
  }

  /// Closes the open region and tiles the touched extent ([0, max end)).
  /// Every returned region is non-empty (offset < end) except possibly a
  /// last region of zero-size requests.
  std::vector<DividedRegion> finish();

 private:
  double threshold_;
  std::vector<CvSample>* trajectory_;
  std::size_t trajectory_base_;  ///< trajectory size before this pass
  std::vector<DividedRegion> regions_;
  RunningStats window_;
  double cv_prev_ = 0.0;
  std::size_t reg_init_ = 0;
  Bytes region_offset_ = 0;
  Bytes last_offset_ = 0;
  Bytes max_end_ = 0;
  std::size_t index_ = 0;
};

/// One threshold-tuning round of `divide_regions` (for diagnostics dumps).
struct TuningRound {
  int round = 0;
  double threshold = 0.0;
  std::size_t regions = 0;
};

/// Runs Algorithm 1 over `sorted` (must be ascending by offset — use
/// TraceCollector::sorted_by_offset()).  The first region is clamped to
/// start at offset 0 and the last extends to max(offset+size) so the regions
/// tile the touched extent.  An empty trace yields no regions.
RegionDivision divide_regions(std::span<const trace::TraceRecord> sorted,
                              const DividerOptions& options = {});

/// `divide_regions` plus diagnostics: when non-null, `trajectory` receives
/// the per-request CV trajectory of the final accepted round and `rounds`
/// one entry per threshold-tuning round (threshold tried, regions produced).
RegionDivision divide_regions_traced(
    std::span<const trace::TraceRecord> sorted, const DividerOptions& options,
    std::vector<StreamingDivider::CvSample>* trajectory,
    std::vector<TuningRound>* rounds);

/// The strawman the paper rejects (Section III-C): "logically divide the
/// address space of a file into regions by a fixed chunk size (e.g. 64MB or
/// 128MB)".  Chunks are [0, chunk), [chunk, 2*chunk), ...; a request belongs
/// to the chunk containing its offset; chunks with no requests are merged
/// into the following occupied chunk.  Used as a baseline to show why
/// workload-driven splitting wins (bench_ablation_division).
RegionDivision divide_regions_fixed(std::span<const trace::TraceRecord> sorted,
                                    Bytes chunk_size);

}  // namespace harl::core

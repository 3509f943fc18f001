// Region stripe-size determination (paper Section III-E, Algorithm 2), for
// any number of storage tiers.
//
// A region's candidate layout is a per-tier stripe vector (s_0, ..., s_{k-1})
// with striping period S = sum_j count_j * s_j; the search finds the
// candidate with the least summed cost-model time over the region's requests
// (reads via Eq. 7, writes via Eq. 8).  There is one parameter type and one
// search; the number of tiers k chooses the candidate grid, on `step`
// multiples up to R, the region's average request size rounded up:
//
//  * k = 2 is the paper's Algorithm 2 grid: pairs (h, s) with h in
//    {0, step, ..., R} and s in {h + step, ..., R}.  s starts above h because
//    SServers are faster and should carry more bytes per period (load
//    balance), and h may be 0 so a region can live entirely on SServers
//    ({0K, 64K} in paper Section IV-B.3).  The h = R extreme keeps the single
//    candidate s = R + step, and a tier without servers only takes stripe 0.
//  * Any other k (the paper's stated future work) uses stripe vectors on the
//    same grid subject to s_0 <= ... <= s_{k-1} with tiers ordered
//    slowest-first — the non-strict k-tier analogue of "s starts from a size
//    larger than h".  Not all stripes may be zero.
//
// Ties in cost go to the lexicographically larger stripe vector, then to the
// larger member counts (see below), both compared from tier 0.
//
// Device-aware search: when a tier carries per-member speed factors
// (TierSpec::device_factors), every stripe candidate is additionally crossed
// with *member-prefix* choices — stripe over only the d fastest devices of a
// tier, for each d at a factor-group boundary of the canonical (ascending)
// factor vector.  The cost of a restricted candidate charges the worst
// factor among its selected members, so the search can trade width against
// excluding an aged straggler.  Homogeneous tiers contribute the single
// full-membership choice, leaving the candidate grid (and every output bit)
// unchanged.
//
// The search is an exact branch-and-bound over the grid.  Each candidate
// gets a lower bound: over the (op, size) classes of the scored requests,
// count times the kernel's minimum over every offset in the period
// (tiered_cost_offset_min), or the requests' exact costs for a class with
// fewer requests than twice the candidate's cell count (cheaper than the
// minimum there, and tighter).  Candidates are then scored in ascending bound
// order and the scan stops once a bound, less a 1e-9 relative margin,
// exceeds the best score; every candidate left unscored costs strictly more
// than the winner, so the result is the full grid search's, bit for bit.
// Bounds are computed on demand: every candidate first gets a cheaper floor
// key (count times tiered_cost_window_floor per class, never above the
// bound), and a candidate is tightened to its bound only once the scan
// reaches its key.  The scan scores in the same (bound, index) order and
// stops at the same point as bounding every candidate would.  Floor keys
// are computed sharded over an optional pool; tightening and the scan are
// serial, so the counters are the same at every pool width.  The search
// runs offline; `max_requests` caps the per-candidate scoring work by
// sampling the region's requests with a deterministic stride when the
// trace is huge, and request-class coalescing (cost_memo.hpp) collapses
// same-class requests to one cost evaluation per scored candidate without
// changing a single output bit.
//
// Shared bounds: an offset minimum depends on the calibration, the
// candidate and the class's (op, size), never on an offset or on which
// region asked.  A BoundTable handed to many searches (a population's files)
// therefore computes each one once.  Its key is (calibration fingerprint, R,
// step, homogeneous, space-aware share bound, op, size); the first five fix
// the candidate grid and its order, so slot i of a key's row is candidate
// i's minimum.  Slots fill lazily, only when a search tightens that
// candidate and the class takes the minimum branch; a row also keeps each
// candidate's window floor once computed.  A search reads the same doubles
// the model would have returned and sums them in the same class order —
// keys, bounds, scan, counters and result are bit-identical with or
// without a table.
#pragma once

#include <atomic>
#include <bit>
#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/common/io.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/tiered_cost_model.hpp"

namespace harl::core {

/// Compute-once store of offset minima and window floors shared by many
/// searches (see the file header).  Thread-safe: rows are created under a
/// mutex and slots are atomics, so two searches may fill one slot
/// concurrently — both compute the same pure function of the key and either
/// store wins.
class BoundTable {
 public:
  /// Everything that fixes a bound row: the candidate grid and its order
  /// (calibration, R, step, homogeneous, share bound) and the class.
  struct Key {
    std::uint64_t calibration = 0;  ///< params_fingerprint
    Bytes R = 0;
    Bytes step = 0;
    bool homogeneous = false;
    double share_bound = 1.0;  ///< 1.0 = no space-aware filter
    bool write = false;
    Bytes size = 0;
    auto operator<=>(const Key&) const = default;
  };

  /// One key's slots: per grid candidate, its offset minimum and its window
  /// floor.
  class Row {
   public:
    Row(std::size_t candidates, std::atomic<std::uint64_t>& filled)
        : minima_(std::make_unique<std::atomic<std::uint64_t>[]>(candidates)),
          floors_(std::make_unique<std::atomic<std::uint64_t>[]>(candidates)),
          size_(candidates),
          filled_(filled) {
      for (std::size_t i = 0; i < candidates; ++i) {
        minima_[i] = kEmpty;
        floors_[i] = kEmpty;
      }
    }
    std::size_t size() const { return size_; }

    /// Candidate `cand`'s offset minimum: the stored value, or `compute()`
    /// stored (counted in the table's filled()).
    template <typename Compute>
    double minimum(std::size_t cand, Compute&& compute) {
      return fetch(minima_[cand], compute, true);
    }
    /// Candidate `cand`'s window floor, likewise (not counted).
    template <typename Compute>
    double floor(std::size_t cand, Compute&& compute) {
      return fetch(floors_[cand], compute, false);
    }

   private:
    /// A NaN payload no arithmetic produces.
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    template <typename Compute>
    double fetch(std::atomic<std::uint64_t>& slot, Compute& compute,
                 bool count) {
      std::uint64_t bits = slot.load(std::memory_order_relaxed);
      if (bits != kEmpty) return std::bit_cast<double>(bits);
      const double value = compute();
      bits = kEmpty;
      if (slot.compare_exchange_strong(bits,
                                       std::bit_cast<std::uint64_t>(value),
                                       std::memory_order_relaxed) &&
          count) {
        filled_.fetch_add(1, std::memory_order_relaxed);
      }
      return value;
    }

    std::unique_ptr<std::atomic<std::uint64_t>[]> minima_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> floors_;
    std::size_t size_;
    std::atomic<std::uint64_t>& filled_;  ///< the table's fill count
  };

  /// The row for `key`, created with `candidates` empty slots on first use.
  /// Throws std::logic_error if the key's row has another size (two grids
  /// behind one key).
  Row& row(const Key& key, std::size_t candidates);

  /// Distinct minimum slots filled so far: offset minima actually computed.
  std::uint64_t filled() const { return filled_.load(); }
  /// Minimum-branch bound reads by every search's tightened candidates: the
  /// offset minima a table-less run of the same searches would compute.
  std::uint64_t reads() const { return reads_.load(); }
  void add_reads(std::uint64_t n) {
    reads_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  std::mutex mutex_;
  std::map<Key, std::unique_ptr<Row>> rows_;
  std::atomic<std::uint64_t> filled_{0};
  std::atomic<std::uint64_t> reads_{0};
};

struct OptimizerOptions {
  Bytes step = 4 * KiB;          ///< the paper's 4 KB grid step
  std::size_t max_requests = 4096;  ///< request-sampling cap (0 = no cap)
  /// Optional: shard the candidates' floor keys (tightening and the scan
  /// stay serial).
  ThreadPool* pool = nullptr;
  /// Space-aware constraint (PSA, the authors' companion work [33], and the
  /// paper's Discussion): bound the fraction of each region's bytes stored
  /// on the last tier (SServers) to N*s / (M*h + N*s) <= max_sserver_share.
  /// 1.0 = no bound (paper-pure Algorithm 2); a bound below 1.0 requires two
  /// tiers.  If no candidate satisfies the bound, the feasible candidate
  /// with the smallest SServer share wins instead.
  double max_sserver_share = 1.0;
  /// Optional shared bound table (see the file header): set for many
  /// searches over recurring grids, e.g. a population's files.  Results are
  /// bit-identical either way; a lone search gains nothing from one.
  BoundTable* bounds = nullptr;
};

/// Result of optimizing one region.
struct RegionStripes {
  std::vector<Bytes> stripes;  ///< winning per-tier sizes ({h, s} for k = 2)
  /// Winning per-tier member counts: stripe over only the `members[j]`
  /// fastest devices of tier j.  Empty = full tier membership (always the
  /// case for homogeneous params; the device-aware search may shrink a tier
  /// to exclude aged members when that lowers the modeled cost).
  std::vector<std::size_t> members;
  Seconds model_cost = 0.0; ///< summed model cost of the scored requests
  std::size_t candidates_evaluated = 0;  ///< grid size
  /// Candidates never scored because their lower bound exceeded the best
  /// score.
  std::size_t candidates_pruned = 0;
  /// Cost-kernel evaluations performed while scoring candidates.
  std::uint64_t cost_evals = 0;
  /// Evaluations avoided by request-class coalescing (cache hits).
  /// cost_evals + cost_evals_saved == (candidates_evaluated -
  /// candidates_pruned) * the sampled request count: one lookup per scored
  /// candidate and sampled request.
  std::uint64_t cost_evals_saved = 0;
};

/// Runs Algorithm 2.  `requests` are the region's file requests (any order);
/// `avg_request_size` is the region's A value from Algorithm 1.  Requires at
/// least one request, at least one server, and a finite avg_request_size > 0
/// whose round-up to a step multiple fits in Bytes (else
/// std::invalid_argument, as for a NaN max_sserver_share).  Grid
/// cost grows as (R/step)^k — use coarser steps for k >= 3 (candidates are
/// reported for tuning).
RegionStripes optimize_region(const TieredCostParams& params,
                              std::span<const FileRequest> requests,
                              double avg_request_size,
                              const OptimizerOptions& options = {});

/// Baseline for the segment-level ablation: best *homogeneous* stripe
/// (every tier's stripe equal) for the region, searched over the same grid.
RegionStripes optimize_region_homogeneous(const TieredCostParams& params,
                                          std::span<const FileRequest> requests,
                                          double avg_request_size,
                                          const OptimizerOptions& options = {});

/// Scores one candidate: summed model cost over (sampled) requests, one
/// request_cost call each in request order.  The search's memoized scorer
/// returns the same double, so this plain loop is its reference.  Throws
/// std::invalid_argument on a zero period.
Seconds region_cost(const TieredCostParams& params,
                    std::span<const FileRequest> requests,
                    std::span<const Bytes> stripes,
                    std::size_t max_requests = 0);

}  // namespace harl::core

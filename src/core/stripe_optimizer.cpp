#include "src/core/stripe_optimizer.hpp"

#include <algorithm>
#include <functional>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

#include "src/core/cost_memo.hpp"

namespace harl::core {

namespace {

/// Deterministic stride-sampled scoring indices: 0, k, 2k, ...
std::size_t sample_stride(std::size_t n, std::size_t max_requests) {
  if (max_requests == 0 || n <= max_requests) return 1;
  return (n + max_requests - 1) / max_requests;
}

Bytes round_up(Bytes value, Bytes step) {
  return (value + step - 1) / step * step;
}

struct Candidate {
  Seconds cost = std::numeric_limits<Seconds>::infinity();
  std::vector<Bytes> stripes;  ///< empty = sentinel (loses to any real one)
  std::vector<std::size_t> members;  ///< empty = full membership

  /// Total order: lower cost wins; ties prefer *larger* stripes.  Round-robin
  /// aggregation makes many stripe vectors cost-equivalent under the model
  /// (e.g. every s <= r/N gives the same per-SServer bytes for aligned
  /// requests); the largest of them minimizes per-stripe overheads the model
  /// does not price, and matches the paper's reported optima ({0K, 64K} for
  /// 128 KiB requests rather than {0K, 4K}).  Vectors compare
  /// lexicographically from tier 0; member counts break remaining ties the
  /// same way with larger (wider) membership winning — cost-equivalent
  /// layouts keep the most devices in play.  The order is deterministic, so
  /// results are independent of evaluation order and parallel sharding.
  bool better_than(const Candidate& other) const {
    if (cost != other.cost) return cost < other.cost;
    if (stripes.size() != other.stripes.size()) {
      return stripes.size() > other.stripes.size();  // beats the empty sentinel
    }
    if (stripes != other.stripes) return stripes > other.stripes;
    if (members.size() != other.members.size()) {
      return members.size() > other.members.size();
    }
    return members > other.members;
  }
};

/// Member-count choices for one tier: the distinct prefix lengths ending at
/// factor-group boundaries of the canonical (ascending) factor vector — e.g.
/// factors {1, 1, 4, 4} yield {2, 4} ("the two fresh devices" or "all
/// four"); intermediate prefixes are dominated because adding another member
/// of the same factor widens the stripe at no worst-factor cost.  A
/// homogeneous tier has the single full-membership choice.
std::vector<std::size_t> member_choices(const TierSpec& tier) {
  if (tier.device_factors.empty() || tier.count == 0) return {tier.count};
  std::vector<std::size_t> out;
  const std::vector<double>& f = tier.device_factors;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (i + 1 == f.size() || f[i + 1] != f[i]) out.push_back(i + 1);
  }
  return out;
}

/// FNV-1a over a member vector: the memo context of a heterogeneous
/// candidate (homogeneous candidates keep context 0).
std::uint64_t members_context(std::span<const std::size_t> members) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t m : members) {
    h ^= static_cast<std::uint64_t>(m);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The space-aware filter's SServer byte share N*s / (M*h + N*s) of a
/// two-tier stripe pair.
double sserver_share(const TieredCostParams& params, Bytes h, Bytes s) {
  const double M = static_cast<double>(params.tiers[0].count);
  const double N = static_cast<double>(params.tiers[1].count);
  return N * s / (M * h + N * s);
}

/// The candidate grid of Algorithm 2 (see stripe_optimizer.hpp), never
/// materialized.  A stripe vector is a point of `dims()` coordinates in step
/// units: one per tier, or the single shared stripe of the homogeneous grid.
/// A box is a product of per-coordinate ranges; its members are the grid's
/// vectors inside it, each crossed with every combination of per-tier member
/// choices (last tier varying fastest; a tier with stripe 0 has the single
/// choice 0).
///
/// Candidates are numbered in the order of the flat grid: vectors
/// lexicographically from tier 0, then member combinations.  Coordinate j's
/// values, given coordinate j - 1's value v, form the range [first_after(v),
/// last_after(v)].  `sums_` holds, per coordinate, prefix sums over its values
/// of the candidates of every completion, so a vector's index is a sum of k
/// prefix-sum differences.
class BoxGrid {
 public:
  BoxGrid(const TieredCostParams& params, Bytes R, Bytes step,
          bool homogeneous, double share_bound)
      : params_(params),
        k_(params.tiers.size()),
        dims_(homogeneous ? 1 : k_),
        top_(R / step),
        step_(step),
        homogeneous_(homogeneous),
        paper_(!homogeneous && k_ == 2) {
    for (const auto& tier : params.tiers) {
      if (!tier.device_factors.empty()) heterogeneous_ = true;
    }
    for (const auto& tier : params.tiers) {
      choices_.push_back(heterogeneous_ ? member_choices(tier)
                                        : std::vector<std::size_t>{tier.count});
    }
    // Space-aware filter: a row's pairs pass up to the last s whose share
    // is within the bound (the share never falls as s grows).  A row whose
    // first s fails ends before it.
    if (share_bound < 1.0 && paper_) {
      std::vector<Bytes> rows(top_ + 1);
      for (Bytes h = 0; h <= top_; ++h) {
        auto passes = [&](Bytes s) {
          return sserver_share(params, h * step, s * step) <= share_bound;
        };
        Bytes lo = first_after(h);
        Bytes hi = last_after(h);
        if (hi == 0 || !passes(lo)) {
          rows[h] = hi == 0 ? 0 : lo - 1;
          continue;
        }
        while (lo < hi) {  // passes(lo) holds
          const Bytes mid = lo + (hi - lo + 1) / 2;
          if (passes(mid)) {
            lo = mid;
          } else {
            hi = mid - 1;
          }
        }
        rows[h] = lo;
      }
      row_last_ = std::move(rows);
    }
    // below_[j][v]: candidates with coordinate j at v, over every completion
    // of the later coordinates; sums_[j] its prefix sums.
    const std::size_t values = static_cast<std::size_t>(top_) + 2;
    sums_.assign(dims_, std::vector<std::uint64_t>(values + 1, 0));
    std::vector<std::uint64_t> below(values, 0);
    for (std::size_t j = dims_; j-- > 0;) {
      for (Bytes v = 0; v < values; ++v) {
        std::uint64_t n = 0;
        if (v >= first(j) && v <= last(j)) {
          n = combos(j, v);
          if (j + 1 < dims_) n *= count(j + 1, first_after(v), last_after(v));
        }
        below[v] = n;
      }
      for (Bytes v = 0; v < values; ++v) {
        sums_[j][v + 1] = sums_[j][v] + below[v];
      }
    }
    // The all-zero vector, where the tree has it, is its first vector and
    // no candidate.
    std::vector<Bytes> v(dims_);
    zero_first_ = !homogeneous_;
    for (std::size_t j = 0; j < dims_ && zero_first_; ++j) {
      v[j] = j == 0 ? first(0) : first_after(v[j - 1]);
      const Bytes end = j == 0 ? last(0) : last_after(v[j - 1]);
      zero_first_ = v[j] == 0 && v[j] <= end;
    }
    size_ = count(0, first(0), last(0)) - (zero_first_ ? 1 : 0);
  }

  std::size_t dims() const { return dims_; }
  std::size_t size() const { return size_; }
  bool heterogeneous() const { return heterogeneous_; }

  /// The root box: every coordinate's whole range.
  void root(std::span<Bytes> lo, std::span<Bytes> hi) const {
    for (std::size_t j = 0; j < dims_; ++j) {
      lo[j] = first(j);
      hi[j] = last(j);
    }
  }

  /// Shrinks a box to the grid's order constraints between coordinates;
  /// false when that leaves it without a vector of the grid.
  bool tighten(std::span<Bytes> lo, std::span<Bytes> hi) const {
    if (paper_ && params_.tiers[1].count > 0) {
      // s >= h + 1, and s == top + 1 exactly when h == top.
      lo[1] = std::max(lo[1], lo[0] + 1);
      if (hi[1] > 0) hi[0] = std::min(hi[0], hi[1] - 1);
      if (lo[0] == top_) lo[1] = std::max(lo[1], top_ + 1);
      if (hi[0] < top_) hi[1] = std::min(hi[1], top_);
    } else if (!paper_ && !homogeneous_) {
      for (std::size_t j = 1; j < dims_; ++j) {
        lo[j] = std::max(lo[j], lo[j - 1]);
      }
      for (std::size_t j = dims_ - 1; j-- > 0;) {
        hi[j] = std::min(hi[j], hi[j + 1]);
      }
    }
    bool nonzero = false;
    for (std::size_t j = 0; j < dims_; ++j) {
      if (lo[j] > hi[j]) return false;
      nonzero = nonzero || hi[j] > 0;
    }
    return nonzero;
  }

  /// The box as the cost model's per-tier ranges.
  void box_tiers(std::span<const Bytes> lo, std::span<const Bytes> hi,
                 std::vector<BoxTier>& out) const {
    out.resize(k_);
    for (std::size_t j = 0; j < k_; ++j) {
      const std::size_t d = homogeneous_ ? 0 : j;
      const std::vector<std::size_t>& c = choices_[j];
      out[j] = BoxTier{lo[d] * step_, hi[d] * step_, c.front(), c.back(),
                       storage::worst_device_factor(
                           params_.tiers[j].device_factors, c.front())};
    }
  }

  /// A box spanning at most this many coordinate vectors is not bounded but
  /// handed over vector by vector: bounding it costs about as much as the
  /// floors of its members.
  static constexpr Bytes kLeafVolume = 4;

  /// Splits a box in two along its widest coordinate (the first, on a tie)
  /// and hands each nonempty half to on_box(lo, hi, half), or, when it spans at
  /// most kLeafVolume coordinate vectors, each of them to on_vector(v) in
  /// lexicographic order (on_vector skips those the grid lacks).
  template <typename OnBox, typename OnVector>
  void split(std::span<const Bytes> lo, std::span<const Bytes> hi,
             OnBox&& on_box, OnVector&& on_vector) const {
    std::size_t d = 0;
    for (std::size_t j = 1; j < dims_; ++j) {
      if (hi[j] - lo[j] > hi[d] - lo[d]) d = j;
    }
    const Bytes mid = lo[d] + (hi[d] - lo[d]) / 2;
    std::vector<Bytes> half_lo(dims_), half_hi(dims_);
    for (int half = 0; half < 2; ++half) {
      std::copy(lo.begin(), lo.end(), half_lo.begin());
      std::copy(hi.begin(), hi.end(), half_hi.begin());
      if (half == 0) {
        half_hi[d] = mid;
      } else {
        half_lo[d] = mid + 1;
      }
      if (!tighten(half_lo, half_hi)) continue;
      Bytes volume = 1;
      for (std::size_t j = 0; j < dims_ && volume <= kLeafVolume; ++j) {
        volume *= half_hi[j] - half_lo[j] + 1;
      }
      if (volume <= kLeafVolume) {
        std::vector<Bytes> v(half_lo);
        for (;;) {
          on_vector(std::span<const Bytes>{v});
          std::size_t j = dims_;
          while (j-- > 0 && v[j] == half_hi[j]) v[j] = half_lo[j];
          if (j >= dims_) break;
          ++v[j];
        }
      } else {
        on_box(std::span<const Bytes>{half_lo}, std::span<const Bytes>{half_hi},
               half);
      }
    }
  }

  /// Vector `v`'s first candidate index, or -1 when the grid lacks it.
  std::int64_t index(std::span<const Bytes> v) const {
    if (homogeneous_) {
      return static_cast<std::int64_t>((v[0] - 1) * combos(0, v[0]));
    }
    bool zero = true;
    std::uint64_t index = 0;
    std::uint64_t prefix = 1;  // combinations of the earlier coordinates
    for (std::size_t j = 0; j < dims_; ++j) {
      const Bytes lo = j == 0 ? first(0) : first_after(v[j - 1]);
      const Bytes hi = j == 0 ? last(0) : last_after(v[j - 1]);
      if (v[j] < lo || v[j] > hi) return -1;
      index += prefix * (sums_[j][v[j]] - sums_[j][lo]);
      prefix *= choice_count(j, v[j]);
      zero = zero && v[j] == 0;
    }
    if (zero) return -1;
    return static_cast<std::int64_t>(index - (zero_first_ ? 1 : 0));
  }

  /// Candidates of vector `v`, and the stripes and members of its n-th.
  std::size_t candidates(std::span<const Bytes> v) const {
    std::size_t n = 1;
    for (std::size_t j = 0; j < k_; ++j) n *= choice_count(j, coordinate(v, j));
    return n;
  }
  void candidate(std::span<const Bytes> v, std::size_t n,
                 std::span<Bytes> stripes,
                 std::span<std::size_t> members) const {
    for (std::size_t j = k_; j-- > 0;) {
      const Bytes c = coordinate(v, j);
      stripes[j] = c * step_;
      if (!heterogeneous_) continue;
      const std::vector<std::size_t>& choices = choices_[j];
      members[j] = c == 0 ? 0 : choices[n % choices.size()];
      if (c != 0) n /= choices.size();
    }
  }

 private:
  Bytes coordinate(std::span<const Bytes> v, std::size_t j) const {
    return homogeneous_ ? v[0] : v[j];
  }
  std::size_t choice_count(std::size_t j, Bytes v) const {
    return v == 0 ? 1 : choices_[j].size();
  }
  /// Candidates per vector with coordinate j at v, counting only tier j's
  /// choices (all of them, for the homogeneous grid's shared stripe).
  std::uint64_t combos(std::size_t j, Bytes v) const {
    if (!homogeneous_) return choice_count(j, v);
    std::uint64_t n = 1;
    for (std::size_t t = 0; t < k_; ++t) n *= choice_count(t, v);
    return n;
  }
  /// Coordinate j's whole range, and the range of any coordinate but the
  /// first after the one before it took the value `prev`.
  Bytes first(std::size_t j) const {
    if (homogeneous_) return 1;
    if (paper_ && params_.tiers[j].count == 0) return 0;
    return paper_ && j == 1 ? 1 : 0;
  }
  Bytes last(std::size_t j) const {
    if (paper_ && params_.tiers[j].count == 0) return 0;
    return paper_ && j == 1 ? top_ + 1 : top_;
  }
  Bytes first_after(Bytes prev) const {
    if (!paper_) return prev;
    return params_.tiers[1].count == 0 ? 0 : prev + 1;
  }
  Bytes last_after(Bytes prev) const {
    if (!paper_) return top_;
    if (params_.tiers[1].count == 0) return 0;
    const Bytes end = std::max(top_, prev + 1);
    return row_last_.empty() ? end : std::min(end, row_last_[prev]);
  }
  /// Candidates of the vectors with coordinate j in [lo, hi].
  std::uint64_t count(std::size_t j, Bytes lo, Bytes hi) const {
    return lo > hi ? 0 : sums_[j][hi + 1] - sums_[j][lo];
  }

  const TieredCostParams& params_;
  std::size_t k_;
  std::size_t dims_;
  Bytes top_;  ///< R / step
  Bytes step_;
  bool homogeneous_;
  bool paper_;
  bool heterogeneous_ = false;
  std::vector<std::vector<std::size_t>> choices_;  ///< per tier
  std::vector<Bytes> row_last_;  ///< filtered paper grid: last s per h
  std::vector<std::vector<std::uint64_t>> sums_;
  bool zero_first_ = false;
  std::size_t size_ = 0;
};

/// The sampled requests grouped by (op, size): `order` holds their indices
/// sorted by class, and class c spans order[begin, end).
struct RequestClasses {
  struct Class {
    IoOp op;
    Bytes size;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<std::size_t> order;
  std::vector<Class> classes;
};

RequestClasses request_classes(std::span<const FileRequest> requests,
                               std::size_t stride) {
  // Reads, then writes, each sorted by size with equal sizes in index
  // order: the order of a stable sort by (write, size).  The packed (size,
  // index) entries compare without reaching back into `requests`, and a
  // group whose sizes are already in order (one size, as in IOR) is not
  // sorted at all.
  using Entry = std::pair<Bytes, std::size_t>;
  std::vector<Entry> groups[2];
  for (std::size_t i = 0; i < requests.size(); i += stride) {
    groups[requests[i].op == IoOp::kWrite].push_back({requests[i].size, i});
  }
  auto by_size = [](const Entry& a, const Entry& b) { return a.first < b.first; };
  RequestClasses out;
  out.order.reserve(groups[0].size() + groups[1].size());
  for (std::vector<Entry>& group : groups) {
    if (!std::is_sorted(group.begin(), group.end(), by_size)) {
      std::stable_sort(group.begin(), group.end(), by_size);
    }
    for (std::size_t n = 0; n < group.size(); ++n) {
      const std::size_t at = out.order.size();
      out.order.push_back(group[n].second);
      if (n == 0 || group[n].first != group[n - 1].first) {
        out.classes.push_back(
            {requests[group[n].second].op, group[n].first, at, at});
      }
      out.classes.back().end = at + 1;
    }
  }
  return out;
}

/// The search engine: an exact branch-and-bound over the candidate grid.
///
/// Bound: a candidate's sampled cost is at least the sum, over the (op,
/// size) classes of the sampled requests, of count times the kernel's
/// minimum over all offsets (tiered_cost_offset_min); small classes add
/// their exact costs instead.  With a shared table the minima are read from
/// the rows of `grid_key` (per class op and size), computed only on a slot's
/// first use.  That bound is computed lazily behind two cheaper keys, each
/// never above it: a candidate's floor key (count times
/// tiered_cost_window_floor per class) and, for a box of candidates, the box
/// key (count times tiered_cost_box_floor per class, never above any
/// member's floor key).
///
/// Scan: one min-heap holds boxes, floor keys and tightened bounds, ordered
/// by (value, kind, index) with boxes before keys before bounds on a tie.  A
/// box at the head is split in two along its widest coordinate, and a box
/// of one stripe vector becomes its candidates' floor keys; a key at the
/// head is tightened to its bound; a bound at the head is scored.  The scan
/// stops at the first head whose value, less a 1e-9 relative margin,
/// exceeds the best score so far.  A key or bound reaches the head only
/// once every box is above it, so keys and bounds are processed in the
/// order, and up to the stopping point, of a scan that keyed every
/// candidate first.  Every candidate left unscored costs strictly more than
/// the winner, so the winner, its tie-breaks and its cost double are those
/// of the full grid search.
///
/// Scoring pre-selects per-op profile pointers so the hot loop pays no
/// per-request branching beyond the op pick, and reuses TierGeometry
/// scratch so it never allocates.  Heterogeneous params route through the
/// device-aware kernel with each candidate's worst-member factors;
/// homogeneous params take the original kernel, bit for bit.
RegionStripes search_engine(const TieredCostParams& params,
                            std::span<const FileRequest> requests,
                            const BoxGrid& grid,
                            const BoundTable::Key& grid_key,
                            const OptimizerOptions& options) {
  const std::size_t k = params.tiers.size();
  const bool heterogeneous = grid.heterogeneous();
  std::vector<std::size_t> counts(k);
  std::vector<const storage::OpProfile*> read_profiles(k);
  std::vector<const storage::OpProfile*> write_profiles(k);
  for (std::size_t j = 0; j < k; ++j) {
    counts[j] = params.tiers[j].count;
    read_profiles[j] = &params.tiers[j].profile.read;
    write_profiles[j] = &params.tiers[j].profile.write;
  }

  const std::size_t stride =
      sample_stride(requests.size(), options.max_requests);
  const std::size_t sampled = (requests.size() + stride - 1) / stride;
  // Sampled sums are scaled back to the full region so reported costs are
  // comparable regardless of sampling.
  auto scale = [&](Seconds sum) {
    return sum * static_cast<double>(requests.size()) /
           static_cast<double>(sampled);
  };

  // The candidates the scan has keyed: stripes and, for heterogeneous
  // params, member counts, k entries each.
  std::vector<Bytes> keyed_stripes;
  std::vector<std::size_t> keyed_members;

  // One candidate as the kernel sees it: stripes, participating servers per
  // tier and, for heterogeneous params, the worst factor among them.
  struct View {
    std::span<const Bytes> stripes;
    std::span<const std::size_t> use;
    std::vector<double> factors;
  };
  View view{{}, counts, std::vector<double>(k)};
  auto load = [&](std::size_t slot) {
    view.stripes = {keyed_stripes.data() + slot * k, k};
    if (!heterogeneous) return;
    view.use = {keyed_members.data() + slot * k, k};
    for (std::size_t j = 0; j < k; ++j) {
      view.factors[j] = storage::worst_device_factor(
          params.tiers[j].device_factors, view.use[j]);
    }
  };

  // The kernel for one request of `req`'s op and size at `offset`.
  std::vector<TierGeometry> geometry(k);
  auto kernel = [&](const FileRequest& req, Bytes offset) {
    const auto& profiles =
        req.op == IoOp::kRead ? read_profiles : write_profiles;
    if (heterogeneous) {
      return tiered_cost_kernel_devices(
          view.use, profiles, view.factors, params.t, params.net_latency,
          params.net_hops, params.per_stripe_overhead, offset, req.size,
          view.stripes, geometry);
    }
    return tiered_cost_kernel(view.use, profiles, params.t, params.net_latency,
                              params.net_hops, params.per_stripe_overhead,
                              offset, req.size, view.stripes, geometry);
  };

  // Scores the loaded candidate.  `memo` caches the kernel per (op, size,
  // offset mod S) class; requests are still accumulated in their original
  // order with identical values, so the total is bit-identical to
  // region_cost's plain sum (see cost_memo.hpp).  The memo context carries
  // the candidate's member selection.
  CostMemo memo;
  auto score = [&] {
    Bytes S = 0;
    for (std::size_t j = 0; j < k; ++j) {
      S += static_cast<Bytes>(view.use[j]) * view.stripes[j];
    }
    memo.reset(sampled, heterogeneous ? members_context(view.use) : 0);
    Seconds total = 0.0;
    for (std::size_t i = 0; i < requests.size(); i += stride) {
      const FileRequest& req = requests[i];
      total += memo.cost(req.op, req.size, req.offset % S,
                         [&](Bytes residue) { return kernel(req, residue); });
    }
    return scale(total);
  };

  const RequestClasses sampled_classes = request_classes(requests, stride);
  // Shared minima: one table row per class that can take the minimum
  // branch (every candidate has at least one cell).
  std::vector<BoundTable::Row*> rows(sampled_classes.classes.size(), nullptr);
  if (options.bounds != nullptr) {
    BoundTable::Key key = grid_key;
    for (std::size_t n = 0; n < rows.size(); ++n) {
      const RequestClasses::Class& c = sampled_classes.classes[n];
      if (c.end - c.begin < 2) continue;
      key.write = c.op == IoOp::kWrite;
      key.size = c.size;
      rows[n] = &options.bounds->row(key, grid.size());
    }
  }
  using Profiles = std::span<const storage::OpProfile* const>;
  auto profiles_of = [&](const RequestClasses::Class& c) {
    return c.op == IoOp::kRead ? Profiles{read_profiles}
                               : Profiles{write_profiles};
  };
  OffsetMinScratch work;
  auto class_bound = [&](const RequestClasses::Class& c, auto bound) {
    return bound(view.use, profiles_of(c),
                 heterogeneous ? std::span<const double>{view.factors}
                               : std::span<const double>{},
                 params.t, params.net_latency, params.net_hops,
                 params.per_stripe_overhead, c.size, view.stripes, work);
  };

  // The scan's heap.  `order` packs the kind above the index, so entries
  // compare as (value, kind, index); `slot` locates a box's ranges or a
  // candidate's stripes.
  enum Kind : std::uint64_t { kBox = 0, kKey = 1, kBound = 2 };
  struct Entry {
    Seconds value;
    std::uint64_t order;
    std::size_t slot;
    bool operator>(const Entry& other) const {
      return value != other.value ? value > other.value : order > other.order;
    }
  };
  auto order = [](Kind kind, std::uint64_t index) {
    return kind << 62 | index;
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  std::uint64_t floors = 0;

  // A candidate's floor key: count times the window floor per class.
  auto push_key = [&](std::size_t index, std::size_t slot) {
    load(slot);
    Seconds sum = 0.0;
    for (std::size_t n = 0; n < rows.size(); ++n) {
      const RequestClasses::Class& c = sampled_classes.classes[n];
      auto floor = [&] { return class_bound(c, tiered_cost_window_floor); };
      sum += static_cast<double>(c.end - c.begin) *
             (rows[n] != nullptr ? rows[n]->floor(index, floor) : floor());
      ++floors;
    }
    heap.push({scale(sum), order(kKey, index), slot});
  };

  // A box's key: count times the box floor per class.  Boxes live in
  // `ranges`, 2 * dims entries each (lows, then highs).
  const std::size_t dims = grid.dims();
  std::vector<Bytes> ranges;
  std::vector<BoxTier> box;
  BoxFloorScratch box_work;
  std::uint64_t boxes = 0;
  // `place` is the box's place in the split tree (0 once too deep to
  // number), its key in a shared table.
  std::vector<std::uint64_t> places;
  auto push_box = [&](std::span<const Bytes> lo, std::span<const Bytes> hi,
                      std::uint64_t place) {
    const std::size_t slot = places.size();
    ranges.insert(ranges.end(), lo.begin(), lo.end());
    ranges.insert(ranges.end(), hi.begin(), hi.end());
    places.push_back(place);
    grid.box_tiers(lo, hi, box);
    Seconds sum = 0.0;
    for (std::size_t n = 0; n < rows.size(); ++n) {
      const RequestClasses::Class& c = sampled_classes.classes[n];
      auto floor = [&] {
        return tiered_cost_box_floor(box, profiles_of(c), params.t,
                                     params.net_latency, params.net_hops,
                                     params.per_stripe_overhead, c.size,
                                     box_work);
      };
      const bool shared = rows[n] != nullptr && place != 0;
      sum += static_cast<double>(c.end - c.begin) *
             (shared ? rows[n]->box_floor(place, floor) : floor());
    }
    heap.push({scale(sum), order(kBox, boxes++), slot});
  };
  // One stripe vector: its candidates' floor keys.
  auto push_candidates = [&](std::span<const Bytes> v) {
    const std::int64_t first = grid.index(v);
    if (first < 0) return;
    for (std::size_t n = 0; n < grid.candidates(v); ++n) {
      const std::size_t slot = keyed_stripes.size() / k;
      keyed_stripes.resize(keyed_stripes.size() + k);
      if (heterogeneous) keyed_members.resize(keyed_members.size() + k);
      std::span<std::size_t> members;
      if (heterogeneous) members = {keyed_members.data() + slot * k, k};
      grid.candidate(v, n, {keyed_stripes.data() + slot * k, k}, members);
      push_key(static_cast<std::size_t>(first) + n, slot);
    }
  };
  // The tightened bound: count times the offset minimum per class, or the
  // exact costs of a class with fewer requests than the minimum's 2 * cells
  // breakpoints (cheaper there, and the tightest bound).
  std::uint64_t reads = 0;
  auto tighten = [&](std::size_t index, std::size_t slot) {
    load(slot);
    std::size_t cells = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if (view.stripes[j] > 0) cells += view.use[j];
    }
    Seconds sum = 0.0;
    for (std::size_t n = 0; n < rows.size(); ++n) {
      const RequestClasses::Class& c = sampled_classes.classes[n];
      const std::size_t count = c.end - c.begin;
      if (count < 2 * cells) {
        for (std::size_t r = c.begin; r < c.end; ++r) {
          const FileRequest& req = requests[sampled_classes.order[r]];
          sum += kernel(req, req.offset);
        }
        continue;
      }
      auto offset_min = [&] { return class_bound(c, tiered_cost_offset_min); };
      Seconds min = 0.0;
      if (rows[n] != nullptr) {
        ++reads;
        min = rows[n]->minimum(index, offset_min);
      } else {
        min = offset_min();
      }
      sum += static_cast<double>(count) * min;
    }
    heap.push({scale(sum), order(kBound, index), slot});
  };

  {
    std::vector<Bytes> lo(dims), hi(dims);
    grid.root(lo, hi);
    if (grid.tighten(lo, hi)) {
      if (lo == hi) {
        push_candidates(lo);
      } else {
        push_box(lo, hi, 1);
      }
    }
  }
  Candidate best;
  std::size_t scored = 0;
  std::vector<Bytes> split_lo, split_hi;
  while (!heap.empty()) {
    const Entry head = heap.top();
    if (head.value * (1.0 - 1e-9) > best.cost) break;
    heap.pop();
    const std::size_t index = head.order & ((std::uint64_t{1} << 62) - 1);
    switch (static_cast<Kind>(head.order >> 62)) {
      case kBox: {
        // Copied out: the halves grow `ranges`.
        const Bytes* at = ranges.data() + head.slot * 2 * dims;
        split_lo.assign(at, at + dims);
        split_hi.assign(at + dims, at + 2 * dims);
        const std::uint64_t place = places[head.slot];
        grid.split(split_lo, split_hi,
                   [&](std::span<const Bytes> lo, std::span<const Bytes> hi,
                       int half) {
                     const bool numbered = place != 0 && place >> 62 == 0;
                     push_box(lo, hi,
                              numbered ? 2 * place + (half == 0 ? 0 : 1) : 0);
                   },
                   push_candidates);
        break;
      }
      case kKey:
        tighten(index, head.slot);
        break;
      case kBound: {
        load(head.slot);
        Candidate c{score(), {view.stripes.begin(), view.stripes.end()},
                    heterogeneous ? std::vector<std::size_t>(view.use.begin(),
                                                             view.use.end())
                                  : std::vector<std::size_t>{}};
        ++scored;
        if (c.better_than(best)) best = std::move(c);
        break;
      }
    }
  }
  if (options.bounds != nullptr) options.bounds->add_reads(reads);

  RegionStripes result;
  result.stripes = std::move(best.stripes);
  result.members = std::move(best.members);
  result.model_cost = best.cost;
  result.candidates_evaluated = grid.size();
  result.candidates_pruned = grid.size() - scored;
  result.cost_evals = memo.misses();
  result.cost_evals_saved = memo.hits();
  result.floors_computed = floors;
  return result;
}

/// What fixes a search's candidate grid.
struct GridSpec {
  Bytes R = 0;
  Bytes step = 0;
  double share_bound = 1.0;  ///< 1.0 = no space-aware filter
};

/// Validates the grid's inputs and resolves the space-aware filter's bound.
GridSpec grid_spec(const TieredCostParams& params, double avg_request_size,
                   const OptimizerOptions& options, bool homogeneous) {
  if (options.step == 0) throw std::invalid_argument("optimizer step must be > 0");
  // Written so NaN fails too; the average must also round up to a step
  // multiple that fits in Bytes (a cast of a larger double is undefined).
  constexpr double kBytesLimit = 0x1p64;
  if (!(avg_request_size > 0.0 && avg_request_size < kBytesLimit) ||
      static_cast<Bytes>(avg_request_size) >
          std::numeric_limits<Bytes>::max() - (options.step - 1)) {
    throw std::invalid_argument(
        "average request size must be positive, finite and fit in Bytes");
  }
  std::size_t total_servers = 0;
  for (const auto& tier : params.tiers) total_servers += tier.count;
  if (total_servers == 0) {
    throw std::invalid_argument("cost params describe no servers");
  }
  // The monotone grid's (0, ..., 0, step) stripes only the last tier.
  if (!homogeneous && params.tiers.size() != 2 &&
      params.tiers.back().count == 0) {
    throw std::invalid_argument("zero striping period");
  }
  if (!(options.max_sserver_share > 0.0 && options.max_sserver_share <= 1.0)) {
    throw std::invalid_argument("max_sserver_share must be in (0, 1]");
  }
  const bool filter = options.max_sserver_share < 1.0;
  if (filter && params.tiers.size() != 2) {
    throw std::invalid_argument("max_sserver_share needs exactly two tiers");
  }

  const Bytes step = options.step;
  const Bytes R = std::max(step, round_up(static_cast<Bytes>(avg_request_size), step));

  // Space-aware filter: drop candidates whose last-tier byte share exceeds
  // the bound.  If that empties the grid, fall back to the minimum-share
  // candidates so the search still returns the most space-frugal layout.
  // The share never falls as s grows, so a row's least is at its first s;
  // the homogeneous grid's share is the same N / (M + N) everywhere.
  double share_bound = 1.0;
  if (filter) {
    const Bytes top = R / step;
    double min_share = 2.0;
    for (Bytes v = 0; v <= top; ++v) {
      if (homogeneous) {
        if (v > 0) {
          min_share =
              std::min(min_share, sserver_share(params, v * step, v * step));
        }
        continue;
      }
      if (v > 0 && params.tiers[0].count == 0) break;
      const Bytes s = params.tiers[1].count == 0 ? 0 : v + 1;
      if (v > 0 || s > 0) {
        min_share =
            std::min(min_share, sserver_share(params, v * step, s * step));
      }
    }
    share_bound = std::max(options.max_sserver_share, min_share + 1e-12);
  }

  return {R, step, share_bound};
}

/// Validates the inputs, builds the candidate grid and runs the engine.
RegionStripes search(const TieredCostParams& params,
                     std::span<const FileRequest> requests,
                     double avg_request_size, const OptimizerOptions& options,
                     bool homogeneous) {
  if (requests.empty()) {
    throw std::invalid_argument("optimizer needs at least one request");
  }
  const GridSpec spec =
      grid_spec(params, avg_request_size, options, homogeneous);
  const BoxGrid grid(params, spec.R, spec.step, homogeneous, spec.share_bound);
  if (grid.size() == 0) {
    throw std::logic_error("optimizer produced no candidates");
  }
  BoundTable::Key grid_key;
  if (options.bounds != nullptr) {
    grid_key.calibration = params_fingerprint(params);
    grid_key.R = spec.R;
    grid_key.step = spec.step;
    grid_key.homogeneous = homogeneous;
    grid_key.share_bound = spec.share_bound;
  }
  return search_engine(params, requests, grid, grid_key, options);
}

}  // namespace

BoundTable::Row& BoundTable::row(const Key& key, std::size_t candidates) {
  std::lock_guard lock(mutex_);
  std::unique_ptr<Row>& row = rows_[key];
  if (row == nullptr) row = std::make_unique<Row>(candidates, filled_);
  if (row->size() != candidates) {
    throw std::logic_error("bound table key names two candidate grids");
  }
  return *row;
}

RegionStripes optimize_region(const TieredCostParams& params,
                              std::span<const FileRequest> requests,
                              double avg_request_size,
                              const OptimizerOptions& options) {
  return search(params, requests, avg_request_size, options, false);
}

RegionStripes optimize_region_homogeneous(const TieredCostParams& params,
                                          std::span<const FileRequest> requests,
                                          double avg_request_size,
                                          const OptimizerOptions& options) {
  return search(params, requests, avg_request_size, options, true);
}

std::vector<GridCandidate> grid_candidates(const TieredCostParams& params,
                                           double avg_request_size,
                                           const OptimizerOptions& options,
                                           bool homogeneous) {
  const GridSpec spec =
      grid_spec(params, avg_request_size, options, homogeneous);
  const BoxGrid grid(params, spec.R, spec.step, homogeneous, spec.share_bound);
  const std::size_t k = params.tiers.size();
  std::vector<GridCandidate> out;
  auto on_vector = [&](std::span<const Bytes> v) {
    const std::int64_t first = grid.index(v);
    if (first < 0) return;
    for (std::size_t n = 0; n < grid.candidates(v); ++n) {
      GridCandidate c{static_cast<std::size_t>(first) + n,
                      std::vector<Bytes>(k),
                      std::vector<std::size_t>(grid.heterogeneous() ? k : 0)};
      grid.candidate(v, n, c.stripes, c.members);
      out.push_back(std::move(c));
    }
  };
  // Depth first, every box split down to its vectors.
  std::vector<std::pair<std::vector<Bytes>, std::vector<Bytes>>> stack(1);
  stack[0].first.resize(grid.dims());
  stack[0].second.resize(grid.dims());
  grid.root(stack[0].first, stack[0].second);
  if (!grid.tighten(stack[0].first, stack[0].second)) stack.clear();
  if (!stack.empty() && stack[0].first == stack[0].second) {
    on_vector(stack[0].first);
    stack.clear();
  }
  while (!stack.empty()) {
    const auto [lo, hi] = std::move(stack.back());
    stack.pop_back();
    grid.split(lo, hi,
               [&](std::span<const Bytes> l, std::span<const Bytes> h, int) {
                 stack.push_back({{l.begin(), l.end()}, {h.begin(), h.end()}});
               },
               on_vector);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.index < b.index;
  });
  return out;
}

Seconds region_cost(const TieredCostParams& params,
                    std::span<const FileRequest> requests,
                    std::span<const Bytes> stripes,
                    std::size_t max_requests) {
  if (stripes.size() != params.tiers.size()) {
    throw std::invalid_argument("tiers/stripes size mismatch");
  }
  Bytes S = 0;
  for (std::size_t j = 0; j < stripes.size(); ++j) {
    S += static_cast<Bytes>(params.tiers[j].count) * stripes[j];
  }
  if (S == 0) throw std::invalid_argument("zero striping period");
  const std::size_t stride = sample_stride(requests.size(), max_requests);
  Seconds total = 0.0;
  std::size_t scored = 0;
  for (std::size_t i = 0; i < requests.size(); i += stride) {
    total += request_cost(params, requests[i].op, requests[i].offset,
                          requests[i].size, stripes);
    ++scored;
  }
  if (scored == 0) return 0.0;
  return total * static_cast<double>(requests.size()) /
         static_cast<double>(scored);
}

}  // namespace harl::core

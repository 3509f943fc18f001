#include "src/core/stripe_optimizer.hpp"

#include <algorithm>
#include <functional>
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

/// Recursively enumerates the candidate stripe vectors from `tier` on, tier
/// 0 varying slowest; calls `visit` on each.  Tier j > 0 starts at tier
/// j - 1's stripe (plus one step on the `paper` grid) and runs to R, or to
/// that start when it exceeds R (the k = 2 h = R extreme); a zero lower
/// bound admits 0 itself, i.e. "skip this tier".  On the `paper` grid a tier
/// without servers takes only stripe 0.
void enumerate(const TieredCostParams& params, std::vector<Bytes>& stripes,
               std::size_t tier, Bytes R, Bytes step, bool paper,
               const std::function<void(const std::vector<Bytes>&)>& visit) {
  if (tier == stripes.size()) {
    for (Bytes s : stripes) {
      if (s > 0) {
        visit(stripes);
        return;
      }
    }
    return;  // all-zero is not a layout
  }
  if (paper && params.tiers[tier].count == 0) {
    stripes[tier] = 0;
    enumerate(params, stripes, tier + 1, R, step, paper, visit);
    return;
  }
  const Bytes lo = tier > 0 ? stripes[tier - 1] + (paper ? step : 0) : 0;
  for (Bytes s = lo; s <= std::max(R, lo); s = (s == 0 ? step : s + step)) {
    stripes[tier] = s;
    enumerate(params, stripes, tier + 1, R, step, paper, visit);
  }
  stripes[tier] = 0;
}

/// The candidate grid of Algorithm 2, chosen by the number of tiers k (see
/// stripe_optimizer.hpp): for k = 2 the paper's (h, s) pairs with s >= h +
/// step, for any other k the non-strict monotone vectors.  `homogeneous`
/// replaces either with the equal-stripe vectors (v, ..., v), v = step..R.
void for_each_candidate(
    const TieredCostParams& params, Bytes R, Bytes step, bool homogeneous,
    const std::function<void(const std::vector<Bytes>&)>& visit) {
  const std::size_t k = params.tiers.size();
  std::vector<Bytes> stripes(k, 0);
  if (homogeneous) {
    for (Bytes v = step; v <= R; v += step) {
      std::fill(stripes.begin(), stripes.end(), v);
      visit(stripes);
    }
    return;
  }
  enumerate(params, stripes, 0, R, step, /*paper=*/k == 2, visit);
}

/// The candidate grid as flat arrays indexed by candidate number, k entries
/// per candidate, so no candidate owns a heap vector.  Each stripe vector is
/// crossed with every combination of per-tier member choices (last tier
/// varying fastest; a tier with stripe 0 has the single choice 0).
/// Homogeneous params store no members: full membership.
class CandidateGrid {
 public:
  explicit CandidateGrid(const TieredCostParams& params)
      : k_(params.tiers.size()) {
    for (const auto& tier : params.tiers) {
      if (!tier.device_factors.empty()) heterogeneous_ = true;
    }
    if (heterogeneous_) {
      for (const auto& tier : params.tiers) {
        choices_.push_back(member_choices(tier));
      }
    }
  }

  void add(std::span<const Bytes> stripes) {
    std::size_t combos = 1;
    for (std::size_t j = 0; heterogeneous_ && j < k_; ++j) {
      if (stripes[j] != 0) combos *= choices_[j].size();
    }
    for (std::size_t n = 0; n < combos; ++n) {
      stripes_.insert(stripes_.end(), stripes.begin(), stripes.end());
      if (!heterogeneous_) continue;
      const std::size_t base = members_.size();
      members_.resize(base + k_, 0);
      std::size_t rem = n;
      for (std::size_t j = k_; j-- > 0;) {
        if (stripes[j] == 0) continue;
        const std::vector<std::size_t>& choices = choices_[j];
        members_[base + j] = choices[rem % choices.size()];
        rem /= choices.size();
      }
    }
  }

  std::size_t size() const { return stripes_.size() / k_; }
  bool heterogeneous() const { return heterogeneous_; }
  std::span<const Bytes> stripes(std::size_t cand) const {
    return {stripes_.data() + cand * k_, k_};
  }
  /// Per-tier member counts of a heterogeneous grid's candidate.
  std::span<const std::size_t> members(std::size_t cand) const {
    return {members_.data() + cand * k_, k_};
  }

 private:
  std::size_t k_;
  bool heterogeneous_ = false;
  std::vector<std::vector<std::size_t>> choices_;  ///< per tier
  std::vector<Bytes> stripes_;
  std::vector<std::size_t> members_;
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
  RequestClasses out;
  for (std::size_t i = 0; i < requests.size(); i += stride) {
    out.order.push_back(i);
  }
  auto key = [&](std::size_t i) {
    return std::pair{requests[i].op == IoOp::kWrite, requests[i].size};
  };
  std::stable_sort(out.order.begin(), out.order.end(),
                   [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
  for (std::size_t n = 0; n < out.order.size(); ++n) {
    const FileRequest& req = requests[out.order[n]];
    if (n == 0 || key(out.order[n]) != key(out.order[n - 1])) {
      out.classes.push_back({req.op, req.size, n, n});
    }
    out.classes.back().end = n + 1;
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
/// first use.  That bound is computed lazily: every candidate first gets a
/// cheap floor key (count times tiered_cost_window_floor per class, never
/// above the bound), sharded over the pool when one is given, and a
/// candidate is tightened to its bound only when the scan reaches its key.
///
/// Scan: candidates are scored serially in ascending (bound, index) order
/// and the scan stops at the first whose bound, less a 1e-9 relative margin,
/// exceeds the best score so far.  A min-heap holds the tightened bounds; a
/// heap entry is scored only once every untightened key is above it, so
/// the order and the stopping point are those of bounding every candidate.
/// Every candidate left unscored then costs strictly more than the winner,
/// so the winner, its tie-breaks and its cost double are those of the full
/// grid search, and the counters do not depend on the pool.
///
/// Scoring pre-selects per-op profile pointers so the hot loop pays no
/// per-request branching beyond the op pick, and reuses TierGeometry
/// scratch so it never allocates.  Heterogeneous params route through the
/// device-aware kernel with each candidate's worst-member factors;
/// homogeneous params take the original kernel, bit for bit.
RegionStripes search_engine(const TieredCostParams& params,
                            std::span<const FileRequest> requests,
                            const CandidateGrid& grid,
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

  // One candidate as the kernel sees it: stripes, participating servers per
  // tier and, for heterogeneous params, the worst factor among them.
  struct View {
    std::span<const Bytes> stripes;
    std::span<const std::size_t> use;
    std::vector<double> factors;
  };
  auto make_view = [&] { return View{{}, counts, std::vector<double>(k)}; };
  auto load = [&](std::size_t cand, View& view) {
    view.stripes = grid.stripes(cand);
    if (!heterogeneous) return;
    view.use = grid.members(cand);
    for (std::size_t j = 0; j < k; ++j) {
      view.factors[j] = storage::worst_device_factor(
          params.tiers[j].device_factors, view.use[j]);
    }
  };

  // The kernel for one request of `req`'s op and size at `offset`.
  auto kernel = [&](const View& view, const FileRequest& req, Bytes offset,
                    std::span<TierGeometry> geometry) {
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

  // Scores one candidate.  With coalescing, `memo` caches the kernel per
  // (op, size, offset mod S) class; requests are still accumulated in their
  // original order with identical values, so the total is bit-identical to
  // the brute-force sum (see cost_memo.hpp).  The memo context carries the
  // candidate's member selection.
  auto score = [&](const View& view, CostMemo* memo,
                   std::span<TierGeometry> geometry) {
    auto eval = [&](const FileRequest& req, Bytes offset) {
      return kernel(view, req, offset, geometry);
    };
    Seconds total = 0.0;
    if (memo != nullptr) {
      Bytes S = 0;
      for (std::size_t j = 0; j < k; ++j) {
        S += static_cast<Bytes>(view.use[j]) * view.stripes[j];
      }
      memo->reset(sampled,
                  heterogeneous ? members_context(view.use) : 0);
      for (std::size_t i = 0; i < requests.size(); i += stride) {
        const FileRequest& req = requests[i];
        total += memo->cost(req.op, req.size, req.offset % S,
                            [&](Bytes residue) { return eval(req, residue); });
      }
    } else {
      for (std::size_t i = 0; i < requests.size(); i += stride) {
        const FileRequest& req = requests[i];
        total += eval(req, req.offset);
      }
    }
    return scale(total);
  };

  // Bounds (a zero-period candidate throws here).
  struct Bound {
    Seconds value;
    std::size_t index;
    bool operator>(const Bound& other) const {
      return value != other.value ? value > other.value : index > other.index;
    }
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
  auto class_bound = [&](const View& view, const RequestClasses::Class& c,
                         OffsetMinScratch& work, auto bound) {
    return bound(view.use, c.op == IoOp::kRead ? read_profiles : write_profiles,
                 heterogeneous ? std::span<const double>{view.factors}
                               : std::span<const double>{},
                 params.t, params.net_latency, params.net_hops,
                 params.per_stripe_overhead, c.size, view.stripes, work);
  };

  // Floor keys: count times the window floor per class, never above the
  // tightened bound below.  Sharded over the pool, written by index.
  std::vector<Bound> floors(grid.size());
  auto floor_range = [&](std::size_t begin, std::size_t end) {
    View view = make_view();
    OffsetMinScratch work;
    for (std::size_t i = begin; i < end; ++i) {
      load(i, view);
      Seconds sum = 0.0;
      for (std::size_t n = 0; n < rows.size(); ++n) {
        const RequestClasses::Class& c = sampled_classes.classes[n];
        auto floor = [&] {
          return class_bound(view, c, work, tiered_cost_window_floor);
        };
        sum += static_cast<double>(c.end - c.begin) *
               (rows[n] != nullptr ? rows[n]->floor(i, floor) : floor());
      }
      floors[i] = Bound{scale(sum), i};
    }
  };
  if (ThreadPool* pool = options.pool; pool != nullptr && grid.size() > 1) {
    const std::size_t shards = std::min(pool->thread_count() * 4, grid.size());
    pool->parallel_for(shards, [&](std::size_t shard) {
      floor_range(grid.size() * shard / shards,
                  grid.size() * (shard + 1) / shards);
    });
  } else {
    floor_range(0, grid.size());
  }
  std::make_heap(floors.begin(), floors.end(), std::greater<Bound>{});

  // The tightened bound: count times the offset minimum per class, or the
  // exact costs of a class with fewer requests than the minimum's 2 * cells
  // breakpoints (cheaper there, and the tightest bound).
  CostMemo memo;
  View view = make_view();
  OffsetMinScratch work;
  std::vector<TierGeometry> geometry(k);
  std::uint64_t reads = 0;
  auto tighten = [&](std::size_t i) {
    load(i, view);
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
          sum += kernel(view, req, req.offset, geometry);
        }
        continue;
      }
      auto offset_min = [&] {
        return class_bound(view, c, work, tiered_cost_offset_min);
      };
      Seconds min = 0.0;
      if (rows[n] != nullptr) {
        ++reads;
        min = rows[n]->minimum(i, offset_min);
      } else {
        min = offset_min();
      }
      sum += static_cast<double>(count) * min;
    }
    return Bound{scale(sum), i};
  };

  // Scan in ascending (bound, index) order.  `floors` is a min-heap of the
  // keys (the scan pops only its head, so it is never fully sorted) and
  // `tightened` one of the bounds.  A key at most the least bound may hide a
  // bound that comes first, so it is tightened before that bound is
  // scored.  Whichever head is next bounds everything left from below.
  std::priority_queue<Bound, std::vector<Bound>, std::greater<Bound>>
      tightened;
  Candidate best;
  std::size_t scored = 0;
  for (;;) {
    const bool take_floor =
        !floors.empty() &&
        (tightened.empty() || floors.front().value <= tightened.top().value);
    if (!take_floor && tightened.empty()) break;
    const Bound& head = take_floor ? floors.front() : tightened.top();
    if (head.value * (1.0 - 1e-9) > best.cost) break;
    if (take_floor) {
      tightened.push(tighten(head.index));
      std::pop_heap(floors.begin(), floors.end(), std::greater<Bound>{});
      floors.pop_back();
      continue;
    }
    load(head.index, view);
    tightened.pop();
    Candidate c{score(view, options.coalesce ? &memo : nullptr, geometry),
                {view.stripes.begin(), view.stripes.end()},
                heterogeneous ? std::vector<std::size_t>(view.use.begin(),
                                                         view.use.end())
                              : std::vector<std::size_t>{}};
    ++scored;
    if (c.better_than(best)) best = std::move(c);
  }
  if (options.bounds != nullptr) options.bounds->add_reads(reads);

  RegionStripes result;
  result.stripes = std::move(best.stripes);
  result.members = std::move(best.members);
  result.model_cost = best.cost;
  result.candidates_evaluated = grid.size();
  result.candidates_pruned = grid.size() - scored;
  result.cost_evals = options.coalesce
                          ? memo.misses()
                          : static_cast<std::uint64_t>(scored) * sampled;
  result.cost_evals_saved = memo.hits();
  return result;
}

/// Validates the inputs, builds the candidate grid (applying the space-aware
/// filter) and runs the engine.
RegionStripes search(const TieredCostParams& params,
                     std::span<const FileRequest> requests,
                     double avg_request_size, const OptimizerOptions& options,
                     bool homogeneous) {
  if (requests.empty()) {
    throw std::invalid_argument("optimizer needs at least one request");
  }
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
  auto share = [&](const std::vector<Bytes>& stripes) {
    const double M = static_cast<double>(params.tiers[0].count);
    const double N = static_cast<double>(params.tiers[1].count);
    return N * stripes[1] / (M * stripes[0] + N * stripes[1]);
  };
  double share_bound = 1.0;
  if (filter) {
    double min_share = 2.0;
    for_each_candidate(params, R, step, homogeneous,
                       [&](const std::vector<Bytes>& s) {
                         min_share = std::min(min_share, share(s));
                       });
    share_bound = std::max(options.max_sserver_share, min_share + 1e-12);
  }

  CandidateGrid grid(params);
  for_each_candidate(params, R, step, homogeneous,
                     [&](const std::vector<Bytes>& s) {
                       if (!filter || share(s) <= share_bound) grid.add(s);
                     });
  if (grid.size() == 0) {
    throw std::logic_error("optimizer produced no candidates");
  }
  BoundTable::Key grid_key;
  if (options.bounds != nullptr) {
    grid_key.calibration = params_fingerprint(params);
    grid_key.R = R;
    grid_key.step = step;
    grid_key.homogeneous = homogeneous;
    grid_key.share_bound = share_bound;
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

Seconds region_cost(const TieredCostParams& params,
                    std::span<const FileRequest> requests,
                    std::span<const Bytes> stripes, std::size_t max_requests,
                    bool coalesce) {
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
  if (coalesce) {
    CostMemo memo;
    memo.reset((requests.size() + stride - 1) / stride);
    for (std::size_t i = 0; i < requests.size(); i += stride) {
      const FileRequest& req = requests[i];
      total += memo.cost(req.op, req.size, req.offset % S, [&](Bytes residue) {
        return request_cost(params, req.op, residue, req.size, stripes);
      });
      ++scored;
    }
  } else {
    for (std::size_t i = 0; i < requests.size(); i += stride) {
      total += request_cost(params, requests[i].op, requests[i].offset,
                            requests[i].size, stripes);
      ++scored;
    }
  }
  if (scored == 0) return 0.0;
  return total * static_cast<double>(requests.size()) /
         static_cast<double>(scored);
}

}  // namespace harl::core

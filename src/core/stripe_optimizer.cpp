#include "src/core/stripe_optimizer.hpp"

#include <algorithm>
#include <functional>
#include <limits>
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
  /// 128 KiB requests rather than {0K, 4K}).  The order is deterministic, so
  /// results are independent of evaluation order and parallel sharding.
  /// `tie_from_front` selects the lexicographic scan direction: the two-tier
  /// API compares (h, s) from the front; the k-tier API compares from the
  /// last (fastest) tier.  Member counts break remaining ties in the same
  /// direction with larger (wider) membership winning — cost-equivalent
  /// layouts keep the most devices in play.
  bool better_than(const Candidate& other, bool tie_from_front) const {
    if (cost != other.cost) return cost < other.cost;
    if (stripes.size() != other.stripes.size()) {
      return stripes.size() > other.stripes.size();  // beats the empty sentinel
    }
    if (tie_from_front) {
      for (std::size_t i = 0; i < stripes.size(); ++i) {
        if (stripes[i] != other.stripes[i]) return stripes[i] > other.stripes[i];
      }
    } else {
      for (std::size_t i = stripes.size(); i-- > 0;) {
        if (stripes[i] != other.stripes[i]) return stripes[i] > other.stripes[i];
      }
    }
    if (members.size() != other.members.size()) {
      return members.size() > other.members.size();
    }
    if (tie_from_front) {
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (members[i] != other.members[i]) return members[i] > other.members[i];
      }
    } else {
      for (std::size_t i = members.size(); i-- > 0;) {
        if (members[i] != other.members[i]) return members[i] > other.members[i];
      }
    }
    return false;
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

/// Recursively enumerates k-tier stripe vectors; calls `visit` on each.
void enumerate(std::vector<Bytes>& stripes, std::size_t tier, Bytes R,
               Bytes step, bool monotone,
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
  const Bytes lo = monotone && tier > 0 ? stripes[tier - 1] : 0;
  // Candidate sizes for this tier: lo, then grid points up to R (a zero
  // lower bound admits 0 itself, i.e. "skip this tier").
  for (Bytes s = lo; s <= R; s = (s == 0 ? step : s + step)) {
    stripes[tier] = s;
    enumerate(stripes, tier + 1, R, step, monotone, visit);
  }
  stripes[tier] = 0;
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

struct EngineResult {
  std::vector<Bytes> stripes;
  std::vector<std::size_t> members;  ///< empty = full membership
  Seconds model_cost = 0.0;
  std::size_t candidates_evaluated = 0;
  std::size_t candidates_pruned = 0;
  std::uint64_t cost_evals = 0;
  std::uint64_t cost_evals_saved = 0;
};

/// The one search engine every public API feeds: an exact branch-and-bound
/// over the candidate grid.
///
/// Bound: a candidate's sampled cost is at least the sum, over the (op,
/// size) classes of the sampled requests, of count times the kernel's
/// minimum over all offsets (tiered_cost_offset_min); small classes add
/// their exact costs instead.  Bounds are computed sharded over the pool
/// when one is given, written by candidate index.
///
/// Scan: candidates are scored serially in ascending (bound, index) order
/// and the scan stops at the first whose bound, less a 1e-9 relative margin,
/// exceeds the best score so far.  Every candidate left unscored then costs
/// strictly more than the winner, so the winner, its tie-breaks and its
/// cost double are those of the full grid search, and the counters do not
/// depend on the pool.
///
/// Scoring pre-selects per-op profile pointers so the hot loop pays no
/// per-request branching beyond the op pick, and reuses TierGeometry
/// scratch so it never allocates.  Heterogeneous params route through the
/// device-aware kernel with each candidate's worst-member factors;
/// homogeneous params take the original kernel, bit for bit.
EngineResult search_engine(const TieredCostParams& params,
                           std::span<const FileRequest> requests,
                           const CandidateGrid& grid, std::size_t max_requests,
                           ThreadPool* pool, bool coalesce, bool tie_from_front,
                           CostMemo* scratch = nullptr) {
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

  const std::size_t stride = sample_stride(requests.size(), max_requests);
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

  // Bound every candidate (a zero-period candidate throws here).
  struct Bound {
    Seconds value;
    std::size_t index;
  };
  const RequestClasses sampled_classes = request_classes(requests, stride);
  std::vector<Bound> bounds(grid.size());
  auto bound_range = [&](std::size_t begin, std::size_t end) {
    View view = make_view();
    OffsetMinScratch work;
    std::vector<TierGeometry> geometry(k);
    for (std::size_t i = begin; i < end; ++i) {
      load(i, view);
      std::size_t cells = 0;
      for (std::size_t j = 0; j < k; ++j) {
        if (view.stripes[j] > 0) cells += view.use[j];
      }
      Seconds sum = 0.0;
      for (const RequestClasses::Class& c : sampled_classes.classes) {
        const std::size_t count = c.end - c.begin;
        // The offset minimum evaluates up to 2 * cells breakpoints; a class
        // with fewer requests than that is cheaper to price exactly, and
        // its exact cost is the tightest bound.
        if (count < 2 * cells) {
          for (std::size_t n = c.begin; n < c.end; ++n) {
            const FileRequest& req = requests[sampled_classes.order[n]];
            sum += kernel(view, req, req.offset, geometry);
          }
          continue;
        }
        sum += static_cast<double>(count) *
               tiered_cost_offset_min(
                   view.use,
                   c.op == IoOp::kRead ? read_profiles : write_profiles,
                   heterogeneous ? std::span<const double>{view.factors}
                                 : std::span<const double>{},
                   params.t, params.net_latency, params.net_hops,
                   params.per_stripe_overhead, c.size, view.stripes, work);
      }
      bounds[i] = Bound{scale(sum), i};
    }
  };
  if (pool != nullptr && grid.size() > 1) {
    const std::size_t shards = std::min(pool->thread_count() * 4, grid.size());
    pool->parallel_for(shards, [&](std::size_t shard) {
      bound_range(grid.size() * shard / shards,
                  grid.size() * (shard + 1) / shards);
    });
  } else {
    bound_range(0, grid.size());
  }
  std::sort(bounds.begin(), bounds.end(), [](const Bound& a, const Bound& b) {
    return a.value != b.value ? a.value < b.value : a.index < b.index;
  });

  // Scan.  A caller-provided scratch memo keeps its table capacity across
  // calls; its counters are cumulative, so report this call's work as
  // deltas.
  CostMemo local;
  CostMemo& memo = scratch != nullptr ? *scratch : local;
  const std::uint64_t misses_before = memo.misses();
  const std::uint64_t hits_before = memo.hits();
  View view = make_view();
  std::vector<TierGeometry> geometry(k);
  Candidate best;
  std::size_t scored = 0;
  for (const Bound& bound : bounds) {
    if (bound.value * (1.0 - 1e-9) > best.cost) break;
    load(bound.index, view);
    Candidate c{score(view, coalesce ? &memo : nullptr, geometry),
                {view.stripes.begin(), view.stripes.end()},
                heterogeneous ? std::vector<std::size_t>(view.use.begin(),
                                                         view.use.end())
                              : std::vector<std::size_t>{}};
    ++scored;
    if (c.better_than(best, tie_from_front)) best = std::move(c);
  }

  EngineResult result;
  result.stripes = std::move(best.stripes);
  result.members = std::move(best.members);
  result.model_cost = best.cost;
  result.candidates_evaluated = grid.size();
  result.candidates_pruned = grid.size() - scored;
  result.cost_evals = coalesce ? memo.misses() - misses_before
                               : static_cast<std::uint64_t>(scored) * sampled;
  result.cost_evals_saved = memo.hits() - hits_before;
  return result;
}

/// Two-tier front end: the legacy (h, s) grid and space-aware filter, fed
/// through the shared engine with from-front tie-breaking.
RegionStripes search(const CostParams& params,
                     std::span<const FileRequest> requests,
                     double avg_request_size, const OptimizerOptions& options,
                     bool homogeneous) {
  if (requests.empty()) {
    throw std::invalid_argument("optimizer needs at least one request");
  }
  if (options.step == 0) throw std::invalid_argument("optimizer step must be > 0");
  if (avg_request_size <= 0.0) {
    throw std::invalid_argument("average request size must be positive");
  }
  if (params.M + params.N == 0) {
    throw std::invalid_argument("cost params describe no servers");
  }
  if (options.max_sserver_share <= 0.0 || options.max_sserver_share > 1.0) {
    throw std::invalid_argument("max_sserver_share must be in (0, 1]");
  }

  const Bytes step = options.step;
  const Bytes R = std::max(step, round_up(static_cast<Bytes>(avg_request_size), step));

  auto for_each_pair = [&](auto&& visit) {
    if (homogeneous) {
      for (Bytes v = step; v <= R; v += step) visit(v, v);
      return;
    }
    for (Bytes h = 0; h <= R; h += step) {
      if (params.M == 0 && h > 0) break;  // no HServers to stripe over
      Bytes first_s = h + step;
      // s exceeds h for load balance; when h == R the inner range would be
      // empty, so the single-HServer extreme keeps one candidate.
      for (Bytes s = first_s; s <= std::max(R, first_s); s += step) {
        if (params.N == 0 && s > 0) {
          if (h > 0) visit(h, Bytes{0});
          break;
        }
        visit(h, s);
      }
    }
  };

  // Space-aware filter: drop candidates whose SServer byte share exceeds
  // the bound.  If that empties the grid, fall back to the minimum-share
  // candidates so the search still returns the most space-frugal layout.
  auto share = [&](Bytes h, Bytes s) {
    const double S = static_cast<double>(params.M) * h +
                     static_cast<double>(params.N) * s;
    return static_cast<double>(params.N) * s / S;
  };
  const bool filter = options.max_sserver_share < 1.0;
  double share_bound = 1.0;
  if (filter) {
    double min_share = 2.0;
    for_each_pair(
        [&](Bytes h, Bytes s) { min_share = std::min(min_share, share(h, s)); });
    share_bound = std::max(options.max_sserver_share, min_share + 1e-12);
  }

  const TieredCostParams tiered = to_tiered(params);
  CandidateGrid grid(tiered);
  for_each_pair([&](Bytes h, Bytes s) {
    if (!filter || share(h, s) <= share_bound) {
      const Bytes row[2] = {h, s};
      grid.add(row);
    }
  });
  if (grid.size() == 0) {
    throw std::logic_error("optimizer produced no candidates");
  }
  EngineResult engine = search_engine(
      tiered, requests, grid, options.max_requests, options.pool,
      options.coalesce, /*tie_from_front=*/true, options.scratch);

  RegionStripes result;
  result.stripes = StripePair{engine.stripes[0], engine.stripes[1]};
  result.members = std::move(engine.members);
  result.model_cost = engine.model_cost;
  result.candidates_evaluated = engine.candidates_evaluated;
  result.candidates_pruned = engine.candidates_pruned;
  result.cost_evals = engine.cost_evals;
  result.cost_evals_saved = engine.cost_evals_saved;
  return result;
}

}  // namespace

RegionStripes optimize_region(const CostParams& params,
                              std::span<const FileRequest> requests,
                              double avg_request_size,
                              const OptimizerOptions& options) {
  return search(params, requests, avg_request_size, options, false);
}

RegionStripes optimize_region_homogeneous(const CostParams& params,
                                          std::span<const FileRequest> requests,
                                          double avg_request_size,
                                          const OptimizerOptions& options) {
  return search(params, requests, avg_request_size, options, true);
}

Seconds region_cost(const CostParams& params,
                    std::span<const FileRequest> requests, StripePair hs,
                    std::size_t max_requests, bool coalesce) {
  const Bytes S = static_cast<Bytes>(params.M) * hs.h +
                  static_cast<Bytes>(params.N) * hs.s;
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
        return request_cost(params, req.op, residue, req.size, hs);
      });
      ++scored;
    }
  } else {
    for (std::size_t i = 0; i < requests.size(); i += stride) {
      total += request_cost(params, requests[i].op, requests[i].offset,
                            requests[i].size, hs);
      ++scored;
    }
  }
  if (scored == 0) return 0.0;
  return total * static_cast<double>(requests.size()) /
         static_cast<double>(scored);
}

TieredRegionStripes optimize_region_tiered(
    const TieredCostParams& params, std::span<const FileRequest> requests,
    double avg_request_size, const TieredOptimizerOptions& options) {
  if (requests.empty()) {
    throw std::invalid_argument("optimizer needs at least one request");
  }
  if (options.step == 0) throw std::invalid_argument("step must be > 0");
  if (avg_request_size <= 0.0) {
    throw std::invalid_argument("average request size must be positive");
  }
  std::size_t total_servers = 0;
  for (const auto& t : params.tiers) total_servers += t.count;
  if (total_servers == 0) {
    throw std::invalid_argument("no servers in tiered params");
  }

  const Bytes step = options.step;
  const Bytes R =
      std::max(step, round_up(static_cast<Bytes>(avg_request_size), step));
  const std::size_t k = params.tiers.size();

  CandidateGrid grid(params);
  {
    std::vector<Bytes> stripes(k, 0);
    enumerate(stripes, 0, R, step, options.monotone,
              [&](const std::vector<Bytes>& s) { grid.add(s); });
  }
  if (grid.size() == 0) throw std::logic_error("no tiered candidates");

  EngineResult engine =
      search_engine(params, requests, grid, options.max_requests,
                    options.pool, options.coalesce, /*tie_from_front=*/false);

  TieredRegionStripes result;
  result.stripes = std::move(engine.stripes);
  result.members = std::move(engine.members);
  result.model_cost = engine.model_cost;
  result.candidates_evaluated = engine.candidates_evaluated;
  result.candidates_pruned = engine.candidates_pruned;
  result.cost_evals = engine.cost_evals;
  result.cost_evals_saved = engine.cost_evals_saved;
  return result;
}

Seconds tiered_region_cost(const TieredCostParams& params,
                           std::span<const FileRequest> requests,
                           std::span<const Bytes> stripes,
                           std::size_t max_requests) {
  const std::size_t stride = sample_stride(requests.size(), max_requests);
  Seconds total = 0.0;
  std::size_t scored = 0;
  for (std::size_t i = 0; i < requests.size(); i += stride) {
    total += tiered_request_cost(params, requests[i].op, requests[i].offset,
                                 requests[i].size, stripes);
    ++scored;
  }
  if (scored == 0) return 0.0;
  return total * static_cast<double>(requests.size()) /
         static_cast<double>(scored);
}

}  // namespace harl::core

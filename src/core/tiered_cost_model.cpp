#include "src/core/tiered_cost_model.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/common/interval.hpp"
#include "src/core/closed_form.hpp"

namespace harl::core {

namespace {

/// Accumulates max-bytes/touched over one tier's cells without allocating.
/// `tier_base` is the tier's first cell offset within the period; the
/// sentinel full_periods == ~0 marks a single-period request [l_b, l_e).
void tier_geometry_inline(Bytes l_b, Bytes l_e, Bytes S, Bytes full_periods,
                          Bytes tier_base, std::size_t count, Bytes stripe,
                          TierGeometry& out) {
  if (stripe == 0 || count == 0) return;
  Bytes cell_base = tier_base;
  for (std::size_t i = 0; i < count; ++i) {
    const ByteInterval cell{cell_base, cell_base + stripe};
    Bytes bytes = 0;
    if (full_periods == ~static_cast<Bytes>(0)) {
      bytes = intersect({l_b, l_e}, cell).length();
    } else {
      bytes = intersect({l_b, S}, cell).length() + full_periods * stripe +
              intersect({0, l_e}, cell).length();
    }
    if (bytes > 0) {
      ++out.touched;
      out.max_bytes = std::max(out.max_bytes, bytes);
    }
    cell_base += stripe;
  }
}

}  // namespace

void tiered_geometry_into(Bytes o, Bytes r,
                          std::span<const std::size_t> counts,
                          std::span<const Bytes> stripes,
                          std::span<TierGeometry> out) {
  if (counts.size() != stripes.size() || counts.size() != out.size()) {
    throw std::invalid_argument("counts/stripes size mismatch");
  }
  Bytes S = 0;
  for (std::size_t j = 0; j < counts.size(); ++j) {
    S += static_cast<Bytes>(counts[j]) * stripes[j];
  }
  if (S == 0) throw std::invalid_argument("zero striping period");
  std::fill(out.begin(), out.end(), TierGeometry{});
  if (r == 0) return;

  // Fast path for the paper's hybrid shape: the completed Fig. 4/5 closed
  // forms are O(1) and exact when both tiers are present
  // (closed_form_test.cpp pins the equivalence with the cell walk).
  if (counts.size() == 2 && counts[0] > 0 && counts[1] > 0 && stripes[0] > 0 &&
      stripes[1] > 0) {
    const SubreqGeometry g = closed_form_geometry(
        o, r, StripePair{stripes[0], stripes[1]}, counts[0], counts[1]);
    out[0] = TierGeometry{g.s_m, g.m};
    out[1] = TierGeometry{g.s_n, g.n};
    return;
  }

  const Bytes end = o + r;
  const Bytes period_first = o / S;
  const Bytes period_last = end / S;
  const Bytes l_b = o - period_first * S;
  const Bytes l_e = end - period_last * S;
  const Bytes full_periods = period_last == period_first
                                 ? ~static_cast<Bytes>(0)
                                 : period_last - period_first - 1;

  Bytes tier_base = 0;
  for (std::size_t j = 0; j < counts.size(); ++j) {
    tier_geometry_inline(l_b, l_e, S, full_periods, tier_base, counts[j],
                         stripes[j], out[j]);
    tier_base += static_cast<Bytes>(counts[j]) * stripes[j];
  }
}

std::vector<TierGeometry> tiered_geometry(Bytes o, Bytes r,
                                          std::span<const std::size_t> counts,
                                          std::span<const Bytes> stripes) {
  std::vector<TierGeometry> out(counts.size());
  tiered_geometry_into(o, r, counts, stripes, out);
  return out;
}

Seconds startup_expected_max(const storage::OpProfile& p, std::size_t k) {
  if (k == 0) return 0.0;
  const double frac = static_cast<double>(k) / static_cast<double>(k + 1);
  return p.startup_min + frac * (p.startup_max - p.startup_min);
}

Seconds tiered_cost_kernel(std::span<const std::size_t> counts,
                           std::span<const storage::OpProfile* const> profiles,
                           Seconds t, Seconds net_latency, int net_hops,
                           Seconds per_stripe_overhead, Bytes offset,
                           Bytes size, std::span<const Bytes> stripes,
                           std::span<TierGeometry> scratch) {
  tiered_geometry_into(offset, size, counts, stripes, scratch);

  Bytes max_bytes = 0;
  Seconds startup = 0.0;
  Seconds transfer = 0.0;
  Bytes max_pieces = 0;
  for (std::size_t j = 0; j < scratch.size(); ++j) {
    const TierGeometry& g = scratch[j];
    const storage::OpProfile& p = *profiles[j];
    max_bytes = std::max(max_bytes, g.max_bytes);
    startup = std::max(startup, startup_expected_max(p, g.touched));
    transfer = std::max(transfer,
                        static_cast<double>(g.max_bytes) * p.per_byte);
    // Stripe units in the maximal per-server extent (the per-stripe request
    // protocol charge of TieredCostParams::per_stripe_overhead).
    if (per_stripe_overhead > 0.0 && stripes[j] > 0 && g.max_bytes > 0) {
      max_pieces =
          std::max(max_pieces, (g.max_bytes + stripes[j] - 1) / stripes[j]);
    }
  }
  if (per_stripe_overhead > 0.0) {
    transfer += per_stripe_overhead * static_cast<double>(max_pieces);
  }
  const Seconds network = net_latency + static_cast<double>(net_hops) * t *
                                            static_cast<double>(max_bytes);
  return network + startup + transfer;
}

Seconds tiered_cost_kernel_devices(
    std::span<const std::size_t> counts,
    std::span<const storage::OpProfile* const> profiles,
    std::span<const double> tier_factors, Seconds t, Seconds net_latency,
    int net_hops, Seconds per_stripe_overhead, Bytes offset, Bytes size,
    std::span<const Bytes> stripes, std::span<TierGeometry> scratch) {
  tiered_geometry_into(offset, size, counts, stripes, scratch);

  Bytes max_bytes = 0;
  Seconds startup = 0.0;
  Seconds transfer = 0.0;
  // With heterogeneous tiers the dominating piece count is factor-weighted,
  // so the max runs over doubles rather than integer stripe units.
  double max_pieces = 0.0;
  for (std::size_t j = 0; j < scratch.size(); ++j) {
    const TierGeometry& g = scratch[j];
    const storage::OpProfile& p = *profiles[j];
    const double f = tier_factors[j];
    max_bytes = std::max(max_bytes, g.max_bytes);
    startup = std::max(startup, f * startup_expected_max(p, g.touched));
    transfer = std::max(transfer,
                        f * static_cast<double>(g.max_bytes) * p.per_byte);
    if (per_stripe_overhead > 0.0 && stripes[j] > 0 && g.max_bytes > 0) {
      const Bytes pieces = (g.max_bytes + stripes[j] - 1) / stripes[j];
      max_pieces = std::max(max_pieces, f * static_cast<double>(pieces));
    }
  }
  if (per_stripe_overhead > 0.0) {
    transfer += per_stripe_overhead * max_pieces;
  }
  const Seconds network = net_latency + static_cast<double>(net_hops) * t *
                                            static_cast<double>(max_bytes);
  return network + startup + transfer;
}

namespace {

/// Validates the shared arguments of the offset bounds and lays out the
/// period's cells in round-robin order: cell c spans [cells[c], cells[c + 1])
/// on a server of tier cell_tier[c]; tier j owns cells [first_cell[j],
/// first_cell[j] + counts[j]) when stripes[j] > 0.  Returns the cell count.
std::size_t period_cells(std::span<const std::size_t> counts,
                         std::span<const storage::OpProfile* const> profiles,
                         std::span<const double> tier_factors,
                         std::span<const Bytes> stripes,
                         OffsetMinScratch& scratch) {
  const std::size_t k = counts.size();
  if (stripes.size() != k || profiles.size() != k ||
      (!tier_factors.empty() && tier_factors.size() != k)) {
    throw std::invalid_argument("counts/stripes size mismatch");
  }
  scratch.geometry.resize(k);
  scratch.cells.assign(1, 0);
  scratch.cell_tier.clear();
  scratch.first_cell.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    scratch.first_cell[j] = scratch.cell_tier.size();
    if (stripes[j] == 0) continue;
    for (std::size_t i = 0; i < counts[j]; ++i) {
      scratch.cells.push_back(scratch.cells.back() + stripes[j]);
      scratch.cell_tier.push_back(j);
    }
  }
  if (scratch.cell_tier.empty()) {
    throw std::invalid_argument("zero striping period");
  }
  return scratch.cell_tier.size();
}

/// The kernel an empty `tier_factors` selects, else the device-aware one.
Seconds kernel_at(std::span<const std::size_t> counts,
                  std::span<const storage::OpProfile* const> profiles,
                  std::span<const double> tier_factors, Seconds t,
                  Seconds net_latency, int net_hops,
                  Seconds per_stripe_overhead, Bytes offset, Bytes size,
                  std::span<const Bytes> stripes,
                  std::span<TierGeometry> geometry) {
  if (tier_factors.empty()) {
    return tiered_cost_kernel(counts, profiles, t, net_latency, net_hops,
                              per_stripe_overhead, offset, size, stripes,
                              geometry);
  }
  return tiered_cost_kernel_devices(counts, profiles, tier_factors, t,
                                    net_latency, net_hops, per_stripe_overhead,
                                    offset, size, stripes, geometry);
}

}  // namespace

Seconds tiered_cost_offset_min(
    std::span<const std::size_t> counts,
    std::span<const storage::OpProfile* const> profiles,
    std::span<const double> tier_factors, Seconds t, Seconds net_latency,
    int net_hops, Seconds per_stripe_overhead, Bytes size,
    std::span<const Bytes> stripes, OffsetMinScratch& scratch) {
  const std::size_t k = counts.size();
  constexpr double kSlack = 1.0 - 1e-12;
  const std::size_t n =
      period_cells(counts, profiles, tier_factors, stripes, scratch);
  auto exact = [&](Bytes offset) {
    return kernel_at(counts, profiles, tier_factors, t, net_latency, net_hops,
                     per_stripe_overhead, offset, size, stripes,
                     scratch.geometry);
  };
  auto factor = [&](std::size_t j) {
    return tier_factors.empty() ? 1.0 : tier_factors[j];
  };
  const std::vector<Bytes>& cells = scratch.cells;
  const std::vector<std::size_t>& cell_tier = scratch.cell_tier;
  const std::vector<std::size_t>& first_cell = scratch.first_cell;
  const Bytes S = cells.back();
  const Bytes q = size / S;
  const Bytes rho = size % S;
  // A whole number of periods gives every cell the same bytes wherever the
  // request starts, so the kernel is constant in the offset.
  if (rho == 0) return exact(0) * kSlack;

  // Start breakpoints are the cell boundaries; end breakpoints are the
  // same boundaries shifted back by rho, already ascending once rotated.
  std::vector<Bytes>& ends = scratch.ends;
  ends.clear();
  const auto first_whole = std::lower_bound(cells.begin(), cells.end() - 1, rho);
  for (auto c = first_whole; c != cells.end() - 1; ++c) ends.push_back(*c - rho);
  for (auto c = cells.begin(); c != first_whole; ++c) {
    ends.push_back(*c + S - rho);
  }
  std::vector<Bytes>& points = scratch.points;
  points.resize(2 * n);
  points.erase(std::unique(points.begin(),
                           std::merge(cells.begin(), cells.end() - 1,
                                      ends.begin(), ends.end(),
                                      points.begin())),
               points.end());

  // Seeded with the kernel at offset 0 (a breakpoint), so intervals whose
  // floor cannot go below it are skipped.
  Seconds best = exact(0);
  auto cell_of = [&](Bytes y) {
    return static_cast<std::size_t>(
        std::upper_bound(cells.begin(), cells.end(), y) - cells.begin() - 1);
  };
  // Cells of tier j inside cell-index range [from, to).
  auto tier_cells_in = [&](std::size_t j, std::size_t from, std::size_t to) {
    const std::size_t lo = std::max(from, first_cell[j]);
    const std::size_t hi = std::min(to, first_cell[j] + counts[j]);
    return hi > lo ? hi - lo : 0;
  };
  // Breakpoints an adjacent interval has bounded; the rest get the exact
  // kernel after the sweep.
  std::vector<char>& covered = scratch.covered;
  covered.assign(points.size(), 0);
  // Points 0 and S bracket the last interval: 0 is always a breakpoint, so
  // no interval straddles the period boundary.
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Bytes lo = points[i];
    const Bytes hi = i + 1 < points.size() ? points[i + 1] : S;
    if (hi - lo < 2) continue;  // no offset strictly between breakpoints

    // Inside (lo, hi) the window [x, x + rho) starts in cell a and ends in
    // cell b, and neither end meets a boundary.  If a == b the window lies
    // in one cell or wraps the whole period back into it: every offset
    // inside has the same geometry, so one exact evaluation covers it.
    const Bytes x0 = lo + 1;
    const std::size_t a = cell_of(x0);
    const bool wrap = x0 + rho >= S;
    const std::size_t b = cell_of(wrap ? x0 + rho - S : x0 + rho);
    if (a == b) {
      best = std::min(best, exact(x0));
      continue;
    }

    // Otherwise cell a holds start_at - u bytes at offset u, cell b holds
    // u - end_at, cells strictly between them are full and the rest hold
    // only their whole periods.  Each of the kernel's three max terms
    // (network bytes, transfer time, stripe pieces) is then
    // max(level, wa * (start_at - u), wb * (u - end_at)), where level is
    // the maximum over the other cells.  At u = lo and u = hi these bytes
    // are the exact geometry of those offsets too, except that a line cell
    // holding no bytes there is not touched.
    const std::size_t ja = cell_tier[a];
    const std::size_t jb = cell_tier[b];
    const Bytes end_cell = cells[b] + (wrap ? S : 0);
    const bool b_empty_at_lo = q == 0 && lo + rho == end_cell;
    const bool a_empty_at_hi = q == 0 && hi == cells[a + 1];
    double level[3] = {0.0, 0.0, 0.0};
    Seconds startup = 0.0;
    Seconds startup_lo = 0.0;
    Seconds startup_hi = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      if (stripes[j] == 0 || counts[j] == 0) continue;
      const std::size_t line_cells = (j == ja) + (j == jb);
      const std::size_t full =
          a < b ? tier_cells_in(j, a + 1, b)
                : tier_cells_in(j, a + 1, n) + tier_cells_in(j, 0, b);
      const std::size_t touched = q > 0 ? counts[j] : full + line_cells;
      const double f = factor(j);
      startup =
          std::max(startup, f * startup_expected_max(*profiles[j], touched));
      startup_lo = std::max(
          startup_lo, f * startup_expected_max(
                              *profiles[j],
                              touched - (j == jb && b_empty_at_lo)));
      startup_hi = std::max(
          startup_hi, f * startup_expected_max(
                              *profiles[j],
                              touched - (j == ja && a_empty_at_hi)));
      if (counts[j] == line_cells) continue;  // no other cells in the tier
      const double bytes =
          static_cast<double>(q * stripes[j] + (full > 0 ? stripes[j] : 0));
      level[0] = std::max(level[0], bytes);
      level[1] = std::max(level[1], f * bytes * profiles[j]->per_byte);
      level[2] = std::max(level[2], f * bytes / static_cast<double>(stripes[j]));
    }
    const double scale[3] = {static_cast<double>(net_hops) * t, 1.0,
                             per_stripe_overhead};
    const double wa[3] = {1.0, factor(ja) * profiles[ja]->per_byte,
                          factor(ja) / static_cast<double>(stripes[ja])};
    const double wb[3] = {1.0, factor(jb) * profiles[jb]->per_byte,
                          factor(jb) / static_cast<double>(stripes[jb])};
    const double start_at = static_cast<double>(q * stripes[ja] + cells[a + 1]);
    const double end_at = static_cast<double>(end_cell) -
                          static_cast<double>(rho) -
                          static_cast<double>(q * stripes[jb]);
    // The kernel with the piece count ceil(bytes / stripe) relaxed to
    // bytes / stripe, which only lowers it; convex in u.
    auto relaxed = [&](double u, Seconds with_startup) {
      double total = net_latency + with_startup;
      for (int term = 0; term < 3; ++term) {
        total += scale[term] * std::max({level[term],
                                         wa[term] * (start_at - u),
                                         wb[term] * (u - end_at)});
      }
      return total;
    };
    covered[i] = 1;
    covered[i + 1 < points.size() ? i + 1 : 0] = 1;
    // The lines only add to every term, so nothing here, ends included,
    // goes below the fixed levels.
    double floor = 0.0;
    for (int term = 0; term < 3; ++term) floor += scale[term] * level[term];
    if (net_latency + std::min({startup, startup_lo, startup_hi}) + floor >=
        best) {
      continue;
    }
    const double ulo = static_cast<double>(lo);
    const double uhi = static_cast<double>(hi);
    best = std::min({best, relaxed(ulo, startup_lo), relaxed(uhi, startup_hi)});
    if (net_latency + startup + floor >= best) continue;
    // Kinks: where a line meets its term's level or the other line.
    auto consider = [&](double u) {
      if (u > ulo && u < uhi) best = std::min(best, relaxed(u, startup));
    };
    for (int term = 0; term < 3; ++term) {
      const double a_weight = wa[term];
      const double b_weight = wb[term];
      if (scale[term] == 0.0) continue;
      if (a_weight > 0.0) consider(start_at - level[term] / a_weight);
      if (b_weight > 0.0) consider(end_at + level[term] / b_weight);
      if (a_weight + b_weight > 0.0) {
        consider((a_weight * start_at + b_weight * end_at) /
                 (a_weight + b_weight));
      }
    }
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!covered[i]) best = std::min(best, exact(points[i]));
  }
  return best * kSlack;
}

Seconds tiered_cost_window_floor(
    std::span<const std::size_t> counts,
    std::span<const storage::OpProfile* const> profiles,
    std::span<const double> tier_factors, Seconds t, Seconds net_latency,
    int net_hops, Seconds per_stripe_overhead, Bytes size,
    std::span<const Bytes> stripes, OffsetMinScratch& scratch) {
  const std::size_t k = counts.size();
  constexpr double kSlack = 1.0 - 1e-9;
  const std::size_t n =
      period_cells(counts, profiles, tier_factors, stripes, scratch);
  const Bytes S = scratch.cells.back();
  const Bytes q = size / S;
  const Bytes rho = size % S;
  if (rho == 0) {
    return kernel_at(counts, profiles, tier_factors, t, net_latency, net_hops,
                     per_stripe_overhead, 0, size, stripes,
                     scratch.geometry) *
           kSlack;
  }
  const std::vector<std::size_t>& cell_tier = scratch.cell_tier;
  auto factor = [&](std::size_t j) {
    return tier_factors.empty() ? 1.0 : tier_factors[j];
  };
  const double ht = static_cast<double>(net_hops) * t;
  const double qd = static_cast<double>(q);

  // Per tier: the server-side weight V_j, and the startup term when every
  // cell is touched (q >= 1).
  std::vector<double>& weight = scratch.weights;
  weight.assign(k, 0.0);
  double all_startup = 0.0;  // the kernel's startup term is never below 0
  for (std::size_t j = 0; j < k; ++j) {
    if (stripes[j] == 0 || counts[j] == 0) continue;
    const double f = factor(j);
    weight[j] = f * profiles[j]->per_byte +
                per_stripe_overhead * f / static_cast<double>(stripes[j]);
    all_startup = std::max(
        all_startup, f * startup_expected_max(*profiles[j], counts[j]));
  }
  // When q == 0 a window touches only the cells from its start cell to its
  // end cell: tier j's startup for c touched cells is startups[at_j + c].
  // Every window touches a cell, so it pays at least least_startup.
  std::vector<double>& startups = scratch.startups;
  auto at = [&](std::size_t j) { return scratch.first_cell[j] + j; };
  double least_startup = all_startup;
  if (q == 0) {
    startups.resize(n + k);
    least_startup = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t cells = stripes[j] > 0 ? counts[j] : 0;
      startups[at(j)] = 0.0;
      for (std::size_t c = 1; c <= cells; ++c) {
        startups[at(j) + c] =
            factor(j) * startup_expected_max(*profiles[j], c);
        least_startup = std::min(least_startup, startups[at(j) + c]);
      }
    }
    least_startup = std::max(0.0, least_startup);
  }
  // in_window[j]: cells of tier j from the start cell to the end cell.
  std::vector<std::size_t>& in_window = scratch.in_window;
  // The kernel's startup term for a window touching the in_window cells.
  auto startup = [&] {
    if (q > 0) return all_startup;
    double value = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      value = std::max(value, startups[at(j) + in_window[j]]);
    }
    return value;
  };
  // Levels (bytes, V * bytes) of the cells at q * s_j: the tiers with a
  // cell the window leaves alone (none hold bytes when q == 0).
  auto rest = [&](double& bytes, double& load) {
    for (std::size_t j = 0; q > 0 && j < k; ++j) {
      if (stripes[j] > 0 && in_window[j] < counts[j]) {
        const double b = qd * static_cast<double>(stripes[j]);
        bytes = std::max(bytes, b);
        load = std::max(load, weight[j] * b);
      }
    }
  };
  // Least over u in [lo, hi] of
  //   g(u) = ht * max(lb, ca + u, cb - u) + max(lv, va (ca + u), vb (cb - u)).
  // Each term is convex and least on an interval: where both lines are
  // below its level, else where they cross.  g is least where the two
  // intervals meet; if they do not, g is linear between them and least at
  // one of their inner ends.
  auto least_split = [&](double lo, double hi, double ca, double cb,
                         double va, double vb, double lb, double lv) {
    auto least_on = [&](double level, double wa, double wb, double& l,
                        double& r) {
      l = wb > 0.0 ? cb - level / wb : lo;
      r = wa > 0.0 ? level / wa - ca : hi;
      if (l > r) l = r = (wb * cb - wa * ca) / (wa + wb);  // then wa + wb > 0
      l = std::clamp(l, lo, hi);
      r = std::clamp(r, lo, hi);
    };
    double l1, r1, l2, r2;
    least_on(lb, 1.0, 1.0, l1, r1);
    least_on(lv, va, vb, l2, r2);
    auto g = [&](double u) {
      return ht * std::max({lb, ca + u, cb - u}) +
             std::max({lv, va * (ca + u), vb * (cb - u)});
    };
    return std::min(g(std::max(l1, l2)), g(std::min(r1, r2)));
  };

  double best = std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < n; ++a) {
    const std::size_t ja = cell_tier[a];
    // Every window from the i-th cell of a tier's run that ends inside the
    // run is also one from its first cell, and with the same touched
    // counts, so a start whose every window ends inside the run is skipped.
    const std::size_t i = a - scratch.first_cell[ja];
    if (i > 0 && rho <= (counts[ja] - 1 - i) * stripes[ja]) continue;
    const double va = weight[ja];
    const double sa = static_cast<double>(stripes[ja]);
    in_window.assign(k, 0);
    in_window[ja] = 1;
    // The window inside cell a.
    if (rho <= stripes[ja]) {
      const double held = qd * sa + static_cast<double>(rho);
      double bytes = held;
      double load = va * held;
      rest(bytes, load);
      best = std::min(best, startup() + ht * bytes + load);
    }
    // The window starts in a with u bytes and ends in b with v bytes, the
    // cells between (F bytes) covered: u + F + v = rho, u in [0, s_a] and
    // v in [0, s_b] (closing the ranges only lowers the byte terms; a and b
    // count as touched).  Once F reaches rho no later end cell is possible,
    // and once the covered cells and the startup alone reach the best value
    // no later one improves it.
    Bytes between = 0;
    double between_bytes = 0.0;
    double between_load = 0.0;
    std::size_t b = a;
    for (std::size_t d = 1;
         d < n && between < rho &&
         least_startup + ht * between_bytes + between_load < best;
         ++d) {
      b = b + 1 == n ? 0 : b + 1;
      const std::size_t jb = cell_tier[b];
      ++in_window[jb];
      const Bytes room = rho - between;  // u + v
      if (room <= stripes[ja] + stripes[jb]) {
        double lb = between_bytes;
        double lv = between_load;
        rest(lb, lv);
        const double vb = weight[jb];
        const double ca = qd * sa;
        const double cb =
            qd * static_cast<double>(stripes[jb]) + static_cast<double>(room);
        // max(ca + u, cb - u) >= (ca + cb) / 2 bounds the split cheaply.
        const double pair_startup = startup();
        if (pair_startup + ht * std::max(lb, 0.5 * (ca + cb)) + lv < best) {
          const double lo = room > stripes[jb]
                                ? static_cast<double>(room - stripes[jb])
                                : 0.0;
          const double hi = std::min(sa, static_cast<double>(room));
          best = std::min(best, pair_startup + least_split(lo, hi, ca, cb, va,
                                                           vb, lb, lv));
        }
      }
      between += stripes[jb];
      const double covered = (qd + 1.0) * static_cast<double>(stripes[jb]);
      between_bytes = std::max(between_bytes, covered);
      between_load = std::max(between_load, weight[jb] * covered);
    }
  }
  return (net_latency + best) * kSlack;
}

namespace {

/// The least level x with sum_g cells_g * min(cap_g, x / weight_g) >= size:
/// the least max_c weight_c * bytes_c over the ways to put `size` bytes on
/// the groups' cells, none above its cap.  +inf when they hold less.
double water_level(std::span<BoxFloorScratch::Group> groups, double size) {
  double held = 0.0;  // bytes of the groups already full at the level
  double room = 0.0;
  for (const BoxFloorScratch::Group& g : groups) {
    room += g.cells * g.cap;
    if (g.weight <= 0.0) held += g.cells * g.cap;
  }
  // Within rounding of the room, the groups fill to their caps.
  if (room < size * (1.0 - 1e-12)) {
    return std::numeric_limits<double>::infinity();
  }
  size = std::min(size, room);
  if (held >= size) return 0.0;
  auto level = [](const BoxFloorScratch::Group& g) { return g.weight * g.cap; };
  // A handful of groups: insertion sort by the level at which each fills.
  for (std::size_t i = 1; i < groups.size(); ++i) {
    for (std::size_t j = i; j > 0 && level(groups[j]) < level(groups[j - 1]);
         --j) {
      std::swap(groups[j], groups[j - 1]);
    }
  }
  double last = 0.0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (groups[i].weight <= 0.0) continue;
    double slope = 0.0;
    for (std::size_t g = i; g < groups.size(); ++g) {
      slope += groups[g].cells / groups[g].weight;
    }
    last = level(groups[i]);
    if (held + slope * last >= size) return (size - held) / slope;
    held += groups[i].cells * groups[i].cap;
  }
  return last;
}

/// The least ht * A + L over the ways to put `size` bytes on the groups'
/// cells (weight = V), with A >= every cell's bytes, A >= least_bytes, L >=
/// every cell's V * bytes and L >= least_load.  The feasible (A, L) form a
/// convex set whose boundary bends only where a group's bytes switch
/// between its cap, A and L / V, so the least is at one of those points.
double least_byte_terms(std::span<const BoxFloorScratch::Group> groups,
                        double size, double ht, double least_bytes,
                        double least_load, BoxFloorScratch& scratch) {
  std::vector<BoxFloorScratch::Group>& work = scratch.work;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Spreading a group's bytes evenly over its cells keeps them within the
  // caps and lowers no maximum, so one byte count per group suffices.  With
  // one or two groups (after the empty ones) ht * A + L is convex and
  // piecewise linear in the first group's bytes, least at an end of their
  // range or where two of its terms cross.
  auto cost = [&](double b1, double v1, double b2, double v2) {
    return ht * std::max({least_bytes, b1, b2}) +
           std::max({least_load, v1 * b1, v2 * b2});
  };
  if (groups.size() == 1) {
    const BoxFloorScratch::Group& g = groups[0];
    const double b = size / g.cells;
    if (b > g.cap * (1.0 + 1e-12)) return kInf;
    return cost(std::min(b, g.cap), g.weight, 0.0, 0.0);
  }
  if (groups.size() == 2) {
    const BoxFloorScratch::Group& g = groups[0];
    const BoxFloorScratch::Group& h = groups[1];
    const double lo = std::max(0.0, (size - h.cells * h.cap) / g.cells);
    const double hi = std::min(g.cap, size / g.cells);
    if (lo > hi * (1.0 + 1e-12)) return kInf;
    double best = kInf;
    auto at = [&](double b1) {
      b1 = std::clamp(b1, std::min(lo, hi), hi);
      const double b2 = std::max(0.0, (size - g.cells * b1) / h.cells);
      best = std::min(best, cost(b1, g.weight, b2, h.weight));
    };
    at(lo);
    at(hi);
    at(size / (g.cells + h.cells));  // b1 == b2
    at(least_bytes);
    at((size - h.cells * least_bytes) / g.cells);
    if (g.weight * h.cells + h.weight * g.cells > 0.0) {
      at(h.weight * size / (g.weight * h.cells + h.weight * g.cells));
    }
    if (g.weight > 0.0) at(least_load / g.weight);
    if (h.weight > 0.0) at((size - h.cells * least_load / h.weight) / g.cells);
    return best;
  }
  auto solve = [&](auto&& shape) {
    work.clear();
    for (const BoxFloorScratch::Group& g : groups) work.push_back(shape(g));
    return water_level(work, size);
  };
  // L for a given A, and A for a given L.
  auto load_at = [&](double A) {
    return solve([&](const BoxFloorScratch::Group& g) {
      return BoxFloorScratch::Group{g.cells, std::min(g.cap, A), g.weight};
    });
  };
  auto bytes_at = [&](double L) {
    return solve([&](const BoxFloorScratch::Group& g) {
      return BoxFloorScratch::Group{
          g.cells, g.weight > 0.0 ? std::min(g.cap, L / g.weight) : g.cap, 1.0};
    });
  };
  double best = kInf;
  auto consider = [&](double A, double L) {
    if (A < kInf && L < kInf) {
      best = std::min(best, ht * std::max(A, least_bytes) +
                                std::max(L, least_load));
    }
  };
  // ht * A + max(least_load, L(A)) is convex in A >= least_bytes.  Its
  // least over the caps (and least_bytes) brackets the least overall
  // between that point's neighbours; inside the bracket the boundary bends
  // only where L / V_g meets A (a ray) or a cap (a level), and L(A) falls
  // as A grows, so a bend lies inside exactly when the bracket's ends
  // straddle it.
  std::vector<double>& points = scratch.points;
  std::vector<double>& loads = scratch.loads;
  points.assign(1, least_bytes);
  for (const BoxFloorScratch::Group& g : groups) {
    if (g.cap > least_bytes) points.push_back(g.cap);
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  loads.resize(points.size());
  std::size_t at = 0;
  double at_cost = kInf;
  for (std::size_t i = 0; i < points.size(); ++i) {
    loads[i] = load_at(points[i]);
    const double cost = loads[i] < kInf
                            ? ht * points[i] + std::max(loads[i], least_load)
                            : kInf;
    if (cost < at_cost) {
      at = i;
      at_cost = cost;
    }
  }
  if (at_cost == kInf) return kInf;
  best = at_cost;
  const std::size_t left = at > 0 ? at - 1 : 0;
  const std::size_t right = std::min(at + 1, points.size() - 1);
  const double a = points[left];
  const double la = loads[left];
  const double b = points[right];
  const double lb = loads[right];
  auto level_inside = [&](double L) { return lb <= L && L <= la; };
  for (const BoxFloorScratch::Group& g : groups) {
    if (!(g.weight > 0.0)) continue;
    const double v = g.weight;
    if (la >= v * a && lb <= v * b) {
      const double A = solve([&](const BoxFloorScratch::Group& h) {
        return BoxFloorScratch::Group{h.cells, h.cap,
                                      std::max(1.0, h.weight / v)};
      });
      consider(A, v * A);
    }
    if (level_inside(v * g.cap)) consider(bytes_at(v * g.cap), v * g.cap);
  }
  if (level_inside(least_load)) consider(bytes_at(least_load), least_load);
  return best;
}

}  // namespace

Seconds tiered_cost_box_floor(
    std::span<const BoxTier> box,
    std::span<const storage::OpProfile* const> profiles, Seconds t,
    Seconds net_latency, int net_hops, Seconds per_stripe_overhead,
    Bytes size, BoxFloorScratch& scratch) {
  const std::size_t k = box.size();
  if (profiles.size() != k) {
    throw std::invalid_argument("box/profiles size mismatch");
  }
  constexpr double kSlack = (1.0 - 1e-9) * (1.0 - 1e-12);
  // Placements are enumerated over subsets of tiers up to this many.
  constexpr std::size_t kEnumeratedTiers = 6;
  // Least and largest period over the members.
  Bytes least_period = 0;
  Bytes most_period = 0;
  for (const BoxTier& b : box) {
    if (b.most == 0 || b.hi == 0) continue;
    most_period += static_cast<Bytes>(b.most) * b.hi;
    if (b.lo > 0) {
      least_period += static_cast<Bytes>(std::max<std::size_t>(b.fewest, 1)) *
                      b.lo;
    }
  }
  if (most_period == 0) throw std::invalid_argument("zero striping period");
  const Bytes q_min = size / most_period;
  const Bytes q_max = least_period == 0 ? size : size / least_period;
  const double sz = static_cast<double>(size);
  const double ht = static_cast<double>(net_hops) * t;

  std::vector<BoxFloorScratch::Tier>& tiers = scratch.tiers;
  tiers.assign(k, {});
  // Bytes every cell holds in every member (q * s_j on a tier always
  // present), weighed as the floor weighs them.
  double low_bytes = 0.0;
  double low_load = 0.0;
  double all_startup = 0.0;  // q >= 1: every cell is touched
  for (std::size_t j = 0; j < k; ++j) {
    const BoxTier& b = box[j];
    if (b.most == 0 || b.hi == 0) continue;
    BoxFloorScratch::Tier& x = tiers[j];
    const storage::OpProfile& p = *profiles[j];
    const std::size_t fewest = std::max<std::size_t>(b.fewest, 1);
    const double hi = static_cast<double>(b.hi);
    const double lo = static_cast<double>(b.lo);
    const bool always = b.lo > 0;
    x.present = true;
    x.cells = static_cast<double>(b.most);
    x.load = b.factor * p.per_byte + per_stripe_overhead * b.factor / hi;
    // The expected maximum is monotone in the touched count, so its least
    // over 1..most (q == 0) or fewest..most (q >= 1) is at an end.
    x.startup = b.factor * std::min(startup_expected_max(p, 1),
                                    startup_expected_max(p, b.most));
    if (always) {
      all_startup = std::max(
          all_startup, b.factor * std::min(startup_expected_max(p, fewest),
                                           startup_expected_max(p, b.most)));
    }
    x.low = always ? static_cast<double>(q_min) * lo : 0.0;
    x.whole = static_cast<double>(q_min + 1) * lo;
    // q * s_j <= size * s_j / S, and S >= fewest * s_j + the other tiers'
    // least share, so the ratio is largest at s_j = hi.
    if (q_max > 0) {
      const double others = static_cast<double>(
          least_period - (always ? static_cast<Bytes>(fewest) * b.lo : 0));
      const double share = hi / (static_cast<double>(fewest) * hi + others);
      x.cap_rest =
          std::min(static_cast<double>(q_max) * hi, sz * share) * (1.0 + 1e-12);
    }
    x.cap = std::min(sz, x.cap_rest + hi);
    low_bytes = std::max(low_bytes, x.low);
    low_load = std::max(low_load, x.load * x.low);
  }

  // Least over the placements that touch the tiers of U, with a covered cell
  // on each tier of F and the two partial cells on the tiers a and b.
  double best = std::numeric_limits<double>::infinity();
  std::vector<BoxFloorScratch::Group>& groups = scratch.groups;
  auto in = [](std::uint64_t set, std::size_t j) {
    return (set >> j & 1) != 0;
  };
  auto evaluate = [&](std::uint64_t U, double startup) {
    std::uint64_t F = 0;  // every subset of U, from the empty one
    do {
      double bytes = low_bytes;
      double load = low_load;
      for (std::size_t j = 0; j < k; ++j) {
        if (!in(F, j)) continue;
        bytes = std::max(bytes, tiers[j].whole);
        load = std::max(load, tiers[j].load * tiers[j].whole);
      }
      const double forced = ht * bytes + load;
      if (startup + forced >= best) continue;
      // Cells of U \ F hold q * s_j each, and two of them (the window's
      // partial cells, on tiers a and b) up to (q + 1) * s_j.
      const std::uint64_t rest = U & ~F;
      auto case_cost = [&](std::size_t a, std::size_t b) {
        groups.clear();
        auto add = [&](double cells, double cap, double load) {
          if (cells > 0.0 && cap > 0.0) groups.push_back({cells, cap, load});
        };
        for (std::size_t j = 0; j < k; ++j) {
          if (!in(U, j)) continue;
          const BoxFloorScratch::Tier& x = tiers[j];
          const double partial =
              in(F, j) ? x.cells
                       : std::min(x.cells,
                                  static_cast<double>((j == a) + (j == b)));
          add(x.cells - partial, x.cap_rest, x.load);
          add(partial, x.cap, x.load);
        }
        best = std::min(best, startup + least_byte_terms(groups, sz, ht, bytes,
                                                          load, scratch));
      };
      if (rest == 0) case_cost(k, k);
      for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t b = a; in(rest, a) && b < k; ++b) {
          if (in(rest, b)) case_cost(a, b);
        }
      }
    } while ((F = (F - U) & U) != 0);
  };
  if (k > kEnumeratedTiers) {
    // Too many tiers to enumerate placements: every cell may fill to its
    // cap, and the window pays the least startup.
    groups.clear();
    double startup = std::numeric_limits<double>::infinity();
    for (const BoxFloorScratch::Tier& x : tiers) {
      if (!x.present) continue;
      groups.push_back({x.cells, x.cap, x.load});
      startup = std::min(startup, x.startup);
    }
    if (q_min >= 1) startup = all_startup;
    return (net_latency + startup + least_byte_terms(groups, sz, ht, low_bytes,
                                                     low_load, scratch)) *
           kSlack;
  }
  std::uint64_t present = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (tiers[j].present) present |= std::uint64_t{1} << j;
  }
  if (q_min >= 1) {
    evaluate(present, all_startup);
  } else {
    // The touched tiers pay at least the largest of their startups, so for
    // each startup level U is every tier whose startup is no larger.
    std::vector<std::size_t>& order = scratch.order;
    order.clear();
    for (std::size_t j = 0; j < k; ++j) {
      if (tiers[j].present) order.push_back(j);
    }
    auto before = [&](std::size_t a, std::size_t b) {
      return tiers[a].startup < tiers[b].startup;
    };
    for (std::size_t i = 1; i < order.size(); ++i) {  // a handful of tiers
      for (std::size_t j = i; j > 0 && before(order[j], order[j - 1]); --j) {
        std::swap(order[j], order[j - 1]);
      }
    }
    std::uint64_t U = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      U |= std::uint64_t{1} << order[i];
      if (i + 1 < order.size() &&
          tiers[order[i + 1]].startup == tiers[order[i]].startup) {
        continue;
      }
      evaluate(U, tiers[order[i]].startup);
    }
  }
  return (net_latency + best) * kSlack;
}

namespace {

/// request_cost's per-layout setup: validates the shapes and fills `use`
/// with the members in use per tier and, when any tier is heterogeneous,
/// `factors` with each tier's worst factor over them (else leaves it empty).
void resolve_members(const TieredCostParams& params,
                     std::span<const Bytes> stripes,
                     std::span<const std::size_t> members,
                     std::vector<std::size_t>& use,
                     std::vector<double>& factors) {
  const std::size_t k = params.tiers.size();
  if (stripes.size() != k || (!members.empty() && members.size() != k)) {
    throw std::invalid_argument("tiers/stripes/members size mismatch");
  }
  use.resize(k);
  bool heterogeneous = false;
  for (std::size_t j = 0; j < k; ++j) {
    use[j] = members.empty() ? params.tiers[j].count : members[j];
    if (use[j] > params.tiers[j].count) {
      throw std::invalid_argument("members exceed tier count");
    }
    if (!params.tiers[j].device_factors.empty()) heterogeneous = true;
  }
  factors.clear();
  if (!heterogeneous) return;
  // Each tier is charged at the worst factor among the members in use.
  factors.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    factors[j] = storage::worst_device_factor(params.tiers[j].device_factors,
                                              use[j]);
  }
}

Seconds cost_with(const TieredCostParams& params,
                  std::span<const std::size_t> use,
                  std::span<const storage::OpProfile* const> profiles,
                  std::span<const double> factors, Bytes offset, Bytes size,
                  std::span<const Bytes> stripes,
                  std::span<TierGeometry> scratch) {
  return kernel_at(use, profiles, factors, params.t, params.net_latency,
                   params.net_hops, params.per_stripe_overhead, offset, size,
                   stripes, scratch);
}

}  // namespace

Seconds request_cost(const TieredCostParams& params, IoOp op, Bytes offset,
                     Bytes size, std::span<const Bytes> stripes,
                     std::span<const std::size_t> members) {
  std::vector<std::size_t> use;
  std::vector<double> factors;
  resolve_members(params, stripes, members, use, factors);
  const std::size_t k = params.tiers.size();
  std::vector<const storage::OpProfile*> profiles(k);
  for (std::size_t j = 0; j < k; ++j) {
    profiles[j] = &params.tiers[j].profile.op(op);
  }
  std::vector<TierGeometry> scratch(k);
  return cost_with(params, use, profiles, factors, offset, size, stripes,
                   scratch);
}

FixedStripeCost::FixedStripeCost(const TieredCostParams& params,
                                 std::vector<Bytes> stripes,
                                 std::span<const std::size_t> members)
    : params_(&params), stripes_(std::move(stripes)) {
  resolve_members(params, stripes_, members, use_, factors_);
  for (const IoOp op : {IoOp::kRead, IoOp::kWrite}) {
    auto& profiles = profiles_[op == IoOp::kRead ? 0 : 1];
    for (const TierSpec& tier : params.tiers) {
      profiles.push_back(&tier.profile.op(op));
    }
  }
}

Seconds FixedStripeCost::operator()(IoOp op, Bytes offset, Bytes size,
                                    std::span<TierGeometry> scratch) const {
  return cost_with(*params_, use_, profiles_[op == IoOp::kRead ? 0 : 1],
                   factors_, offset, size, stripes_, scratch);
}

Seconds cached_read_cost(const TieredCostParams& params,
                         const CacheReadSpec& spec, Bytes offset, Bytes size) {
  if (spec.devices == 0 || spec.chunk == 0) {
    throw std::invalid_argument("cache spec needs devices and a chunk size");
  }
  // A hit is a one-tier layout: `devices` servers striped at `chunk`, read
  // with the cache devices' profile.  Network terms come from the same
  // calibration as the miss path, so hit and miss costs are comparable.
  const std::size_t counts[1] = {spec.devices};
  const Bytes stripes[1] = {spec.chunk};
  const storage::OpProfile* profiles[1] = {&spec.profile};
  TierGeometry scratch[1];
  if (spec.worst_factor == 1.0) {
    return tiered_cost_kernel(counts, profiles, params.t, params.net_latency,
                              params.net_hops, params.per_stripe_overhead,
                              offset, size, stripes, scratch);
  }
  const double factors[1] = {spec.worst_factor};
  return tiered_cost_kernel_devices(counts, profiles, factors, params.t,
                                    params.net_latency, params.net_hops,
                                    params.per_stripe_overhead, offset, size,
                                    stripes, scratch);
}

std::uint64_t params_fingerprint(const TieredCostParams& params) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  auto mix_double = [&](double d) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix(params.tiers.size());
  mix_double(params.t);
  mix_double(params.net_latency);
  mix(static_cast<std::uint64_t>(params.net_hops));
  mix_double(params.per_stripe_overhead);
  for (const TierSpec& tier : params.tiers) {
    mix(tier.count);
    for (IoOp op : {IoOp::kRead, IoOp::kWrite}) {
      const storage::OpProfile& p = tier.profile.op(op);
      mix_double(p.startup_min);
      mix_double(p.startup_max);
      mix_double(p.per_byte);
    }
    // Device table: hashed only when present, so the homogeneous fingerprint
    // is unchanged from the pre-device-model format while any factor change
    // (even on a single member) yields a new fingerprint and invalidates
    // every cache keyed on it.
    if (!tier.device_factors.empty()) {
      mix(tier.device_factors.size());
      for (double f : tier.device_factors) mix_double(f);
    }
  }
  return h;
}

}  // namespace harl::core

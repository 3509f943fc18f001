// HARL's analytic data-access cost model (paper Section III-D), in its
// general k-tier form.
//
// The cost of one file request in a hybrid PFS is
//
//     T = T_X + T_S + T_T                                   (Eq. 7/8)
//
// with T_X the network time of the maximal sub-request (Eq. 1), T_S the
// expected maximum startup over the touched servers of each tier (Eq. 3-5)
// and T_T the slowest tier's transfer of its maximal sub-request (Eq. 6).
// Because striping is round-robin, all stripes of one request on one server
// form a single contiguous server-local extent, so "maximal sub-request
// size" equals "maximal per-server byte count" — the quantity paper Fig. 5
// tabulates.
//
// The paper writes the model for two server classes and names "more than
// two server performance profiles" as future work.  Here the paper's model
// is the k = 2 case of one parameter type (TieredCostParams, tier 0 =
// HServers, tier 1 = SServers): one geometry routine, one cost kernel, one
// set of calibration parameters per tier.
//
// Geometry convention: servers are ordered tier 0 first, then tier 1, ...,
// and striping is round-robin across all servers in that order (the same
// convention pfs::VariedStripeLayout and the paper use for HServers followed
// by SServers).  A region's layout is the stripe vector (s_0, ..., s_{k-1});
// the striping period is S = sum_j count_j * s_j.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/io.hpp"
#include "src/common/units.hpp"
#include "src/storage/profiles.hpp"

namespace harl::core {

/// One storage tier of the cluster.
///
/// `device_factors` generalizes the tier from a homogeneous server class to
/// an ordered group of member devices: factor i is server slot i's time
/// multiplier over the tier profile (1.0 = nominal).  The vector is kept in
/// *canonical* form — sorted ascending (fastest member first) with the
/// all-1.0 case represented by the empty vector
/// (storage::canonicalize_device_factors) — so "the d fastest members" is
/// always the slot prefix [0, d) and the homogeneous configuration takes
/// exactly the pre-device-model code paths, bit for bit.
struct TierSpec {
  std::size_t count = 0;           ///< number of servers in this tier
  storage::TierProfile profile;    ///< alpha/beta parameters per op
  /// Canonical per-member speed factors; empty = homogeneous tier.  When
  /// non-empty the size must equal `count`.
  std::vector<double> device_factors;

  /// True when every member matches the tier profile (no device model).
  bool homogeneous() const { return device_factors.empty(); }
};

/// Per-tier sub-request distribution of one request.
struct TierGeometry {
  Bytes max_bytes = 0;     ///< maximal per-server byte count in the tier
  std::size_t touched = 0; ///< servers of the tier with nonzero bytes
};

/// Exact per-tier geometry of request [o, o+r) under round-robin striping.
/// `counts[j]` servers in tier j each use stripe `stripes[j]` (0 = skip).
/// Requires counts.size() == stripes.size() and a nonzero total period.
std::vector<TierGeometry> tiered_geometry(Bytes o, Bytes r,
                                          std::span<const std::size_t> counts,
                                          std::span<const Bytes> stripes);

/// Allocation-free form: writes per-tier geometry into `out` (same size as
/// `counts`).  For k == 2 with both tiers present and both stripes nonzero
/// this dispatches to the O(1) closed forms of paper Fig. 4/5 (exactness is
/// pinned by closed_form_test); otherwise it walks the period's cells in
/// O(sum counts).  The optimizer calls this millions of times per region.
void tiered_geometry_into(Bytes o, Bytes r,
                          std::span<const std::size_t> counts,
                          std::span<const Bytes> stripes,
                          std::span<TierGeometry> out);

struct TieredCostParams {
  std::vector<TierSpec> tiers;
  Seconds t = 0.0;            ///< unit-byte network time
  Seconds net_latency = 0.0;  ///< fixed per-request overhead (0 = paper-pure)
  int net_hops = 1;           ///< link traversals charged
  /// Server-side processing charged per stripe unit of the largest
  /// sub-request (0 = paper-pure).  Calibrated from the PFS request
  /// protocol; prices the small-stripe penalty of paper Fig. 1b.
  Seconds per_stripe_overhead = 0.0;
};

/// Expected maximum of `k` i.i.d. uniforms on [p.startup_min, p.startup_max]
/// (paper Eq. 3/4): a_min + k/(k+1) * (a_max - a_min).  0 when k == 0.
Seconds startup_expected_max(const storage::OpProfile& p, std::size_t k);

/// The shared cost kernel (generalized Eq. 7/8):
///   T_X = hops * t * max_j(max_bytes_j) + latency
///   T_S = max_j E[max of touched_j uniforms on tier j's startup window]
///   T_T = max_j (max_bytes_j * beta_j) + per_stripe_overhead * max pieces
/// `profiles[j]` is tier j's OpProfile for the request's op (pre-selected so
/// hot loops pay no per-request branching) and `scratch` is caller-provided
/// TierGeometry storage of the same size as `counts`.
Seconds tiered_cost_kernel(std::span<const std::size_t> counts,
                           std::span<const storage::OpProfile* const> profiles,
                           Seconds t, Seconds net_latency, int net_hops,
                           Seconds per_stripe_overhead, Bytes offset,
                           Bytes size, std::span<const Bytes> stripes,
                           std::span<TierGeometry> scratch);

/// Device-aware variant of the kernel.  `tier_factors[j]` is the worst
/// (largest) speed factor among the member devices of tier j that the
/// request's stripes actually use (storage::worst_device_factor over the
/// selected member prefix).  Every server-side term is charged at that
/// conservative factor — the slowest touched member dominates its tier:
///   T_S = max_j f_j * E[max of touched_j startups on tier j's window]
///   T_T = max_j f_j * max_bytes_j * beta_j
///        + per_stripe_overhead * max_j f_j * pieces_j
/// The network terms (T_X) are unchanged: aging is a device property.
/// With all factors exactly 1.0 this returns a value bit-identical to
/// `tiered_cost_kernel` (multiplication by 1.0 is exact), but homogeneous
/// callers still use the unscaled kernel so the hot path is untouched.
Seconds tiered_cost_kernel_devices(
    std::span<const std::size_t> counts,
    std::span<const storage::OpProfile* const> profiles,
    std::span<const double> tier_factors, Seconds t, Seconds net_latency,
    int net_hops, Seconds per_stripe_overhead, Bytes offset, Bytes size,
    std::span<const Bytes> stripes, std::span<TierGeometry> scratch);

/// Reusable buffers for tiered_cost_offset_min and tiered_cost_window_floor,
/// so a caller that bounds many candidates allocates only once.
struct OffsetMinScratch {
  std::vector<TierGeometry> geometry;
  std::vector<Bytes> cells;              ///< cell boundaries of the period
  std::vector<std::size_t> cell_tier;    ///< tier of each cell
  std::vector<std::size_t> first_cell;   ///< first cell of each tier
  std::vector<Bytes> ends;               ///< end breakpoints, ascending
  std::vector<Bytes> points;             ///< all breakpoints, ascending
  std::vector<char> covered;             ///< breakpoint bounded by a neighbour
  std::vector<double> weights;           ///< window floor: V_j per tier
  std::vector<std::size_t> in_window;    ///< window floor: cells per tier
  std::vector<double> startups;          ///< window floor: startup by count
};

/// Lower bound on min over x in [0, S) of the kernel for a request of `size`
/// bytes at offset x (S = sum counts[j] * stripes[j]): the cheapest place a
/// request of this size can land under the layout.  `tier_factors` empty
/// selects tiered_cost_kernel, otherwise tiered_cost_kernel_devices; the
/// other arguments are the kernel's.
///
/// Breakpoints are the offsets where x or x + (size mod S) meets a cell
/// boundary (at most 2 * cells of them).  Between two breakpoints the
/// touched counts are constant and every server's bytes are affine in x, so
/// the kernel with the per-stripe piece count relaxed from
/// ceil(bytes / stripe) to bytes / stripe is convex and piecewise linear;
/// its minimum lies at an end of the interval or where the start cell's or
/// end cell's line crosses another line, and those points are evaluated.
/// The same affine bytes are exact at the interval's ends, so they also
/// bound the kernel at each breakpoint once a line cell left empty there is
/// no longer counted as touched; the exact kernel is evaluated only at
/// breakpoints no such interval reaches, and inside intervals whose
/// geometry does not move.  The smallest value, less a 1e-12 relative slack
/// for rounding, is returned, so it never exceeds the kernel at any offset.
/// Throws std::invalid_argument on a zero period.
Seconds tiered_cost_offset_min(
    std::span<const std::size_t> counts,
    std::span<const storage::OpProfile* const> profiles,
    std::span<const double> tier_factors, Seconds t, Seconds net_latency,
    int net_hops, Seconds per_stripe_overhead, Bytes size,
    std::span<const Bytes> stripes, OffsetMinScratch& scratch);

/// A cheaper lower bound than tiered_cost_offset_min, with the same
/// arguments: never above it, so never above the kernel at any offset.  A
/// request of size q * S + rho gives cell c q * s_c bytes plus its share of
/// a window of rho bytes.  Let V_j = f_j * beta_j + per_stripe_overhead *
/// f_j / s_j.  The kernel's byte terms are at least
///   hops * t * max_c bytes_c + max_c V_c * bytes_c
/// and its startup term is exactly max_j f_j * E_j(touched_j), where every
/// cell is touched when q >= 1 and otherwise only the cells from the
/// window's start cell to its end cell.  So the floor is
///   latency + min over window placements of (startup + byte terms).
/// A placement is one cell holding the whole window, or a start cell and
/// an end cell with the cells between them covered; only the two end
/// cells' shares move, and their best split is in closed form.  Letting
/// either share reach 0 or its whole cell only lowers the byte terms, so a
/// window that wraps the period back into its start cell is the last end
/// cell's case.  rho == 0 takes the exact kernel.  The value is scaled by
/// 1 - 1e-9, so rounding cannot lift it above tiered_cost_offset_min.
/// O(cells^2) at worst, without an exact kernel call unless rho == 0.
/// Throws std::invalid_argument on a zero period.
Seconds tiered_cost_window_floor(
    std::span<const std::size_t> counts,
    std::span<const storage::OpProfile* const> profiles,
    std::span<const double> tier_factors, Seconds t, Seconds net_latency,
    int net_hops, Seconds per_stripe_overhead, Bytes size,
    std::span<const Bytes> stripes, OffsetMinScratch& scratch);

/// One tier of a box of candidate layouts: every member stripes the tier at
/// a size in [lo, hi] over `fewest` to `most` member devices (most == 0: the
/// tier has no servers), whose worst factor is at least `factor`.
struct BoxTier {
  Bytes lo = 0;
  Bytes hi = 0;
  std::size_t fewest = 0;
  std::size_t most = 0;
  double factor = 1.0;
};

/// Reusable buffers for tiered_cost_box_floor.
struct BoxFloorScratch {
  /// One tier's terms over the box.
  struct Tier {
    bool present = false;  ///< some member has cells on the tier
    double cells = 0.0;    ///< most cells a member has on the tier
    double startup = 0.0;  ///< least startup once the window touches it
    double load = 0.0;     ///< least V
    double whole = 0.0;    ///< least bytes of a cell the window covers
    double low = 0.0;      ///< least bytes of any cell (q * s)
    double cap = 0.0;      ///< most bytes of a cell ((q + 1) * s)
    double cap_rest = 0.0; ///< most bytes of a cell off the window (q * s)
  };
  /// Cells of equal capacity and weight, for water-filling.
  struct Group {
    double cells = 0.0;
    double cap = 0.0;
    double weight = 0.0;
  };
  std::vector<Tier> tiers;
  std::vector<Group> groups;
  std::vector<Group> work;
  std::vector<double> points;
  std::vector<double> loads;
  std::vector<std::size_t> order;
};

/// A lower bound on tiered_cost_window_floor over every candidate in a box
/// (DESIGN.md §21 derives it): never above the floor of any member whose
/// tier j stripes at a size in [box[j].lo, box[j].hi] over a member count in
/// [box[j].fewest, box[j].most] with worst factor >= box[j].factor.  A tier
/// whose range includes 0 may be absent.  A request of size q * S + rho
/// puts q * s_j bytes on every cell plus a window of rho contiguous bytes,
/// so at most two cells hold part of a stripe of the window and the cells
/// between them hold a whole one.  The bound is the least, over the set U of
/// tiers the window touches, the set F of tiers with a whole cell in it and
/// the tiers of its two partial cells, of the startup U forces plus the
/// least hops * t * A + L over the byte distributions that fit those cells,
/// where A bounds every cell's bytes and L every cell's V_c * bytes (with V_c
/// the window floor's weight at the box's least factor and largest stripe),
/// and both are no less than those of a whole cell of F or of the q * s_j
/// every cell holds.  Every member's placements are among the
/// distributions.  The value is scaled by (1 - 1e-9) * (1 - 1e-12), so
/// rounding cannot lift it above a member's floor.  Throws
/// std::invalid_argument when no member has a nonzero period.
Seconds tiered_cost_box_floor(
    std::span<const BoxTier> box,
    std::span<const storage::OpProfile* const> profiles, Seconds t,
    Seconds net_latency, int net_hops, Seconds per_stripe_overhead,
    Bytes size, BoxFloorScratch& scratch);

/// Cost of one request with per-tier stripe sizes (generalized Eq. 7/8).
/// `members[j]` restricts tier j to its members[j] fastest servers (the slot
/// prefix of the canonical factor order); members[j] == 0 skips the tier
/// regardless of stripes[j], and an empty `members` is full membership.
/// A heterogeneous tier is charged at the worst factor over the members in
/// use.  Requires one stripe (and, if given, one member count no larger than
/// the tier) per tier.
Seconds request_cost(const TieredCostParams& params, IoOp op, Bytes offset,
                     Bytes size, std::span<const Bytes> stripes,
                     std::span<const std::size_t> members = {});

/// request_cost for one fixed stripe vector, with its per-layout work done
/// once: the member counts in use, each op's tier profiles and, for a
/// heterogeneous tier, the worst factor.  For callers that price every
/// request against one layout (the recorder's model-error predictor).
/// Keeps a pointer to `params`, which must outlive it.
class FixedStripeCost {
 public:
  /// Validates as request_cost does.
  FixedStripeCost(const TieredCostParams& params, std::vector<Bytes> stripes,
                  std::span<const std::size_t> members = {});

  /// Exactly request_cost(params, op, offset, size, stripes, members).
  /// `scratch` holds one TierGeometry per tier.
  Seconds operator()(IoOp op, Bytes offset, Bytes size,
                     std::span<TierGeometry> scratch) const;

 private:
  const TieredCostParams* params_;
  std::vector<Bytes> stripes_;
  std::vector<std::size_t> use_;
  std::vector<double> factors_;  ///< empty when every tier is homogeneous
  std::vector<const storage::OpProfile*> profiles_[2];  ///< read, write
};

/// Geometry of the read-cache tier, for the expected-hit-rate cost term
/// (HACache direction): the fastest `devices` members of one tier are
/// reserved as a chunk-granular read cache, so a cache hit is served by
/// chunk-wise round-robin striping over those devices instead of by the
/// region's home-server layout.
struct CacheReadSpec {
  std::size_t devices = 0;     ///< reserved cache devices
  Bytes chunk = 0;             ///< cache chunk size (the hit stripe unit)
  storage::OpProfile profile;  ///< cache-device read alpha/beta
  /// Worst (largest) speed factor among the reserved member prefix — the
  /// slowest cache device dominates a multi-chunk hit, mirroring
  /// tiered_cost_kernel_devices' conservative charging.
  double worst_factor = 1.0;
};

/// Cost of serving read [offset, offset+size) entirely from the cache tier:
/// the same kernel as a one-tier layout of `spec.devices` servers striped at
/// `spec.chunk`, with network terms (t, latency, hops, per-stripe overhead)
/// taken from `params`.  Requires devices > 0 and chunk > 0.
Seconds cached_read_cost(const TieredCostParams& params,
                         const CacheReadSpec& spec, Bytes offset, Bytes size);

/// The expected-hit-rate term: a read's expected cost under a cache with
/// per-region hit rate `hit_rate` is the convex mix of its miss path (the
/// region's home layout) and its hit path (the cache tier).
inline Seconds expected_read_cost(Seconds miss_cost, Seconds hit_cost,
                                  double hit_rate) {
  return (1.0 - hit_rate) * miss_cost + hit_rate * hit_cost;
}

/// Order-independent fingerprint of the calibration (FNV-1a over the tier
/// counts and every parameter double's bit pattern; for a heterogeneous
/// tier also its device-factor vector).  Stored in Plan artifacts so the
/// Placing Phase can detect that a plan was computed against a different
/// calibration than the one in force.  A homogeneous tier (empty factors)
/// hashes exactly as before the device model existed, so pre-device plans
/// keep their fingerprints; changing any device factor changes the
/// fingerprint, which is what invalidates every cache keyed on it.
std::uint64_t params_fingerprint(const TieredCostParams& params);

}  // namespace harl::core

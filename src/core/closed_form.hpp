// Closed-form sub-request geometry for all four cases of paper Fig. 4.
//
// The paper derives the critical parameters (s_m, s_n, m, n) case by case —
// case (a): request begins and ends on HServers, (b): begins on HServers /
// ends on SServers, (c): begins on SServers / ends on HServers, (d): begins
// and ends on SServers — but prints only case (a)'s table ("Due to space
// limitation...").  This module completes the derivation "by following the
// same arguments", in O(1) per request and *exactly* (the printed case-(a)
// table approximates a few corners; see fig5_case_a_geometry).
//
// Key trick: working with the request's INCLUSIVE last byte e = o + r - 1
// removes every zero-length-fragment corner, so each tier reduces to
//   bytes(column) = full_periods * stripe + begin_partial + end_partial
// with begin/end partials determined by the begin/end columns and fragments.
// The property test closed_form_test.cpp checks equality with the exact
// O(M+N) geometry over randomized sweeps of all four cases.
//
// The test references live here too: request_geometry_reference walks the
// request stripe by stripe, and fig5_case_a_geometry is the paper's printed
// case-(a) table with its typos corrected.
#pragma once

#include <cstddef>

#include "src/common/units.hpp"

namespace harl::core {

/// The stripe-size pair of a two-tier layout (paper Table I: h and s).
struct StripePair {
  Bytes h = 0;  ///< stripe on each HServer (0 = skip HServers)
  Bytes s = 0;  ///< stripe on each SServer (0 = skip SServers)

  friend bool operator==(const StripePair&, const StripePair&) = default;
};

/// Sub-request distribution of one request (paper Fig. 5's four outputs).
struct SubreqGeometry {
  Bytes s_m = 0;       ///< maximal per-HServer byte count
  Bytes s_n = 0;       ///< maximal per-SServer byte count
  std::size_t m = 0;   ///< HServers touched
  std::size_t n = 0;   ///< SServers touched

  friend bool operator==(const SubreqGeometry&,
                         const SubreqGeometry&) = default;
};

/// The four begin/end-area cases of paper Fig. 4.
enum class Fig4Case { kA, kB, kC, kD };

/// Classifies request [o, o+r) (r > 0) under stripes `hs` with M HServers
/// and N SServers.  Requires h > 0, s > 0, M > 0, N > 0.
Fig4Case classify_fig4(Bytes o, Bytes r, StripePair hs, std::size_t M,
                       std::size_t N);

/// O(1) closed-form geometry, exact for every case and alignment.
/// Same preconditions as classify_fig4; throws std::invalid_argument.
SubreqGeometry closed_form_geometry(Bytes o, Bytes r, StripePair hs,
                                    std::size_t M, std::size_t N);

/// Brute-force reference: walks the request byte-by-stripe.  O(r / stripe);
/// used only by tests to validate the exact geometry.
SubreqGeometry request_geometry_reference(Bytes o, Bytes r, StripePair hs,
                                          std::size_t M, std::size_t N);

/// Paper Fig. 5 closed form for case (a) of Fig. 4: the request must begin
/// and end within the HServer area of its period (l_b < M*h, l_e < M*h) and
/// both stripes must be nonzero.  Throws std::domain_error otherwise.
///
/// Typo corrections relative to the printed table (validated against the
/// exact geometry in tests):
///  * the beginning-fragment formula uses l_b (the paper prints l_e), and
///    fragments are s_b = h - l_b % h, s_e = l_e % h.
/// Rows the printed table only approximates (tests assert exactness on the
/// remaining rows and document these):
///  * dr = 0, dc = 0: s_m = s_b is an upper bound; the exact value is r;
///  * stripe-aligned request ends (l_e % h == 0) overcount m by one, since
///    column n_e receives no bytes;
///  * dr >= 1 with dc >= 1: middle columns hold (dr+1) full stripes, more
///    than the printed dr*h; similarly several multi-period backward-wrap
///    combinations under/overcount m.
SubreqGeometry fig5_case_a_geometry(Bytes o, Bytes r, StripePair hs,
                                    std::size_t M, std::size_t N);

}  // namespace harl::core

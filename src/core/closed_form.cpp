#include "src/core/closed_form.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace harl::core {

namespace {

struct Endpoints {
  Bytes S = 0;        // striping period
  Bytes Mh = 0;       // size of the HServer area within a period
  std::int64_t dr = 0;  // r_e - r_b (periods spanned)
  Bytes l_b = 0;      // begin offset within its period
  Bytes l_e = 0;      // INCLUSIVE end offset within its period
};

Endpoints endpoints(Bytes o, Bytes r, StripePair hs, std::size_t M,
                    std::size_t N) {
  Endpoints ep;
  ep.Mh = static_cast<Bytes>(M) * hs.h;
  ep.S = ep.Mh + static_cast<Bytes>(N) * hs.s;
  const Bytes e = o + r - 1;  // inclusive last byte
  ep.dr = static_cast<std::int64_t>(e / ep.S) -
          static_cast<std::int64_t>(o / ep.S);
  ep.l_b = o % ep.S;
  ep.l_e = e % ep.S;
  return ep;
}

void validate(Bytes r, StripePair hs, std::size_t M, std::size_t N) {
  if (r == 0) throw std::invalid_argument("closed form needs r > 0");
  if (hs.h == 0 || hs.s == 0 || M == 0 || N == 0) {
    throw std::invalid_argument(
        "closed form needs both tiers present (h, s, M, N > 0); use "
        "tiered_geometry for single-tier layouts");
  }
}

/// One tier's geometry when the request touches it from a *begin* partial
/// (fragment `frag_b` in column `col_b`, later columns full), an *end*
/// partial (columns before `col_e` full, fragment `frag_e` in it), and
/// `fulls` complete passes.  Flags say whether each partial exists.
/// `cols` is the tier's column count, `stripe` its stripe size.
///
/// bytes(c) = fulls*stripe + begin_part(c) + end_part(c), where
///   begin_part: c > col_b -> stripe, c == col_b -> frag_b (if has_begin)
///   end_part:   c < col_e -> stripe, c == col_e -> frag_e (if has_end)
struct TierAccess {
  Bytes fulls = 0;
  bool has_begin = false;
  std::size_t col_b = 0;
  Bytes frag_b = 0;
  bool has_end = false;
  std::size_t col_e = 0;
  Bytes frag_e = 0;
};

void tier_closed_form(const TierAccess& a, std::size_t cols, Bytes stripe,
                      Bytes& max_bytes, std::size_t& touched) {
  auto bytes_at = [&](std::size_t c) -> Bytes {
    Bytes b = a.fulls * stripe;
    if (a.has_begin) {
      if (c > a.col_b) b += stripe;
      if (c == a.col_b) b += a.frag_b;
    }
    if (a.has_end) {
      if (c < a.col_e) b += stripe;
      if (c == a.col_e) b += a.frag_e;
    }
    return b;
  };

  // The maximum can only occur at a handful of structurally distinct
  // columns: the two fragment columns, a column strictly between them (both
  // partials), and a column outside both (only fulls).  Evaluate each
  // candidate that exists.
  max_bytes = 0;
  auto consider = [&](std::size_t c) {
    if (c < cols) max_bytes = std::max(max_bytes, bytes_at(c));
  };
  if (a.has_begin) consider(a.col_b);
  if (a.has_end) consider(a.col_e);
  if (a.has_begin && a.has_end && a.col_b + 1 < a.col_e) {
    consider(a.col_b + 1);  // inside both partial windows
  }
  if (a.has_begin && a.col_b + 1 < cols) consider(a.col_b + 1);
  if (a.has_end && a.col_e >= 1) consider(a.col_e - 1);
  consider(0);
  consider(cols - 1);

  if (a.fulls > 0) {
    touched = cols;  // every column holds at least the full passes
    return;
  }
  // No full passes: count columns with a nonzero partial (fragments are
  // always >= 1 byte, so the begin partial covers [col_b, cols) and the end
  // partial covers [0, col_e]).
  if (a.has_begin && a.has_end) {
    const std::size_t uncovered =
        a.col_b > a.col_e + 1 ? a.col_b - a.col_e - 1 : 0;
    touched = cols - uncovered;
  } else if (a.has_begin) {
    touched = cols - a.col_b;
  } else if (a.has_end) {
    touched = a.col_e + 1;
  } else {
    touched = 0;
  }
}

}  // namespace

Fig4Case classify_fig4(Bytes o, Bytes r, StripePair hs, std::size_t M,
                       std::size_t N) {
  validate(r, hs, M, N);
  const Endpoints ep = endpoints(o, r, hs, M, N);
  const bool begin_h = ep.l_b < ep.Mh;
  const bool end_h = ep.l_e < ep.Mh;
  if (begin_h && end_h) return Fig4Case::kA;
  if (begin_h && !end_h) return Fig4Case::kB;
  if (!begin_h && end_h) return Fig4Case::kC;
  return Fig4Case::kD;
}

SubreqGeometry closed_form_geometry(Bytes o, Bytes r, StripePair hs,
                                    std::size_t M, std::size_t N) {
  validate(r, hs, M, N);
  const Endpoints ep = endpoints(o, r, hs, M, N);
  const Bytes h = hs.h;
  const Bytes s = hs.s;
  const bool begin_h = ep.l_b < ep.Mh;
  const bool end_h = ep.l_e < ep.Mh;
  const auto dr = static_cast<Bytes>(ep.dr);

  // Begin-side parameters in the begin tier.
  const std::size_t col_b =
      begin_h ? static_cast<std::size_t>(ep.l_b / h)
              : static_cast<std::size_t>((ep.l_b - ep.Mh) / s);
  const Bytes frag_b =
      begin_h ? h - ep.l_b % h : s - (ep.l_b - ep.Mh) % s;
  // End-side parameters (inclusive): fragment counts bytes *into* the stripe.
  const std::size_t col_e =
      end_h ? static_cast<std::size_t>(ep.l_e / h)
            : static_cast<std::size_t>((ep.l_e - ep.Mh) / s);
  const Bytes frag_e = end_h ? ep.l_e % h + 1 : (ep.l_e - ep.Mh) % s + 1;

  // Single-period span within one tier (cases a/d with dr == 0): the
  // additive begin+end model below would double-count the middle columns,
  // so handle it directly.
  if (ep.dr == 0 && begin_h == end_h) {
    SubreqGeometry g;
    Bytes& smax = begin_h ? g.s_m : g.s_n;
    std::size_t& count = begin_h ? g.m : g.n;
    const Bytes stripe = begin_h ? h : s;
    if (col_b == col_e) {
      smax = r;  // the whole request sits inside one stripe
      count = 1;
    } else {
      count = col_e - col_b + 1;
      smax = std::max(frag_b, frag_e);
      if (col_e - col_b >= 2) smax = std::max(smax, stripe);
    }
    return g;
  }

  TierAccess h_access;
  TierAccess s_access;

  if (begin_h) {
    h_access.has_begin = true;
    h_access.col_b = col_b;
    h_access.frag_b = frag_b;
    // The S area of the begin period is fully covered iff the request
    // leaves the period (dr >= 1) or ends inside that S area (case b,
    // handled by the end partial instead).
  } else {
    s_access.has_begin = true;
    s_access.col_b = col_b;
    s_access.frag_b = frag_b;
  }
  if (end_h) {
    h_access.has_end = true;
    h_access.col_e = col_e;
    h_access.frag_e = frag_e;
  } else {
    s_access.has_end = true;
    s_access.col_e = col_e;
    s_access.frag_e = frag_e;
  }

  // Full passes over each tier.
  //  H tier: fully covered in periods strictly after r_b when the request
  //  begins past the H area (begin in S), in periods strictly before r_e
  //  when it ends after the H area (end in S), and in strictly-interior
  //  periods always.
  //  Count via: interior periods = dr - 1 (when dr >= 1); plus period r_b
  //  fully covers S-area iff dr >= 1 and begin is in the H area; plus period
  //  r_e fully covers H-area iff dr >= 1 and end is in the S area, etc.
  if (ep.dr >= 1) {
    const Bytes interior = dr - 1;
    // H tier fulls: interior, plus r_e's H area when the end lies beyond it
    // (end in S area).
    h_access.fulls = interior + (end_h ? 0 : 1);
    // ...plus r_b's H area when the begin lies before it?  The begin is at
    // l_b >= 0; the H area of period r_b is covered from l_b, which the
    // begin partial already accounts for when begin_h.  When the begin is in
    // the S area, period r_b's H area lies *before* l_b and is not covered.
    // S tier fulls: interior, plus r_b's S area when the begin is in the H
    // area (the request runs through it to the next period).
    s_access.fulls = interior + (begin_h ? 1 : 0);
  }

  SubreqGeometry g;
  tier_closed_form(h_access, M, h, g.s_m, g.m);
  tier_closed_form(s_access, N, s, g.s_n, g.n);
  return g;
}

SubreqGeometry request_geometry_reference(Bytes o, Bytes r, StripePair hs,
                                          std::size_t M, std::size_t N) {
  const Bytes S = static_cast<Bytes>(M) * hs.h + static_cast<Bytes>(N) * hs.s;
  if (S == 0) throw std::invalid_argument("zero striping period");
  std::vector<Bytes> per_server(M + N, 0);
  Bytes pos = o;
  const Bytes end = o + r;
  while (pos < end) {
    const Bytes within = pos % S;
    // Find the server cell containing `within` by linear scan.
    Bytes cell_base = 0;
    std::size_t server = 0;
    for (std::size_t i = 0; i < M + N; ++i) {
      const Bytes st = i < M ? hs.h : hs.s;
      if (within < cell_base + st) {
        server = i;
        break;
      }
      cell_base += st;
    }
    const Bytes st = server < M ? hs.h : hs.s;
    const Bytes take = std::min(end - pos, cell_base + st - within);
    per_server[server] += take;
    pos += take;
  }
  SubreqGeometry g;
  for (std::size_t i = 0; i < M + N; ++i) {
    if (per_server[i] == 0) continue;
    if (i < M) {
      ++g.m;
      g.s_m = std::max(g.s_m, per_server[i]);
    } else {
      ++g.n;
      g.s_n = std::max(g.s_n, per_server[i]);
    }
  }
  return g;
}

SubreqGeometry fig5_case_a_geometry(Bytes o, Bytes r, StripePair hs,
                                    std::size_t M, std::size_t N) {
  const Bytes h = hs.h;
  const Bytes s = hs.s;
  if (h == 0 || s == 0 || M == 0 || r == 0) {
    throw std::domain_error("fig5 case (a) needs nonzero stripes and M > 0");
  }
  const Bytes S = static_cast<Bytes>(M) * h + static_cast<Bytes>(N) * s;
  const Bytes r_b = o / S;
  const Bytes r_e = (o + r) / S;
  const Bytes l_b = o - r_b * S;
  const Bytes l_e = (o + r) - r_e * S;
  if (l_b >= M * h || l_e >= M * h) {
    throw std::domain_error("request does not begin and end on HServers");
  }
  const Bytes n_b = l_b / h;
  const Bytes n_e = l_e / h;
  // Fragment sizes (the paper prints l_e where l_b is meant in s_b; and we
  // take s_e as the bytes *into* the ending stripe, which is what makes the
  // dr >= 1 rows exact).
  const Bytes s_b = h - l_b % h;
  const Bytes s_e = l_e % h;
  const std::int64_t dr =
      static_cast<std::int64_t>(r_e) - static_cast<std::int64_t>(r_b);
  const std::int64_t dc =
      static_cast<std::int64_t>(n_e) - static_cast<std::int64_t>(n_b);

  SubreqGeometry g;
  if (dr == 0) {
    g.s_n = 0;
    g.n = 0;
    g.m = static_cast<std::size_t>(dc + 1);
    if (dc == 0) {
      g.s_m = s_b;  // paper's value; exact is r (upper bound, see header)
    } else if (dc == 1) {
      g.s_m = std::max(s_b, s_e);
    } else {
      g.s_m = h;
    }
  } else {
    const Bytes drb = static_cast<Bytes>(dr);
    g.s_n = drb * s;
    g.n = N;
    if (dc == 0) {
      g.s_m = std::max(drb * h - h + s_b + s_e, drb * h);
      g.m = M;
    } else if (n_b + 1 == M && n_e == 0) {
      g.s_m = std::max(drb * h - h + s_b, drb * h - h + s_e);
      g.m = dr == 1 ? 2 : M;
    } else {
      g.s_m = drb * h;
      g.m = dc < -1 ? static_cast<std::size_t>(
                          static_cast<std::int64_t>(M) + 1 + dc)
                    : M;
    }
  }
  return g;
}

}  // namespace harl::core

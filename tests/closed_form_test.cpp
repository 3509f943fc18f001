// Property tests for the completed Fig. 4/5 closed forms: for every case
// (a)-(d), the O(1) geometry must equal the brute-force stripe walk on
// randomized request sweeps, including all alignment corners.
#include <gtest/gtest.h>

#include <array>
#include <map>

#include "src/common/rng.hpp"
#include "src/core/closed_form.hpp"

namespace harl::core {
namespace {

TEST(ClassifyFig4, MatchesBeginAndEndAreas) {
  const StripePair hs{64 * KiB, 128 * KiB};
  const std::size_t M = 6;
  const std::size_t N = 2;
  const Bytes Mh = M * hs.h;  // 384K; period 640K

  // Begins and ends inside the H area of period 0.
  EXPECT_EQ(classify_fig4(0, 128 * KiB, hs, M, N), Fig4Case::kA);
  // Begins in H, ends in S (inclusive end lands past Mh).
  EXPECT_EQ(classify_fig4(0, Mh + 64 * KiB, hs, M, N), Fig4Case::kB);
  // Begins in S, wraps, ends in H of the next period.
  EXPECT_EQ(classify_fig4(Mh, 512 * KiB, hs, M, N), Fig4Case::kC);
  // Begins and ends in S.
  EXPECT_EQ(classify_fig4(Mh, 128 * KiB, hs, M, N), Fig4Case::kD);
}

TEST(ClassifyFig4, ValidatesInputs) {
  EXPECT_THROW(classify_fig4(0, 0, {64 * KiB, 64 * KiB}, 6, 2),
               std::invalid_argument);
  EXPECT_THROW(classify_fig4(0, 1, {0, 64 * KiB}, 6, 2), std::invalid_argument);
  EXPECT_THROW(classify_fig4(0, 1, {64 * KiB, 64 * KiB}, 0, 2),
               std::invalid_argument);
}

TEST(ClosedForm, HandPickedCorners) {
  const StripePair hs{100, 300};
  const std::size_t M = 3;
  const std::size_t N = 2;
  // Period 900, H area [0, 300), S area [300, 900).

  // Whole request inside one HServer stripe.
  EXPECT_EQ(closed_form_geometry(10, 50, hs, M, N),
            request_geometry_reference(10, 50, hs, M, N));
  // Exactly one full period.
  EXPECT_EQ(closed_form_geometry(0, 900, hs, M, N),
            request_geometry_reference(0, 900, hs, M, N));
  // Stripe-aligned end (the corner the printed case-(a) table mishandles).
  EXPECT_EQ(closed_form_geometry(0, 200, hs, M, N),
            request_geometry_reference(0, 200, hs, M, N));
  // Period-aligned end.
  EXPECT_EQ(closed_form_geometry(450, 450, hs, M, N),
            request_geometry_reference(450, 450, hs, M, N));
  // Backwards wrap (begin column after end column).
  EXPECT_EQ(closed_form_geometry(250, 800, hs, M, N),
            request_geometry_reference(250, 800, hs, M, N));
  // S-only span inside one period.
  EXPECT_EQ(closed_form_geometry(300, 600, hs, M, N),
            request_geometry_reference(300, 600, hs, M, N));
}

struct ClosedFormCase {
  std::size_t M;
  std::size_t N;
  Bytes h;
  Bytes s;
};

class ClosedFormMatchesExact : public ::testing::TestWithParam<ClosedFormCase> {};

TEST_P(ClosedFormMatchesExact, OnRandomRequestsOfEveryCase) {
  const ClosedFormCase c = GetParam();
  const StripePair hs{c.h, c.s};
  const Bytes S = c.M * c.h + c.N * c.s;
  Rng rng(c.M * 31 + c.N * 17 + c.h * 3 + c.s);

  std::map<Fig4Case, int> case_counts;
  for (int i = 0; i < 2000; ++i) {
    const Bytes offset = rng.uniform_u64(0, 6 * S);
    const Bytes size = rng.uniform_u64(1, 4 * S);
    const auto closed = closed_form_geometry(offset, size, hs, c.M, c.N);
    const auto exact = request_geometry_reference(offset, size, hs, c.M, c.N);
    ASSERT_EQ(closed, exact)
        << "o=" << offset << " r=" << size << " M=" << c.M << " N=" << c.N
        << " h=" << c.h << " s=" << c.s;
    ++case_counts[classify_fig4(offset, size, hs, c.M, c.N)];
  }
  // The sweep must exercise multiple Fig. 4 cases (extreme tier-size
  // ratios make some begin/end areas vanishingly small, so not every
  // parameterization can hit all four).
  EXPECT_GE(case_counts.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClosedFormMatchesExact,
    ::testing::Values(ClosedFormCase{6, 2, 64 * KiB, 64 * KiB},
                      ClosedFormCase{6, 2, 32 * KiB, 160 * KiB},
                      ClosedFormCase{2, 6, 4 * KiB, 512 * KiB},
                      ClosedFormCase{1, 1, 3, 7},
                      ClosedFormCase{3, 3, 17, 23},
                      ClosedFormCase{7, 1, 128 * KiB, 1 * MiB},
                      ClosedFormCase{1, 7, 5, 1000}));

TEST(ClosedForm, AlignedBoundariesSweep) {
  // Deterministic sweep of every (offset, size) on a small grid: catches
  // boundary arithmetic that random sampling might miss.
  const StripePair hs{4, 6};
  const std::size_t M = 2;
  const std::size_t N = 2;
  const Bytes S = 2 * 4 + 2 * 6;  // 20
  for (Bytes offset = 0; offset < 2 * S; ++offset) {
    for (Bytes size = 1; size <= 3 * S; ++size) {
      ASSERT_EQ(closed_form_geometry(offset, size, hs, M, N),
                request_geometry_reference(offset, size, hs, M, N))
          << "o=" << offset << " r=" << size;
    }
  }
}

}  // namespace
}  // namespace harl::core

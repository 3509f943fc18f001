// Tests for the Region Stripe Table (paper Fig. 6).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "src/core/rst.hpp"

namespace harl::core {
namespace {

RegionStripeTable paper_fig6_table() {
  // The example table from paper Fig. 6.
  RegionStripeTable rst;
  rst.add(0, {16 * KiB, 64 * KiB});
  rst.add(128 * MiB, {36 * KiB, 144 * KiB});
  rst.add(192 * MiB, {26 * KiB, 80 * KiB});
  return rst;
}

TEST(Rst, LookupFindsGoverningRegion) {
  const auto rst = paper_fig6_table();
  EXPECT_EQ(rst.lookup(0).stripes, (std::vector<Bytes>{16 * KiB, 64 * KiB}));
  EXPECT_EQ(rst.lookup(128 * MiB - 1).stripes,
            (std::vector<Bytes>{16 * KiB, 64 * KiB}));
  EXPECT_EQ(rst.lookup(128 * MiB).stripes,
            (std::vector<Bytes>{36 * KiB, 144 * KiB}));
  EXPECT_EQ(rst.lookup(500 * MiB).stripes,
            (std::vector<Bytes>{26 * KiB, 80 * KiB}));
  EXPECT_EQ(rst.region_of(150 * MiB), 1u);
}

TEST(Rst, AddValidatesOrdering) {
  RegionStripeTable rst;
  EXPECT_THROW(rst.add(10, {4 * KiB, 8 * KiB}), std::invalid_argument);
  rst.add(0, {4 * KiB, 8 * KiB});
  EXPECT_THROW(rst.add(0, {4 * KiB, 8 * KiB}), std::invalid_argument);
  EXPECT_THROW(rst.add(100, {0, 0}), std::invalid_argument);
  rst.add(100, {8 * KiB, 16 * KiB});
  EXPECT_EQ(rst.size(), 2u);
}

TEST(Rst, LookupOnEmptyTableThrows) {
  RegionStripeTable rst;
  EXPECT_THROW(rst.lookup(0), std::logic_error);
}

TEST(Rst, MergeAdjacentCombinesEqualStripePairs) {
  RegionStripeTable rst;
  rst.add(0, {16 * KiB, 64 * KiB});
  rst.add(64 * MiB, {16 * KiB, 64 * KiB});   // same as previous -> merge
  rst.add(128 * MiB, {36 * KiB, 144 * KiB});
  rst.add(160 * MiB, {36 * KiB, 144 * KiB});  // same -> merge
  rst.add(192 * MiB, {16 * KiB, 64 * KiB});   // different from neighbour: keep
  const std::size_t removed = rst.merge_adjacent();
  EXPECT_EQ(removed, 2u);
  ASSERT_EQ(rst.size(), 3u);
  EXPECT_EQ(rst.entry(0).offset, 0u);
  EXPECT_EQ(rst.entry(1).offset, 128 * MiB);
  EXPECT_EQ(rst.entry(2).offset, 192 * MiB);
  // Lookups in the merged range still resolve correctly.
  EXPECT_EQ(rst.lookup(100 * MiB).stripes,
            (std::vector<Bytes>{16 * KiB, 64 * KiB}));
}

TEST(Rst, MergeOnUniformTableLeavesOne) {
  RegionStripeTable rst;
  for (int i = 0; i < 5; ++i) {
    rst.add(static_cast<Bytes>(i) * MiB, {8 * KiB, 32 * KiB});
  }
  EXPECT_EQ(rst.merge_adjacent(), 4u);
  EXPECT_EQ(rst.size(), 1u);
}

TEST(Rst, SaveLoadRoundTrips) {
  const auto rst = paper_fig6_table();
  std::stringstream ss;
  rst.save(ss);
  const auto loaded = RegionStripeTable::load(ss);
  ASSERT_EQ(loaded.size(), rst.size());
  for (std::size_t i = 0; i < rst.size(); ++i) {
    EXPECT_EQ(loaded.entry(i), rst.entry(i));
  }
}

TEST(Rst, LoadRejectsBadInput) {
  {
    std::stringstream ss("wrong-header\n0 1 2\n");
    EXPECT_THROW(RegionStripeTable::load(ss), std::runtime_error);
  }
  {
    std::stringstream ss("harl-rst-v1\n0 garbage\n");
    EXPECT_THROW(RegionStripeTable::load(ss), std::runtime_error);
  }
}

TEST(Rst, LoadRejectsSignsSpacesAndBadOrderNamingTheLine) {
  const auto error = [](const std::string& text) {
    std::stringstream ss(text);
    try {
      RegionStripeTable::load(ss);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(error("harl-rst-v1\n0 -5 4096\n"),
            "RST line 2, stripe: '-5' is not an unsigned integer");
  EXPECT_EQ(error("harl-rst-v1\n+7 4096 4096\n"),
            "RST line 2, offset: '+7' is not an unsigned integer");
  EXPECT_EQ(error("harl-rst-v2\n0  4096\n"),
            "RST line 2, stripe: '' is not an unsigned integer");
  EXPECT_EQ(error("harl-rst-v1\n0 1 2\n\n0 3 4\n"),
            "RST line 4: RST offsets must be strictly increasing");
  EXPECT_EQ(error("harl-rst-v3\n0 1 2 0\n0 3 4\n").rfind("RST line 2, ", 0),
            0u);
}

// ------------------------------------------------ k-tier entries (v2) ----

TEST(Rst, TwoTierTablesSaveInLegacyV1Format) {
  // Byte compatibility: k = 2 tables keep emitting the original v1 header
  // and row shape, so pre-existing saved tables and new ones interoperate.
  const auto rst = paper_fig6_table();
  std::stringstream ss;
  rst.save(ss);
  std::string header;
  std::getline(ss, header);
  EXPECT_EQ(header, "harl-rst-v1");
}

TEST(Rst, KTierTablesRoundTripInV2Format) {
  RegionStripeTable rst;
  rst.add(0, {16 * KiB, 64 * KiB, 128 * KiB});
  rst.add(64 * MiB, {0, 32 * KiB, 256 * KiB});
  EXPECT_EQ(rst.num_tiers(), 3u);
  std::stringstream ss;
  rst.save(ss);
  std::string header;
  std::getline(ss, header);
  EXPECT_EQ(header, "harl-rst-v2");
  ss.seekg(0);
  const auto loaded = RegionStripeTable::load(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.entry(0).stripes,
            (std::vector<Bytes>{16 * KiB, 64 * KiB, 128 * KiB}));
  EXPECT_EQ(loaded.entry(1).stripes,
            (std::vector<Bytes>{0, 32 * KiB, 256 * KiB}));
}

TEST(Rst, V1RowsMustBeTwoTier) {
  // The legacy header promises exactly two stripe columns per row.
  std::stringstream ss("harl-rst-v1\n0 16384 65536 131072\n");
  EXPECT_THROW(RegionStripeTable::load(ss), std::runtime_error);
}

TEST(Rst, AddRejectsInconsistentTierCounts) {
  RegionStripeTable rst;
  rst.add(0, {16 * KiB, 64 * KiB});
  EXPECT_THROW(rst.add(64 * MiB, {16 * KiB, 64 * KiB, 128 * KiB}),
               std::invalid_argument);
  EXPECT_THROW(rst.add(64 * MiB, std::vector<Bytes>{}),
               std::invalid_argument);
}

TEST(Rst, ToLayoutAcceptsTierCountVector) {
  RegionStripeTable rst;
  rst.add(0, {16 * KiB, 64 * KiB, 128 * KiB});
  const std::size_t counts[] = {4, 2, 2};
  const auto layout = rst.to_layout(counts);
  EXPECT_EQ(layout->server_count(), 8u);
  // Mismatched tier-count shape is rejected.
  const std::size_t wrong[] = {6, 2};
  EXPECT_THROW(rst.to_layout(wrong), std::invalid_argument);
}

TEST(Rst, ToLayoutBuildsMatchingRegionLayout) {
  const auto rst = paper_fig6_table();
  const auto layout = rst.to_layout(6, 2);
  ASSERT_EQ(layout->region_count(), 3u);
  EXPECT_EQ(layout->region(1).offset, 128 * MiB);
  EXPECT_EQ(layout->region(1).h(), 36 * KiB);
  EXPECT_EQ(layout->region(1).s(), 144 * KiB);
  EXPECT_EQ(layout->server_count(), 8u);
}

TEST(Rst, ToLayoutOnEmptyTableThrows) {
  RegionStripeTable rst;
  EXPECT_THROW(rst.to_layout(6, 2), std::logic_error);
}

}  // namespace
}  // namespace harl::core

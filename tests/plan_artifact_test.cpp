// Tests for the versioned Plan artifact (core/plan_artifact.hpp): the
// single-file serialization of an Analysis Phase result that lets the
// Placing Phase run in a separate process.
#include <gtest/gtest.h>

#include <bit>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/plan_artifact.hpp"

namespace harl::core {
namespace {

PlanArtifact sample_artifact(bool with_files = true) {
  PlanArtifact artifact;
  artifact.tier_counts = {6, 2};
  artifact.calibration_fingerprint = 0x0123456789abcdefull;
  artifact.rst.add(0, {16 * KiB, 64 * KiB});
  artifact.rst.add(128 * MiB, {36 * KiB, 144 * KiB});
  artifact.rst.add(192 * MiB, {0, 80 * KiB});
  if (with_files) {
    artifact.region_files = {"app.dat.r0", "app.dat.r1", "app.dat.r2"};
  }
  return artifact;
}

/// Device-aware artifact: an aged SSD tier plus one member-restricted
/// region — the shape that forces the version-2 encoding.
PlanArtifact device_artifact() {
  PlanArtifact artifact;
  artifact.tier_counts = {6, 4};
  artifact.calibration_fingerprint = 0xfeedfacecafebeefull;
  artifact.device_factors = {{}, {1.0, 1.0, 2.0, 2.0}};
  artifact.rst.add(0, {16 * KiB, 64 * KiB});
  artifact.rst.add(128 * MiB, {0, 128 * KiB}, {0, 2});
  artifact.rst.add(192 * MiB, {36 * KiB, 144 * KiB});
  return artifact;
}

PlanArtifact three_tier_artifact() {
  PlanArtifact artifact;
  artifact.tier_counts = {4, 2, 2};
  artifact.calibration_fingerprint = 42;
  artifact.rst.add(0, {16 * KiB, 64 * KiB, 128 * KiB});
  artifact.rst.add(64 * MiB, {0, 0, 256 * KiB});
  return artifact;
}

void expect_equal(const PlanArtifact& got, const PlanArtifact& want) {
  EXPECT_EQ(got.tier_counts, want.tier_counts);
  EXPECT_EQ(got.calibration_fingerprint, want.calibration_fingerprint);
  ASSERT_EQ(got.rst.size(), want.rst.size());
  EXPECT_EQ(got.device_factors, want.device_factors);
  for (std::size_t i = 0; i < want.rst.size(); ++i) {
    SCOPED_TRACE("region " + std::to_string(i));
    EXPECT_EQ(got.rst.entry(i).offset, want.rst.entry(i).offset);
    EXPECT_EQ(got.rst.entry(i).stripes, want.rst.entry(i).stripes);
    EXPECT_EQ(got.rst.entry(i).members, want.rst.entry(i).members);
  }
  EXPECT_EQ(got.region_files, want.region_files);
}

TEST(PlanArtifact, BinaryRoundTrips) {
  const PlanArtifact artifact = sample_artifact();
  std::stringstream ss;
  save_plan_binary(artifact, ss);
  expect_equal(load_plan_binary(ss), artifact);
}

TEST(PlanArtifact, BinaryRoundTripsWithoutFileNames) {
  const PlanArtifact artifact = sample_artifact(/*with_files=*/false);
  std::stringstream ss;
  save_plan_binary(artifact, ss);
  expect_equal(load_plan_binary(ss), artifact);
}

TEST(PlanArtifact, BinaryRoundTripsThreeTiers) {
  const PlanArtifact artifact = three_tier_artifact();
  std::stringstream ss;
  save_plan_binary(artifact, ss);
  expect_equal(load_plan_binary(ss), artifact);
}

TEST(PlanArtifact, CsvRoundTrips) {
  const PlanArtifact artifact = sample_artifact();
  std::stringstream ss;
  save_plan_csv(artifact, ss);
  expect_equal(load_plan_csv(ss), artifact);
}

TEST(PlanArtifact, CsvRoundTripsThreeTiers) {
  const PlanArtifact artifact = three_tier_artifact();
  std::stringstream ss;
  save_plan_csv(artifact, ss);
  expect_equal(load_plan_csv(ss), artifact);
}

TEST(PlanArtifact, RejectsBadMagic) {
  std::stringstream ss("NOTAPLAN........................");
  EXPECT_THROW(load_plan_binary(ss), std::runtime_error);
}

TEST(PlanArtifact, RejectsTruncation) {
  const PlanArtifact artifact = sample_artifact();
  std::stringstream full;
  save_plan_binary(artifact, full);
  const std::string bytes = full.str();
  // Any prefix strictly shorter than the full artifact must be rejected,
  // never silently produce a partial table.
  for (const std::size_t len :
       {std::size_t{4}, std::size_t{11}, std::size_t{20}, bytes.size() / 2,
        bytes.size() - 1}) {
    SCOPED_TRACE("prefix length " + std::to_string(len));
    std::stringstream cut(bytes.substr(0, len));
    EXPECT_THROW(load_plan_binary(cut), std::runtime_error);
  }
}

TEST(PlanArtifact, RejectsVersionMismatch) {
  const PlanArtifact artifact = sample_artifact();
  std::stringstream full;
  save_plan_binary(artifact, full);
  std::string bytes = full.str();
  // The version is the little-endian u32 right after the 8-byte magic.
  bytes[8] = static_cast<char>(kPlanArtifactVersion + 1);
  std::stringstream patched(bytes);
  try {
    load_plan_binary(patched);
    FAIL() << "version mismatch was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(PlanArtifact, RejectsCorruptTierCount) {
  const PlanArtifact artifact = sample_artifact();
  std::stringstream full;
  save_plan_binary(artifact, full);
  std::string bytes = full.str();
  // Tier count is the u32 after magic + version; forge an absurd value.
  bytes[12] = static_cast<char>(0xff);
  bytes[13] = static_cast<char>(0xff);
  std::stringstream patched(bytes);
  EXPECT_THROW(load_plan_binary(patched), std::runtime_error);
}

TEST(PlanArtifact, RejectsFileCountMismatch) {
  PlanArtifact artifact = sample_artifact();
  artifact.region_files.pop_back();  // 2 names, 3 regions
  std::stringstream ss;
  EXPECT_THROW(save_plan_binary(artifact, ss), std::runtime_error);
  EXPECT_THROW(save_plan_csv(artifact, ss), std::runtime_error);
}

TEST(PlanArtifact, RejectsRstTierTableMismatch) {
  PlanArtifact artifact = sample_artifact(/*with_files=*/false);
  artifact.tier_counts = {6, 2, 1};  // RST rows carry 2 stripes each
  std::stringstream ss;
  EXPECT_THROW(save_plan_binary(artifact, ss), std::runtime_error);
  EXPECT_THROW(save_plan_csv(artifact, ss), std::runtime_error);
}

TEST(PlanArtifact, RejectsBadCsvHeader) {
  std::stringstream ss("not-a-plan\nfingerprint,1\n");
  EXPECT_THROW(load_plan_csv(ss), std::runtime_error);
}

TEST(PlanArtifact, RejectsCsvMissingHeaderRows) {
  // A region row before the tiers row is declared malformed, as is a file
  // that never states its fingerprint or tier table.
  {
    std::stringstream ss("harl-plan-csv-v1\nregion,0,16384,65536\n");
    EXPECT_THROW(load_plan_csv(ss), std::runtime_error);
  }
  {
    std::stringstream ss("harl-plan-csv-v1\ntiers,6,2\n");
    EXPECT_THROW(load_plan_csv(ss), std::runtime_error);
  }
}

TEST(PlanArtifact, RejectsMalformedCsvRows) {
  const std::string header = "harl-plan-csv-v1\nfingerprint,1\ntiers,6,2\n";
  for (const std::string row :
       {"region,0,16384\n",              // too few stripes
        "region,0,16384,65536,4096\n",   // too many stripes
        "region,zero,16384,65536\n",     // non-numeric
        "bogus,1,2\n"}) {                // unknown row kind
    SCOPED_TRACE(row);
    std::stringstream ss(header + row);
    EXPECT_THROW(load_plan_csv(ss), std::runtime_error);
  }
}

TEST(PlanArtifact, FromPlanCarriesTierTableAndFingerprint) {
  Plan plan;
  plan.tier_counts = {6, 2};
  plan.calibration_fingerprint = 7;
  plan.rst.add(0, {16 * KiB, 64 * KiB});
  const PlanArtifact artifact = PlanArtifact::from_plan(plan);
  EXPECT_EQ(artifact.tier_counts, plan.tier_counts);
  EXPECT_EQ(artifact.calibration_fingerprint, 7u);
  ASSERT_EQ(artifact.rst.size(), 1u);
  EXPECT_TRUE(artifact.region_files.empty());
}

TEST(PlanArtifact, PathBasedSaveLoadPicksFormatByExtension) {
  const PlanArtifact artifact = sample_artifact();
  const std::string dir = ::testing::TempDir();
  const std::string bin_path = dir + "/artifact_test.plan";
  const std::string csv_path = dir + "/artifact_test.plan.csv";
  save_plan(artifact, bin_path);
  save_plan(artifact, csv_path);
  expect_equal(load_plan(bin_path), artifact);
  expect_equal(load_plan(csv_path), artifact);
  // The CSV form is human-readable text, the binary form starts with magic.
  std::ifstream csv(csv_path);
  std::string first_line;
  std::getline(csv, first_line);
  EXPECT_EQ(first_line, "harl-plan-csv-v1");
}

TEST(PlanArtifact, LoadOnMissingFileThrows) {
  EXPECT_THROW(load_plan("/nonexistent/nope.plan"), std::runtime_error);
}

TEST(PlanArtifact, DeviceTableRoundTripsBinary) {
  const PlanArtifact artifact = device_artifact();
  std::stringstream ss;
  save_plan_binary(artifact, ss);
  expect_equal(load_plan_binary(ss), artifact);
}

TEST(PlanArtifact, DeviceTableRoundTripsCsv) {
  const PlanArtifact artifact = device_artifact();
  std::stringstream ss;
  save_plan_csv(artifact, ss);
  const std::string text = ss.str();
  // The inspectable form names the aged tier and the restricted region.
  EXPECT_NE(text.find("devtier,1,1,1,2,2"), std::string::npos) << text;
  EXPECT_NE(text.find("members,1,0,2"), std::string::npos) << text;
  std::stringstream in(text);
  expect_equal(load_plan_csv(in), artifact);
}

TEST(PlanArtifact, HomogeneousPlansKeepTheVersionOneEncoding) {
  // Byte-compatibility both ways: a plan without device information writes
  // the pre-device-model version-1 bytes (so old readers still load it),
  // and device information forces version 2.
  std::stringstream plain;
  save_plan_binary(sample_artifact(), plain);
  EXPECT_EQ(plain.str()[8], 1);

  std::stringstream dev;
  save_plan_binary(device_artifact(), dev);
  EXPECT_EQ(dev.str()[8], 2);

  // An artifact whose device table exists but is all-empty carries no
  // device information: still version 1.
  PlanArtifact hollow = sample_artifact();
  hollow.device_factors = {{}, {}};
  std::stringstream hollow_ss;
  save_plan_binary(hollow, hollow_ss);
  EXPECT_EQ(hollow_ss.str()[8], 1);
}

TEST(PlanArtifact, VersionOneArtifactLoadsWithEmptyDeviceTable) {
  // A pre-device-model artifact (version-1 bytes) must load cleanly with
  // the device fields defaulting to "homogeneous".
  std::stringstream ss;
  save_plan_binary(sample_artifact(), ss);
  ASSERT_EQ(ss.str()[8], 1);
  const PlanArtifact loaded = load_plan_binary(ss);
  EXPECT_TRUE(loaded.device_factors.empty());
  for (const RstEntry& e : loaded.rst.entries()) {
    EXPECT_TRUE(e.members.empty());
  }
}

TEST(PlanArtifact, RejectsTruncationMidDeviceTable) {
  const PlanArtifact artifact = device_artifact();
  std::stringstream full;
  save_plan_binary(artifact, full);
  const std::string bytes = full.str();
  // The device table and member section are the trailing
  // 2*8 + 4*8 + 8 + 3*2*8 = 104 bytes; every cut inside them (and the
  // byte before) must throw, never yield a partially-device-aware plan.
  for (std::size_t len = bytes.size() - 105; len < bytes.size(); ++len) {
    SCOPED_TRACE("prefix length " + std::to_string(len));
    std::stringstream cut(bytes.substr(0, len));
    EXPECT_THROW(load_plan_binary(cut), std::runtime_error);
  }
}

TEST(PlanArtifact, RejectsDeviceTableShapeMismatch) {
  // A device table whose shape disagrees with the tier table is refused on
  // save (and by symmetry on load, which routes through the same check).
  PlanArtifact artifact = device_artifact();
  artifact.device_factors = {{1.0, 1.0, 2.0, 2.0}};  // 1 row, 2 tiers
  std::stringstream ss;
  EXPECT_THROW(save_plan_binary(artifact, ss), std::runtime_error);
  EXPECT_THROW(save_plan_csv(artifact, ss), std::runtime_error);

  artifact.device_factors = {{}, {1.0, 2.0}};  // 2 factors, 4 servers
  EXPECT_THROW(save_plan_binary(artifact, ss), std::runtime_error);
  EXPECT_THROW(save_plan_csv(artifact, ss), std::runtime_error);
}

TEST(PlanArtifact, RejectsMalformedDeviceCsvRows) {
  const std::string header = "harl-plan-csv-v1\nfingerprint,1\ntiers,6,4\n";
  for (const std::string row :
       {"devtier,2,1,2\n",        // tier index out of range
        "devtier,1\n",            // no factors
        "devtier,1,fast,2\n",     // non-numeric factor
        "members,0,0,2\n"}) {     // members row before any region row
    SCOPED_TRACE(row);
    std::stringstream ss(header + row);
    EXPECT_THROW(load_plan_csv(ss), std::runtime_error);
  }
}

/// The message of the std::runtime_error `fn` throws ("" if none).
template <typename Fn>
std::string runtime_error_message(Fn fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(PlanArtifact, CsvRejectsNonFiniteNegativeAndMalformedFields) {
  const std::string header = "harl-plan-csv-v1\nfingerprint,1\ntiers,2,4\n";
  const auto error = [&](const std::string& rows) {
    return runtime_error_message([&] {
      std::stringstream ss(header + rows);
      load_plan_csv(ss);
    });
  };
  EXPECT_EQ(error("devtier,0,nan,1\n"),
            "plan CSV line 4, factor: 'nan' is not a finite number");
  EXPECT_EQ(error("devtier,0,-1,1\n"),
            "plan CSV line 4, factor: must be > 0");
  EXPECT_EQ(error("devtier,0, 1,1\n"),
            "plan CSV line 4, factor: ' 1' is not a finite number");
  EXPECT_EQ(error("region,0,-4096,4096\n"),
            "plan CSV line 4, stripe: '-4096' is not an unsigned integer");
  const std::string region = "region,0,4096,4096\n";
  EXPECT_EQ(error(region + "cache,1,1,1024,64,lru,inf\n"),
            "plan CSV line 5, hit rate: 'inf' is not a finite number");
  EXPECT_EQ(error(region + "cache,1,1,1024,64,lru,1.5\n"),
            "plan CSV line 5: corrupt cache reservation");
  EXPECT_EQ(error(region + "cache,1,1,1024,64,fifo,0.5\n").rfind(
                "plan CSV line 5, policy: ", 0),
            0u);
  EXPECT_EQ(error(region + "region,0,4096,4096\n"),
            "plan CSV line 5: RST offsets must be strictly increasing");
  EXPECT_EQ(error("tiers,2,4\n"), "plan CSV line 4, row: tiers row repeated");
  EXPECT_EQ(error(region + "cache,1,1,1024,64,lru,0.5\n"), "");
}

TEST(PlanArtifact, BinaryRejectsBadRegionsFactorsAndCache) {
  PlanArtifact artifact = device_artifact();
  artifact.cache = PlanCacheSpec{1, 1, 64 * MiB, MiB,
                                 storage::CachePolicy::kLru, 0.5};
  std::stringstream full;
  save_plan_binary(artifact, full);
  const std::string bytes = full.str();
  const auto error = [&](std::size_t at, std::uint64_t word) {
    std::string patched = bytes;
    for (int i = 0; i < 8; ++i) {
      patched[at + i] = static_cast<char>((word >> (8 * i)) & 0xff);
    }
    return runtime_error_message([&] {
      std::stringstream ss(patched);
      load_plan_binary(ss);
    });
  };
  // magic 8, version 4, k 4, fingerprint 8, tiers 2 x 8, region count 8,
  // then (offset, s_0, s_1) per region.
  const std::size_t region1 = 48 + 24;
  EXPECT_EQ(error(region1, 0),
            "plan artifact region 1: RST offsets must be strictly increasing");
  // Device table: files count 8, tier 0 count 8, tier 1 count 8, factors.
  const std::size_t factors = 48 + 3 * 24 + 8 + 8 + 8;
  EXPECT_EQ(error(factors, std::bit_cast<std::uint64_t>(-1.0)),
            "plan artifact tier 1: device factor is not finite and > 0");
  // The cache section closes the file: policy u32 then the hit rate.
  EXPECT_EQ(error(bytes.size() - 8, std::bit_cast<std::uint64_t>(1.5)),
            "plan artifact cache section: corrupt cache reservation");
  EXPECT_EQ(error(bytes.size() - 8, std::bit_cast<std::uint64_t>(0.25)), "");
}

TEST(PlanArtifact, BinaryRegionCountSizesNoAllocation) {
  // A 56-byte plan: header, two tiers, a claim of 2^28 regions and the
  // first region's offset.  The reader must run out of input before it
  // holds more than the regions it has read.
  PlanArtifact artifact = sample_artifact(/*with_files=*/false);
  std::stringstream full;
  save_plan_binary(artifact, full);
  std::string bytes = full.str().substr(0, 56);
  bytes[40] = 0;     // region count: the u64 at byte 40
  bytes[40 + 3] = 0x10;  // = 2^28
  std::stringstream ss(bytes);
  EXPECT_NE(runtime_error_message([&] { load_plan_binary(ss); })
                .find("truncated"),
            std::string::npos);
}

TEST(PlanArtifact, FromPlanCarriesTheDeviceTable) {
  Plan plan;
  plan.tier_counts = {6, 4};
  plan.calibration_fingerprint = 7;
  plan.device_factors = {{}, {1.0, 1.0, 2.0, 2.0}};
  plan.rst.add(0, {16 * KiB, 64 * KiB}, {0, 2});
  const PlanArtifact artifact = PlanArtifact::from_plan(plan);
  EXPECT_EQ(artifact.device_factors, plan.device_factors);
  ASSERT_EQ(artifact.rst.size(), 1u);
  EXPECT_EQ(artifact.rst.entry(0).members, (std::vector<std::size_t>{0, 2}));
}

}  // namespace
}  // namespace harl::core

// Non-uniform multi-region workload (paper Section IV-B.5).
//
// The paper modifies IOR to access a four-region data file (regions of
// 256 MB / 1 GB / 2 GB / 4 GB) with a different request size per region —
// the workload that motivates *region-level* layout.  Each region is
// accessed IOR-style: split into per-process segments, fixed-size requests
// at random offsets, one region after another (ranks synchronize between
// regions with a barrier, as distinct I/O phases).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/io.hpp"
#include "src/common/units.hpp"
#include "src/middleware/program.hpp"

namespace harl::workloads {

struct MultiRegionConfig {
  struct Region {
    Bytes size = 0;          ///< region length in the file
    Bytes request_size = 0;  ///< request size used within the region
  };

  /// Paper defaults: 256M/1G/2G/4G with request sizes spanning 128K..2M.
  /// (Built out of line: an initializer list here made gcc 12 warn that
  /// its backing array may be used uninitialized in every inlined copy of
  /// the constructor.)
  static std::vector<Region> paper_regions();
  std::vector<Region> regions = paper_regions();
  std::size_t processes = 16;
  IoOp op = IoOp::kWrite;
  /// Fraction of each region actually issued (1.0 = paper scale); lets CI
  /// runs keep the same shape at a smaller volume.
  double coverage = 1.0;
  bool random_offsets = true;
  std::uint64_t seed = 11;

  /// Workload drift (a stale-plan stressor): the whole region pass is
  /// repeated `drift_phases` times, with every region's request size scaled
  /// by drift_factor^phase (4K-aligned, clamped to [4K, per-rank segment]).
  /// The default single phase is byte-identical to the classic workload; a
  /// factor far from 1 makes any layout optimized for phase 0 stale by the
  /// last phase.
  std::size_t drift_phases = 1;
  double drift_factor = 1.0;
};

std::vector<mw::RankProgram> make_multiregion_programs(
    const MultiRegionConfig& config);

/// Total file extent covered by the configured regions.
Bytes multiregion_file_size(const MultiRegionConfig& config);

/// Total application bytes issued (all drift phases).
Bytes multiregion_total_bytes(const MultiRegionConfig& config);

/// Request size a region uses in drift phase `phase` (0-based): the base
/// size scaled by drift_factor^phase, rounded down to 4K alignment and
/// clamped to [4K, per-rank segment].
Bytes multiregion_drifted_request(const MultiRegionConfig& config,
                                  const MultiRegionConfig::Region& region,
                                  std::size_t phase);

}  // namespace harl::workloads

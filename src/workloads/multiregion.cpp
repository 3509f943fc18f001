#include "src/workloads/multiregion.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/common/rng.hpp"

namespace harl::workloads {

namespace {

void validate(const MultiRegionConfig& config) {
  if (config.processes == 0) throw std::invalid_argument("needs processes");
  if (config.regions.empty()) throw std::invalid_argument("needs regions");
  if (config.coverage <= 0.0 || config.coverage > 1.0) {
    throw std::invalid_argument("coverage must be in (0, 1]");
  }
  if (config.drift_phases == 0) {
    throw std::invalid_argument("needs >= 1 drift phase");
  }
  if (!(config.drift_factor > 0.0)) {
    throw std::invalid_argument("drift factor must be positive");
  }
}

/// Per-(phase, region) request shape shared by the generator and the byte
/// accounting.
struct PhaseShape {
  Bytes request_size = 0;
  Bytes slots = 0;
  std::size_t per_process = 0;
};

PhaseShape phase_shape(const MultiRegionConfig& config,
                       const MultiRegionConfig::Region& region,
                       std::size_t phase) {
  if (region.request_size == 0 || region.size == 0) {
    throw std::invalid_argument("region needs nonzero size and request size");
  }
  const Bytes segment = region.size / config.processes;
  if (segment < region.request_size) {
    throw std::invalid_argument("region segment smaller than one request");
  }
  PhaseShape shape;
  shape.request_size =
      multiregion_drifted_request(config, region, phase);
  shape.slots = segment / shape.request_size;
  shape.per_process = static_cast<std::size_t>(std::max<double>(
      1.0, config.coverage * static_cast<double>(shape.slots)));
  return shape;
}

}  // namespace

std::vector<MultiRegionConfig::Region> MultiRegionConfig::paper_regions() {
  return {
      {256 * MiB, 128 * KiB},
      {1 * GiB, 512 * KiB},
      {2 * GiB, 1 * MiB},
      {4 * GiB, 2 * MiB},
  };
}

Bytes multiregion_drifted_request(const MultiRegionConfig& config,
                                  const MultiRegionConfig::Region& region,
                                  std::size_t phase) {
  const Bytes segment = region.size / config.processes;
  if (phase == 0 || config.drift_factor == 1.0) {
    return region.request_size;  // phase 0 is the classic workload, exactly
  }
  const double scaled =
      static_cast<double>(region.request_size) *
      std::pow(config.drift_factor, static_cast<double>(phase));
  constexpr Bytes kAlign = 4 * KiB;
  auto size = static_cast<Bytes>(std::min(
      scaled, static_cast<double>(std::numeric_limits<Bytes>::max() / 2)));
  size = (size / kAlign) * kAlign;
  size = std::max(size, kAlign);
  if (segment >= kAlign) size = std::min(size, (segment / kAlign) * kAlign);
  return size;
}

std::vector<mw::RankProgram> make_multiregion_programs(
    const MultiRegionConfig& config) {
  validate(config);

  Rng seeder(config.seed);
  std::vector<mw::RankProgram> programs(config.processes);
  std::vector<Rng> rank_rngs;
  rank_rngs.reserve(config.processes);
  for (std::size_t r = 0; r < config.processes; ++r) {
    rank_rngs.push_back(seeder.fork());
  }

  // Each drift phase replays the region sequence with scaled request sizes;
  // rank RNG streams continue across phases, so a single phase reproduces
  // the classic workload bit-for-bit.
  for (std::size_t phase = 0; phase < config.drift_phases; ++phase) {
    Bytes region_base = 0;
    for (const auto& region : config.regions) {
      const PhaseShape shape = phase_shape(config, region, phase);
      const Bytes segment = region.size / config.processes;

      for (std::size_t rank = 0; rank < config.processes; ++rank) {
        const Bytes base = region_base + static_cast<Bytes>(rank) * segment;
        for (std::size_t i = 0; i < shape.per_process; ++i) {
          const Bytes slot =
              config.random_offsets
                  ? rank_rngs[rank].uniform_u64(0, shape.slots - 1)
                  : static_cast<Bytes>(i) % shape.slots;
          programs[rank].push_back(mw::IoAction::io(
              config.op, base + slot * shape.request_size,
              shape.request_size));
        }
        // Distinct I/O phase per region: ranks sync before moving on.
        programs[rank].push_back(mw::IoAction::barrier());
      }
      region_base += region.size;
    }
  }
  return programs;
}

Bytes multiregion_file_size(const MultiRegionConfig& config) {
  Bytes total = 0;
  for (const auto& r : config.regions) total += r.size;
  return total;
}

Bytes multiregion_total_bytes(const MultiRegionConfig& config) {
  validate(config);
  Bytes total = 0;
  for (std::size_t phase = 0; phase < config.drift_phases; ++phase) {
    for (const auto& region : config.regions) {
      const PhaseShape shape = phase_shape(config, region, phase);
      total += static_cast<Bytes>(config.processes) * shape.per_process *
               shape.request_size;
    }
  }
  return total;
}

}  // namespace harl::workloads

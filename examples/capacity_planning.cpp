// Scenario: SSD capacity planning (paper Section IV-D, "Discussion").
//
// HARL deliberately gives SServers larger stripes, so they store a
// disproportionate share of each file.  This example quantifies that
// footprint for an optimized layout and, when the SServers' capacity budget
// is exceeded, plans an SServer->HServer migration that demotes the coldest
// regions first — the mitigation the paper sketches.
//
// Run: ./build/examples/capacity_planning [ssd-capacity, e.g. 2G]
#include <iostream>

#include "src/harness/calibration.hpp"
#include "src/harness/scheme.hpp"
#include "src/core/planner.hpp"
#include "src/harness/table.hpp"
#include "src/pfs/space.hpp"

using namespace harl;

namespace {

/// A hot small-request region, a warm medium region and a cold archive
/// region — heat comes from access counts in the trace.
std::vector<trace::TraceRecord> workload_trace() {
  std::vector<trace::TraceRecord> records;
  auto append = [&records](Bytes base, Bytes extent, Bytes request,
                           int passes) {
    for (int p = 0; p < passes; ++p) {
      for (Bytes off = 0; off + request <= extent; off += request) {
        trace::TraceRecord r;
        r.op = p % 2 ? IoOp::kRead : IoOp::kWrite;
        r.offset = base + off;
        r.size = request;
        records.push_back(r);
      }
    }
  };
  append(0, 512 * MiB, 256 * KiB, 4);              // hot
  append(512 * MiB, 2 * GiB, 1 * MiB, 2);          // warm
  append(2 * GiB + 512 * MiB, 4 * GiB, 2 * MiB, 1);  // cold archive
  return records;
}

}  // namespace

int main(int argc, char** argv) {
  const Bytes file_size = 6 * GiB + 512 * MiB;
  const Bytes ssd_capacity = argc > 1 ? parse_size(argv[1]) : 2 * GiB;

  pfs::ClusterConfig cluster;
  const auto records = workload_trace();
  const core::Plan plan = core::analyze(records, harness::calibrate(cluster));
  const auto layout = harness::place_plan(plan);

  // --- footprint under the optimized layout ---------------------------
  const pfs::SpaceUsage usage = pfs::storage_footprint(*layout, file_size);
  std::cout << "File size: " << format_size(file_size) << "\n";
  harness::Table per_server({"server", "type", "stored"});
  for (std::size_t i = 0; i < usage.per_server.size(); ++i) {
    per_server.add_row({std::to_string(i),
                        i < cluster.tiers[0].count ? "HServer" : "SServer",
                        format_size(usage.per_server[i])});
  }
  per_server.print(std::cout);
  const Bytes ssd_bytes = usage.sserver_bytes(cluster.tiers[0].count);
  std::cout << "SServer total: " << format_size(ssd_bytes)
            << " (capacity budget: " << format_size(ssd_capacity) << ")\n\n";

  if (ssd_bytes <= ssd_capacity) {
    std::cout << "Within budget: no migration needed.\n";
    return 0;
  }

  // --- migration planning: demote the coldest regions -----------------
  std::vector<pfs::RegionHeat> heat;
  for (std::size_t i = 0; i < layout->region_count(); ++i) {
    pfs::RegionHeat h;
    h.region = i;
    h.bytes_accessed = 0;
    heat.push_back(h);
  }
  for (const auto& r : records) {
    const std::size_t region = layout->region_of(r.offset);
    heat[region].bytes_accessed += r.size;
  }

  const pfs::MigrationPlan migration =
      pfs::plan_migration(*layout, file_size, ssd_capacity, heat);
  std::cout << "Migration plan (coldest regions demoted to HServers first):\n";
  harness::Table table({"region", "offset", "H stripe", "S stripe", "action"});
  for (std::size_t i = 0; i < migration.regions.size(); ++i) {
    const auto& spec = migration.regions[i];
    const bool demoted =
        std::find(migration.demoted.begin(), migration.demoted.end(), i) !=
        migration.demoted.end();
    table.add_row({std::to_string(i), format_size(spec.offset),
                   format_size(spec.h()), format_size(spec.s()),
                   demoted ? "demoted to HServers" : "unchanged"});
  }
  table.print(std::cout);
  std::cout << "SServer bytes: " << format_size(migration.sserver_bytes_before)
            << " -> " << format_size(migration.sserver_bytes_after) << "\n";
  return 0;
}

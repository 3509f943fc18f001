// Offline trace-analysis tool: the Analysis Phase as a standalone utility.
//
// Reads an I/O trace (CSV or binary, as written by trace::save_trace), or
// generates a demo trace when no path is given; characterizes the workload,
// runs Algorithm 1 + Algorithm 2 against a calibrated cluster model, prints
// the resulting region plan, and optionally writes it as a Plan artifact
// (CSV when the output path ends in ".csv", binary otherwise).
//
// Usage:  ./build/examples/trace_analysis [trace-file] [plan-output]
#include <iostream>

#include "src/core/plan_artifact.hpp"
#include "src/harness/calibration.hpp"
#include "src/core/planner.hpp"
#include "src/harness/table.hpp"
#include "src/trace/analysis.hpp"
#include "src/trace/trace_io.hpp"
#include "src/workloads/random_workload.hpp"

using namespace harl;

namespace {

/// A demo trace with three distinct workload phases across the file.
std::vector<trace::TraceRecord> demo_trace() {
  std::vector<trace::TraceRecord> records;
  auto append_phase = [&records](Bytes base, Bytes extent, Bytes request,
                                 IoOp op) {
    for (Bytes off = 0; off + request <= extent; off += request) {
      trace::TraceRecord r;
      r.op = op;
      r.offset = base + off;
      r.size = request;
      r.rank = static_cast<std::uint32_t>((off / request) % 8);
      records.push_back(r);
    }
  };
  append_phase(0, 128 * MiB, 128 * KiB, IoOp::kWrite);          // metadata-ish
  append_phase(128 * MiB, 1 * GiB, 1 * MiB, IoOp::kWrite);      // bulk dump
  append_phase(1 * GiB + 128 * MiB, 512 * MiB, 256 * KiB, IoOp::kRead);
  return records;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<trace::TraceRecord> records;
  if (argc > 1) {
    std::cout << "Loading trace from " << argv[1] << "\n";
    records = trace::load_trace(argv[1]);
  } else {
    std::cout << "No trace given; using a generated three-phase demo trace.\n"
              << "(usage: trace_analysis [trace-file] [plan-output])\n";
    records = demo_trace();
  }

  // --- workload characterization -------------------------------------
  const auto stats = trace::characterize(records);
  std::cout << "\n--- workload ---\n" << trace::describe(stats) << "\n";
  const auto phases = trace::io_phases(records);
  std::cout << "I/O phases (temporal order): " << phases.size() << "\n";

  // --- calibrated model + analysis -----------------------------------
  pfs::ClusterConfig cluster;  // paper-shaped 6 HDD + 2 SSD hybrid PFS
  const core::TieredCostParams params = harness::calibrate(cluster);
  const storage::OpProfile& hserver = params.tiers[0].profile.read;
  const storage::OpProfile& sserver = params.tiers[1].profile.read;
  std::cout << "\n--- calibrated model ---\n"
            << "HServer: alpha [" << hserver.startup_min * 1e6
            << ", " << hserver.startup_max * 1e6
            << "] us, effective rate "
            << harness::cell(1.0 / hserver.per_byte / (1024 * 1024), 1)
            << " MB/s\n"
            << "SServer: alpha [" << sserver.startup_min * 1e6
            << ", " << sserver.startup_max * 1e6
            << "] us, effective rate "
            << harness::cell(1.0 / sserver.per_byte / (1024 * 1024), 1)
            << " MB/s\n";

  const core::Plan plan = core::analyze(records, params);
  std::cout << "\n--- region plan (threshold "
            << plan.threshold_used * 100.0 << "%, " << plan.tuning_rounds
            << " tuning rounds) ---\n";
  harness::Table table({"region", "offset", "end", "avg request", "requests",
                        "H stripe", "S stripe", "model cost (s)"});
  for (std::size_t i = 0; i < plan.regions.size(); ++i) {
    const auto& r = plan.regions[i];
    table.add_row({
        std::to_string(i),
        format_size(r.offset),
        format_size(r.end),
        format_size(static_cast<Bytes>(r.avg_request)),
        std::to_string(r.request_count),
        format_size(r.stripes[0]),
        format_size(r.stripes[1]),
        harness::cell(r.model_cost, 4),
    });
  }
  table.print(std::cout);
  std::cout << "RST rows after merging equal neighbours: " << plan.rst.size()
            << "\n";

  if (argc > 2) {
    core::save_plan(core::PlanArtifact::from_plan(plan), argv[2]);
    std::cout << "Plan written to " << argv[2] << "\n";
  }
  return 0;
}

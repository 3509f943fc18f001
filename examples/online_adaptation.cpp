// Scenario: a long-running service whose I/O pattern drifts (paper future
// work: on-line data layout).
//
// The service starts with small random reads (the layout installed by the
// offline pipeline is SServer-only), then switches to large analytical
// scans.  An OnlineAdvisor watches the live request stream; when a window
// of requests would be materially cheaper under a re-optimized layout, it
// recommends a re-layout, which we adopt and measure.
//
// Run: ./build/examples/online_adaptation
#include <iostream>

#include "src/common/rng.hpp"
#include "src/core/online_advisor.hpp"
#include "src/harness/calibration.hpp"
#include "src/harness/table.hpp"
#include "src/pfs/cluster.hpp"
#include "src/sim/simulator.hpp"

using namespace harl;

namespace {

std::vector<trace::TraceRecord> phase(Bytes request, std::size_t count,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<trace::TraceRecord> out;
  for (std::size_t i = 0; i < count; ++i) {
    trace::TraceRecord r;
    r.op = i % 4 == 0 ? IoOp::kWrite : IoOp::kRead;  // read-mostly service
    r.offset = rng.uniform_u64(0, 8192) * request;
    r.size = request;
    out.push_back(r);
  }
  return out;
}

double throughput(const std::vector<trace::TraceRecord>& reqs,
                  std::shared_ptr<const pfs::Layout> layout) {
  sim::Simulator sim;
  pfs::ClusterConfig cfg;
  pfs::Cluster cluster(sim, cfg);
  Bytes total = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    total += reqs[i].size;
    cluster.client(i % cluster.num_clients())
        .io(*layout, reqs[i].op, reqs[i].offset, reqs[i].size, [] {});
  }
  sim.run();
  return static_cast<double>(total) / sim.now() / (1024.0 * 1024.0);
}

}  // namespace

int main() {
  pfs::ClusterConfig cluster;
  const core::TieredCostParams params = harness::calibrate(cluster);

  // Offline pipeline on the service's historical (small-request) profile.
  const auto history = phase(128 * KiB, 600, 51);
  const core::Plan initial = core::analyze(history, params);
  std::cout << "Installed layout (from historical trace): "
            << initial.rst.to_layout(6, 2)->describe() << "\n";

  // The workload drifts: large analytical scans.
  const auto drifted = phase(2 * MiB, 400, 52);

  core::OnlineAdvisor::Options opts;
  opts.window = 100;
  core::OnlineAdvisor advisor(params, initial.rst, opts);

  std::size_t when = 0;
  std::optional<core::OnlineAdvisor::Recommendation> rec;
  for (std::size_t i = 0; i < drifted.size() && !rec; ++i) {
    rec = advisor.observe(drifted[i]);
    when = i + 1;
  }

  if (!rec) {
    std::cout << "No drift detected (the old layout still fits).\n";
    return 0;
  }
  std::cout << "Drift detected after " << when << " requests: model cost "
            << harness::cell(rec->current_cost, 3) << " s -> "
            << harness::cell(rec->optimized_cost, 3) << " s ("
            << harness::cell(rec->gain * 100.0, 1) << "% cheaper), "
            << "migration touches up to "
            << format_size(rec->affected_extent) << "\n";
  advisor.adopt(*rec);
  const auto adapted = advisor.current().to_layout(6, 2);
  std::cout << "Adopted layout: " << adapted->describe() << "\n\n";

  harness::Table table({"strategy", "drifted-phase MB/s"});
  const double stale = throughput(drifted, initial.rst.to_layout(6, 2));
  const double fresh = throughput(drifted, adapted);
  table.add_row({"keep stale layout", harness::cell(stale, 1)});
  table.add_row({"adopt recommendation", harness::cell(fresh, 1)});
  table.print(std::cout);
  std::cout << "Re-layout gain: "
            << harness::cell((fresh / stale - 1.0) * 100.0, 1) << "%\n";
  return 0;
}

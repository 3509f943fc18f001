// Paper Fig. 12: BTIO (NAS BT-IO, full subtype) aggregate throughput with
// 4/16/64 processes over six HServers and two SServers.  The paper reports
// HARL improving 163.5% / 116.9% / 114.8% over the 64K default.
//
// Geometry note: the bench uses grid=81 so total I/O matches the paper's
// reported 1.69 GB (standard class A moves 2 x 0.42 GB; see
// workloads/btio.hpp).
#include "bench/bench_common.hpp"

namespace harl::bench {
namespace {

std::vector<harness::SchemeResult> run() {
  harness::Experiment exp(default_options());
  std::vector<harness::SchemeResult> all;

  harness::Table table({"procs", "64K MB/s", "256K MB/s", "HARL MB/s",
                        "HARL vs 64K", "HARL layout"});
  for (std::size_t procs : {std::size_t{4}, std::size_t{16}, std::size_t{64}}) {
    workloads::BtioConfig btio = workloads::btio_paper_config(procs);
    if (!paper_scale()) btio.max_dumps = 6;
    const auto bundle = harness::btio_bundle(btio);

    auto fixed64 = exp.run(bundle, harness::LayoutScheme::fixed(64 * KiB));
    auto fixed256 = exp.run(bundle, harness::LayoutScheme::fixed(256 * KiB));
    auto harl = exp.run(bundle, harness::LayoutScheme::harl());
    table.add_row({
        std::to_string(procs),
        mbps(fixed64.total.throughput()),
        mbps(fixed256.total.throughput()),
        mbps(harl.total.throughput()),
        harness::cell_ratio(harl.total.throughput(),
                            fixed64.total.throughput()),
        harl.layout_description,
    });
    // Appended, not "p" + std::string: gcc 12 misreads that operator+'s
    // insert as an overlapping memcpy (-Wrestrict).
    const std::string tag = std::string("p").append(std::to_string(procs));
    fixed64.label = tag + "/64K";
    fixed256.label = tag + "/256K";
    harl.label = tag + "/HARL";
    all.push_back(std::move(fixed64));
    all.push_back(std::move(fixed256));
    all.push_back(std::move(harl));
  }

  std::cout << "\n== Fig. 12: BTIO aggregate throughput by layout ==\n";
  table.print(std::cout);
  return all;
}

}  // namespace
}  // namespace harl::bench

int main(int argc, char** argv) {
  return harl::bench::figure_bench_main(argc, argv, "fig12",
                                        harl::bench::run);
}

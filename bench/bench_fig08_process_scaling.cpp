// Paper Fig. 8: IOR throughput with a varied number of processes
// (8/32/128/256 at 512 KiB requests).  HARL's advantage should hold at
// every process count.
#include "bench/bench_common.hpp"

namespace harl::bench {
namespace {

std::vector<harness::SchemeResult> run() {
  harness::Experiment exp(default_options());
  const std::vector<std::size_t> process_counts = {8, 32, 128, 256};

  std::vector<harness::SchemeResult> all;
  harness::Table table({"procs", "64K read", "64K write", "HARL read",
                        "HARL write", "HARL vs 64K"});

  for (std::size_t procs : process_counts) {
    workloads::IorConfig ior = default_ior();
    ior.processes = procs;
    if (!paper_scale()) {
      // Keep total request count roughly constant across process counts.
      ior.requests_per_process = std::max<std::size_t>(8, 1536 / procs);
    }
    const auto bundle = harness::ior_bundle(ior);

    auto fixed64 = exp.run(bundle, harness::LayoutScheme::fixed(64 * KiB));
    auto harl = exp.run(bundle, harness::LayoutScheme::harl());
    table.add_row({
        std::to_string(procs),
        mbps(fixed64.read.throughput()),
        mbps(fixed64.write.throughput()),
        mbps(harl.read.throughput()),
        mbps(harl.write.throughput()),
        harness::cell_ratio(harl.total.throughput(),
                            fixed64.total.throughput()),
    });
    // Appended, not "p" + std::string: gcc 12 misreads that operator+'s
    // insert as an overlapping memcpy (-Wrestrict).
    const std::string tag = std::string("p").append(std::to_string(procs));
    fixed64.label = tag + "/64K";
    harl.label = tag + "/HARL";
    all.push_back(std::move(fixed64));
    all.push_back(std::move(harl));
  }

  std::cout << "\n== Fig. 8: IOR throughput vs number of processes ==\n";
  table.print(std::cout);
  return all;
}

}  // namespace
}  // namespace harl::bench

int main(int argc, char** argv) {
  return harl::bench::figure_bench_main(argc, argv, "fig08",
                                        harl::bench::run);
}

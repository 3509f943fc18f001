// Paper Fig. 10: IOR throughput with varied HServer:SServer ratios (7:1 and
// 2:6, plus the default 6:2).  More SServers let HARL place files mostly or
// entirely on the fast tier; the paper reports read gains up to 556% over
// other layouts at favourable ratios.
#include "bench/bench_common.hpp"

namespace harl::bench {
namespace {

std::vector<harness::SchemeResult> run() {
  std::vector<harness::SchemeResult> all;

  struct Ratio {
    std::size_t h;
    std::size_t s;
  };
  for (Ratio ratio : {Ratio{7, 1}, Ratio{6, 2}, Ratio{2, 6}}) {
    harness::ExperimentOptions opts = default_options();
    opts.cluster.tiers[0].count = ratio.h;
    opts.cluster.tiers[1].count = ratio.s;
    harness::Experiment exp(opts);
    const auto bundle = harness::ior_bundle(default_ior());

    const std::string tag =
        std::to_string(ratio.h) + ":" + std::to_string(ratio.s);
    auto results = exp.run_all(bundle, full_lineup());
    print_scheme_table(std::cout,
                       "Fig. 10: IOR throughput, HServer:SServer = " + tag,
                       results);
    for (auto& r : results) {
      if (r.label == "HARL") {
        std::cout << "HARL chose " << r.layout_description << "\n";
      }
      r.label = tag + "/" + r.label;
      all.push_back(std::move(r));
    }
  }
  return all;
}

}  // namespace
}  // namespace harl::bench

int main(int argc, char** argv) {
  return harl::bench::figure_bench_main(argc, argv, "fig10",
                                        harl::bench::run);
}

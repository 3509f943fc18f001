// Ablation B: how much of HARL's gain comes from *heterogeneity-aware*
// stripes vs region division alone?  Compares full HARL against the
// segment-level scheme (the paper's reference [10]): same Algorithm-1
// regions, but one homogeneous stripe size per region.
//
// Aged-fleet sweep: on a fleet where half the SSD tier has aged (per-device
// time factor 1x/2x/4x), compares device-aware HARL (planner sees per-slot
// speeds, may restrict striping to the fastest members) against tier-blind
// HARL (pre-device-model planner: one profile per tier) and fixed 64K.
// bench_sim_report.py --hetero gates on the aware/blind ratios.
#include <sstream>

#include "bench/bench_common.hpp"

namespace harl::bench {
namespace {

std::vector<harness::SchemeResult> run() {
  harness::Experiment exp(default_options());
  std::vector<harness::SchemeResult> all;

  // Uniform IOR (heterogeneity matters, regions do not)...
  {
    const auto bundle = harness::ior_bundle(default_ior());
    auto results = exp.run_all(
        bundle, {harness::LayoutScheme::fixed(64 * KiB),
                 harness::LayoutScheme::segment_level(),
                 harness::LayoutScheme::harl()});
    print_scheme_table(std::cout,
                       "Ablation: heterogeneity-aware vs segment-level "
                       "(uniform IOR, 512K)",
                       results);
    for (auto& r : results) {
      r.label = "ior/" + r.label;
      all.push_back(std::move(r));
    }
  }

  // ...and the four-region workload (both dimensions matter).
  {
    workloads::MultiRegionConfig mr;
    mr.processes = 16;
    mr.regions = {
        {256 * MiB, 128 * KiB},
        {1 * GiB, 512 * KiB},
        {2 * GiB, 2 * MiB},
    };
    mr.coverage = paper_scale() ? 1.0 : 0.08;
    const auto bundle = harness::multiregion_bundle(mr);
    auto results = exp.run_all(
        bundle, {harness::LayoutScheme::fixed(64 * KiB),
                 harness::LayoutScheme::segment_level(),
                 harness::LayoutScheme::harl()});
    print_scheme_table(std::cout,
                       "Ablation: heterogeneity-aware vs segment-level "
                       "(non-uniform)",
                       results);
    for (auto& r : results) {
      r.label = "multiregion/" + r.label;
      all.push_back(std::move(r));
    }
  }
  std::cout << "(segment = Algorithm-1 regions with homogeneous per-region "
               "stripes; the gap to HARL is the value of per-tier stripe "
               "sizing)\n";

  // Aged-SSD speed-spread sweep: 4 SServers, the slower half aged by the
  // spread factor.  The multiregion workload mixes request sizes, so both
  // the member-restriction and the share-shift responses of the
  // device-aware planner get exercised.
  for (const double spread : {1.0, 2.0, 4.0}) {
    harness::ExperimentOptions opts = default_options();
    opts.cluster.tiers[1].count = 4;
    if (spread > 1.0) {
      opts.cluster.tiers[1].device_factors = {1.0, 1.0, spread, spread};
    }
    workloads::MultiRegionConfig mr;
    mr.processes = 8;
    mr.coverage = paper_scale() ? 1.0 : 0.1;
    const auto bundle = harness::multiregion_bundle(mr);

    harness::Experiment aware(opts);
    auto results =
        aware.run_all(bundle, {harness::LayoutScheme::fixed(64 * KiB),
                               harness::LayoutScheme::harl()});
    harness::ExperimentOptions blind_opts = opts;
    blind_opts.calibration.device_blind = true;
    harness::Experiment blind(blind_opts);
    auto blind_results =
        blind.run_all(bundle, {harness::LayoutScheme::harl()});
    blind_results[0].label = "HARL-blind";
    results.push_back(std::move(blind_results[0]));

    std::ostringstream title;
    title << "Aged fleet: device-aware vs tier-blind HARL (half of 4 "
             "SServers aged "
          << spread << "x)";
    print_scheme_table(std::cout, title.str(), results);
    const std::string tag =
        "aged" + std::to_string(static_cast<int>(spread)) + "x/";
    for (auto& r : results) {
      r.label = tag + r.label;
      all.push_back(std::move(r));
    }
  }
  std::cout << "(HARL-blind = planner calibrated per tier only; HARL = "
               "planner sees per-device speed factors)\n";
  return all;
}

}  // namespace
}  // namespace harl::bench

int main(int argc, char** argv) {
  return harl::bench::figure_bench_main(argc, argv, "ablation_hetero",
                                        harl::bench::run);
}

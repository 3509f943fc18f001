// Ablation C (HACache): what does the heterogeneity-aware read cache tier
// buy, and when?  Three studies over the skewed Zipf re-read workload:
//
//  1. Aged-fleet sweep (fixed 64K deployment layout): the whole HDD tier
//     ages 1x/4x while the SSDs stay fresh.  The "cache" arm bolts the
//     fastest SSDs in front as a read cache (the system-default layout
//     cannot re-stripe, so the cache is the only escape from the aged
//     tier).  bench_sim_report.py --cache gates cache-on read throughput
//     >= 1.15x cache-off at 4x aging.
//
//  2. Zero-budget identity: the same arm with cache-budget=0 must be
//     byte-identical to cache-off — enabled() is false, so the entire
//     cache path must be unreachable.  Checked here (hard exit) and
//     re-checked from the JSON by bench_sim_report.py --cache.
//
//  3. Cache-aware planning (HARL scheme): a 3-SServer fleet where two of
//     the three SSDs have aged 4x.  analyze_cached weighs "stripe over
//     all three" against "reserve the fresh SSD as a cache" with the
//     replayed hit rate; the reservation only pays when concentration
//     would NIC-saturate, so the gate is non-inferiority plus a floor on
//     the achieved hit rate (the reservation must actually fire).
#include <cstdlib>
#include <sstream>

#include "bench/bench_common.hpp"

namespace harl::bench {
namespace {

workloads::ZipfConfig default_zipf() {
  workloads::ZipfConfig z;
  z.file_size = 256 * MiB;
  z.request_size = 64 * KiB;
  z.processes = 8;
  z.reads_per_process = paper_scale() ? 2048 : 512;
  z.read_phases = 3;
  z.theta = 0.9;
  return z;
}

harness::ExperimentOptions::CacheOptions cache_arm(Bytes budget) {
  harness::ExperimentOptions::CacheOptions cache;
  cache.budget = budget;
  cache.chunk = 64 * KiB;
  cache.devices = 2;
  cache.blind = true;  // fixed layouts produce no plan; the cache bolts on
  return cache;
}

std::string hit_rate_cell(const harness::SchemeResult& r) {
  if (!r.cache || r.cache->tier.lookups == 0) return "n/a";
  return harness::cell(100.0 * static_cast<double>(r.cache->tier.hits) /
                           static_cast<double>(r.cache->tier.lookups),
                       1) +
         "%";
}

void print_cache_lines(const std::vector<harness::SchemeResult>& results) {
  for (const auto& r : results) {
    if (!r.cache) continue;
    std::cout << "  " << r.label << ": hit rate " << hit_rate_cell(r)
              << ", fills " << r.cache->tier.fills_completed << ", evictions "
              << r.cache->tier.evictions << ", fill traffic "
              << mbps(static_cast<double>(r.cache->fill_bytes)) << " MB\n";
  }
}

std::vector<harness::SchemeResult> run() {
  std::vector<harness::SchemeResult> all;
  const auto bundle = harness::zipf_bundle(default_zipf());

  // Study 1+2: aged HDD tier under the fixed 64K deployment layout.
  for (const double spread : {1.0, 4.0}) {
    harness::ExperimentOptions opts = default_options();
    if (spread > 1.0) {
      pfs::TierGroup& hservers = opts.cluster.tiers[0];
      hservers.device_factors.assign(hservers.count, spread);
    }
    const auto scheme = harness::LayoutScheme::fixed(64 * KiB);

    harness::Experiment off(opts);
    auto results = off.run_all(bundle, {scheme});
    results[0].label = "off";

    harness::ExperimentOptions on_opts = opts;
    on_opts.cache = cache_arm(128 * MiB);
    harness::Experiment on(on_opts);
    auto on_results = on.run_all(bundle, {scheme});
    on_results[0].label = "cache";
    results.push_back(std::move(on_results[0]));

    if (spread > 1.0) {
      // Zero-budget identity: enabled() is false, so this run must retrace
      // the cache-off run event for event.
      harness::ExperimentOptions zero_opts = opts;
      zero_opts.cache = cache_arm(0);
      harness::Experiment zero(zero_opts);
      auto zero_results = zero.run_all(bundle, {scheme});
      zero_results[0].label = "cache0";
      if (zero_results[0].read.makespan != results[0].read.makespan ||
          zero_results[0].write.makespan != results[0].write.makespan) {
        std::cerr << "FATAL: cache-budget=0 run diverged from cache-off "
                     "(read "
                  << zero_results[0].read.makespan << " vs "
                  << results[0].read.makespan << " s, write "
                  << zero_results[0].write.makespan << " vs "
                  << results[0].write.makespan << " s)\n";
        std::exit(1);
      }
      results.push_back(std::move(zero_results[0]));
    }

    std::ostringstream title;
    title << "Read cache over fixed 64K striping (HDD tier aged " << spread
          << "x, Zipf 0.9 re-reads)";
    print_scheme_table(std::cout, title.str(), results, "off");
    print_cache_lines(results);
    const std::string tag =
        "aged" + std::to_string(static_cast<int>(spread)) + "x/";
    for (auto& r : results) {
      r.label = tag + r.label;
      all.push_back(std::move(r));
    }
  }

  // Study 3: cache-aware planning on a 3-SServer fleet, 2 of 3 aged.  More
  // ranks than the deployment's client nodes concentrate load, so striping
  // everything onto the one fresh SSD NIC-saturates — the shape where the
  // bandwidth floor makes the reservation win the sweep.
  {
    harness::ExperimentOptions opts = default_options();
    opts.cluster.tiers[1].count = 3;
    opts.cluster.tiers[1].device_factors = {1.0, 4.0, 4.0};
    workloads::ZipfConfig z = default_zipf();
    z.processes = 32;
    z.reads_per_process = paper_scale() ? 1024 : 256;
    z.read_phases = 4;
    const auto aware_bundle = harness::zipf_bundle(z);
    const auto scheme = harness::LayoutScheme::harl();

    harness::Experiment off(opts);
    auto results = off.run_all(aware_bundle, {scheme});
    results[0].label = "off";

    harness::ExperimentOptions aware_opts = opts;
    aware_opts.cache.budget = 256 * MiB;
    aware_opts.cache.chunk = 64 * KiB;
    aware_opts.cache.devices = 2;
    aware_opts.cache.blind = false;  // the planner decides the reservation
    harness::Experiment aware(aware_opts);
    auto aware_results = aware.run_all(aware_bundle, {scheme});
    aware_results[0].label = "aware";
    results.push_back(std::move(aware_results[0]));

    print_scheme_table(std::cout,
                       "Cache-aware HARL planning (3 SServers, 2 aged 4x)",
                       results, "off");
    print_cache_lines(results);
    std::cout << "  (aware = analyze_cached chose the reservation; layout "
                 "detail shows cache-reserved{...} when it fired)\n";
    for (auto& r : results) {
      r.label = "aware3s/" + r.label;
      all.push_back(std::move(r));
    }
  }
  return all;
}

}  // namespace
}  // namespace harl::bench

int main(int argc, char** argv) {
  return harl::bench::figure_bench_main(argc, argv, "ablation_cache",
                                        harl::bench::run);
}

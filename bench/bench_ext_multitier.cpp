// Extension bench (paper future work): "extend our cost model to
// accommodate more than two server performance profiles."
//
// A three-tier cluster (4 HDD + 2 SATA-SSD + 2 NVMe) is laid out three
// ways and measured end-to-end in the simulator:
//   * uniform 64K      — the conventional fixed layout;
//   * 2-tier collapsed — SATA and NVMe blended into one "SSD" profile, the
//     paper's two-profile model optimizes (h, s) over Algorithm 2's grid
//     (two tiers select it: s >= h + step), and the pair is applied to both
//     SSD tiers;
//   * 3-tier aware     — core::optimize_region searches per-tier stripes
//     with the generalized cost model over the monotone k-tier grid.
#include <benchmark/benchmark.h>

#include <iostream>

#include "src/common/rng.hpp"
#include "src/core/stripe_optimizer.hpp"
#include "src/harness/table.hpp"
#include "src/pfs/cluster.hpp"
#include "src/sim/simulator.hpp"
#include "src/storage/profiles.hpp"

namespace harl::bench {
namespace {

const std::vector<std::size_t> kCounts = {4, 2, 2};

pfs::ClusterConfig cluster_config() {
  pfs::ClusterConfig cfg;
  cfg.tiers = {
      pfs::TierGroup{"hdd", kCounts[0], storage::hdd_profile(), false, {}},
      pfs::TierGroup{"sata", kCounts[1], storage::sata_ssd_profile(), true, {}},
      pfs::TierGroup{"nvme", kCounts[2], storage::nvme_ssd_profile(), true, {}},
  };
  return cfg;
}

/// Calibrated-style model parameters per tier (effective HDD beta, small
/// sequential-fit alpha; SSD tiers keep nominal profiles).
core::TieredCostParams tier_params() {
  core::TieredCostParams p;
  p.t = pfs::ClusterConfig{}.network.per_byte;
  auto hdd = storage::hdd_profile();
  for (storage::OpProfile* prof : {&hdd.read, &hdd.write}) {
    prof->per_byte += prof->startup_mean() / static_cast<double>(64 * KiB);
    prof->startup_min *= 0.55;
    prof->startup_max *= 0.55;
  }
  p.tiers = {
             core::TierSpec{kCounts[0], hdd, {}},
      core::TierSpec{kCounts[1], storage::sata_ssd_profile(), {}},
      core::TierSpec{kCounts[2], storage::nvme_ssd_profile(), {}},
  };
  return p;
}

std::vector<FileRequest> workload(Bytes request_size, std::size_t n) {
  Rng rng(21);
  std::vector<FileRequest> reqs;
  reqs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    reqs.push_back(FileRequest{i % 2 ? IoOp::kRead : IoOp::kWrite,
                               rng.uniform_u64(0, 4096) * request_size,
                               request_size});
  }
  return reqs;
}

double simulate(const std::vector<FileRequest>& reqs,
                std::shared_ptr<const pfs::Layout> layout) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, cluster_config());
  Bytes total = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    total += reqs[i].size;
    cluster.client(i % cluster.num_clients())
        .io(*layout, reqs[i].op, reqs[i].offset, reqs[i].size, [] {});
  }
  sim.run();
  return static_cast<double>(total) / sim.now() / (1024.0 * 1024.0);
}

std::string describe(const std::vector<Bytes>& stripes) {
  std::string out = "{";
  for (std::size_t i = 0; i < stripes.size(); ++i) {
    if (i > 0) out += ", ";
    out += format_size(stripes[i]);
  }
  return out + "}";
}

void run_tables() {
  const auto p3 = tier_params();

  // The collapsed two-tier view: blend SATA+NVMe.
  core::TieredCostParams p2 = p3;
  storage::TierProfile blended = storage::sata_ssd_profile();
  const storage::TierProfile nvme = storage::nvme_ssd_profile();
  blended.name = "blended_ssd";
  for (IoOp op : {IoOp::kRead, IoOp::kWrite}) {
    storage::OpProfile& out = op == IoOp::kRead ? blended.read : blended.write;
    out.startup_min = 0.5 * (out.startup_min + nvme.op(op).startup_min);
    out.startup_max = 0.5 * (out.startup_max + nvme.op(op).startup_max);
    out.per_byte = 0.5 * (out.per_byte + nvme.op(op).per_byte);
  }
  p2.tiers = {p3.tiers[0], core::TierSpec{kCounts[1] + kCounts[2], blended, {}}};

  std::cout << "\n== Extension: three-tier layout (4 HDD + 2 SATA-SSD + 2 "
               "NVMe), simulated throughput ==\n";
  harness::Table table({"request", "uniform 64K", "2-tier collapsed",
                        "3-tier aware", "aware stripes", "aware vs 64K"});
  for (Bytes req : {256 * KiB, 1 * MiB, 4 * MiB}) {
    const auto reqs = workload(req, 96);
    core::OptimizerOptions opts;
    opts.step = req >= 4 * MiB ? 64 * KiB : 4 * KiB;  // the paper's step

    const auto aware =
        core::optimize_region(p3, reqs, static_cast<double>(req), opts);
    const auto blind =
        core::optimize_region(p2, reqs, static_cast<double>(req), opts);
    const std::vector<Bytes> blind_expanded = {blind.stripes[0],
                                               blind.stripes[1],
                                               blind.stripes[1]};

    const double uniform =
        simulate(reqs, pfs::make_fixed_layout(8, 64 * KiB));
    const double collapsed =
        simulate(reqs, pfs::make_tiered_layout(kCounts, blind_expanded));
    const double tier_aware =
        simulate(reqs, pfs::make_tiered_layout(kCounts, aware.stripes));

    table.add_row({
        format_size(req),
        harness::cell(uniform, 1),
        harness::cell(collapsed, 1),
        harness::cell(tier_aware, 1),
        describe(aware.stripes),
        harness::cell_ratio(tier_aware, uniform),
    });
  }
  table.print(std::cout);
  std::cout << "(columns are simulated MB/s; 2-tier collapsed = the paper's "
               "two-profile model applied to a three-tier cluster)\n";
}

void BM_ThreeTierOptimize(benchmark::State& state) {
  const auto p3 = tier_params();
  const auto reqs = workload(1 * MiB, 64);
  core::OptimizerOptions opts;
  opts.step = 4 * KiB;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::optimize_region(p3, reqs, 1.0 * MiB, opts));
  }
}
BENCHMARK(BM_ThreeTierOptimize)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace harl::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  harl::bench::run_tables();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

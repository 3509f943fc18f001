// harl_trace — trace file utility.
//
//   harl_trace stats   <trace>            workload characterization
//   harl_trace convert <in> <out>         CSV <-> binary (by extension)
//   harl_trace regions <trace> [k=v ...]  run Algorithm 1 and print regions
//                                         (threshold=1.0 chunk=64M)
//   harl_trace divide  <trace> [k=v ...]  Algorithm 1 diagnostics: the
//                                         threshold-tuning rounds, the split
//                                         points with their CV jumps, and the
//                                         final boundaries; csv=<path> dumps
//                                         the full per-request CV trajectory
//                                         (threshold=1.0 chunk=64M)
//   harl_trace gen     <out> [k=v ...]    generate a synthetic trace
//                                         (requests=1000 file=1G min=4K
//                                          max=2M writes=0.5 seed=1234)
//   harl_trace analyze <trace> save-plan=<out> [k=v ...]
//                                         full Analysis Phase: calibrate,
//                                         divide, optimize, save the Plan
//                                         artifact (hservers=6 sservers=2
//                                          threshold=1.0 chunk=64M threads=0)
//   harl_trace plan    <artifact>         inspect a saved Plan artifact
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/plan_artifact.hpp"
#include "src/core/planner.hpp"
#include "src/core/region_divider.hpp"
#include "src/harness/calibration.hpp"
#include "src/harness/table.hpp"
#include "src/trace/analysis.hpp"
#include "src/trace/trace_io.hpp"
#include "src/workloads/random_workload.hpp"

using namespace harl;

namespace {

int cmd_stats(const std::string& path) {
  const auto records = trace::load_trace(path);
  std::cout << trace::describe(trace::characterize(records)) << "\n";
  const auto phases = trace::io_phases(records);
  std::cout << "I/O phases: " << phases.size() << "\n";
  for (std::size_t i = 0; i < phases.size() && i < 8; ++i) {
    std::cout << "  phase " << i << ": " << to_string(phases[i].op) << " x"
              << phases[i].count << " (" << format_size(phases[i].bytes)
              << ")\n";
  }
  if (phases.size() > 8) std::cout << "  ...\n";
  return 0;
}

int cmd_convert(const std::string& in, const std::string& out) {
  const auto records = trace::load_trace(in);
  trace::save_trace(out, records);
  std::cout << "wrote " << records.size() << " records to " << out << "\n";
  return 0;
}

int cmd_regions(const std::string& path, const Config& cfg) {
  auto records = trace::load_trace(path);
  std::sort(records.begin(), records.end(), trace::ByOffset{});
  core::DividerOptions opts;
  opts.threshold = cfg.get_double("threshold", 1.0);
  opts.fixed_region_size = cfg.get_size("chunk", 64 * MiB);
  const auto division = core::divide_regions(records, opts);
  std::cout << division.regions.size() << " region(s), threshold "
            << division.threshold_used * 100.0 << "% after "
            << division.tuning_rounds << " tuning round(s)\n";
  harness::Table table({"region", "offset", "end", "avg request", "requests"});
  for (std::size_t i = 0; i < division.regions.size(); ++i) {
    const auto& r = division.regions[i];
    table.add_row({std::to_string(i), format_size(r.offset),
                   format_size(r.end),
                   format_size(static_cast<Bytes>(r.avg_request)),
                   std::to_string(r.request_count())});
  }
  table.print(std::cout);
  return 0;
}

int cmd_divide(const std::string& path, const Config& cfg) {
  auto records = trace::load_trace(path);
  std::sort(records.begin(), records.end(), trace::ByOffset{});
  core::DividerOptions opts;
  opts.threshold = cfg.get_double("threshold", 1.0);
  opts.fixed_region_size = cfg.get_size("chunk", 64 * MiB);

  std::vector<core::StreamingDivider::CvSample> trajectory;
  std::vector<core::TuningRound> rounds;
  const auto division =
      core::divide_regions_traced(records, opts, &trajectory, &rounds);

  std::cout << records.size() << " request(s) -> "
            << division.regions.size() << " region(s), threshold "
            << division.threshold_used * 100.0 << "% after "
            << division.tuning_rounds << " tuning round(s)\n";

  if (rounds.size() > 1) {
    std::cout << "\nthreshold tuning (region-count cap from chunk="
              << format_size(opts.fixed_region_size) << "):\n";
    harness::Table tuning({"round", "threshold %", "regions"});
    for (const auto& r : rounds) {
      tuning.add_row({std::to_string(r.round),
                      harness::cell(r.threshold * 100.0, 1),
                      std::to_string(r.regions)});
    }
    tuning.print(std::cout);
  }

  std::cout << "\nsplit points (CV jump > "
            << division.threshold_used * 100.0 << "%):\n";
  harness::Table splits({"request", "offset", "size", "window CV",
                         "rel change %"});
  for (const auto& s : trajectory) {
    if (!s.split) continue;
    splits.add_row({std::to_string(s.index), format_size(s.offset),
                    format_size(s.size), harness::cell(s.cv, 4),
                    harness::cell(s.relative_change * 100.0, 1)});
  }
  splits.print(std::cout);

  std::cout << "\nregion boundaries:\n";
  harness::Table table({"region", "offset", "end", "avg request", "requests"});
  for (std::size_t i = 0; i < division.regions.size(); ++i) {
    const auto& r = division.regions[i];
    table.add_row({std::to_string(i), format_size(r.offset),
                   format_size(r.end),
                   format_size(static_cast<Bytes>(r.avg_request)),
                   std::to_string(r.request_count())});
  }
  table.print(std::cout);

  const std::string csv = cfg.get_or("csv", "");
  if (!csv.empty()) {
    std::ofstream out(csv);
    if (!out) throw std::runtime_error("cannot write " + csv);
    out << "index,offset,size,cv,relative_change,split\n";
    out.precision(17);
    for (const auto& s : trajectory) {
      out << s.index << "," << s.offset << "," << s.size << "," << s.cv << ","
          << s.relative_change << "," << (s.split ? 1 : 0) << "\n";
    }
    std::cout << "\nwrote " << trajectory.size()
              << " CV trajectory sample(s) to " << csv << "\n";
  }
  return 0;
}

int cmd_analyze(const std::string& in, const Config& cfg) {
  const std::string out = cfg.get_or("save-plan", "");
  if (out.empty()) {
    throw std::invalid_argument("analyze requires save-plan=<path>");
  }
  auto records = trace::load_trace(in);
  std::sort(records.begin(), records.end(), trace::ByOffset{});

  pfs::ClusterConfig cluster;
  cluster.num_hservers = static_cast<std::size_t>(cfg.get_int("hservers", 6));
  cluster.num_sservers = static_cast<std::size_t>(cfg.get_int("sservers", 2));
  const core::TieredCostParams params = harness::calibrate(cluster, {});

  core::PlannerOptions opts;
  opts.divider.threshold = cfg.get_double("threshold", 1.0);
  opts.divider.fixed_region_size = cfg.get_size("chunk", 64 * MiB);
  std::unique_ptr<ThreadPool> pool;
  const long long threads = cfg.get_int("threads", 0);
  if (threads < 0 || threads > 1024) {
    throw std::invalid_argument("threads must be in [0, 1024]");
  }
  if (threads > 0) {
    pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(threads));
    opts.pool = pool.get();
  }

  const core::Plan plan = core::analyze(records, params, opts);
  core::save_plan(core::PlanArtifact::from_plan(plan), out);
  std::cout << "analyzed " << records.size() << " records -> "
            << plan.rst.size() << " region(s), model cost "
            << plan.total_model_cost() << " s; saved plan to " << out << "\n";
  return 0;
}

int cmd_plan(const std::string& path) {
  const core::PlanArtifact artifact = core::load_plan(path);
  std::cout << "plan artifact " << path << "\n";
  std::cout << "calibration fingerprint: " << artifact.calibration_fingerprint
            << "\n";
  std::cout << "tiers:";
  for (std::size_t c : artifact.tier_counts) std::cout << " " << c;
  std::cout << " (server counts per tier)\n";
  harness::Table table({"region", "offset", "stripes", "file"});
  for (std::size_t i = 0; i < artifact.rst.size(); ++i) {
    const core::RstEntry& e = artifact.rst.entry(i);
    std::string stripes;
    for (std::size_t j = 0; j < e.stripes.size(); ++j) {
      if (j > 0) stripes += ",";
      stripes += format_size(e.stripes[j]);
    }
    table.add_row({std::to_string(i), format_size(e.offset), stripes,
                   i < artifact.region_files.size() ? artifact.region_files[i]
                                                    : "-"});
  }
  table.print(std::cout);
  return 0;
}

int cmd_gen(const std::string& out, const Config& cfg) {
  workloads::RandomWorkloadConfig wcfg;
  wcfg.requests = static_cast<std::size_t>(cfg.get_int("requests", 1000));
  wcfg.file_size = cfg.get_size("file", 1 * GiB);
  wcfg.min_request = cfg.get_size("min", 4 * KiB);
  wcfg.max_request = cfg.get_size("max", 2 * MiB);
  wcfg.write_fraction = cfg.get_double("writes", 0.5);
  wcfg.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1234));
  const auto records = workloads::make_random_trace(wcfg);
  trace::save_trace(out, records);
  std::cout << "generated " << records.size() << " records to " << out << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() >= 2 && args[0] == "stats") return cmd_stats(args[1]);
    if (args.size() >= 3 && args[0] == "convert") {
      return cmd_convert(args[1], args[2]);
    }
    if (args.size() >= 2 && args[0] == "regions") {
      return cmd_regions(args[1], Config::from_args({args.begin() + 2,
                                                     args.end()}));
    }
    if (args.size() >= 2 && args[0] == "divide") {
      return cmd_divide(args[1], Config::from_args({args.begin() + 2,
                                                    args.end()}));
    }
    if (args.size() >= 2 && args[0] == "gen") {
      return cmd_gen(args[1],
                     Config::from_args({args.begin() + 2, args.end()}));
    }
    if (args.size() >= 2 && args[0] == "analyze") {
      return cmd_analyze(args[1],
                         Config::from_args({args.begin() + 2, args.end()}));
    }
    if (args.size() >= 2 && args[0] == "plan") return cmd_plan(args[1]);
    std::cerr << "usage: harl_trace "
                 "stats|convert|regions|divide|gen|analyze|plan "
                 "... (see header comment)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "harl_trace: " << e.what() << "\n";
    return 1;
  }
}

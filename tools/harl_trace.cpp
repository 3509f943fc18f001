// harl_trace — trace file utility: workload statistics, CSV <-> binary
// conversion, Algorithm 1 region division and its diagnostics, synthetic
// trace generation, the full Analysis Phase into a Plan artifact, and Plan
// artifact inspection.  Run it without arguments for the commands and each
// command's key=value options with their defaults.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
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

using enum OptionKind;

// Option rows shared by the Algorithm 1 commands.
const OptionSpec kThresholdOption = {
    .name = "threshold", .kind = kDouble, .fallback = "1.0",
    .help = "initial relative CV-jump split threshold, 1.0 = 100%",
    .min = 0, .min_open = true};
const OptionSpec kChunkOption = {
    .name = "chunk", .kind = kSize, .fallback = "64M",
    .help = "fixed-division region size capping the region count", .min = 1};

const OptionSpec kRegionsOptions[] = {kThresholdOption, kChunkOption};
const OptionSpec kDivideOptions[] = {
    kThresholdOption, kChunkOption,
    {.name = "csv", .kind = kString, .fallback = "",
     .help = "path; dump the full per-request CV trajectory"}};
const OptionSpec kGenOptions[] = {
    {.name = "requests", .kind = kInt, .fallback = "1000",
     .help = "request count", .min = 1},
    {.name = "file", .kind = kSize, .fallback = "1G", .help = "file size",
     .min = 1},
    {.name = "min", .kind = kSize, .fallback = "4K",
     .help = "smallest request", .min = 1},
    {.name = "max", .kind = kSize, .fallback = "2M", .help = "largest request",
     .min = 1},
    {.name = "writes", .kind = kDouble, .fallback = "0.5",
     .help = "write fraction", .min = 0, .max = 1},
    {.name = "seed", .kind = kInt, .fallback = "1234",
     .help = "generator seed"}};
const OptionSpec kAnalyzeOptions[] = {
    {.name = "save-plan", .kind = kString, .fallback = "",
     .help = "path of the Plan artifact to write (required)"},
    {.name = "hservers", .kind = kInt, .fallback = "6",
     .help = "HDD server count", .min = 0},
    {.name = "sservers", .kind = kInt, .fallback = "2",
     .help = "SSD server count", .min = 0},
    kThresholdOption, kChunkOption,
    {.name = "threads", .kind = kInt, .fallback = "0",
     .help = "planner worker threads, 0 = serial", .min = 0,
     .max = kMaxToolThreads}};

std::string usage() {
  std::ostringstream out;
  out << "usage: harl_trace <command> ...\n"
      << "stats   <trace>            workload characterization\n"
      << "convert <in> <out>         CSV <-> binary (by extension)\n"
      << "regions <trace> [k=v ...]  run Algorithm 1 and print regions\n"
      << describe_options(kRegionsOptions)
      << "divide  <trace> [k=v ...]  Algorithm 1 diagnostics: tuning rounds,\n"
      << "                           split points with their CV jumps and\n"
      << "                           the final boundaries\n"
      << describe_options(kDivideOptions)
      << "gen     <out> [k=v ...]    generate a synthetic trace\n"
      << describe_options(kGenOptions)
      << "analyze <trace> save-plan=<out> [k=v ...]\n"
      << "                           full Analysis Phase: calibrate, divide,\n"
      << "                           optimize, save the Plan artifact\n"
      << describe_options(kAnalyzeOptions)
      << "plan    <artifact>         inspect a saved Plan artifact\n";
  return out.str();
}

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

int cmd_regions(const std::string& path, const Options& options) {
  auto records = trace::load_trace(path);
  std::sort(records.begin(), records.end(), trace::ByOffset{});
  core::DividerOptions opts;
  opts.threshold = options.get_double("threshold");
  opts.fixed_region_size = options.get_size("chunk");
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

int cmd_divide(const std::string& path, const Options& options) {
  auto records = trace::load_trace(path);
  std::sort(records.begin(), records.end(), trace::ByOffset{});
  core::DividerOptions opts;
  opts.threshold = options.get_double("threshold");
  opts.fixed_region_size = options.get_size("chunk");

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

  const std::string csv = options.get_string("csv");
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

int cmd_analyze(const std::string& in, const Options& options) {
  const std::string out = options.get_string("save-plan");
  if (out.empty()) {
    throw std::invalid_argument("analyze requires save-plan=<path>");
  }
  auto records = trace::load_trace(in);
  std::sort(records.begin(), records.end(), trace::ByOffset{});

  pfs::ClusterConfig cluster;
  cluster.tiers[0].count =
      static_cast<std::size_t>(options.get_int("hservers"));
  cluster.tiers[1].count =
      static_cast<std::size_t>(options.get_int("sservers"));
  const core::TieredCostParams params = harness::calibrate(cluster, {});

  core::PlannerOptions opts;
  opts.divider.threshold = options.get_double("threshold");
  opts.divider.fixed_region_size = options.get_size("chunk");
  std::unique_ptr<ThreadPool> pool;
  if (const auto threads = options.get_int("threads"); threads > 0) {
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

int cmd_gen(const std::string& out, const Options& options) {
  workloads::RandomWorkloadConfig wcfg;
  wcfg.requests = static_cast<std::size_t>(options.get_int("requests"));
  wcfg.file_size = options.get_size("file");
  wcfg.min_request = options.get_size("min");
  wcfg.max_request = options.get_size("max");
  wcfg.write_fraction = options.get_double("writes");
  wcfg.seed = static_cast<std::uint64_t>(options.get_int("seed"));
  const auto records = workloads::make_random_trace(wcfg);
  trace::save_trace(out, records);
  std::cout << "generated " << records.size() << " records to " << out << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() >= 2) {
      const std::string& cmd = args[0];
      auto path = [&](std::size_t i) { return Options::path(args[i]); };
      const std::vector<std::string> keys(args.begin() + 2, args.end());
      if (cmd == "stats") return cmd_stats(path(1));
      if (cmd == "convert" && args.size() >= 3) {
        return cmd_convert(path(1), path(2));
      }
      if (cmd == "regions") {
        return cmd_regions(path(1), Options(kRegionsOptions, keys));
      }
      if (cmd == "divide") {
        return cmd_divide(path(1), Options(kDivideOptions, keys));
      }
      if (cmd == "gen") return cmd_gen(path(1), Options(kGenOptions, keys));
      if (cmd == "analyze") {
        return cmd_analyze(path(1), Options(kAnalyzeOptions, keys));
      }
      if (cmd == "plan") return cmd_plan(path(1));
    }
    std::cerr << usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "harl_trace: " << e.what() << "\n";
    return 1;
  }
}

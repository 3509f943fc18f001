// harl_sim — config-driven experiment runner.
//
// Runs one workload x layout-scheme grid on the simulated hybrid PFS and
// prints the comparison table.  All parameters are key=value arguments:
//
//   ./build/tools/harl_sim workload=ior request=512K procs=16 file=4G
//        requests=64 schemes=64K,256K,harl          (one command line)
//
// `harl_sim help` lists every key with its defaults and range.  It prints
// kOptions, the same table that parses and validates the arguments.
#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/plan_artifact.hpp"
#include "src/harness/experiment.hpp"
#include "src/harness/population.hpp"
#include "src/harness/table.hpp"
#include "src/obs/metrics.hpp"

using namespace harl;

namespace {

// Modes whose defaults differ (Options::select_mode).
constexpr const char* kZipfMode = "workload=zipf";
constexpr const char* kPopulationMode = "files>=1";

/// Applies aging= clauses "hserver=f0:f1:..." / "sserver=...": explicit
/// per-server speed factors, replacing both tiers' lists.
void apply_aging(const std::vector<std::string>& clauses,
                 pfs::ClusterConfig& cluster) {
  if (clauses.empty()) return;
  cluster.tiers[0].device_factors.clear();
  cluster.tiers[1].device_factors.clear();
  for (const auto& clause : clauses) {
    const auto eq = clause.find('=');
    const std::string tier = clause.substr(0, eq);
    if (eq == std::string::npos || (tier != "hserver" && tier != "sserver")) {
      throw std::invalid_argument(
          "clause must be hserver=f0:f1:... or sserver=...: " + clause);
    }
    auto& factors = cluster.tiers[tier == "hserver" ? 0 : 1].device_factors;
    factors.clear();
    // FieldReader only splits here (every text() call has a field left),
    // so a bad factor stays the std::invalid_argument Options expects.
    FieldReader list("aging", 1, std::string_view(clause).substr(eq + 1), ':');
    do {
      const std::string_view text = list.text("factor");
      factors.push_back(parse_double(text));
      if (!storage::valid_device_factor(factors.back())) {
        throw std::invalid_argument("device factor " + std::string(text) +
                                    " must be > 0");
      }
    } while (list.more());
  }
}

harness::LayoutScheme parse_scheme(const std::string& token) {
  if (token == "harl") return harness::LayoutScheme::harl();
  if (token == "harl-file") return harness::LayoutScheme::file_level_harl();
  if (token == "segment") return harness::LayoutScheme::segment_level();
  if (token.rfind("rand", 0) == 0) {
    return harness::LayoutScheme::random_stripes(parse_uint(token.substr(4)));
  }
  return harness::LayoutScheme::fixed(parse_size(token));
}

void check_aging(const std::string& value) {
  pfs::ClusterConfig scratch;
  apply_aging(split_list(value), scratch);
}

void check_workload(const std::string& value) {
  if (value != "ior" && value != "multiregion" && value != "btio" &&
      value != "zipf") {
    throw std::invalid_argument("unknown workload " + value);
  }
}

void check_cache_policy(const std::string& value) {
  storage::parse_cache_policy(value);
}

void check_schemes(const std::string& value) {
  for (const auto& token : split_list(value)) parse_scheme(token);
}

using enum OptionKind;

/// Every recognized key=value option: parsing, defaults, validation and
/// `harl_sim help` all read these rows.
const OptionSpec kOptions[] = {
    {.name = "workload", .kind = kString, .fallback = "ior",
     .help = "ior | multiregion | btio | zipf", .check = check_workload},
    {.name = "procs", .kind = kInt, .fallback = "16", .help = "process count",
     .min = 1, .modes = {{kPopulationMode, "8"}}},
    {.name = "request", .kind = kSize, .fallback = "512K",
     .help = "request size", .min = 1,
     .modes = {{kZipfMode, "256K"}, {kPopulationMode, "256K"}}},
    {.name = "file", .kind = kSize, .fallback = "4G", .help = "file size",
     .min = 1, .modes = {{kZipfMode, "1G"}, {kPopulationMode, "32M"}}},
    {.name = "requests", .kind = kInt, .fallback = "64",
     .help = "IOR requests per process, 0 = full", .min = 0},
    {.name = "coverage", .kind = kDouble, .fallback = "0.1",
     .help = "multiregion coverage fraction", .min = 0, .max = 1,
     .min_open = true},
    {.name = "drift", .kind = kInt, .fallback = "1",
     .help = "multiregion drift phases\n"
             "each phase replays the regions with request sizes scaled\n"
             "by drift-factor^phase (1 = classic static workload)",
     .min = 1},
    {.name = "drift-factor", .kind = kDouble, .fallback = "1.0",
     .help = "per-phase request-size scale factor", .min = 0, .min_open = true},
    {.name = "zipf-theta", .kind = kDouble, .fallback = "0.9",
     .help = "zipf skew exponent, 0 = uniform\n"
             "block popularity ~ 1/rank^theta over the whole file;\n"
             "all ranks share the hot set (read-cache stressor)",
     .min = 0, .max = 8},
    {.name = "zipf-reads", .kind = kInt, .fallback = "256",
     .help = "zipf reads per process per phase", .min = 1},
    {.name = "zipf-phases", .kind = kInt, .fallback = "2",
     .help = "zipf barrier-separated read phases", .min = 1},
    {.name = "grid", .kind = kInt, .fallback = "48",
     .help = "BTIO grid points per dimension", .min = 1},
    {.name = "dumps", .kind = kInt, .fallback = "4",
     .help = "BTIO max dumps, 0 = all", .min = 0},
    {.name = "hservers", .kind = kInt, .fallback = "6",
     .help = "HDD server count", .min = 0},
    {.name = "sservers", .kind = kInt, .fallback = "2",
     .help = "SSD server count", .min = 0},
    {.name = "clients", .kind = kInt, .fallback = "8",
     .help = "compute nodes", .min = 1},
    {.name = "device-spread", .kind = kDouble, .fallback = "1.0",
     .help = "age the second half of the SSD tier by this time\n"
             "factor (1.0 = homogeneous fleet); the planner sees the\n"
             "per-device speeds unless device-blind=1",
     .min = 1},
    {.name = "aging", .kind = kList, .fallback = "",
     .help = "explicit per-device speed factors, e.g.\n"
             "aging=hserver=1:1:2,sserver=1:4 (one colon list per\n"
             "tier, one factor > 0 per server; overrides device-spread)",
     .check = check_aging},
    {.name = "device-blind", .kind = kFlag, .fallback = "0",
     .help = "1 = calibrate tier profiles only, hiding per-device\n"
             "aging from the planner (the tier-blind ablation arm)"},
    {.name = "schemes", .kind = kList, .fallback = "64K,256K,harl",
     .help = "comma list: <size> | randN | harl | harl-file |\n"
             "segment",
     .check = check_schemes},
    {.name = "cache-budget", .kind = kSize, .fallback = "0",
     .help = "read-cache capacity in bytes over the fastest SSD\n"
             "devices, 0 = no cache; unless cache-blind=1 the\n"
             "Analysis Phase weighs reserving those devices as a\n"
             "chunk cache against striping over them"},
    {.name = "cache-devices", .kind = kInt, .fallback = "1",
     .help = "most SSD devices the read cache may claim", .min = 0},
    {.name = "cache-chunk", .kind = kSize, .fallback = "1M",
     .help = "read-cache chunk granularity", .min = 1},
    {.name = "cache-policy", .kind = kString, .fallback = "lru",
     .help = "read-cache eviction: lru | slru", .check = check_cache_policy},
    {.name = "cache-blind", .kind = kFlag, .fallback = "0",
     .help = "1 = run the cache but keep the planner blind to it:\n"
             "regions still stripe over the cache devices and the\n"
             "two roles contend (the bolted-on ablation arm)"},
    {.name = "seed", .kind = kInt, .fallback = "7", .help = "workload seed"},
    {.name = "threads", .kind = kInt, .fallback = "0",
     .help = "worker threads, 0 = serial\n"
             "parallelizes the planner's analysis AND the per-scheme\n"
             "measured runs; tables are bit-identical at any width",
     .min = 0, .max = kMaxToolThreads},
    {.name = "stats", .kind = kFlag, .fallback = "0",
     .help = "1 = print per-scheme event-engine counters"},
    {.name = "save-plan", .kind = kString, .fallback = "",
     .help = "path; write the first analysis-based scheme's Plan\n"
             "artifact (binary, or CSV if the path ends in .csv)"},
    {.name = "load-plan", .kind = kString, .fallback = "",
     .help = "path; Placing Phase only — append a scheme built from a\n"
             "previously saved Plan artifact, skipping trace + analysis"},
    {.name = "metrics-out", .kind = kString, .fallback = "",
     .help = "path; per-scheme observability report JSON: per-server\n"
             "utilization and queue-depth timelines (Fig. 1a), T_X/T_S/T_T\n"
             "attribution histograms, cost-model error per region"},
    {.name = "trace-out", .kind = kString, .fallback = "",
     .help = "path; combined Chrome trace-event JSON of every scheme's\n"
             "measured run, one pid per scheme (load in Perfetto or\n"
             "chrome://tracing; validate with tools/obs_report.py --check)"},
    {.name = "trace-events", .kind = kInt, .fallback = "0",
     .help = "flight-recorder ring-buffer capacity, 0 = unbounded;\n"
             "when full, the oldest trace events are dropped",
     .min = 0},
    {.name = "timeseries-out", .kind = kString, .fallback = "",
     .help = "path; per-scheme telemetry JSON: windowed per-server\n"
             "time series (columnar) plus the health monitor summary;\n"
             "arms the telemetry plane (DESIGN.md §15)"},
    {.name = "timeseries-interval", .kind = kDouble, .fallback = "0.1",
     .help = "telemetry window width in simulated seconds; giving it,\n"
             "timeseries-out= or health=1 arms the plane, else it is off",
     .min = 0, .min_open = true},
    {.name = "health", .kind = kFlag, .fallback = "0",
     .help = "1 = arm the straggler/SLO health monitor even without\n"
             "timeseries-out (scores land in metrics-out / trace-out)"},
    {.name = "slo-ms", .kind = kDouble, .fallback = "0",
     .help = "request/sub-request SLO deadline in milliseconds, 0 = no\n"
             "SLO tracking; attainment is reported per op and per\n"
             "server (the per-server view localizes a straggler)",
     .min = 0},
    {.name = "gc-pause-ms", .kind = kDouble, .fallback = "0",
     .help = "periodic GC-pause duration in milliseconds on one server,\n"
             "0 = off; a deterministic straggler injector — service\n"
             "times inflate by gc-factor during the pause window",
     .min = 0},
    {.name = "gc-period", .kind = kDouble, .fallback = "0.5",
     .help = "GC-pause cycle length in seconds", .min = 0, .min_open = true},
    {.name = "gc-factor", .kind = kDouble, .fallback = "8.0",
     .help = "service multiplier during a GC pause", .min = 1},
    {.name = "gc-server", .kind = kInt, .fallback = "-1",
     .help = "global server index to inject GC pauses on, -1 = the\n"
             "first SSD server",
     .min = -1},
    {.name = "files", .kind = kInt, .fallback = "0",
     .help = "namespace population size, 0 = classic single-file mode\n"
             "files >= 1 runs every scheme as a multi-file namespace: N\n"
             "files with rotating workload shapes, each planned and\n"
             "placed independently, all launched concurrently on ONE\n"
             "shared cluster (procs=, file= and request= take their\n"
             "files>=1 defaults in this mode)",
     .min = 0, .max = 4096},
    {.name = "tenants", .kind = kInt, .fallback = "2",
     .help = "tenant count for population runs, at most files, and\n"
             "each tenant must get a file under zipf-tenant-theta; the\n"
             "default is capped at files",
     .min = 1},
    {.name = "zipf-tenant-theta", .kind = kDouble, .fallback = "0.8",
     .help = "Zipf skew of files-per-tenant shares, 0 = uniform;\n"
             "tenant 0 is the hot tenant and owns proportionally more\n"
             "of the namespace",
     .min = 0},
    {.name = "replicas", .kind = kFlag, .fallback = "1",
     .help = "1 = per-region replica placement for population files\n"
             "plan schemes pick each region's replica tier by modeled\n"
             "cost, other schemes use chained declustering; required\n"
             "for failure runs (degraded reads need a live copy)"},
    {.name = "fail-server", .kind = kInt, .fallback = "-1",
     .help = "global server index to kill mid-run, -1 = none;\n"
             "population mode only — foreground reads fail over to\n"
             "replicas and a throttled rebuild storm re-materializes\n"
             "the lost copies over the surviving servers",
     .min = -1},
    {.name = "fail-at", .kind = kDouble, .fallback = "0.0",
     .help = "failure instant in simulated seconds", .min = 0},
};

std::string usage() {
  std::ostringstream out;
  out << "harl_sim — config-driven experiment runner.\n\n"
      << "All parameters are key=value arguments (defaults in parentheses,\n"
      << "then each mode's default and the accepted range):\n"
      << describe_options(kOptions)
      << "\nSeparate Analysis and Placing processes:\n"
      << "  harl_sim schemes=harl save-plan=ior.plan     # analyze + save\n"
      << "  harl_sim schemes=64K load-plan=ior.plan      # place from the "
         "artifact\n"
      << "\nObservability (flight recorder):\n"
      << "  harl_sim schemes=64K,harl metrics-out=m.json trace-out=t.json\n"
      << "  python3 tools/obs_report.py m.json --trace t.json --check\n"
      << "\nTelemetry plane (straggler timeline):\n"
      << "  harl_sim schemes=harl timeseries-out=ts.json health=1 "
         "slo-ms=5 gc-pause-ms=20\n"
      << "  python3 tools/obs_report.py --timeseries ts.json "
         "--require-health --html dash.html\n";
  return out.str();
}

/// Applies device-spread= / aging= to the cluster config.  device-spread=F
/// ages the second half of the SSD tier by F; aging= overrides it.
void apply_device_config(const Options& opts, pfs::ClusterConfig& cluster) {
  const double spread = opts.get_double("device-spread");
  if (spread > 1.0) {
    pfs::TierGroup& sservers = cluster.tiers[1];
    sservers.device_factors.assign(sservers.count, 1.0);
    for (std::size_t i = sservers.count - sservers.count / 2;
         i < sservers.count; ++i) {
      sservers.device_factors[i] = spread;
    }
  }
  apply_aging(opts.get_list("aging"), cluster);
}

harness::WorkloadBundle make_bundle(const Options& opts) {
  const std::string kind = opts.get_string("workload");
  const auto procs = static_cast<std::size_t>(opts.get_int("procs"));
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed"));
  if (kind == "ior") {
    workloads::IorConfig ior;
    ior.processes = procs;
    ior.request_size = opts.get_size("request");
    ior.file_size = opts.get_size("file");
    ior.requests_per_process =
        static_cast<std::size_t>(opts.get_int("requests"));
    ior.seed = seed;
    return harness::ior_bundle(ior);
  }
  if (kind == "multiregion") {
    workloads::MultiRegionConfig mr;
    mr.processes = procs;
    mr.coverage = opts.get_double("coverage");
    mr.seed = seed;
    mr.drift_phases = static_cast<std::size_t>(opts.get_int("drift"));
    mr.drift_factor = opts.get_double("drift-factor");
    return harness::multiregion_bundle(mr);
  }
  if (kind == "zipf") {
    workloads::ZipfConfig zipf;
    zipf.processes = procs;
    zipf.file_size = opts.get_size("file");
    zipf.request_size = opts.get_size("request");
    zipf.reads_per_process =
        static_cast<std::size_t>(opts.get_int("zipf-reads"));
    zipf.theta = opts.get_double("zipf-theta");
    zipf.read_phases = static_cast<std::size_t>(opts.get_int("zipf-phases"));
    zipf.seed = seed;
    return harness::zipf_bundle(zipf);
  }
  workloads::BtioConfig btio;
  btio.processes = procs;
  btio.grid = static_cast<std::size_t>(opts.get_int("grid"));
  btio.max_dumps = static_cast<int>(opts.get_int("dumps"));
  return harness::btio_bundle(btio);
}

/// One scheme's measured run as the exports see it, in either mode.
struct Run {
  std::string label;
  std::shared_ptr<obs::Recorder> obs;
  sim::Simulator::Stats sim_stats;
  /// Writes the mode-specific metrics-out fields between label and report.
  /// It writes into the export stream itself, whose number formatting the
  /// previous scheme's report has already set.
  std::function<void(std::ostream&)> write_header;
};

/// Writes the exports whose paths are set: trace-out= as one Chrome trace,
/// metrics-out= and timeseries-out= as {"schemes": [...]} lists over the
/// runs that carry a recorder / a recorder with its health monitor armed.
void write_exports(const std::vector<Run>& runs, const std::string& trace_out,
                   const std::string& metrics_out,
                   const std::string& timeseries_out) {
  const auto open = [](const std::string& path) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    return out;
  };
  const auto write_schemes = [&](const std::string& path, const char* what,
                                 auto has, auto write_body) {
    if (path.empty()) return;
    std::ofstream out = open(path);
    out << "{\n  \"schemes\": [";
    bool first = true;
    for (const Run& r : runs) {
      if (!has(r)) continue;
      out << (first ? "" : ",") << "\n    {\"label\": ";
      first = false;
      obs::write_json_string(out, r.label);
      write_body(out, r);
      out << "}";
    }
    out << "\n  ]\n}\n";
    std::cout << "wrote " << what << " to " << path << "\n";
  };

  if (!trace_out.empty()) {
    // One combined Chrome trace: each scheme's measured run is a process
    // (pid = scheme index + 1), each simulated resource a thread.
    std::ofstream out = open(trace_out);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (runs[i].obs) {
        runs[i].obs->append_trace_events(
            out, static_cast<std::uint32_t>(i + 1), runs[i].label, first);
      }
    }
    out << "\n]}\n";
    std::cout << "wrote trace to " << trace_out << "\n";
  }
  write_schemes(
      metrics_out, "metrics", [](const Run& r) { return r.obs != nullptr; },
      [](std::ostream& out, const Run& r) {
        r.write_header(out);
        out << ", \"report\": ";
        r.obs->write_metrics_json(out, 4);
      });
  // Telemetry plane dump: per scheme, the columnar windowed time series and
  // the health monitor's summary (obs_report.py --timeseries /
  // --require-health validate both).
  write_schemes(
      timeseries_out, "timeseries",
      [](const Run& r) {
        return r.obs != nullptr && r.obs->health() != nullptr;
      },
      [](std::ostream& out, const Run& r) {
        out << ",\n     \"timeseries\": ";
        r.obs->health()->timeseries().write_json(out, 5);
        out << ",\n     \"health\": ";
        r.obs->health()->write_json(out, 5);
      });
}

/// stats=1: engine counters of each scheme's measured run — how the event
/// core behaved (dispatch volume, queue shape, arena allocation behaviour).
void print_engine_stats(const std::vector<Run>& runs) {
  std::cout << "\n== event engine (measured runs) ==\n";
  harness::Table stats_table({"layout", "events", "peak queue", "lane",
                              "now-lane", "ascending", "pool hit%", "chunks",
                              "inline", "spilled"});
  for (const Run& r : runs) {
    const auto& s = r.sim_stats;
    const std::uint64_t slots = s.pool_hits + s.pool_misses;
    const double hit_rate =
        slots > 0 ? 100.0 * static_cast<double>(s.pool_hits) /
                        static_cast<double>(slots)
                  : 0.0;
    stats_table.add_row({
        r.label,
        std::to_string(s.events_dispatched),
        std::to_string(s.peak_queue_depth),
        std::to_string(s.lane_events),
        std::to_string(s.now_lane_events),
        std::to_string(s.ascending_events),
        harness::cell(hit_rate, 1),
        std::to_string(s.pool_chunks),
        std::to_string(s.inline_callbacks),
        std::to_string(s.heap_callbacks),
    });
  }
  stats_table.print(std::cout);
}

/// metrics-out fields of a population run: its files, and the failure and
/// per-tenant SLO summaries when the run has them.
void write_population_header(std::ostream& out,
                             const harness::PopulationResult& r,
                             const pfs::ClusterConfig& cluster) {
  out << ", \"makespan_s\": " << r.total.makespan
      << ", \"total_bytes\": " << r.total.bytes << ", \"files\": [";
  for (std::size_t f = 0; f < r.files.size(); ++f) {
    const auto& fr = r.files[f];
    if (f > 0) out << ", ";
    out << "{\"file\": " << fr.id << ", \"tenant\": " << fr.tenant
        << ", \"name\": ";
    obs::write_json_string(out, fr.name);
    out << ", \"regions\": " << fr.region_count
        << ", \"makespan_s\": " << fr.total.makespan
        << ", \"bytes\": " << fr.total.bytes << "}";
  }
  out << "]";
  if (cluster.fail_server >= 0) {
    out << ", \"failure\": {\"server\": " << cluster.fail_server
        << ", \"at_s\": " << cluster.fail_at
        << ", \"degraded_reads\": " << r.degraded_reads
        << ", \"replica_writes\": " << r.replica_writes
        << ", \"rebuilt_bytes\": " << r.rebuilt_bytes
        << ", \"rebuild_chunks\": " << r.rebuild_chunks
        << ", \"rebuild_interference_s\": " << r.rebuild_interference
        << ", \"rebuild_finished_s\": " << r.rebuild_finished_at
        << ", \"rebuild_done\": " << (r.rebuild_done ? "true" : "false")
        << "}";
  }
  if (!r.tenant_slo.empty()) {
    out << ", \"tenant_slo\": [";
    for (std::size_t t = 0; t < r.tenant_slo.size(); ++t) {
      if (t > 0) out << ", ";
      out << r.tenant_slo[t];
    }
    out << "]";
  }
}

/// metrics-out fields of a single-file run: its layout, the per-server
/// device block for heterogeneous fleets and the read-cache counters.
void write_single_file_header(std::ostream& out,
                              const harness::SchemeResult& r,
                              const std::vector<pfs::TierGroup>& tiers) {
  out << ", \"layout\": ";
  obs::write_json_string(out, r.layout_description);
  out << ", \"regions\": " << r.region_count
      << ", \"makespan_s\": " << r.total.makespan
      << ", \"total_bytes\": " << r.total.bytes;
  // Per-server device descriptors (canonical tier view), emitted only for
  // heterogeneous fleets so homogeneous metrics files stay byte-identical
  // to the pre-device-model format.
  bool any_aged = false;
  for (const auto& t : tiers) any_aged |= !t.device_factors.empty();
  if (any_aged) {
    out << ", \"devices\": [";
    std::size_t global = 0;
    for (std::size_t ti = 0; ti < tiers.size(); ++ti) {
      const auto& t = tiers[ti];
      for (std::size_t i = 0; i < t.count; ++i, ++global) {
        if (global > 0) out << ", ";
        out << "{\"server\": " << global << ", \"tier\": " << ti
            << ", \"name\": ";
        obs::write_json_string(out, t.name + std::to_string(i));
        out << ", \"factor\": "
            << (t.device_factors.empty() ? 1.0 : t.device_factors[i])
            << ", \"busy_s\": "
            << (global < r.server_io_time.size() ? r.server_io_time[global]
                                                 : 0.0)
            << "}";
      }
    }
    out << "]";
  }
  if (r.cache.has_value()) {
    // Read-cache counters (obs_report.py --check validates the
    // reconciliation: lookups == hits + misses, completed + discarded
    // fills == admissions).  Emitted only for cache-enabled runs so
    // cache-less metrics files stay byte-identical.
    const auto& c = *r.cache;
    out << ", \"cache\": {\"lookups\": " << c.tier.lookups
        << ", \"hits\": " << c.tier.hits << ", \"misses\": " << c.tier.misses
        << ", \"admissions\": " << c.tier.admissions
        << ", \"evictions\": " << c.tier.evictions
        << ", \"invalidations\": " << c.tier.invalidations
        << ", \"fills_completed\": " << c.tier.fills_completed
        << ", \"fills_discarded\": " << c.tier.fills_discarded
        << ", \"hit_bytes\": " << c.hit_read_bytes
        << ", \"miss_bytes\": " << c.miss_read_bytes
        << ", \"fill_bytes\": " << c.fill_bytes
        << ", \"active_devices\": " << c.active_devices << "}";
  }
}

double cache_hit_rate(const pfs::CacheManager::Stats& c) {
  return c.tier.lookups > 0 ? 100.0 * static_cast<double>(c.tier.hits) /
                                  static_cast<double>(c.tier.lookups)
                            : 0.0;
}

/// Population mode: N files, T tenants, one shared cluster per scheme.
/// Prints one block per scheme and returns the runs for the exports.
std::vector<Run> run_population_mode(
    const Options& opts, const harness::ExperimentOptions& options,
    const std::vector<harness::LayoutScheme>& schemes) {
  harness::PopulationSpec spec;
  spec.files = static_cast<std::size_t>(opts.get_int("files"));
  const auto tenants = static_cast<std::size_t>(opts.get_int("tenants"));
  spec.tenants =
      opts.given("tenants") ? tenants : std::min(tenants, spec.files);
  if (spec.tenants > spec.files) {
    throw std::invalid_argument("tenants must be in [1, files=" +
                                std::to_string(spec.files) + "]");
  }
  spec.tenant_theta = opts.get_double("zipf-tenant-theta");
  spec.processes = static_cast<std::size_t>(opts.get_int("procs"));
  spec.file_size = opts.get_size("file");
  spec.request_size = opts.get_size("request");
  spec.seed = static_cast<std::uint64_t>(opts.get_int("seed"));
  const auto population = harness::make_population(spec);

  harness::PopulationRunOptions popts;
  popts.replicate = opts.get_flag("replicas");

  harness::Experiment experiment(options);
  std::vector<std::shared_ptr<const harness::PopulationResult>> results;
  for (const auto& scheme : schemes) {
    results.push_back(std::make_shared<const harness::PopulationResult>(
        harness::run_population(experiment, population, scheme, popts)));
  }
  std::vector<Run> runs;
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const auto& r = *results[i];
    std::cout << "== " << schemes[i].label() << ": " << spec.files
              << " file(s), " << spec.tenants << " tenant(s) ==\n";
    harness::Table table(
        {"file", "tenant", "layout", "regions", "MB/s"});
    for (const auto& f : r.files) {
      table.add_row({
          f.name,
          std::to_string(f.tenant),
          f.layout_description,
          std::to_string(f.region_count),
          harness::cell(f.total.throughput() / (1024.0 * 1024.0), 1),
      });
    }
    table.print(std::cout);
    std::cout << "aggregate "
              << harness::cell(r.total.throughput() / (1024.0 * 1024.0), 1)
              << " MB/s over " << harness::cell(r.total.makespan, 4)
              << " s\n";
    const auto& cluster = options.cluster;
    if (cluster.fail_server >= 0) {
      std::cout << "failure: server " << cluster.fail_server << " at "
                << harness::cell(cluster.fail_at, 4) << " s — "
                << r.degraded_reads << " degraded read(s), "
                << r.replica_writes << " replica write leg(s); rebuild "
                << harness::cell(static_cast<double>(r.rebuilt_bytes) /
                                     (1024.0 * 1024.0),
                                 1)
                << " MB in " << r.rebuild_chunks << " chunk(s), ";
      if (r.rebuild_done) {
        std::cout << "done at " << harness::cell(r.rebuild_finished_at, 4)
                  << " s";
      } else {
        std::cout << "still draining";
      }
      std::cout << "\n";
    }
    if (!r.tenant_slo.empty()) {
      std::cout << "tenant SLO attainment:";
      for (std::size_t t = 0; t < r.tenant_slo.size(); ++t) {
        std::cout << " t" << t << "="
                  << harness::cell(100.0 * r.tenant_slo[t], 1) << "%";
      }
      std::cout << "\n";
    }
    if (r.cache.has_value()) {
      const auto& c = *r.cache;
      std::cout << "shared cache: " << c.tier.lookups << " lookup(s), "
                << harness::cell(cache_hit_rate(c), 1) << "% hit, "
                << c.tier.evictions << " eviction(s), "
                << c.tier.invalidations << " invalidation(s)\n";
    }
    if (i + 1 < schemes.size()) std::cout << "\n";
    runs.push_back({schemes[i].label(), r.obs, r.sim_stats,
                    [result = results[i], &cluster](std::ostream& out) {
                      write_population_header(out, *result, cluster);
                    }});
  }
  return runs;
}

/// Prints the single-file comparison table plus the read-cache table of
/// the runs that have one.
void print_single_file_tables(
    const std::vector<harness::SchemeResult>& results) {
  harness::Table table({"layout", "read MB/s", "write MB/s", "total MB/s",
                        "regions", "detail"});
  for (const auto& r : results) {
    table.add_row({
        r.label,
        harness::cell(r.read.throughput() / (1024.0 * 1024.0), 1),
        harness::cell(r.write.throughput() / (1024.0 * 1024.0), 1),
        harness::cell(r.total.throughput() / (1024.0 * 1024.0), 1),
        std::to_string(r.region_count),
        r.layout_description,
    });
  }
  table.print(std::cout);

  bool any_cache = false;
  for (const auto& r : results) any_cache |= r.cache.has_value();
  if (any_cache) {
    // What the read cache did per measured run: hit rate over chunk
    // lookups, promotion traffic, and the write-invalidate churn.
    std::cout << "\n== read cache ==\n";
    harness::Table cache_table({"layout", "devices", "lookups", "hit%",
                                "fills", "discarded", "evicted", "inval",
                                "fill MB"});
    for (const auto& r : results) {
      if (!r.cache.has_value()) continue;
      const auto& c = *r.cache;
      cache_table.add_row({
          r.label,
          std::to_string(c.active_devices),
          std::to_string(c.tier.lookups),
          harness::cell(cache_hit_rate(c), 1),
          std::to_string(c.tier.fills_completed),
          std::to_string(c.tier.fills_discarded),
          std::to_string(c.tier.evictions),
          std::to_string(c.tier.invalidations),
          harness::cell(static_cast<double>(c.fill_bytes) / (1024.0 * 1024.0),
                        1),
      });
    }
    cache_table.print(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> args(argv + 1, argv + argc);
    for (const auto& a : args) {
      if (a == "help" || a == "-h" || a == "--help") {
        std::cout << usage();
        return 0;
      }
    }
    Options opts(kOptions, args);
    const bool population = opts.get_int("files") > 0;
    if (population) {
      opts.select_mode(kPopulationMode);
    } else if (opts.get_string("workload") == "zipf") {
      opts.select_mode(kZipfMode);
    }

    harness::ExperimentOptions options;
    options.cluster.tiers[0].count =
        static_cast<std::size_t>(opts.get_int("hservers"));
    options.cluster.tiers[1].count =
        static_cast<std::size_t>(opts.get_int("sservers"));
    options.cluster.num_clients =
        static_cast<std::size_t>(opts.get_int("clients"));
    apply_device_config(opts, options.cluster);
    options.calibration.device_blind = opts.get_flag("device-blind");

    // Optional parallelism: one pool drives both the planner's
    // region-parallel analysis and the harness's per-scheme measured runs
    // (nested use is safe — parallel_for is work-helping).  The pool must
    // outlive the experiment, which keeps pointers to it via the options.
    std::unique_ptr<ThreadPool> pool;
    if (const auto threads = opts.get_int("threads"); threads > 0) {
      pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(threads));
      options.planner.pool = pool.get();
      options.pool = pool.get();
    }

    // Read-cache tier: budget 0 keeps every code path (planner, runtime,
    // output) byte-identical to a cache-less build.
    options.cache.budget = opts.get_size("cache-budget");
    options.cache.chunk = opts.get_size("cache-chunk");
    options.cache.devices =
        static_cast<std::size_t>(opts.get_int("cache-devices"));
    options.cache.policy =
        storage::parse_cache_policy(opts.get_string("cache-policy"));
    options.cache.blind = opts.get_flag("cache-blind");

    const std::string metrics_out = opts.get_string("metrics-out");
    const std::string trace_out = opts.get_string("trace-out");
    // Whichever export arms the recorder (metrics-out=, trace-out=, or the
    // telemetry plane below), it keeps trace events only for trace-out=.
    options.recorder.trace = !trace_out.empty();
    if (!metrics_out.empty() || !trace_out.empty()) {
      options.observe = true;
      options.recorder.max_trace_events =
          static_cast<std::size_t>(opts.get_int("trace-events"));
    }

    // Telemetry plane: timeseries-out, health=1 or an explicit window arms
    // the recorder's HealthMonitor (which forces observe).
    const std::string timeseries_out = opts.get_string("timeseries-out");
    if (!timeseries_out.empty() || opts.get_flag("health") ||
        opts.given("timeseries-interval")) {
      options.telemetry.interval = opts.get_double("timeseries-interval");
    }
    options.telemetry.slo = opts.get_double("slo-ms") / 1000.0;

    // Deterministic straggler injection: periodic per-server GC pauses.
    options.cluster.gc_pause.duration =
        opts.get_double("gc-pause-ms") / 1000.0;
    options.cluster.gc_pause.period = opts.get_double("gc-period");
    options.cluster.gc_pause.factor = opts.get_double("gc-factor");
    options.cluster.gc_pause.server = opts.get_int("gc-server");

    // Failure/rebuild storm (population mode only: degraded reads need the
    // per-file replicas a population run places).
    options.cluster.fail_server = opts.get_int("fail-server");
    options.cluster.fail_at = opts.get_double("fail-at");
    if (options.cluster.fail_server >= 0 && !population) {
      throw std::invalid_argument(
          "fail-server needs a population run (files >= 1)");
    }
    if (options.cluster.fail_server >= 0 && !opts.get_flag("replicas")) {
      // Failure is modelled on the replicated path only: without a replica
      // the dead server would silently keep serving.
      throw std::invalid_argument(
          "fail-server needs replicas=1 (degraded reads need a live copy)");
    }

    std::vector<harness::LayoutScheme> schemes;
    for (const auto& token : opts.get_list("schemes")) {
      schemes.push_back(parse_scheme(token));
    }
    const std::string save_plan_path = opts.get_string("save-plan");
    const std::string load_plan_path = opts.get_string("load-plan");
    if (!load_plan_path.empty()) {
      schemes.push_back(harness::LayoutScheme::from_plan_file(load_plan_path));
    }

    // The runs' header writers refer into `results` (single-file mode).
    std::vector<harness::SchemeResult> results;
    std::vector<Run> runs;
    if (population) {
      if (!save_plan_path.empty() || !load_plan_path.empty()) {
        throw std::invalid_argument(
            "save-plan/load-plan are single-file only (files=0)");
      }
      runs = run_population_mode(opts, options, schemes);
      write_exports(runs, trace_out, metrics_out, timeseries_out);
    } else {
      harness::Experiment experiment(options);
      results = experiment.run_all(make_bundle(opts), schemes);

      if (!save_plan_path.empty()) {
        const harness::SchemeResult* analyzed = nullptr;
        for (std::size_t i = 0; i < results.size(); ++i) {
          if (schemes[i].needs_analysis() && results[i].plan.has_value()) {
            analyzed = &results[i];
            break;
          }
        }
        if (analyzed == nullptr) {
          throw std::invalid_argument(
              "save-plan needs at least one analysis-based scheme (e.g. "
              "harl)");
        }
        core::save_plan(core::PlanArtifact::from_plan(*analyzed->plan),
                        save_plan_path);
        std::cout << "saved " << analyzed->label << " plan ("
                  << analyzed->region_count << " region(s)) to "
                  << save_plan_path << "\n";
      }

      const auto tiers = options.cluster.effective_tiers();
      for (const auto& r : results) {
        runs.push_back({r.label, r.obs, r.sim_stats,
                        [&r, tiers](std::ostream& out) {
                          write_single_file_header(out, r, tiers);
                        }});
      }
      write_exports(runs, trace_out, metrics_out, timeseries_out);
      print_single_file_tables(results);
    }
    if (opts.get_flag("stats")) print_engine_stats(runs);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "harl_sim: " << e.what() << "\n";
    return 1;
  }
}

// bench_e2e — the harl_sim pipeline driven layer by layer, with one host-time
// span around every call into a layer.
//
//   bench_e2e [--setup-only] [--label=NAME] [--spans=PATH] [--plan-dir=DIR]
//             key=value...
//   bench_e2e --exec=PATH PROGRAM ARGS...   (wall time and peak RSS of one
//                                            run of PROGRAM, as JSON)
//
// The key=value arguments are harl_sim's, restricted to the keys the
// end-to-end workloads use; any other key is rejected, so a workload cannot
// silently drift from what this run reproduces.  The steps are the ones
// harl_sim takes — workload generation, calibration, the traced first
// execution, Algorithm 1, the Analysis Phase (build_layout), the measured
// runs and the observability export — but each is called from here, so the
// spans need no clock inside src/.  A plan-producing scheme is planned once,
// saved as a Plan artifact and measured from it (no measured run re-plans).
//
// stdout is one JSON object: per-span-name totals and self times, layer
// counters, and per scheme the MB/s rows formatted exactly as harl_sim
// prints them plus application bytes issued and completed.  --spans=PATH
// writes the spans as a Chrome trace (load it in Perfetto).  --setup-only
// stops after workload generation and calibration: the set-up cost.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/config.hpp"
#include "src/core/plan_artifact.hpp"
#include "src/core/region_divider.hpp"
#include "src/harness/experiment.hpp"
#include "src/harness/population.hpp"
#include "src/harness/table.hpp"
#include "src/middleware/mpi_world.hpp"
#include "src/middleware/runner.hpp"
#include "src/pfs/cluster.hpp"
#include "src/trace/collector.hpp"

using namespace harl;

namespace {

/// The harl_sim keys the end-to-end workloads use.
constexpr const char* kKeys[] = {
    "workload", "procs",   "file",  "request", "requests", "schemes",
    "seed",     "threads", "files", "tenants", "health",   "metrics-out",
    "timeseries-out",
};

void validate_keys(const Config& cfg) {
  for (const auto& [key, value] : cfg.entries()) {
    if (std::find(std::begin(kKeys), std::end(kKeys), key) == std::end(kKeys)) {
      throw std::invalid_argument("bench_e2e does not map harl_sim key '" +
                                  key + "'");
    }
  }
  if (cfg.get_int("threads", 0) != 0) {
    throw std::invalid_argument("bench_e2e runs serially: threads must be 0");
  }
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Spans kept in memory and written when the run ends.
class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the recorder was created
    double end = 0.0;
    int parent = -1;     ///< index of the enclosing span; -1 = top level
  };

  /// Runs fn() inside a span named `name`, nested under the innermost open
  /// span, and returns what fn returns.
  template <class F>
  decltype(auto) time(std::string name, F&& fn) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now(), 0.0,
                      open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    struct Close {
      Spans* self;
      int id;
      ~Close() {
        self->spans_[static_cast<std::size_t>(id)].end = self->now();
        self->open_.pop_back();
        self->last_closed_ = id;
      }
    } close{this, id};
    return fn();
  }

  /// Duration of the span that closed last.
  double last_duration() const { return duration(last_closed_); }

  /// Duration minus the part of it the span's children cover (children of
  /// one span run one after another, so they never overlap).
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
      }
    }
    return self;
  }

  const std::vector<Span>& all() const { return spans_; }

  void write_chrome_trace(std::ostream& out, const std::string& label) const {
    const auto self = self_times();
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
        << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": 1, \"args\": {\"name\": "
        << json_string("bench_e2e " + label) << "}}";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << ",\n{\"name\": " << json_string(s.name)
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << s.start * 1e6 << ", \"dur\": " << (s.end - s.start) * 1e6
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"workload\": " << json_string(label)
          << ", \"self_us\": " << self[i] * 1e6 << "}}";
    }
    out << "\n]}\n";
  }

 private:
  double duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  int last_closed_ = -1;
};

/// One measured scheme: its rows as harl_sim prints them, host times, and
/// the application-byte conservation check.
struct SchemeRecord {
  std::string label;
  bool analysis = false;
  std::vector<std::string> mbps;  ///< read, write, total — or per file, aggregate
  double plan_s = 0.0;            ///< planning spans charged to this scheme
  double run_s = 0.0;             ///< the measured-run span
  Bytes issued = 0;
  Bytes completed = 0;
};

std::string mibps(double bytes_per_s) {
  return harness::cell(bytes_per_s / (1024.0 * 1024.0), 1);
}

std::vector<harness::LayoutScheme> parse_schemes(const Config& cfg) {
  std::vector<harness::LayoutScheme> schemes;
  std::istringstream ss(cfg.get_or("schemes", "64K,256K,harl"));
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token.empty()) continue;
    if (token == "harl") {
      schemes.push_back(harness::LayoutScheme::harl());
    } else if (token.front() >= '0' && token.front() <= '9') {
      schemes.push_back(harness::LayoutScheme::fixed(parse_size(token)));
    } else {
      throw std::invalid_argument("bench_e2e maps fixed sizes and harl, not '" +
                                  token + "'");
    }
  }
  return schemes;
}

/// harl_sim's single-file workload keys, with harl_sim's defaults.
harness::WorkloadBundle make_bundle(const Config& cfg) {
  const std::string kind = cfg.get_or("workload", "ior");
  if (kind != "ior") {
    throw std::invalid_argument("bench_e2e maps workload=ior, not " + kind);
  }
  workloads::IorConfig ior;
  ior.processes = static_cast<std::size_t>(cfg.get_int("procs", 16));
  ior.request_size = cfg.get_size("request", 512 * KiB);
  ior.file_size = cfg.get_size("file", 4 * GiB);
  ior.requests_per_process =
      static_cast<std::size_t>(cfg.get_int("requests", 64));
  ior.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  return harness::ior_bundle(ior);
}

/// harl_sim's population keys, with harl_sim's population-mode defaults.
harness::PopulationSpec population_spec(const Config& cfg) {
  harness::PopulationSpec spec;
  spec.files = static_cast<std::size_t>(cfg.get_int("files", 0));
  spec.tenants = static_cast<std::size_t>(cfg.get_int("tenants", 2));
  spec.processes = static_cast<std::size_t>(cfg.get_int("procs", 8));
  spec.file_size = cfg.get_size("file", 32 * MiB);
  spec.request_size = cfg.get_size("request", 256 * KiB);
  spec.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  return spec;
}

/// A bundle's phases in the order the harness runs them.
std::array<const std::vector<mw::RankProgram>*, 3> phases_of(
    const harness::WorkloadBundle& bundle) {
  return {&bundle.write_programs, &bundle.read_programs,
          &bundle.mixed_programs};
}

Bytes issued_bytes(const harness::WorkloadBundle& bundle) {
  Bytes total = 0;
  for (const auto* phase : phases_of(bundle)) {
    const mw::ProgramVolume v = mw::program_volume(*phase);
    total += v.read + v.write;
  }
  return total;
}

std::uint64_t request_count(const harness::WorkloadBundle& bundle) {
  std::uint64_t n = 0;
  for (const auto* phase : phases_of(bundle)) {
    for (const auto& program : *phase) {
      for (const auto& action : program) n += action.extents.size();
    }
  }
  return n;
}

/// The Tracing Phase as the harness runs it: the first execution on the
/// default fixed layout with the collector attached.
std::vector<trace::TraceRecord> trace_first_execution(
    const harness::ExperimentOptions& options,
    const harness::WorkloadBundle& bundle) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, options.cluster);
  mw::MpiWorld world(cluster, bundle.processes);
  trace::TraceCollector collector;
  auto layout =
      pfs::make_fixed_layout(cluster.num_servers(), options.tracing_stripe);
  mw::ProgramRunner runner(world, bundle.name, layout, &collector,
                           options.collective);
  for (const auto* phase : phases_of(bundle)) {
    if (!phase->empty()) runner.run(*phase);
  }
  return collector.sorted_by_offset();
}

using Counters = std::map<std::string, double>;

void count_plan(Counters& c, const core::Plan& plan) {
  for (const core::PlannedRegion& r : plan.regions) {
    c["alg2.candidates"] += static_cast<double>(r.candidates_evaluated);
    c["alg2.cost_evals"] += static_cast<double>(r.cost_evals);
    c["alg2.cost_evals_saved"] += static_cast<double>(r.cost_evals_saved);
  }
}

void count_run(Counters& c, const sim::Simulator::Stats& s) {
  c["sim.events"] += static_cast<double>(s.events_dispatched);
  c["sim.heap_callbacks"] += static_cast<double>(s.heap_callbacks);
  c["sim.peak_queue_depth"] = std::max(
      c["sim.peak_queue_depth"], static_cast<double>(s.peak_queue_depth));
}

void count_division(Counters& c, const core::RegionDivision& division) {
  c["alg1.regions"] += static_cast<double>(division.regions.size());
  c["alg1.tuning_rounds"] += division.tuning_rounds;
}

harness::ExperimentOptions experiment_options(const Config& cfg) {
  harness::ExperimentOptions options;
  options.observe = !cfg.get_or("metrics-out", "").empty();
  options.recorder.trace = false;  // harl_sim records events for trace-out=
  if (!cfg.get_or("timeseries-out", "").empty() ||
      cfg.get_int("health", 0) != 0) {
    options.telemetry.interval = 0.1;  // harl_sim's default window
  }
  return options;
}

/// Writes each measured run's metrics report and telemetry; returns the
/// bytes written.
std::uint64_t write_exports(const Config& cfg,
                            const std::vector<std::string>& labels,
                            const std::vector<harness::SchemeResult>& results) {
  std::uint64_t bytes = 0;
  const std::string metrics_out = cfg.get_or("metrics-out", "");
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) throw std::runtime_error("cannot write " + metrics_out);
    out << "{\"schemes\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
      out << (i > 0 ? ",\n" : "\n") << "{\"label\": " << json_string(labels[i])
          << ", \"report\": ";
      results[i].obs->write_metrics_json(out, 2);
      out << "}";
    }
    out << "\n]}\n";
    bytes += static_cast<std::uint64_t>(out.tellp());
  }
  const std::string timeseries_out = cfg.get_or("timeseries-out", "");
  if (!timeseries_out.empty()) {
    std::ofstream out(timeseries_out);
    if (!out) throw std::runtime_error("cannot write " + timeseries_out);
    out << "{\"schemes\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
      out << (i > 0 ? ",\n" : "\n") << "{\"label\": " << json_string(labels[i])
          << ", \"timeseries\": ";
      results[i].health->timeseries().write_json(out, 2);
      out << ", \"health\": ";
      results[i].health->write_json(out, 2);
      out << "}";
    }
    out << "\n]}\n";
    bytes += static_cast<std::uint64_t>(out.tellp());
  }
  return bytes;
}

struct Run {
  Spans spans;
  Counters counters;
  std::vector<SchemeRecord> schemes;
};

/// Single-file workloads: one trace shared by every plan-producing scheme.
void run_single_file(const Config& cfg, bool setup_only,
                     const std::string& plan_dir, Run& run) {
  const auto options = experiment_options(cfg);
  const auto schemes = parse_schemes(cfg);
  const auto bundle = run.spans.time("workloads", [&] { return make_bundle(cfg); });
  run.counters["workloads.requests"] =
      static_cast<double>(request_count(bundle));
  harness::Experiment experiment(options);
  run.spans.time("calibration", [&] { experiment.cost_params(); });
  if (setup_only) return;

  std::vector<trace::TraceRecord> records;
  if (std::any_of(schemes.begin(), schemes.end(),
                  [](const auto& s) { return s.needs_analysis(); })) {
    records = run.spans.time(
        "trace", [&] { return trace_first_execution(options, bundle); });
    run.counters["trace.records"] += static_cast<double>(records.size());
    count_division(run.counters, run.spans.time("alg1", [&] {
      return core::divide_regions(records, options.planner.divider);
    }));
  }

  std::vector<harness::SchemeResult> results;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const harness::LayoutScheme& scheme = schemes[i];
    SchemeRecord rec;
    rec.label = scheme.label();
    rec.analysis = scheme.needs_analysis();
    harness::LayoutScheme measured = scheme;
    if (rec.analysis) {
      core::Plan plan;
      run.spans.time("plan", [&] {
        harness::build_layout(scheme, options.cluster, records,
                              experiment.cost_params(), options.planner, &plan);
      });
      rec.plan_s = run.spans.last_duration();
      count_plan(run.counters, plan);
      const std::string path =
          plan_dir + "/bench_e2e_plan" + std::to_string(i) + ".bin";
      run.spans.time("plan.save", [&] {
        core::save_plan(core::PlanArtifact::from_plan(plan), path);
      });
      measured = harness::LayoutScheme::from_plan_file(path);
    }
    auto result = run.spans.time("run", [&] {
      return experiment.run_with_trace(bundle, measured, records);
    });
    rec.run_s = run.spans.last_duration();
    rec.mbps = {mibps(result.read.throughput()),
                mibps(result.write.throughput()),
                mibps(result.total.throughput())};
    rec.issued = issued_bytes(bundle);
    rec.completed = result.total.bytes;
    count_run(run.counters, result.sim_stats);
    run.schemes.push_back(std::move(rec));
    labels.push_back(scheme.label());
    results.push_back(std::move(result));
  }
  if (options.observe) {
    run.counters["export.bytes"] = static_cast<double>(run.spans.time(
        "export", [&] { return write_exports(cfg, labels, results); }));
  }
}

/// Population workloads: per file, the trace and plans are timed here; then
/// run_population repeats them inside its own span and runs the shared
/// cluster.
void run_population(const Config& cfg, bool setup_only, Run& run) {
  if (!cfg.get_or("metrics-out", "").empty() ||
      !cfg.get_or("timeseries-out", "").empty()) {
    throw std::invalid_argument(
        "bench_e2e exports single-file runs only (files=0)");
  }
  const auto options = experiment_options(cfg);
  const auto schemes = parse_schemes(cfg);
  const auto population = run.spans.time(
      "workloads", [&] { return harness::make_population(population_spec(cfg)); });
  Bytes issued = 0;
  for (const auto& file : population) {
    run.counters["workloads.requests"] +=
        static_cast<double>(request_count(file.bundle));
    issued += issued_bytes(file.bundle);
  }
  harness::Experiment experiment(options);
  run.spans.time("calibration", [&] { experiment.cost_params(); });
  if (setup_only) return;

  std::vector<SchemeRecord> recs(schemes.size());
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    recs[i].label = schemes[i].label();
    recs[i].analysis = schemes[i].needs_analysis();
  }
  if (std::any_of(recs.begin(), recs.end(),
                  [](const SchemeRecord& r) { return r.analysis; })) {
    // A file whose sorted (op, offset, size) stream equals an earlier file's
    // is an exact repeat: the same search with the same answer.
    std::set<std::vector<std::tuple<int, Bytes, Bytes>>> seen;
    for (const auto& file : population) {
      run.spans.time("file", [&] {
        const auto records = run.spans.time(
            "trace", [&] { return trace_first_execution(options, file.bundle); });
        run.counters["trace.records"] += static_cast<double>(records.size());
        std::vector<std::tuple<int, Bytes, Bytes>> key;
        key.reserve(records.size());
        for (const auto& r : records) {
          key.emplace_back(static_cast<int>(r.op), r.offset, r.size);
        }
        if (!seen.insert(std::move(key)).second) {
          run.counters["population.trace_repeats"] += 1;
        }
        count_division(run.counters, run.spans.time("alg1", [&] {
          return core::divide_regions(records, options.planner.divider);
        }));
        for (std::size_t i = 0; i < schemes.size(); ++i) {
          if (!recs[i].analysis) continue;
          core::Plan plan;
          run.spans.time("plan", [&] {
            harness::build_layout(schemes[i], options.cluster, records,
                                  experiment.cost_params(), options.planner,
                                  &plan);
          });
          recs[i].plan_s += run.spans.last_duration();
          count_plan(run.counters, plan);
        }
      });
    }
  }
  run.counters["population.files"] = static_cast<double>(population.size());

  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const auto result = run.spans.time("run", [&] {
      return harness::run_population(experiment, population, schemes[i]);
    });
    recs[i].run_s = run.spans.last_duration();
    for (const auto& f : result.files) {
      recs[i].mbps.push_back(mibps(f.total.throughput()));
    }
    recs[i].mbps.push_back(mibps(result.total.throughput()));
    recs[i].issued = issued;
    recs[i].completed = result.total.bytes;
    count_run(run.counters, result.sim_stats);
  }
  run.schemes = std::move(recs);
}

void write_summary(std::ostream& out, const std::string& label, const Run& run) {
  struct Total {
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Total> by_name;
  const auto self = run.spans.self_times();
  double top_level = 0.0;
  std::vector<double> plans;
  for (std::size_t i = 0; i < run.spans.all().size(); ++i) {
    const auto& s = run.spans.all()[i];
    Total& t = by_name[s.name];
    ++t.count;
    t.total += s.end - s.start;
    t.self += self[i];
    if (s.parent < 0) top_level += s.end - s.start;
    if (s.name == "plan") plans.push_back(s.end - s.start);
  }
  out.precision(17);
  out << "{\"workload\": " << json_string(label) << ", \"spans\": {";
  bool first = true;
  for (const auto& [name, t] : by_name) {
    out << (first ? "" : ", ") << json_string(name) << ": {\"count\": "
        << t.count << ", \"total_s\": " << t.total << ", \"self_s\": " << t.self
        << "}";
    first = false;
  }
  out << "}, \"top_level_s\": " << top_level << ", \"plan_s\": [";
  for (std::size_t i = 0; i < plans.size(); ++i) {
    out << (i > 0 ? ", " : "") << plans[i];
  }
  out << "], \"counters\": {";
  first = true;
  for (const auto& [name, value] : run.counters) {
    out << (first ? "" : ", ") << json_string(name) << ": " << value;
    first = false;
  }
  out << "}, \"schemes\": [";
  for (std::size_t i = 0; i < run.schemes.size(); ++i) {
    const SchemeRecord& r = run.schemes[i];
    out << (i > 0 ? ", " : "") << "{\"label\": " << json_string(r.label)
        << ", \"analysis\": " << (r.analysis ? "true" : "false")
        << ", \"plan_s\": " << r.plan_s << ", \"run_s\": " << r.run_s
        << ", \"issued\": " << r.issued << ", \"completed\": " << r.completed
        << ", \"mbps\": [";
    for (std::size_t j = 0; j < r.mbps.size(); ++j) {
      out << (j > 0 ? ", " : "") << json_string(r.mbps[j]);
    }
    out << "]}";
  }
  out << "]}\n";
}

/// Runs argv[0] with its arguments and writes its wall time, peak RSS and
/// exit code as JSON to `path`.  The benchmark script starts programs
/// through this: a program it spawned itself would inherit the script's RSS
/// high-water mark into ru_maxrss, while a grandchild forked from this small
/// process starts from this process's.
int exec_measured(const std::string& path, char** argv) {
  const auto t0 = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("bench_e2e: fork");
    return 1;
  }
  if (pid == 0) {
    execv(argv[0], argv);
    std::perror("bench_e2e: exec");
    _exit(127);
  }
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) < 0) {
    std::perror("bench_e2e: wait4");
    return 1;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::ofstream out(path);
  out.precision(17);
  out << "{\"wall_s\": " << wall << ", \"peak_rss_kib\": " << usage.ru_maxrss
      << ", \"exit\": "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status))
      << "}\n";
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 && std::string(argv[1]).rfind("--exec=", 0) == 0) {
    return exec_measured(std::string(argv[1]).substr(7), argv + 2);
  }
  try {
    bool setup_only = false;
    std::string label = "harl_sim";
    std::string spans_path;
    std::string plan_dir = ".";
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--setup-only") {
        setup_only = true;
      } else if (a.rfind("--label=", 0) == 0) {
        label = a.substr(8);
      } else if (a.rfind("--spans=", 0) == 0) {
        spans_path = a.substr(8);
      } else if (a.rfind("--plan-dir=", 0) == 0) {
        plan_dir = a.substr(11);
      } else if (a.rfind("--", 0) == 0) {
        throw std::invalid_argument("unknown flag " + a);
      } else {
        args.push_back(a);
      }
    }
    const Config cfg = Config::from_args(args);
    validate_keys(cfg);

    Run run;
    if (cfg.get_int("files", 0) > 0) {
      run_population(cfg, setup_only, run);
    } else {
      run_single_file(cfg, setup_only, plan_dir, run);
    }
    for (const SchemeRecord& r : run.schemes) {
      if (r.completed != r.issued) {
        throw std::runtime_error(r.label + ": " + std::to_string(r.completed) +
                                 " application bytes completed, " +
                                 std::to_string(r.issued) + " issued");
      }
    }
    if (!spans_path.empty()) {
      std::ofstream out(spans_path);
      if (!out) throw std::runtime_error("cannot write " + spans_path);
      run.spans.write_chrome_trace(out, label);
    }
    write_summary(std::cout, label, run);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}

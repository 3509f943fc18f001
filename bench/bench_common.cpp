#include "bench/bench_common.hpp"

#include <memory>
#include <stdexcept>

#include "src/common/config.hpp"

namespace harl::bench {

namespace {

/// Width requested via threads=N (takes precedence) or HARL_BENCH_THREADS.
std::size_t requested_threads() {
  const char* env = std::getenv("HARL_BENCH_THREADS");
  if (env == nullptr) return 0;
  const std::int64_t n = parse_int(env);
  if (n < 0 || n > 1024) {
    throw std::invalid_argument("HARL_BENCH_THREADS must be in [0, 1024]");
  }
  return static_cast<std::size_t>(n);
}

std::size_t& thread_override() {
  static std::size_t value = 0;
  return value;
}

}  // namespace

ThreadPool* bench_pool() {
  static std::unique_ptr<ThreadPool> pool = [] {
    const std::size_t n =
        thread_override() != 0 ? thread_override() : requested_threads();
    return n > 0 ? std::make_unique<ThreadPool>(n) : nullptr;
  }();
  return pool.get();
}

void print_scheme_table(std::ostream& os, const std::string& title,
                        const std::vector<harness::SchemeResult>& results,
                        const std::string& baseline_label) {
  const harness::SchemeResult* baseline = nullptr;
  for (const auto& r : results) {
    if (r.label == baseline_label) baseline = &r;
  }

  os << "\n== " << title << " ==\n";
  harness::Table table({"layout", "read MB/s", "write MB/s", "total MB/s",
                        "vs " + baseline_label, "layout detail"});
  for (const auto& r : results) {
    table.add_row({
        r.label,
        mbps(r.read.throughput()),
        mbps(r.write.throughput()),
        mbps(r.total.throughput()),
        baseline != nullptr
            ? harness::cell_ratio(r.total.throughput(),
                                  baseline->total.throughput())
            : "n/a",
        r.layout_description,
    });
  }
  table.print(os);
}

void register_sim_results(const std::string& prefix,
                          const std::vector<harness::SchemeResult>& results) {
  for (const auto& r : results) {
    const double read = r.read.throughput() / (1024.0 * 1024.0);
    const double write = r.write.throughput() / (1024.0 * 1024.0);
    const double total = r.total.throughput() / (1024.0 * 1024.0);
    // Cache-enabled runs also expose the directory counters, so report
    // scripts can gate on the achieved hit rate next to the throughput.
    double hit_rate = -1.0;
    double fill_mb = -1.0;
    if (r.cache) {
      hit_rate = r.cache->tier.lookups > 0
                     ? static_cast<double>(r.cache->tier.hits) /
                           static_cast<double>(r.cache->tier.lookups)
                     : 0.0;
      fill_mb = static_cast<double>(r.cache->fill_bytes) / (1024.0 * 1024.0);
    }
    benchmark::RegisterBenchmark(
        (prefix + "/" + r.label).c_str(),
        [read, write, total, hit_rate, fill_mb](benchmark::State& state) {
          for (auto _ : state) {
            benchmark::DoNotOptimize(total);
          }
          state.counters["sim_read_MBps"] = read;
          state.counters["sim_write_MBps"] = write;
          state.counters["sim_total_MBps"] = total;
          if (hit_rate >= 0.0) {
            state.counters["sim_cache_hit_rate"] = hit_rate;
            state.counters["sim_cache_fill_MB"] = fill_mb;
          }
        })
        ->Iterations(1);
  }
}

int figure_bench_main(
    int argc, char** argv, const std::string& prefix,
    const std::function<std::vector<harness::SchemeResult>()>& produce) {
  // Strip threads=N before google-benchmark sees the argument list (it
  // rejects flags it does not know).  Must happen before the first
  // bench_pool() call — the pool is created on first use.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("threads=", 0) == 0) {
      const std::int64_t n = parse_int(arg.substr(8));
      if (n < 0 || n > 1024) {
        std::cerr << prefix << ": threads must be in [0, 1024]\n";
        return 1;
      }
      thread_override() = static_cast<std::size_t>(n);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  const auto results = produce();
  register_sim_results(prefix, results);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace harl::bench

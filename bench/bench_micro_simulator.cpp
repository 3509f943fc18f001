// Micro-benchmarks of the discrete-event substrate: raw event dispatch
// rate, FIFO resource throughput, and end-to-end simulated-request rate of
// the PFS cluster — these bound how large a workload the figure benches can
// replay per wall-clock second.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/obs/recorder.hpp"
#include "src/pfs/cluster.hpp"
#include "src/pfs/replication.hpp"
#include "src/sim/resource.hpp"
#include "src/sim/simulator.hpp"

namespace harl {
namespace {

/// allocations/event of one simulator run: arena chunk growth (the only
/// scheduling-path malloc) plus callables that spilled out of InlineTask's
/// in-place buffer.  ~0 at steady state; BENCH_sim.json tracks it.
double allocs_per_event(const sim::Simulator::Stats& stats) {
  if (stats.events_dispatched == 0) return 0.0;
  return static_cast<double>(stats.pool_misses + stats.heap_callbacks) /
         static_cast<double>(stats.events_dispatched);
}

/// Exports the engine's lane/pool/spill counters so BENCH_sim.json shows
/// *where* events went, not just how fast: a regression that silently
/// reroutes traffic from the resource or ascending lanes to the heap keeps
/// the rate plausible while destroying the O(1) path — the fractions catch
/// it.
void export_engine_counters(benchmark::State& state,
                            const sim::Simulator::Stats& stats) {
  const double events =
      stats.events_dispatched > 0
          ? static_cast<double>(stats.events_dispatched)
          : 1.0;
  state.counters["allocs_per_event"] = allocs_per_event(stats);
  state.counters["pool_chunks"] = static_cast<double>(stats.pool_chunks);
  state.counters["lane_fraction"] =
      static_cast<double>(stats.lane_events) / events;
  state.counters["now_lane_fraction"] =
      static_cast<double>(stats.now_lane_events) / events;
  state.counters["ascending_fraction"] =
      static_cast<double>(stats.ascending_events) / events;
  state.counters["pool_hit_rate"] =
      static_cast<double>(stats.pool_hits) /
      static_cast<double>(stats.pool_hits + stats.pool_misses > 0
                              ? stats.pool_hits + stats.pool_misses
                              : 1);
  state.counters["inline_callback_fraction"] =
      static_cast<double>(stats.inline_callbacks) / events;
  state.counters["peak_queue_depth"] =
      static_cast<double>(stats.peak_queue_depth);
}

void BM_EventDispatch(benchmark::State& state) {
  // Note: src/obs is compiled in and linked, but no observer is attached —
  // this entry is the "instrumentation disabled" rate the overhead guard in
  // tools/bench_sim_report.py gates against bench_sim_baseline.json.
  const int batch = static_cast<int>(state.range(0));
  sim::Simulator::Stats last_stats;
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < batch; ++i) {
      sim.schedule_at(static_cast<sim::Time>(i), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.now());
    last_stats = sim.stats();
  }
  state.SetItemsProcessed(state.iterations() * batch);
  export_engine_counters(state, last_stats);
}
BENCHMARK(BM_EventDispatch)->Arg(1000)->Arg(100000);

void BM_EventDispatchZeroDelay(benchmark::State& state) {
  // Self-perpetuating zero-delay chain: every event enters the now lane
  // (FIFO, no heap traffic) — the handoff pattern client/network/runner use
  // between pipeline stages.
  const int batch = static_cast<int>(state.range(0));
  sim::Simulator::Stats last_stats;
  for (auto _ : state) {
    sim::Simulator sim;
    int remaining = batch;
    std::function<void()> next = [&] {
      if (remaining-- > 0) sim.schedule_after(0.0, next);
    };
    next();
    sim.run();
    benchmark::DoNotOptimize(sim.events_dispatched());
    last_stats = sim.stats();
  }
  state.SetItemsProcessed(state.iterations() * batch);
  export_engine_counters(state, last_stats);
}
BENCHMARK(BM_EventDispatchZeroDelay)->Arg(100000);

void BM_EventDispatchHeavyCallback(benchmark::State& state) {
  // Dispatch rate with callbacks whose captures exceed std::function's
  // small-buffer size, so each Event's fn owns a heap allocation.  Before
  // dispatch_next() moved events off the priority queue, every dispatch
  // deep-copied that allocation; this entry pins the move-out win.
  const int batch = static_cast<int>(state.range(0));
  struct Payload {
    std::uint64_t bytes[8] = {0};  // 64 B: above any libstdc++/libc++ SBO
  };
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < batch; ++i) {
      Payload payload;
      payload.bytes[0] = static_cast<std::uint64_t>(i);
      sim.schedule_at(static_cast<sim::Time>(i),
                      [payload, &sink] { sink += payload.bytes[0]; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventDispatchHeavyCallback)->Arg(1000)->Arg(100000);

void BM_FifoResourceChain(benchmark::State& state) {
  // Self-perpetuating job chain: measures per-job overhead including the
  // completion callback.
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::FifoResource res(sim, "disk");
    int remaining = jobs;
    std::function<void()> submit_next = [&] {
      if (remaining-- > 0) res.submit(1e-4, submit_next);
    };
    submit_next();
    sim.run();
    benchmark::DoNotOptimize(res.busy_time());
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_FifoResourceChain)->Arg(10000);

void BM_FifoResourceChainObs(benchmark::State& state) {
  // Same chain with a flight recorder attached and the resource bound to a
  // track: every submit takes the instrumented branch (histogram update +
  // ring-buffered trace event).  BENCH_sim.json reports the rate next to
  // BM_FifoResourceChain as the enabled-mode observability overhead.
  const int jobs = static_cast<int>(state.range(0));
  std::uint64_t recorded = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    obs::Recorder::Options options;
    options.max_trace_events = 4096;  // ring mode: memory stays bounded
    obs::Recorder recorder(options);
    sim.set_observer(&recorder);
    sim::FifoResource res(sim, "disk");
    res.set_obs_track(recorder.register_server(0, 0, "disk", false));
    int remaining = jobs;
    std::function<void()> submit_next = [&] {
      if (remaining-- > 0) res.submit(1e-4, submit_next);
    };
    submit_next();
    sim.run();
    benchmark::DoNotOptimize(res.busy_time());
    recorded = recorder.trace_events_recorded();
  }
  state.SetItemsProcessed(state.iterations() * jobs);
  state.counters["trace_events_recorded"] = static_cast<double>(recorded);
}
BENCHMARK(BM_FifoResourceChainObs)->Arg(10000);

void BM_ObservedRequestPath(benchmark::State& state) {
  // The enabled-mode per-request sink path of an observed run, without the
  // engine: a Recorder with its telemetry plane armed (metrics on, trace
  // off), each request split over 4 of 16 servers on two tiers, reads and
  // writes alternating, through begin_request -> begin_sub ->
  // resource_event/server_access/sub_storage -> sub_net_done (reads) ->
  // end_request.  BM_FifoResourceChainObs covers resource_event alone;
  // BENCH_sim.json reports this rate next to obs_enabled_overhead.
  const int requests = static_cast<int>(state.range(0));
  constexpr std::uint32_t kServers = 16;
  constexpr std::uint32_t kSubs = 4;
  constexpr Seconds kService = 1e-4;
  for (auto _ : state) {
    obs::Recorder::Options recorder_options;
    recorder_options.trace = false;
    obs::TelemetryOptions telemetry;
    telemetry.interval = 1e-2;
    obs::Recorder recorder(recorder_options, telemetry);
    std::vector<std::uint32_t> disks;
    for (std::uint32_t s = 0; s < kServers; ++s) {
      disks.push_back(
          recorder.register_server(s, s < kServers / 2 ? 0 : 1, "srv", false));
    }
    recorder.register_client(0);
    Seconds t = 0.0;
    for (int i = 0; i < requests; ++i) {
      const IoOp op = i % 2 == 0 ? IoOp::kWrite : IoOp::kRead;
      const std::uint32_t req = recorder.begin_request(
          0, op, static_cast<Bytes>(i) * 256 * KiB, 256 * KiB, t);
      for (std::uint32_t k = 0; k < kSubs; ++k) {
        const std::uint32_t server =
            (static_cast<std::uint32_t>(i) * kSubs + k) % kServers;
        const std::uint32_t sub = recorder.begin_sub(req, server, 0, t);
        const Seconds arrival = t + 1e-5;
        recorder.resource_event(disks[server], arrival, arrival,
                                arrival + kService);
        recorder.server_access(server, op, 0, 64 * KiB, 1, arrival);
        recorder.sub_storage(sub, arrival, arrival, 1e-5, kService);
        if (op == IoOp::kRead) {
          recorder.sub_net_done(sub, arrival + kService + 5e-5);
        }
      }
      recorder.end_request(req, t + 2e-4);
      t += 2.5e-4;
    }
    recorder.health()->finalize();
    benchmark::DoNotOptimize(recorder.requests_completed());
  }
  state.SetItemsProcessed(state.iterations() * requests);
}
BENCHMARK(BM_ObservedRequestPath)->Arg(10000);

void BM_ClusterRequests(benchmark::State& state) {
  // End-to-end: client -> layout split -> disks -> NICs -> completion.
  // Its lane_fraction is the share of events on FIFO resource lanes.
  const int requests = static_cast<int>(state.range(0));
  sim::Simulator::Stats last_stats;
  for (auto _ : state) {
    sim::Simulator sim;
    pfs::ClusterConfig cfg;
    pfs::Cluster cluster(sim, cfg);
    auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
    for (int i = 0; i < requests; ++i) {
      cluster.client(static_cast<std::size_t>(i) % cluster.num_clients())
          .io(*layout, i % 2 ? IoOp::kRead : IoOp::kWrite,
              static_cast<Bytes>(i) * 512 * KiB, 512 * KiB, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_dispatched());
    last_stats = sim.stats();
  }
  state.SetItemsProcessed(state.iterations() * requests);
  export_engine_counters(state, last_stats);
}
BENCHMARK(BM_ClusterRequests)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_MultiFileDispatch(benchmark::State& state) {
  // Namespace data path: the same open-loop replay spread round-robin over
  // Arg files, every write mirrored through a chained replica map.  Arg(1)
  // vs Arg(8) isolates what file-id threading and the replica write legs
  // cost per request; tools/bench_sim_report.py exports the pair as the
  // multi_file block of BENCH_sim.json.
  const int files = static_cast<int>(state.range(0));
  const int requests = 1000;
  for (auto _ : state) {
    sim::Simulator sim;
    pfs::ClusterConfig cfg;
    pfs::Cluster cluster(sim, cfg);
    auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
    const pfs::ReplicaMap replicas =
        pfs::ReplicaMap::chained(cluster.num_servers());
    for (int i = 0; i < requests; ++i) {
      cluster.client(static_cast<std::size_t>(i) % cluster.num_clients())
          .io(*layout, i % 2 ? IoOp::kRead : IoOp::kWrite,
              static_cast<Bytes>(i / files) * 512 * KiB, 512 * KiB, [] {},
              static_cast<std::uint32_t>(i % files), &replicas);
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_dispatched());
  }
  state.SetItemsProcessed(state.iterations() * requests);
}
BENCHMARK(BM_MultiFileDispatch)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace harl

BENCHMARK_MAIN();

#!/usr/bin/env python3
"""Summarize bench_micro_simulator output and gate engine regressions.

Reads the google-benchmark JSON produced by

    ./build/bench/bench_micro_simulator \
        --benchmark_out=results.json --benchmark_out_format=json

and writes BENCH_sim.json with the engine's headline numbers: the event
dispatch rate (BM_EventDispatch, the raw schedule+dispatch loop), the
zero-delay now-lane rate, allocations per event at steady state, the
lane/pool/spill counter breakdown (where events were routed, not just how
fast), and the observability overhead pair — BM_FifoResourceChain vs
BM_FifoResourceChainObs, i.e. the same job chain with the flight recorder
detached vs attached — plus, report-only, the rate of
BM_ObservedRequestPath (the per-request sink path of an observed run:
one recorder with its health monitor armed).

When a baseline file (bench/bench_sim_baseline.json) is given, the script
exits non-zero if the dispatch rate fell more than `max_rate_regression`
below the recorded baseline, if allocations per event exceeded the
recorded ceiling, or if the obs-disabled dispatch rate fell more than
`max_obs_disabled_regression` (5%) below the recorded
`obs_disabled_dispatch_rate_per_s` reference — the CI smoke check for the
allocation-free simulator core and for "observability compiled in but
disabled costs (almost) nothing".

With --hetero, additionally reads a bench_ablation_hetero JSON and gates
the aged-fleet sweep: device-aware HARL vs tier-blind HARL at each aged-SSD
speed spread.  At 1x the two planners must coincide (the homogeneous fleet
is byte-identical by construction); at 2x device-aware must stay within 2%
of tier-blind (the conservative worst-member charge can slightly under-use
a mildly aged tier); at 4x device-aware must beat tier-blind by >= 5%
(member restriction excludes the heavily aged devices).

With --cache, additionally reads a bench_ablation_cache JSON and gates the
read-cache tier: at 4x HDD aging, cache-on read throughput must be
>= 1.15x cache-off under the fixed 64K deployment layout (measured ~2.4x);
the cache-budget=0 arm must be byte-identical to cache-off (same printed
read and write rates — enabled() is false, so the cache path must be
unreachable); and the cache-aware HARL arm must beat cache-off reads by
>= 1.05x with a replayed-vs-achieved hit rate of at least 50% (the
planner's reservation actually fired).

Usage:
    tools/bench_sim_report.py results.json \
        [--baseline bench/bench_sim_baseline.json] [--out BENCH_sim.json] \
        [--hetero hetero_results.json] [--cache cache_results.json]
"""

import argparse
import json
import sys


def find_benchmark(results, name):
    # With --benchmark_repetitions the file holds one entry per repetition
    # plus aggregates; prefer the median so the guards compare like to like.
    entries = results.get("benchmarks", [])
    for entry in entries:
        if entry.get("name") == f"{name}_median":
            return entry
    for entry in entries:
        if entry.get("name") == name:
            return entry
    raise KeyError(f"benchmark {name!r} not found in results")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", help="bench_micro_simulator JSON output")
    parser.add_argument("--baseline", help="recorded baseline JSON to gate on")
    parser.add_argument("--out", default="BENCH_sim.json",
                        help="summary output path (default: BENCH_sim.json)")
    parser.add_argument("--hetero",
                        help="bench_ablation_hetero JSON; gates the aged-SSD "
                             "sweep (device-aware vs tier-blind HARL)")
    parser.add_argument("--cache",
                        help="bench_ablation_cache JSON; gates the read-cache "
                             "tier (cache-on vs cache-off at 4x aging, "
                             "zero-budget identity, aware reservation)")
    args = parser.parse_args()

    with open(args.results, encoding="utf-8") as f:
        results = json.load(f)

    dispatch = find_benchmark(results, "BM_EventDispatch/100000")
    dispatch_small = find_benchmark(results, "BM_EventDispatch/1000")
    zero_delay = find_benchmark(results, "BM_EventDispatchZeroDelay/100000")

    summary = {
        "schema": "harl-bench-sim/2",
        "benchmark": "bench_micro_simulator",
        "dispatch_rate_per_s": dispatch["items_per_second"],
        "dispatch_rate_small_per_s": dispatch_small["items_per_second"],
        "zero_delay_rate_per_s": zero_delay["items_per_second"],
        "allocs_per_event": dispatch["allocs_per_event"],
        "zero_delay_allocs_per_event": zero_delay["allocs_per_event"],
    }

    # Engine lane/pool/spill counters: a regression that reroutes events from
    # the O(1) lanes to the heap can keep the headline rate plausible while
    # destroying the design — the fractions make that visible in CI history.
    for counter in ("lane_fraction", "now_lane_fraction",
                    "ascending_fraction", "pool_hit_rate",
                    "inline_callback_fraction", "peak_queue_depth",
                    "pool_chunks"):
        if counter in dispatch:
            summary[f"dispatch_{counter}"] = dispatch[counter]
        if counter in zero_delay:
            summary[f"zero_delay_{counter}"] = zero_delay[counter]

    # Report-only: the share of a cluster run's events that took a FIFO
    # resource lane (O(1) append) rather than the generic queues.
    try:
        cluster = find_benchmark(results, "BM_ClusterRequests/1000")
        if "lane_fraction" in cluster:
            summary["cluster_lane_fraction"] = cluster["lane_fraction"]
    except KeyError:
        pass

    # Observability overhead: the same FIFO job chain with the flight
    # recorder detached (plain) vs attached (obs).  Paired within one binary
    # run, so machine noise mostly cancels.
    try:
        fifo = find_benchmark(results, "BM_FifoResourceChain/10000")
        fifo_obs = find_benchmark(results, "BM_FifoResourceChainObs/10000")
        summary["fifo_rate_per_s"] = fifo["items_per_second"]
        summary["fifo_obs_rate_per_s"] = fifo_obs["items_per_second"]
        summary["obs_enabled_overhead"] = (
            1.0 - fifo_obs["items_per_second"] / fifo["items_per_second"])
    except KeyError:
        pass
    # Report-only (no gate): requests/s through the full observed per-request
    # sink path: one Recorder with its telemetry plane armed.
    try:
        request_path = find_benchmark(results, "BM_ObservedRequestPath/10000")
        summary["observed_request_rate_per_s"] = (
            request_path["items_per_second"])
    except KeyError:
        pass

    # Namespace data path: the same open-loop replay over 1 vs 8 files with
    # chained replication attached.  The ratio bounds what file-id threading
    # plus the replica write legs cost per request; absent in results files
    # recorded before the multi-file benchmark existed.
    try:
        single = find_benchmark(results, "BM_MultiFileDispatch/1")
        multi = find_benchmark(results, "BM_MultiFileDispatch/8")
        summary["multi_file"] = {
            "single_file_dispatch_rate_per_s": single["items_per_second"],
            "multi_file_dispatch_rate_per_s": multi["items_per_second"],
            "multi_over_single": (multi["items_per_second"]
                                  / single["items_per_second"]),
        }
    except KeyError:
        pass

    failures = []

    num_cpus = results.get("context", {}).get("num_cpus", 0)
    summary["num_cpus"] = num_cpus

    if args.baseline:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)
        summary["baseline_dispatch_rate_per_s"] = baseline["dispatch_rate_per_s"]
        summary["speedup_vs_baseline"] = (
            summary["dispatch_rate_per_s"] / baseline["dispatch_rate_per_s"])
        if "pre_pr_dispatch_rate_per_s" in baseline:
            summary["pre_pr_dispatch_rate_per_s"] = (
                baseline["pre_pr_dispatch_rate_per_s"])
            summary["speedup_vs_pre_pr"] = (
                summary["dispatch_rate_per_s"]
                / baseline["pre_pr_dispatch_rate_per_s"])

        max_regression = baseline.get("max_rate_regression", 0.30)
        floor = baseline["dispatch_rate_per_s"] * (1.0 - max_regression)
        if summary["dispatch_rate_per_s"] < floor:
            failures.append(
                f"dispatch rate {summary['dispatch_rate_per_s']:.0f}/s is more "
                f"than {max_regression:.0%} below the recorded baseline "
                f"{baseline['dispatch_rate_per_s']:.0f}/s")
        ceiling = baseline.get("allocs_per_event_ceiling")
        if ceiling is not None and summary["allocs_per_event"] > ceiling:
            failures.append(
                f"allocs/event {summary['allocs_per_event']:.5f} exceeds the "
                f"recorded ceiling {ceiling}")

        # Overhead guard: with src/obs compiled in but no observer attached,
        # BM_EventDispatch must stay within max_obs_disabled_regression (5%)
        # of the recorded obs-era reference.  Compare medians to medians: run
        # the benchmark with --benchmark_repetitions and feed this script the
        # aggregate, or accept single-run noise on quiet machines only.
        obs_ref = baseline.get("obs_disabled_dispatch_rate_per_s")
        if obs_ref is not None:
            max_obs_regression = baseline.get(
                "max_obs_disabled_regression", 0.05)
            summary["obs_disabled_reference_rate_per_s"] = obs_ref
            summary["obs_disabled_rate_vs_reference"] = (
                summary["dispatch_rate_per_s"] / obs_ref)
            if (summary["dispatch_rate_per_s"]
                    < obs_ref * (1.0 - max_obs_regression)):
                failures.append(
                    f"obs-disabled dispatch rate "
                    f"{summary['dispatch_rate_per_s']:.0f}/s is more than "
                    f"{max_obs_regression:.0%} below the recorded reference "
                    f"{obs_ref:.0f}/s")

    if args.hetero:
        with open(args.hetero, encoding="utf-8") as f:
            hetero = json.load(f)
        totals = {}
        for entry in hetero.get("benchmarks", []):
            name = entry.get("name", "")
            if "/aged" in name and "sim_total_MBps" in entry:
                totals[name.split("/iterations")[0]] = entry["sim_total_MBps"]

        def total(spread, arm):
            key = f"ablation_hetero/aged{spread}x/{arm}"
            if key not in totals:
                raise KeyError(f"benchmark {key!r} not found in hetero "
                               f"results")
            return totals[key]

        hetero_summary = {}
        # (spread, floor on aware/blind): 1x must coincide exactly (modulo
        # fp printing, hence 0.999); 2x is a non-inferiority bound; 4x is
        # the win the device model exists for.
        for spread, floor in ((1, 0.999), (2, 0.98), (4, 1.05)):
            aware = total(spread, "HARL")
            blind = total(spread, "HARL-blind")
            fixed = total(spread, "64K")
            ratio = aware / blind
            hetero_summary[f"aged{spread}x"] = {
                "device_aware_MBps": aware,
                "tier_blind_MBps": blind,
                "fixed_64K_MBps": fixed,
                "aware_over_blind": ratio,
                "aware_over_fixed": aware / fixed,
                "required_aware_over_blind": floor,
            }
            if ratio < floor:
                failures.append(
                    f"aged{spread}x: device-aware HARL at {aware:.1f} MB/s "
                    f"is {ratio:.3f}x of tier-blind {blind:.1f} MB/s "
                    f"(required >= {floor})")
            if aware / fixed < 1.2:
                failures.append(
                    f"aged{spread}x: device-aware HARL at {aware:.1f} MB/s "
                    f"is below 1.2x fixed 64K striping {fixed:.1f} MB/s")
        summary["hetero"] = hetero_summary

    if args.cache:
        with open(args.cache, encoding="utf-8") as f:
            cache = json.load(f)
        arms = {}
        for entry in cache.get("benchmarks", []):
            name = entry.get("name", "")
            if name.startswith("ablation_cache/"):
                arms[name.split("/iterations")[0]] = entry

        def arm(tag, label):
            key = f"ablation_cache/{tag}/{label}"
            if key not in arms:
                raise KeyError(f"benchmark {key!r} not found in cache "
                               f"results")
            return arms[key]

        # Headline gate: at 4x HDD aging the cache is the only escape from
        # the aged tier under the fixed deployment layout.
        off4 = arm("aged4x", "off")
        on4 = arm("aged4x", "cache")
        zero4 = arm("aged4x", "cache0")
        ratio4 = on4["sim_read_MBps"] / off4["sim_read_MBps"]
        cache_summary = {
            "aged4x": {
                "off_read_MBps": off4["sim_read_MBps"],
                "cache_read_MBps": on4["sim_read_MBps"],
                "cache_over_off_read": ratio4,
                "cache_hit_rate": on4.get("sim_cache_hit_rate"),
                "required_cache_over_off_read": 1.15,
            },
        }
        if ratio4 < 1.15:
            failures.append(
                f"aged4x: cache-on read {on4['sim_read_MBps']:.1f} MB/s is "
                f"only {ratio4:.3f}x of cache-off "
                f"{off4['sim_read_MBps']:.1f} MB/s (required >= 1.15)")

        # Zero-budget identity: bit-identical runs print bit-identical rates.
        for column in ("sim_read_MBps", "sim_write_MBps"):
            if zero4[column] != off4[column]:
                failures.append(
                    f"aged4x: cache-budget=0 arm {column} "
                    f"{zero4[column]!r} differs from cache-off "
                    f"{off4[column]!r} — the disabled cache touched the "
                    f"data path")
        cache_summary["aged4x"]["zero_budget_identity"] = (
            zero4["sim_read_MBps"] == off4["sim_read_MBps"]
            and zero4["sim_write_MBps"] == off4["sim_write_MBps"])

        # Cache-aware planning: the reservation must fire (hit rate) and pay
        # (read non-inferiority with margin; writes legitimately lose members
        # to the reservation, so only reads gate).
        off_aware = arm("aware3s", "off")
        aware = arm("aware3s", "aware")
        aware_ratio = aware["sim_read_MBps"] / off_aware["sim_read_MBps"]
        aware_hits = aware.get("sim_cache_hit_rate", 0.0)
        cache_summary["aware3s"] = {
            "off_read_MBps": off_aware["sim_read_MBps"],
            "aware_read_MBps": aware["sim_read_MBps"],
            "aware_over_off_read": aware_ratio,
            "aware_hit_rate": aware_hits,
            "required_aware_over_off_read": 1.05,
            "required_hit_rate": 0.5,
        }
        if aware_ratio < 1.05:
            failures.append(
                f"aware3s: cache-aware read {aware['sim_read_MBps']:.1f} "
                f"MB/s is only {aware_ratio:.3f}x of cache-off "
                f"{off_aware['sim_read_MBps']:.1f} MB/s (required >= 1.05)")
        if aware_hits < 0.5:
            failures.append(
                f"aware3s: achieved hit rate {aware_hits:.3f} is below 0.5 "
                f"— the planner's reservation did not fire or the replay "
                f"estimate diverged from the run")
        summary["cache"] = cache_summary

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")

    print(f"wrote {args.out}:")
    print(json.dumps(summary, indent=2))
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

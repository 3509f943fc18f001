#!/usr/bin/env python3
"""End-to-end benchmark of the HARL reproduction.

Times whole harl_sim runs on four named workloads with tracing off, checks
their simulated results, and runs bench_e2e, which drives the same pipeline
through each layer's public functions with one host-time span per call.

Full pass: one discarded warm-up round, then REPS rounds; each round runs
every workload once, in order, one process at a time:

    python3 bench/e2e/run_bench.py [--build DIR] [--seed 7] [--reps 10]
                                   [--out DIR] [--record BENCH.json]

One workload for a fixed time, result as one JSON line (how BENCHMARK.json's
command is run; --trace 1 reports the per-layer metrics instead):

    python3 bench/e2e/run_bench.py --workload NAME --seed N --seconds S
                                   --trace 0|1

Metric names, units, directions and bounds come from BENCHMARK.json at the
repository root.  README.md beside this file explains every metric.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OBS_REPORT = ROOT / "tools" / "obs_report.py"
MIB = 1024.0 * 1024.0

IOR_DISPATCH = ("workload=ior procs=512 file=8G request=256K requests=128 "
                "schemes=64K,256K")
# harl_sim arguments per workload (BENCHMARK.json says why each is there).
# {tmp} is the workload's export directory.  ior-observed leaves out slo-ms=
# and trace-out=; README.md says why.
WORKLOADS = {
    "ior-plan":
        "workload=ior procs=64 file=2G request=1M requests=64 schemes=64K,harl",
    "ior-dispatch": IOR_DISPATCH,
    "ior-observed": IOR_DISPATCH + " metrics-out={tmp}/m.json health=1 "
                                   "timeseries-out={tmp}/ts.json",
    "population": "files=32 tenants=4 schemes=64K,harl",
}
# ior-observed is ior-dispatch with observability on: its tables must equal
# its twin's, and its obs.* ratios divide by the twin's times.
TWIN = {"ior-observed": "ior-dispatch"}
# Fresh set-up processes per timed harl_sim run in --trace 0 runs.
SETUPS_PER_RUN = 3
# host_probe()'s median on the host in README.md when it is quiet.  Host
# speed on a shared machine drifts by up to 2x for minutes, and the probe
# slows with it, so every set-up and harl_sim time is multiplied by
# REF_PROBE_S / (the probe timed just before it): wall_s and setup_s are
# seconds on a host whose probe takes REF_PROBE_S.
REF_PROBE_S = 0.095


def fatal(message):
    print(f"run_bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fatal(f"cannot read {path}: {e}")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        fatal(f"BENCHMARK.json workloads {names} do not match "
                   f"{sorted(WORKLOADS)}")
    return spec


def build(build_dir):
    """Builds harl_sim and bench_e2e from source; returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fatal(f"no HARL sources under {ROOT}; run from a full checkout")
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=log, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "harl_sim_tool", "bench_e2e", "-j", jobs],
                   stdout=log, check=True)
    harl_sim, tracer = (build_dir / "bench_e2e_targets.txt").read_text().split()
    return harl_sim, tracer


def run_process(tracer, cmd, log_dir):
    """Runs cmd through `bench_e2e --exec` with its output in files; returns
    (wall s, peak RSS MiB, exit code, stdout, stderr)."""
    log_dir.mkdir(parents=True, exist_ok=True)
    paths = [log_dir / name for name in ("stdout.txt", "stderr.txt",
                                         "rusage.json")]
    with open(paths[0], "w") as out, open(paths[1], "w") as err:
        subprocess.run([tracer, f"--exec={paths[2]}", *cmd], stdout=out,
                       stderr=err, check=True)
    usage = json.loads(paths[2].read_text())
    return (usage["wall_s"], usage["peak_rss_kib"] / 1024.0, usage["exit"],
            paths[0].read_text(), paths[1].read_text())


def parse_rows(stdout):
    """The MB/s cells of harl_sim's tables as printed: per scheme, (label,
    [read, write, total]) for single-file runs and (label, [per-file...,
    aggregate]) for population runs."""
    rows, lines = [], stdout.splitlines()
    population = None
    for i, line in enumerate(lines):
        if m := re.match(r"== (\S+): \d+ file\(s\)", line):
            population = (m.group(1), [])
            rows.append(population)
        elif population and (m := re.match(r"aggregate (\S+) MB/s", line)):
            population[1].append(m.group(1))
            population = None
        elif population and re.match(r"t\d+/f\d+\.dat ", line):
            population[1].append(re.split(r"\s{2,}", line.strip())[4])
        elif line.startswith("layout ") and "total MB/s" in line:
            for row in lines[i + 2:]:
                if not row.strip():
                    break
                cells = re.split(r"\s{2,}", row.strip())
                rows.append((cells[0], cells[1:4]))
    return rows


def percentile(sorted_values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def layer_metrics(s, traced_wall, harl_wall):
    """Per-layer metrics of one bench_e2e summary.  A layer the workload
    does not exercise reads 0."""
    c = s["counters"]

    def total(name):
        return s["spans"].get(name, {}).get("total_s", 0.0)

    schemes = s["schemes"]
    runs = [x["run_s"] for x in schemes]
    plans = sorted(s["plan_s"])
    evals = c.get("alg2.cost_evals", 0)
    saved = c.get("alg2.cost_evals_saved", 0)
    alg2 = total("plan") - total("alg1") if plans else 0.0
    files = c.get("population.files", 0)
    return {
        "workloads.gen_s": total("workloads"),
        "workloads.requests": c["workloads.requests"],
        "calibration.s": total("calibration"),
        "trace.s": total("trace"),
        "trace.records": c.get("trace.records", 0),
        "alg1.s": total("alg1"),
        "alg1.regions": c.get("alg1.regions", 0),
        "alg1.tuning_rounds": c.get("alg1.tuning_rounds", 0),
        "plan.s": total("plan"),
        "alg2.s": alg2,
        "alg2.candidates": c.get("alg2.candidates", 0),
        "alg2.cost_evals": evals,
        "alg2.cost_evals_saved": saved,
        "alg2.coalesce_ratio": saved / (evals + saved) if evals + saved else 0.0,
        "alg2.evals_per_s": evals / alg2 if alg2 > 0 else 0.0,
        "plan.file_p50_s": percentile(plans, 0.50),
        "plan.file_p84_s": percentile(plans, 0.84),
        "population.trace_repeat_share":
            c.get("population.trace_repeats", 0) / files if files else 0.0,
        "run.s": sum(runs),
        "run.base_s": runs[0],
        "run.last_s": runs[-1],
        "sim.events": c["sim.events"],
        "sim.events_per_s": c["sim.events"] / sum(runs),
        "sim.peak_queue_depth": c["sim.peak_queue_depth"],
        "sim.heap_callbacks": c["sim.heap_callbacks"],
        "export.s": total("export"),
        "export.mib": c.get("export.bytes", 0) / MIB,
        # run_population repeats each file's trace and plan inside its span.
        "population.shared_run_s": sum(
            x["run_s"] - x["plan_s"] - (total("trace") if x["analysis"] else 0)
            for x in schemes) if files else 0.0,
        "trace.overhead_s": traced_wall - harl_wall,
        "spans.coverage": s["top_level_s"] / traced_wall,
    }


def host_probe():
    """A fixed CPU loop: the host-speed reference timed before every
    repetition's set-up and harl_sim runs."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


class Workload:
    """One workload's runs, samples and failed checks."""

    def __init__(self, name, seed, out_dir, harl_sim, tracer):
        self.name = name
        self.harl_sim, self.tracer = harl_sim, tracer
        self.dir = out_dir / name
        extra = ["threads=0", f"seed={seed}"]
        self.args = (WORKLOADS[name].format(tmp=self.dir / "export").split()
                     + extra)
        self.traced_args = (
            WORKLOADS[name].format(tmp=self.dir / "traced").split() + extra)
        for sub in ("export", "traced"):
            (self.dir / sub).mkdir(parents=True, exist_ok=True)
        self.samples = {}
        self.last = {}
        self.scale = 1.0  # REF_PROBE_S over the last probe
        self.attempted = 0
        self.failures = []  # one message per failed run or check
        self.digest = None
        self.rows = None

    def add(self, metric, value, measure=True):
        self.last[metric] = value
        if measure:
            self.samples.setdefault(metric, []).append(value)

    def fail(self, message):
        self.failures.append(message)
        return False

    def _exports(self):
        return sorted((self.dir / "export").iterdir())

    def probe(self, measure=True):
        """Times the host probe, which scales the times that follow it."""
        probe = host_probe()
        self.add("host.probe_s", probe, measure)
        self.scale = REF_PROBE_S / probe

    def run_harl_sim(self, measure=True):
        self.attempted += 1
        for f in self._exports():
            f.unlink()
        wall, rss, code, out, err = run_process(
            self.tracer, [self.harl_sim, *self.args], self.dir / "harl_sim")
        if code != 0:
            return self.fail(f"harl_sim exited {code}: {err.strip()}")
        rows = parse_rows(out)
        if len(rows) < 2 or not all(r[1] for r in rows):
            return self.fail(f"harl_sim tables unreadable:\n{out}")
        digest = hashlib.sha256(out.encode())
        for f in self._exports():
            digest.update(f.read_bytes())
        if self.digest is None:
            self.digest, self.rows = digest.hexdigest(), rows
            if problems := self._check_exports():
                return self.fail(problems)
        elif digest.hexdigest() != self.digest:
            return self.fail("tables or exports differ from the first run")
        self.add("wall_s", wall * self.scale, measure)
        self.add("host.wall_s", wall, measure)
        self.add("peak_rss_mib", rss, measure)
        total = float(rows[-1][1][-1])
        self.add("sim_MBps", total, measure)
        self.add("sim_speedup", total / float(rows[0][1][-1]), measure)
        return True

    def _check_exports(self):
        """obs_report.py's verdict on the exports; empty when they pass."""
        exports = {f.name: str(f) for f in self._exports()}
        problems = ""
        for name, args in (("m.json", []), ("ts.json", ["--timeseries"])):
            if name in exports:
                proc = subprocess.run(
                    [sys.executable, str(OBS_REPORT), *args, exports[name],
                     "--check", "--quiet"], capture_output=True, text=True)
                if proc.returncode != 0:
                    problems += proc.stdout + proc.stderr
        return problems.strip()

    def run_setup(self, measure=True):
        self.attempted += 1
        _, _, code, out, err = run_process(
            self.tracer, [self.tracer, "--setup-only", *self.args],
            self.dir / "setup")
        if code != 0:
            return self.fail(f"bench_e2e --setup-only exited {code}: "
                             f"{err.strip()}")
        spans = json.loads(out)["spans"]
        self.add("setup_s", (spans["workloads"]["total_s"]
                             + spans["calibration"]["total_s"]) * self.scale,
                 measure)
        return True

    def run_traced(self, measure=True):
        """Follows a successful harl_sim run: compares against its rows and
        wall time."""
        self.attempted += 1
        cmd = [self.tracer, f"--label={self.name}",
               f"--spans={self.dir / 'spans.json'}",
               f"--plan-dir={self.dir / 'traced'}", *self.traced_args]
        wall, _, code, out, err = run_process(self.tracer, cmd,
                                              self.dir / "traced_run")
        if code != 0:
            return self.fail(f"bench_e2e exited {code}: {err.strip()}")
        summary = json.loads(out)
        rows = [(x["label"], x["mbps"]) for x in summary["schemes"]]
        if rows != self.rows:
            return self.fail(f"traced rows {rows} differ from harl_sim's "
                             f"{self.rows}")
        for metric, value in layer_metrics(summary, wall,
                                           self.last["host.wall_s"]).items():
            self.add(metric, value, measure)
        return True

    def compare_twin(self, twin, measure=True):
        """ior-observed against ior-dispatch: identical tables; obs cost."""
        if self.rows != twin.rows:
            self.fail(f"tables {self.rows} differ from {twin.name}'s "
                      f"{twin.rows}")
            return
        for metric, key in (("obs.overhead_x", "wall_s"),
                            ("obs.run_overhead_x", "run.s")):
            if key in self.last and key in twin.last:
                self.add(metric, self.last[key] / twin.last[key], measure)

    def summary(self, spec_metrics):
        out = {}
        for m in spec_metrics:
            values = sorted(self.samples.get(m["name"], [0.0]))
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            out[m["name"]] = {"value": statistics.median(values),
                              "unit": m["unit"], "q1": q1, "q3": q3,
                              "n": len(self.samples.get(m["name"], []))}
        return out


def workload_run(args, spec, binaries, out_dir):
    """One workload for args.seconds; prints the result as one JSON line."""
    w = Workload(args.workload, args.seed, out_dir, *binaries)
    twin = (Workload(TWIN[w.name], args.seed, out_dir, *binaries)
            if w.name in TWIN else None)
    t0 = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        w.probe()
        if not args.trace:
            for _ in range(SETUPS_PER_RUN):
                w.run_setup()
        ok = w.run_harl_sim()
        if args.trace and ok:
            w.run_traced()
            if twin:
                twin.probe(measure=False)
                if twin.run_harl_sim():
                    twin.run_traced(measure=False)
                    w.compare_twin(twin)
        now = time.perf_counter()
        if not ok or now - t0 + (now - rep_start) / 2 >= args.seconds:
            break
    if twin and not args.trace:  # its tables only; not timed
        twin.run_harl_sim(measure=False)
        w.compare_twin(twin, measure=False)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    summary = w.summary(metrics)
    for m in metrics:
        print(f"run_bench: {w.name} {m['name']} "
              f"{w.samples.get(m['name'], [])}", file=sys.stderr)
    failures = w.failures + (twin.failures if twin else [])
    for f in failures:
        print(f"run_bench: {w.name}: {f}", file=sys.stderr)
    attempted = w.attempted + (twin.attempted if twin else 0)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in summary.items()},
    }))
    return 0 if not failures else 1


def host_info(build_dir):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = (build_dir / "CMakeCache.txt").read_text()
    compiler = re.search(r"CMAKE_CXX_COMPILER:\w+=(.*)", cache).group(1)
    build_type = re.search(r"CMAKE_BUILD_TYPE:\w+=(.*)", cache).group(1)
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[0]
    sha = ""
    if shutil.which("git"):
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    return {"cpu": cpu, "nproc": os.cpu_count(), "compiler": version,
            "build_type": build_type, "git_sha": sha or "unknown",
            "python": platform.python_version()}


def full_run(args, spec, binaries, out_dir, build_dir):
    """Warm-up round plus args.reps rounds over every workload."""
    ws = {name: Workload(name, args.seed, out_dir, *binaries)
          for name in WORKLOADS}
    first = 0 if args.no_warmup else -1
    for rnd in range(first, args.reps):
        measure = rnd >= 0
        for w in ws.values():
            w.probe(measure)
            w.run_setup(measure)
            if w.run_harl_sim(measure):
                w.run_traced(measure)
        for name, twin in TWIN.items():
            ws[name].compare_twin(ws[twin], measure)
        print(f"run_bench: round {rnd + 1}/{args.reps} done"
              + (" (warm-up)" if not measure else ""), file=sys.stderr)

    metrics = spec["end_to_end"] + spec["per_layer"]
    result = {"host": host_info(build_dir), "seed": args.seed,
              "reps": args.reps, "warmup": not args.no_warmup,
              "metrics": {m["name"]: {k: m[k] for k in m if k != "name"}
                          for m in metrics},
              "workloads": {}}
    failed = 0
    for w in ws.values():
        summary = w.summary(metrics)
        summary["failed_runs"] = {"value": len(w.failures) / w.attempted,
                                  "unit": "fraction"}
        failed += len(w.failures)
        for name, v in summary.items():
            digits = 12 if v["unit"] == "count" else 6
            line = f"{w.name} {name} {v['value']:.{digits}g} {v['unit']}"
            if v["unit"] == "s":
                line += f" q1={v['q1']:.6g} q3={v['q3']:.6g} n={v['n']}"
            print(line)
        for f in w.failures:
            print(f"run_bench: {w.name}: {f}", file=sys.stderr)
        missing = [m["name"] for m in spec["end_to_end"]
                   if not w.samples.get(m["name"])]
        if missing:
            print(f"run_bench: {w.name}: no samples for {missing}",
                  file=sys.stderr)
            failed += 1
        result["workloads"][w.name] = {
            "args": " ".join(WORKLOADS[w.name].split()),
            "attempted": w.attempted, "failures": w.failures,
            "samples": w.samples, "summary": summary}
    (out_dir / "results.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"run_bench: wrote {out_dir / 'results.json'}", file=sys.stderr)
    if args.record:
        record = Path(args.record)
        doc = json.loads(record.read_text()) if record.exists() else {"sets": []}
        doc["sets"].append(result)
        record.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"run_bench: appended set {len(doc['sets'])} to {record}",
              file=sys.stderr)
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--build", type=Path, default=ROOT / ".bench_build",
                        help="CMake build tree (configured here if new)")
    parser.add_argument("--out", type=Path,
                        help="output directory (default BUILD/e2e_runs)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--no-warmup", action="store_true")
    parser.add_argument("--record", help="append the full pass to this file")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run only this workload, for --seconds")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    build_dir = args.build.resolve()
    binaries = build(build_dir)
    out_dir = (args.out or build_dir / "e2e_runs").resolve()
    if args.workload:
        return workload_run(args, spec, binaries, out_dir)
    return full_run(args, spec, binaries, out_dir, build_dir)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compares two full passes of run_bench.py: the parent commit's
results.json and a change's.

    python3 bench/e2e/compare.py PARENT.json CHANGE.json

Round i of one pass is paired with round i of the other, so run the two
passes alternately.  For every workload and end-to-end metric it prints each
side's median and quartiles, the share of pairs the change wins (ties count
for neither side), and a verdict:

  gain        the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's interquartile range
  unresolved  the parent's own spread exceeds the bound, and not every run
              of the change beats every run of the parent
  regression  the change's median is worse by more than the bound
  ok          none of the above

A metric that repeats exactly on both sides (simulated results, counters)
is compared exactly: "same" or "changed", except that an end-to-end metric
that moved the worse way by any amount is a "regression".  Per-layer
metrics get no other verdict: they locate a change, they do not judge it.

It refuses to judge (exit 2) when the host.probe_s medians differ by more
than 5%: the two passes then ran on hosts of different speed.  Otherwise it
exits 1 when any verdict is a regression, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

PROBE_TOLERANCE = 0.05


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def better(spec, old, new):
    return new < old if spec["better"] == "lower" else new > old


def verdict(spec, parent, change):
    """(verdict, share of pairs won); end-to-end metrics carry a bound,
    per-layer metrics do not and get no verdict unless they repeat
    exactly."""
    pm, cm = statistics.median(parent), statistics.median(change)
    judged = "bound" in spec
    if len(set(parent)) == 1 and len(set(change)) == 1:
        if pm == cm:
            return "same", None
        return ("regression" if judged and better(spec, cm, pm)
                else "changed"), None
    pairs = list(zip(parent, change))
    wins = sum(better(spec, p, c) for p, c in pairs) / len(pairs)
    if not judged:
        return "", wins
    q1, q3 = quartiles(parent)
    beats_all = (max(change) < min(parent) if spec["better"] == "lower"
                 else min(change) > max(parent))
    worse_by = (cm - pm if spec["better"] == "lower" else pm - cm) / pm
    if wins >= 0.9 and better(spec, pm, cm) and abs(cm - pm) > q3 - q1:
        return "gain", wins
    if (q3 - q1) / pm > spec["bound"] and not beats_all:
        return "unresolved", wins
    if worse_by > spec["bound"]:
        return "regression", wins
    return "ok", wins


def probe_median(doc):
    for w in doc["workloads"].values():
        if w["samples"].get("host.probe_s"):
            return statistics.median(w["samples"]["host.probe_s"])
    sys.exit("compare: no host.probe_s samples")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    parent, change = (json.loads(Path(path).read_text())
                      for path in sys.argv[1:])
    pp, cp = probe_median(parent), probe_median(change)
    if abs(cp - pp) / pp > PROBE_TOLERANCE:
        print(f"compare: refusing to judge: host.probe_s medians {pp:.4g} s "
              f"and {cp:.4g} s differ by more than "
              f"{PROBE_TOLERANCE:.0%}", file=sys.stderr)
        return 2

    specs = parent["metrics"]
    regressions = 0
    print(f"{'workload':15} {'metric':30} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>5}  verdict")
    for name, pw in parent["workloads"].items():
        cw = change["workloads"].get(name)
        if cw is None:
            print(f"{name:15} missing from the change")
            continue
        for metric, spec in specs.items():
            p, c = pw["samples"].get(metric), cw["samples"].get(metric)
            if not p or not c:
                continue
            v, wins = verdict(spec, p, c)
            regressions += v == "regression"
            fmt = ".12g" if spec["unit"] == "count" else ".5g"
            cells = []
            for values in (p, c):
                q1, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):{fmt}} "
                             f"[{q1:{fmt}}, {q3:{fmt}}]")
            wins_text = "" if wins is None else f"{wins:.0%}"
            print(f"{name:15} {metric:30} {cells[0]:>34} {cells[1]:>34} "
                  f"{wins_text:>5}  {v}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())

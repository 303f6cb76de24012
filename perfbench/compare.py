#!/usr/bin/env python3
"""Compare two sets of benchmark results: a parent commit and a change.

    python3 perfbench/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are result files written by perfbench/run.py, or
directories searched for them. Only untraced results (--trace 0) count.
For each workload and each end-to-end metric of BENCHMARK.json it prints
both sides' median and quartiles, the fraction of pairs the change wins,
and one verdict, following the rules the benchmark fixes:

  better      at least ten pairs, the change wins at least nine tenths of
              them (ties count for neither), and the medians differ by more
              than the parent's own spread (the distance between its
              quartiles); never when the change fails more often
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unchanged   neither, and the parent's spread is within the bound, or every
              change run reads better than every parent run
  unresolved  neither, and the parent's spread is wider than the bound; or
              the change reads better on fewer than ten pairs

Runs pair by seed where both sides ran the same seeds, else in the order
they were made. A failed-run row per workload compares the fraction of
frames that failed their output check. The exit code is 1 when any
verdict is "worse".
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS_FOR_GAIN = 10
WIN_FRACTION_FOR_GAIN = 0.9


def load(path):
    """Untraced results in `path` (a result file or a directory), grouped
    by workload, in the order they were made."""
    path = Path(path)
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        rec = json.loads(f.read_text())
        if "result" not in rec or rec.get("provenance", {}).get("trace", 0) != 0:
            continue
        runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["provenance"].get("time", ""))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs(parent, change):
    """(parent value, change value) pairs: by seed when both sides ran the
    same seeds, else by position."""
    ps = [r["provenance"].get("seed") for r in parent]
    cs = [r["provenance"].get("seed") for r in change]
    if len(set(ps)) == len(ps) and sorted(ps) == sorted(cs):
        by_seed = {r["provenance"]["seed"]: r for r in change}
        return [(p, by_seed[p["provenance"]["seed"]]) for p in parent]
    return list(zip(parent, change))


def verdict(pvals, cvals, paired, better, bound, change_fails_more):
    """Verdict for one metric. `better` is "higher" or "lower"; `paired`
    is a list of (parent, change) values."""
    sign = 1.0 if better == "higher" else -1.0
    if len(pvals) < 2 or len(cvals) < 2:
        return "unresolved", 0.0
    pmed, cmed = statistics.median(pvals), statistics.median(cvals)
    q1, q3 = quartiles(pvals)
    spread = q3 - q1
    wins = sum(1 for p, c in paired if sign * (c - p) > 0)
    win_frac = wins / len(paired) if paired else 0.0
    gain = sign * (cmed - pmed)  # > 0: the change reads better
    if (len(paired) >= MIN_PAIRS_FOR_GAIN and win_frac >= WIN_FRACTION_FOR_GAIN
            and gain > spread and not change_fails_more):
        return "better", win_frac
    if -gain > bound * abs(pmed):
        return "worse", win_frac
    if len(paired) < MIN_PAIRS_FOR_GAIN and gain > 0:
        return "unresolved", win_frac
    all_better = all(sign * (c - p) > 0 for c in cvals for p in pvals)
    if spread > bound * abs(pmed) and not all_better:
        return "unresolved", win_frac
    return "unchanged", win_frac


def fail_frac(recs):
    attempted = sum(r["result"]["attempted"] for r in recs)
    return sum(r["result"]["failed"] for r in recs) / attempted if attempted else 0.0


def compare(parent, change, bench):
    """Rows of (workload, metric, parent stats, change stats, win
    fraction, verdict) for every workload both sides ran."""
    rows = []
    for w in [wl["name"] for wl in bench["workloads"]]:
        p, c = parent.get(w, []), change.get(w, [])
        if not p or not c:
            rows.append((w, "*", None, None, 0.0, "unresolved"))
            continue
        pf, cf = fail_frac(p), fail_frac(c)
        fails_more = cf > pf
        rows.append((w, "failed_frac", (pf, pf, pf), (cf, cf, cf), 0.0,
                     "worse" if fails_more else "unchanged"))
        paired_runs = pairs(p, c)
        for m in bench["end_to_end"]:
            name = m["name"]

            def val(r):
                return r["result"]["metrics"][name]["value"]
            pv, cv = [val(r) for r in p], [val(r) for r in c]
            paired = [(val(a), val(b)) for a, b in paired_runs]
            v, wf = verdict(pv, cv, paired, m["better"], m["bound"], fails_more)
            rows.append((w, name, (statistics.median(pv), *quartiles(pv)),
                         (statistics.median(cv), *quartiles(cv)), wf, v))
    return rows


def fmt(stats):
    if stats is None:
        return "-"
    med, q1, q3 = stats
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="parent results: a result file or a directory")
    ap.add_argument("change", help="change results: a result file or a directory")
    ap.add_argument("--benchmark", default=str(Path(__file__).resolve().parent.parent
                                               / "BENCHMARK.json"))
    args = ap.parse_args()
    bench = json.loads(Path(args.benchmark).read_text())
    rows = compare(load(args.parent), load(args.change), bench)
    print(f"{'workload':18s} {'metric':16s} {'parent median [q1, q3]':38s} "
          f"{'change median [q1, q3]':38s} {'wins':>5s}  verdict")
    for w, name, ps, cs, wf, v in rows:
        print(f"{w:18s} {name:16s} {fmt(ps):38s} {fmt(cs):38s} {wf:5.2f}  {v}")
    return 1 if any(r[5] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

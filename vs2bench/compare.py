#!/usr/bin/env python3
"""Noise-aware comparison of two sets of benchmark runs.

    python3 vs2bench/compare.py PARENT.jsonl CHANGE.jsonl

Both files hold run records as runs.py writes them. Runs are paired by
(workload, trace, seed); pair the two commits' runs with the same seeds.
For every (metric, workload) row the verdict is one of:

  improved    the change wins at least 9 of 10 pairs, ties counting for
              neither, and the medians differ by more than the parent's
              interquartile range (choosing-metrics section 8: the rule for
              claiming a gain);
  unresolved  not improved, and either side's spread (interquartile range
              over median) is wider than the metric's bound, unless every
              run of the change reads better than every run of the parent;
  regressed   the change's median is worse than the parent's by more than
              the bound, with both spreads within it (section 6.5: the
              bound is how much worse a metric may get);
  unchanged   anything else.

Bounds come from BENCHMARK.json. Per-layer metrics have none there, nor
have the printed-only wall-clock metrics that runs.py records under "info"
(rates and latencies, README.md "Noise"); both use EXTRA_BOUND. There is no
combined score: every row stands alone. Exit code 1 when any row regressed.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_FRACTION = 0.9
EXTRA_BOUND = 0.25
# The printed-only end-to-end metrics and which direction is better.
INFO_METRICS = (("docs_per_s", "higher"), ("lat_p50_ms.low", "lower"),
                ("lat_p99_ms.low", "lower"), ("lat_p50_ms.high", "lower"),
                ("lat_p99_ms.high", "lower"), ("max_rate_rps", "higher"))


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def relative(part, whole):
    if whole == 0:
        return 0.0 if part == 0 else float("inf")
    return part / abs(whole)


def verdict(parent, change, better, bound):
    """Classifies one row from paired values (same length, same order)."""
    sign = 1.0 if better == "higher" else -1.0
    change_wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    parent_wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    n = len(parent)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    parent_iqr = pq3 - pq1
    separated = abs(cmed - pmed) > parent_iqr
    if change_wins >= WIN_FRACTION * n and separated:
        return "improved", change_wins, parent_wins
    spread = max(relative(parent_iqr, pmed), relative(cq3 - cq1, cmed))
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", change_wins, parent_wins
    if relative(sign * (pmed - cmed), pmed) > bound:
        return "regressed", change_wins, parent_wins
    return "unchanged", change_wins, parent_wins


def metric_specs(bench, trace):
    """(kind, name, better, bound) of every row a record of `trace` has."""
    if trace == 1:
        return [("per_layer", m["name"], m["better"], EXTRA_BOUND)
                for m in bench["per_layer"]]
    return ([("end_to_end", m["name"], m["better"], m["bound"])
             for m in bench["end_to_end"]] +
            [("info", name, better, EXTRA_BOUND)
             for name, better in INFO_METRICS])


def value(record, kind, name):
    """A metric's value, or None when the record does not carry it."""
    source = record.get("info", {}) if kind == "info" else \
        record["result"]["metrics"]
    entry = source.get(name)
    return None if entry is None else entry["value"]


def compare(parent_records, change_records, bench):
    """Returns one row dict per (workload, trace, metric) present on both
    sides, in BENCHMARK.json order."""
    def index(records):
        out = {}
        for r in records:
            out.setdefault((r["workload"], r["trace"]), {})[r["seed"]] = r
        return out

    parent_runs, change_runs = index(parent_records), index(change_records)
    rows = []
    workloads = [w["name"] for w in bench["workloads"]]
    for trace in (0, 1):
        for workload in workloads:
            key = (workload, trace)
            if key not in parent_runs or key not in change_runs:
                continue
            seeds = sorted(set(parent_runs[key]) & set(change_runs[key]))
            if not seeds:
                continue
            for kind, name, better, bound in metric_specs(bench, trace):
                parent = [value(parent_runs[key][s], kind, name)
                          for s in seeds]
                change = [value(change_runs[key][s], kind, name)
                          for s in seeds]
                if None in parent or None in change:
                    continue
                result, cw, pw = verdict(parent, change, better, bound)
                rows.append({
                    "workload": workload, "trace": trace, "kind": kind,
                    "metric": name, "pairs": len(seeds),
                    "parent": quartiles(parent), "change": quartiles(change),
                    "change_wins": cw, "parent_wins": pw, "verdict": result})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--all", action="store_true",
                        help="also print unchanged rows")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    rows = compare(load_records(args.parent), load_records(args.change),
                   bench)
    if not rows:
        print("no (workload, trace, seed) in common")
        return 2
    print("%-20s %-10s %-36s %5s %26s %26s %7s  %s" % (
        "workload", "kind", "metric", "pairs", "parent q1/med/q3",
        "change q1/med/q3", "wins", "verdict"))
    counts = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
        if row["verdict"] == "unchanged" and not args.all:
            continue
        print("%-20s %-10s %-36s %5d %26s %26s %3d/%-3d  %s" % (
            row["workload"], row["kind"], row["metric"], row["pairs"],
            "%.4g/%.4g/%.4g" % row["parent"], "%.4g/%.4g/%.4g" % row["change"],
            row["change_wins"], row["parent_wins"], row["verdict"]))
        if row["pairs"] < 10:
            print("%20s note: under 10 pairs, a gain cannot be shown" % "")
    print("rows: " + ", ".join("%s %d" % kv for kv in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())

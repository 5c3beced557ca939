#!/usr/bin/env python3
"""Run the benchmark several times and record every result.

    python3 vs2bench/runs.py --workloads forms_batch,posters_daemon_cold \\
        --seeds 1-10 --trace 0 --out .bench_run/head.jsonl

Each run is `run.py --workload W --seed S --seconds N --trace T`; its metric
lines are echoed and its JSON result line is appended to --out as
{"workload", "seed", "trace", "inject", "result", "info"}, where "info"
holds the printed-only values (`info` lines: the wall-clock rates and
latencies). Workloads alternate within a seed. At the end every bounded
end-to-end metric is summarized per workload: median, quartiles and the
spread (interquartile range over median), which must stay within the
metric's bound in BENCHMARK.json. Exit code 1 when any run was not correct
(a response differed from its reference, a request failed, or the run was
invalid).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace, inject):
    """Runs the benchmark once; returns its record (see the file comment)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("run failed: %s (exit %d)" % (" ".join(cmd),
                                                        proc.returncode))
    info = {}
    for line in lines[:-1]:
        if line.startswith(("metric", "info", "ERROR", "INVALID")):
            print("  " + line)
        if line.startswith("info"):
            _, name, value, unit = line.split()[:4]
            info[name] = {"value": float(value), "unit": unit}
    return {"workload": workload, "seed": seed, "trace": trace,
            "inject": inject, "result": json.loads(lines[-1]), "info": info}


def spread(values):
    """(median, q1, q3, iqr/median) as the benchmark's acceptance uses."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def summarize(records, bench):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    by_workload = {}
    for r in records:
        if r["trace"] == 0:
            by_workload.setdefault(r["workload"], []).append(r["result"])
    for workload, results in by_workload.items():
        print("%s (%d runs)" % (workload, len(results)))
        if len(results) < 2:
            continue
        for name, bound in bounds.items():
            values = [res["metrics"][name]["value"] for res in results]
            med, q1, q3, rel = spread(values)
            flag = ""
            if bound is not None and name != "setup_s" and rel > bound / 3:
                flag = "  > bound/3" if rel <= bound else "  > BOUND"
            print("  %-18s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.3f"
                  "  bound %s%s" % (name, med, q1, q3, rel, bound, flag))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--inject", default="")
    parser.add_argument("--out", required=True)
    parser.add_argument("--summarize-only", action="store_true")
    args = parser.parse_args()

    bench = load_benchmark()
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    if not args.summarize_only:
        with open(args.out, "a") as out:
            for seed in parse_seeds(args.seeds):
                for workload in workloads:
                    record = run_once(workload, seed, seconds, args.trace,
                                      args.inject)
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print("%s seed %d trace %d: correct=%s" % (
                        workload, seed, args.trace,
                        record["result"]["correct"]))
    with open(args.out) as f:
        records = [json.loads(line) for line in f if line.strip()]
    summarize(records, bench)
    return 0 if all(r["result"]["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())

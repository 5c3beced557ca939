#!/usr/bin/env python3
"""Attribution self-test: does the benchmark see, and place, a slowdown?

    python3 vs2bench/selftest.py [--pairs 10]

Runs `--pairs` seeds of forms_batch twice each, plain and with
`run.py --inject core.select:0.2` (a 20% busy-wait added to every call of
vs2::core::SelectEntities, wherever the pipeline and the traced replay call
it), alternating which side runs first, both untraced and traced. Then it
compares the two sets with compare.py, the injected set as the parent and
the plain set as the change: taking the slowdown out again is a gain, which
compare.py reports only by the 9-of-10 rule. (Put in, the slowdown is about
+17% end to end, inside cpu_ms_per_doc's bound of 0.24, so the bound-based
`regressed` verdict is not what the self-test looks for.) The attribution
holds when:

  * per-layer self times: core.select.self_ms_p50 is improved, and no other
    layer's self_ms_p50 or self_ms_p99 is improved or regressed;
  * end-to-end (the result line's metrics and the printed-only ones): at
    least one metric is improved, and every improved or regressed metric is
    one the layer map (README.md) predicts for core.select on forms_batch.

Shares, call counts, waits and trace overhead are derived from the other
rows and are not checked. Exit code 0 when the attribution holds.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import runs  # noqa: E402

LAYER = "core.select"
WORKLOAD = "forms_batch"
INJECT = LAYER + ":0.2"
# The end-to-end metrics the layer map (README.md) predicts a change of
# core.select moves on forms_batch, where it is ~87% of the time.
PREDICTED = {"cpu_ms_per_doc", "docs_per_s", "max_rate_rps", "lat_p50_ms.low",
             "lat_p50_ms.high", "lat_p99_ms.low", "lat_p99_ms.high"}
FLAGGED = ("improved", "regressed")


def check(rows):
    problems = []
    self_rows = [r for r in rows if r["trace"] == 1 and
                 r["metric"].endswith((".self_ms_p50", ".self_ms_p99"))]
    target = [r for r in self_rows if r["metric"] == LAYER + ".self_ms_p50"]
    if not target or target[0]["verdict"] != "improved":
        problems.append("%s.self_ms_p50 not improved" % LAYER)
    for r in self_rows:
        if not r["metric"].startswith(LAYER + ".") and r["verdict"] in FLAGGED:
            problems.append("other layer flagged: %s %s" % (r["metric"],
                                                           r["verdict"]))
    e2e = [r for r in rows if r["trace"] == 0 and r["verdict"] in FLAGGED]
    if not any(r["verdict"] == "improved" for r in e2e):
        problems.append("no end-to-end metric improved")
    for r in e2e:
        if r["metric"] not in PREDICTED:
            problems.append("unpredicted end-to-end flag: %s %s" % (
                r["metric"], r["verdict"]))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--out-dir", default=os.path.join(runs.ROOT,
                                                          ".bench_run",
                                                          "selftest"))
    parser.add_argument("--compare-only", action="store_true")
    args = parser.parse_args()

    bench = runs.load_benchmark()
    os.makedirs(args.out_dir, exist_ok=True)
    base_path = os.path.join(args.out_dir, "base.jsonl")
    inject_path = os.path.join(args.out_dir, "inject.jsonl")
    if not args.compare_only:
        for path in (base_path, inject_path):
            open(path, "w").close()
        for i in range(args.pairs):
            seed = args.first_seed + i
            sides = [("", base_path), (INJECT, inject_path)]
            if i % 2:
                sides.reverse()
            for trace in (0, 1):
                for side_inject, path in sides:
                    record = runs.run_once(WORKLOAD, seed,
                                           bench["run_seconds"], trace,
                                           side_inject)
                    with open(path, "a") as out:
                        out.write(json.dumps(record) + "\n")
            print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)

    # Parent: the injected runs; change: the plain ones (see the top).
    rows = compare.compare(compare.load_records(inject_path),
                           compare.load_records(base_path), bench)
    for r in rows:
        if r["verdict"] != "unchanged":
            print("%-10s %-36s %s (wins %d/%d)" % (
                r["kind"], r["metric"], r["verdict"], r["change_wins"],
                r["parent_wins"]))
    problems = check(rows)
    for p in problems:
        print("FAIL " + p)
    print("attribution self-test: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

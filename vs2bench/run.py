#!/usr/bin/env python3
"""Build the VS2 benchmark from this checkout and run one workload.

    python3 vs2bench/run.py --workload forms_batch --seed 1 \\
        --seconds 25 --trace 0

Builds (CMake, Release) into .bench_build/ at the checkout root, runs the
benchmark binary from the checkout root with its scratch files under
.bench_run/, and passes its output through: one line per metric, then the
JSON result line last. Exits non-zero, without a result line, when the
build or the run fails.

--inject core.select:FRACTION is the test-only mode of the attribution
self-test (selftest.py): it runs a benchmark binary in which every call of
vs2::core::SelectEntities is slowed down by FRACTION of its own time.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
WORKLOADS = ("forms_batch", "posters_daemon_cold", "flyers_fleet_warm")
INJECTABLE = "core.select"
# A run must end within 180 s; stop it well before that.
RUN_TIMEOUT_S = 170


def build(targets):
    """Configures once, then builds `targets`; build output goes to stderr."""
    configured = any(os.path.exists(os.path.join(ROOT, BUILD_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", "vs2bench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode:
            return False
    jobs = str(len(os.sched_getaffinity(0)))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inject", default="",
                        help="test only: LAYER:FRACTION (core.select:0.2)")
    args = parser.parse_args()

    env = dict(os.environ)
    bench = "vs2bench"
    if args.inject:
        layer, _, fraction = args.inject.partition(":")
        if layer != INJECTABLE or not fraction:
            parser.error("--inject takes %s:FRACTION" % INJECTABLE)
        bench = "vs2bench_inject"
        env["VS2BENCH_INJECT"] = args.inject
    if not build([bench]):
        print("vs2bench: build failed", file=sys.stderr)
        return 1

    run_dir = os.path.join(ROOT, RUN_DIR)
    os.makedirs(run_dir, exist_ok=True)
    bin_dir = os.path.join(BUILD_DIR, "bin")
    examples = os.path.join(BUILD_DIR, "repo", "examples")
    cmd = [os.path.join(bin_dir, bench),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(examples, "vs2_serve"),
           "--fleet-bin", os.path.join(examples, "vs2_fleet"),
           "--run-dir", RUN_DIR]
    # Own process group: whatever the run leaves behind (a timeout, or a
    # crash that skipped stopping the daemons) is stopped with the group.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("vs2bench: run timed out", file=sys.stderr)
        code = 1
    stop_group(proc)
    return code


def stop_group(proc):
    """SIGTERM to the run's process group, SIGKILL after 20 s, and waits
    until no member is left."""
    sig, deadline = signal.SIGTERM, time.monotonic() + 20
    while True:
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        if proc.poll() is None:
            try:
                proc.wait(timeout=0.1)
            except subprocess.TimeoutExpired:
                pass
        else:
            time.sleep(0.1)
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
    proc.wait()


if __name__ == "__main__":
    sys.exit(main())

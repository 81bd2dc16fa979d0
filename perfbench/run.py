#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload catalog|grids|serve|stream \
        --seed N --seconds S --trace 0|1

Builds the harness (perfbench/pb.exe) and the daemon (bin/ivc_serve.exe)
from source into the build directory named by CARGO_TARGET_DIR (default
.bench_build), runs the harness in its own process group, and relays its
output. The last stdout line is the result object. Scratch files go to
.bench_work. Exits non-zero without a result when the checkout lacks the
program's sources, the build fails, or the harness fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["catalog", "grids", "serve", "stream"]
HARNESS_TIMEOUT_S = 170
WORK_DIR = ".bench_work"


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description="ivc-stencil benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    return p.parse_args()


def check_sources():
    needed = ["dune-project", "lib", "bin/ivc_serve.ml", "perfbench/dune"]
    missing = [f for f in needed if not os.path.exists(f)]
    if missing:
        fail(2, "not a source checkout (missing %s)" % ", ".join(missing))


def build(build_dir):
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--profile", "release", "perfbench/pb.exe", "bin/ivc_serve.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(3, "build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:])
        fail(3, "build failed")
    return (os.path.join(build_dir, "default", "perfbench", "pb.exe"),
            os.path.join(build_dir, "default", "bin", "ivc_serve.exe"))


def check_declared_metrics(pb):
    """BENCHMARK.json must list exactly the metrics the harness reports."""
    if not os.path.exists("BENCHMARK.json"):
        return
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    out = subprocess.run([pb, "--list-metrics"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    harness = {"end_to_end": [], "per_layer": []}
    for line in out.splitlines():
        kind, name, unit, better = line.split()
        harness[kind].append((name, unit, better))
    for kind in harness:
        declared = [(m["name"], m["unit"], m["better"]) for m in bench[kind]]
        if declared != harness[kind]:
            fail(4, "BENCHMARK.json %s differs from the harness's metrics" % kind)


def kill_group(pgid):
    """Stop whatever is left of the harness's process group and wait
    until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    args = parse_args()
    check_sources()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    pb, serve = build(build_dir)
    check_declared_metrics(pb)
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [pb, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--serve-bin", serve, "--work", WORK_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        fail(5, "harness exceeded %d s" % HARNESS_TIMEOUT_S)
    finally:
        kill_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        fail(6, "harness failed with exit code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(6, "malformed result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the repository's broadcast benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without --workload, every workload in BENCHMARK.json runs in turn, and
without --trace as well, each runs twice: end-to-end (--trace 0), then
per-layer (--trace 1). Run from the root of a checkout. The first run configures and builds
perfbench/ (which builds the bdisk library from src/) into .bench_build/;
later runs only rebuild what changed. The benchmark binary prints every
metric by name with its unit and ends with one JSON result line, which this
script checks against BENCHMARK.json before passing the exit code on.

Workloads (see BENCHMARK.json for why each was chosen):
  wire_tiny          64 B blocks, in memory, unpaced
  wire_bulk_disk     32 KiB blocks served from a disk-backed block store
  wire_paced_fanout  paced byte-domain program, Gilbert channel, 3000 sessions
  sim_fleet          event engine, 300k Poisson/Zipf clients, Gilbert channel

All wire traffic crosses the host loopback, not a real link.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(workload, trace, args):
    """Runs one workload; returns its exit code."""
    workdir = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(trace),
             "--workdir", workdir],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    result = json.loads(lines[-1])
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in load_benchmark()[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        print("perfbench: metrics do not match BENCHMARK.json: got %s, "
              "declared %s" % (sorted(got), sorted(expected)),
              file=sys.stderr)
        return 4
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=load_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    if args.workload is not None:
        return run_workload(args.workload, args.trace or 0, args)
    traces = (0, 1) if args.trace is None else (args.trace,)
    codes = [run_workload(w["name"], trace, args)
             for w in load_benchmark()["workloads"] for trace in traces]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())

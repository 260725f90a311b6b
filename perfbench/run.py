#!/usr/bin/env python3
"""Build and run the wasmctr host-cost benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper_matrix --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

The first call configures and builds the simulator library from ../src and
the benchmark program into .bench_build/perfbench (Release). Each workload
runs in its own process. The program reports its figures by name; this
script keeps the metrics BENCHMARK.json lists for the mode (end_to_end
untraced, per_layer traced), with their units, and prints as its last stdout
line one JSON object with the keys correct, attempted, failed and metrics.
`--workload all` runs every workload in turn and prints one such line per
workload.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "wasmctr_perfbench")
# A run measures for --seconds, then finishes its last pass and, traced,
# the layer probes; anything past this is a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configure and build once per checkout; later calls are no-op builds."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no wasmctr sources at %s/src" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "check": True}
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"], **quiet)
        subprocess.run(["cmake", "--build", BUILD, "-j", "4",
                        "--target", "wasmctr_perfbench"], **quiet)


def run(workload, args, specs):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    values = result.pop("values")
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        sys.stderr.write("perfbench: %s reported no %s\n"
                         % (workload, ", ".join(missing)))
        return 1
    result["metrics"] = {m["name"]: {"value": values[m["name"]],
                                     "unit": m["unit"]} for m in specs}
    print(json.dumps(result), flush=True)
    return 0


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    specs = bench["per_layer" if args.trace else "end_to_end"]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    for workload in workloads if args.workload == "all" else [args.workload]:
        status = run(workload, args, specs)
        if status != 0:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())

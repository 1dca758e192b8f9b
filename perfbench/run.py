#!/usr/bin/env python3
"""The repository benchmark: CSV-to-outcome throughput and served latency.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lake_small --seed 1 --seconds 20 --trace 0

Builds the doduo libraries, the doduo_serve daemon and the perfbench program
from the checkout's sources (Release, into .bench_build/), generates the
workload's inputs from --seed, measures for --seconds, checks every output
against an in-process oracle, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). Workload rationale and metric definitions are in
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("lake_small", "lake_big", "serve_small")
# Cold starts timed per run; setup_s is their median.
SETUP_REPEATS = 9
# The whole command must finish within this many seconds.
RUN_BUDGET_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def stop_group(proc):
    """Kills whatever is left of `proc`'s process group (a daemon orphaned
    by a crashed perfbench step) and waits until the group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    give_up = time.monotonic() + 10
    while time.monotonic() < give_up:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_group(argv, deadline, what, stdout):
    """Runs `argv` in its own process group and waits for it; on timeout the
    whole group (a spawned daemon, make's compilers) is killed and reaped.
    Returns (exit code or None on timeout, captured stdout)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        log(f"perfbench: out of time before {what}")
        return None, ""
    proc = subprocess.Popen(argv, stdout=stdout, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        stop_group(proc)
        log(f"perfbench: {what} did not finish")
        return None, ""
    stop_group(proc)
    if proc.returncode != 0:
        log(f"perfbench: {what} failed with exit code {proc.returncode}")
    return proc.returncode, out or ""


def run_step(argv, deadline, what):
    """Runs one perfbench step; returns the JSON objects it printed on stdout,
    or None on failure."""
    code, out = run_group(argv, deadline, what, subprocess.PIPE)
    if code != 0:
        return None
    objects = []
    for line in out.splitlines():
        line = line.strip()
        if line.startswith("{"):
            objects.append(json.loads(line))
    return objects


def build(deadline):
    """Configures (once) and builds the perfbench program and the daemon. Returns the
    directory holding both binaries, or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        code, _ = run_group(configure, deadline, "configure", sys.stderr)
        if code != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return None
    compile_cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                   "perfbench", "doduo_serve_bin"]
    code, _ = run_group(compile_cmd, deadline, "build", sys.stderr)
    return BUILD_DIR if code == 0 else None


def source_digest():
    """Content digest of everything the build compiles, standing in for the
    commit when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def environment_stamp(binary_env):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    stamp = {"nproc": os.cpu_count(), "cpu_model": cpu, "commit": commit}
    if commit == "unknown":
        stamp["source_digest"] = source_digest()
    stamp.update(binary_env)
    return stamp


def main():
    # A terminated run.py still stops and reaps the step it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    overrides = sorted(k for k in os.environ if k.startswith("DODUO_"))
    if overrides:
        log("perfbench: refusing to measure with " + ", ".join(overrides) +
            " set: that run would measure a different program")
        return 3

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = build(time.monotonic() + 850)
    if build_dir is None:
        log("perfbench: build failed")
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S
    binary = os.path.join(build_dir, "perfbench")
    serve_bin = os.path.join(build_dir, "doduo_serve")

    env_out = run_step([binary, "env"], deadline, "env")
    if not env_out:
        return 1
    stamp = environment_stamp(env_out[-1]["env"])
    if stamp.get("build_type") != "Release":
        log("perfbench: refusing to measure a non-Release build")
        return 3

    work = os.path.join(RUNS_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(
        TRACE_DIR, f"{args.workload}-seed{args.seed}.trace.json")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--dir", work]
    try:
        prepared = run_step([binary, "prepare"] + common, deadline, "prepare")
        if not prepared:
            return 1
        properties = prepared[-1]["properties"]
        selftest = run_step([binary, "selftest", "--dir", work], deadline,
                            "selftest")
        if not selftest:
            return 1
        setup = []
        if args.trace == 0:
            for _ in range(SETUP_REPEATS):
                out = run_step([binary, "setup"] + common +
                               ["--serve-bin", serve_bin], deadline, "setup")
                if not out:
                    return 1
                setup.append(out[-1]["setup_s"])
        out = run_step([binary, "run"] + common +
                       ["--trace", str(args.trace), "--serve-bin", serve_bin,
                        "--trace-out", trace_path], deadline, "run")
        if not out:
            return 1
        result = out[-1]["result"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = dict(result["metrics"])
    if setup:
        measured["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if args.trace == 0:
                log(f"perfbench: end-to-end metric {m['name']} missing")
                return 1
            # A layer this workload does not exercise (e.g. serve.* on a
            # lake workload) reads 0.
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log(f"perfbench: {m['name']} has unit {got['unit']}, "
                f"BENCHMARK.json says {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    correct = (bool(result["correct"]) and selftest[-1]["selftest"]["ok"]
               and properties["deterministic"])
    print("environment: " + json.dumps(stamp, sort_keys=True))
    print("workload properties: " + json.dumps(properties))
    print("selftest: " + json.dumps(selftest[-1]["selftest"]))
    print("notes: " + json.dumps(result["notes"]))
    if setup:
        print("setup_s samples: " + json.dumps(setup))
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

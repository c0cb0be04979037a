#!/usr/bin/env python3
"""Repo benchmark: three workloads, one per path of the detector.

    python3 perfbench/run.py --workload offline_tax|serve_zipf|stream_fresh \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. The script builds the program from source
(CMake, into $CARGO_TARGET_DIR or .bench_build), runs the workload in a
fresh process (after an untimed preamble process that trains the bundle the
online workloads load) and prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics of the named workload (serve_zipf
runs, but BENCHMARK.json leaves it out). --trace 1 runs the traced variant
of every workload, each in its own process, and prints every per-layer
metric (named <workload>.<layer metric>). See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("offline_tax", "serve_zipf", "stream_fresh")
ONLINE = ("serve_zipf", "stream_fresh")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-process limits, seconds; together they keep one invocation under the
# 180 s a run may take once the program is built.
BUILD_TIMEOUT = 850
PREAMBLE_TIMEOUT = 40
WORKLOAD_TIMEOUT = 120


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Configures (once) and builds the workload binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"program sources not found under {ROOT / 'src'}")
    out = build_root() / "perfbench"
    deadline = time.monotonic() + BUILD_TIMEOUT
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr,
        timeout=max(1.0, deadline - time.monotonic()))
    return out / "perfbench"


def run_process(cmd, timeout, result=True):
    """Runs one process to completion; returns its last stdout line when
    `result` is set."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[:2])} exited with {proc.returncode}")
    if not result:
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd[:2])} printed no result")
    return lines[-1]


def run_workload(binary, workload, seed, seconds, trace, smoke, work):
    """Preamble (online workloads) + the workload process; returns its
    parsed result line."""
    work.mkdir(parents=True, exist_ok=True)
    common = [f"--seed={seed}", f"--smoke={int(smoke)}"]
    target = work / "offline"
    if workload in ONLINE:
        target = work / "bundle"
        run_process([str(binary), "preamble", f"--workload={workload}",
                     f"--dir={target}"] + common, PREAMBLE_TIMEOUT,
                    result=False)
    cmd = [str(binary), workload, f"--seconds={seconds}",
           f"--trace={int(trace)}", f"--dir={target}"] + common
    if trace:
        traces = build_root() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace-out={traces / f'{workload}-seed{seed}.trace.json'}")
    return json.loads(run_process(cmd, WORKLOAD_TIMEOUT))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced tables and schedules (tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        log(f"build failed: {err}")
        return 2

    work = build_root() / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    # The traced run measures every workload's layers; each traced variant
    # runs a third of the window (its job is the waterfall, not the
    # end-to-end figures).
    workloads = WORKLOADS if args.trace else (args.workload,)
    seconds = args.seconds / 3 if args.trace else args.seconds
    merged = {"attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            result = run_workload(binary, workload, args.seed, seconds,
                                  args.trace, args.smoke, work / workload)
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update(result["metrics"])
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        log(f"run failed: {err}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": merged["failed"] == 0 and merged["attempted"] > 0,
        "attempted": merged["attempted"],
        "failed": merged["failed"],
        "metrics": merged["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

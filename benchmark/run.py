#!/usr/bin/env python3
"""Builds and runs the Code Tomography benchmark.

Usage, from the root of the repository:

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: apps_pipeline, ladder_faults, fleet_ingest, wide_cfg.

The benchmark is a Cargo package of its own (benchmark/Cargo.toml) that
builds the repository's crates from source into $CARGO_TARGET_DIR
(default: .bench_build at the repository root). The script prints the
benchmark's per-program rows, a host fingerprint line, and, as the last
line, the result object. Results from hosts with different fingerprints are
not comparable. It exits non-zero, without a result line, when the build or
the run fails.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(1)


def host_fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "-V"], capture_output=True, text=True, check=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rustc = "unknown"
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "arch": platform.machine(),
        "rustc": rustc,
        "profile": "release",
    }
    digest = hashlib.sha256(json.dumps(host, sort_keys=True).encode()).hexdigest()
    host["id"] = digest[:12]
    return host


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    env = dict(os.environ)
    # One estimation worker: the closed-loop workloads have one caller, and
    # EM restarts fanned out over both cores of a 2-core shared host make
    # every job wait for the slower core. Outputs are the same for any
    # worker count.
    env["CT_THREADS"] = "1"
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    binary = os.path.join(target, "release", "ct-benchmark")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
    ]
    try:
        run = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(f"run exited with code {run.returncode}")

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the run printed no result line")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}")

    for line in lines[:-1]:
        print(line)
    print("host: " + json.dumps(host_fingerprint(), sort_keys=True))
    print(lines[-1])


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the PISCES 2 whole-program benchmark.

    python3 perfbench/run.py --workload <pingpong|farm_reliable|heat2d> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The first call configures and builds
perfbench/ (a CMake package that compiles the simulator from src/) in
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. The benchmark's output passes through unchanged: the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pingpong", "farm_reliable", "heat2d")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def cached_source(build):
    cache = build / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
            return line.split("=", 1)[1]
    return None


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        try:
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(build):
    if not (ROOT / "src" / "core" / "runtime.hpp").exists():
        fail(f"simulator sources not found under {ROOT / 'src'}", 2)
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH", 2)
    if cached_source(build) not in (None, str(HERE)):
        shutil.rmtree(build)  # configured for another checkout
    build.mkdir(parents=True, exist_ok=True)
    log = build / "build.log"
    steps = []
    if cached_source(build) is None:
        steps.append(["cmake", "-S", str(HERE), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build), "-j", jobs])
    for cmd in steps:
        if run_logged(cmd, log, BUILD_TIMEOUT_S) != 0:
            tail = log.read_text(errors="replace").splitlines()[-40:]
            fail("build failed:\n" + "\n".join(tail))
    return build / "perfbench"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    binary = build(build_dir())
    cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stdout.write(proc.stdout)
        fail("benchmark printed no result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

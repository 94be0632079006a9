#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload plain|debug|recovery|service \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is built in Release under
.bench_build/perfbench (first run: a few minutes), then runs the workload as
a closed loop for S seconds and checks every operation's output. The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
# Compiler and benchmark temporaries stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
PROGRAM = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("plain", "debug", "recovery", "service")
BUILD_TIMEOUT_S = 850
# The program's own set-ups plus the timed phase stay well inside this.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, capture):
    """Runs cmd in its own process group and waits for all of it; on a
    timeout the whole group is killed. Returns (returncode, stdout)."""
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, start_new_session=True, text=True,
        stdout=subprocess.PIPE if capture else None,
        stderr=subprocess.STDOUT if capture == "all" else None)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    finally:
        # Reap anything the command left behind in its group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def build():
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring again is cheap and picks up edited CMakeLists files.
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
              "-j", jobs]]
    for step in steps:
        code, out = run_group(step, BUILD_TIMEOUT_S, capture="all")
        if code != 0:
            sys.stderr.write(out[-4000:])
            fail("build step failed: " + " ".join(step))


def source_version():
    """The commit when the checkout is a git repository, else a digest of
    the sources the program is built from."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    build()
    stores = os.path.join(WORK_DIR, "stores")
    shutil.rmtree(stores, ignore_errors=True)
    os.makedirs(stores, exist_ok=True)
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, "--commit", source_version()]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, capture="stdout")
    finally:
        shutil.rmtree(stores, ignore_errors=True)
    lines = [line for line in (out or "").splitlines() if line.strip()]
    if code != 0 or not lines:
        fail("benchmark program exited with code %s" % code)
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    extra = sorted(set(metrics) - set(declared))
    if extra:
        fail("the program reports metrics BENCHMARK.json does not declare: %s"
             % ", ".join(extra))
    for name, unit in declared.items():
        if name not in metrics:
            if not args.trace:
                fail("end-to-end metric %s is missing" % name)
            # A layer this workload does not exercise did no work.
            metrics[name] = {"value": 0.0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, metrics[name]["unit"], unit))
        elif not args.trace and not metrics[name]["value"] > 0:
            fail("end-to-end metric %s is not positive" % name)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: metrics[name] for name in declared},
    }))


if __name__ == "__main__":
    main()

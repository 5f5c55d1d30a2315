#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds perfbench/ (which compiles the library from src/) into
.bench_build/; later calls only rebuild what changed. The measuring
program prints a human-readable report and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. This
script checks that the metric names are exactly the ones BENCHMARK.json
declares for the mode, and exits non-zero without a result otherwise.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "btwc_bench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


# The child process running now; ended before this script exits.
child = None


def run_child(cmd, stderr=None, timeout=None):
    """Run cmd to its end and return (exit code, its stdout)."""
    global child
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr,
                             text=True)
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("%s exceeded %d s" % (os.path.basename(cmd[0]), timeout), 3)
    code, child = child.returncode, None
    return code, stdout


def stop(signum, _frame):
    """Stopped from outside: end the child, then exit."""
    if child is not None:
        child.kill()
        child.wait()
    sys.exit(128 + signum)


def run_quiet(cmd):
    """Run a build step, sending its output to stderr."""
    code, out = run_child(cmd, stderr=subprocess.STDOUT)
    if code != 0:
        sys.stderr.write(out)
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "run.hpp")):
        fail("no btwc sources under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n") not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "--target", "btwc_bench",
               "-j", jobs])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}, \
        [w["name"] for w in bench["workloads"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    expected, workloads = expected_metrics(args.trace == 1)
    if args.workload not in workloads:
        fail("unknown workload %r; known: %s" %
             (args.workload, ", ".join(workloads)))
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, stdout = run_child(cmd, timeout=RUN_TIMEOUT_S)
    lines = stdout.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(stdout)
        fail("measuring program exited with %d" % code, 3)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("measuring program printed no result line", 3)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail("metrics differ from BENCHMARK.json (missing %s, extra %s)"
             % (missing, extra), 3)
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

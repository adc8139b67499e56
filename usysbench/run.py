#!/usr/bin/env python3
"""The usys benchmark: builds the usysbench program and runs one workload.

Run from the repository root:

    python3 usysbench/run.py --workload fig3_hdl --seed 1 --seconds 25 --trace 0

Workloads: fig3_hdl, array_tran_1k, array_op_20k, mc_server (see
usysbench/README.md). The program is built once per checkout into
.bench_build/usysbench (CMake, Release) from src/ and usysbench/cpp/;
later runs only re-check the build. Results, stamps and Chrome traces go to
.bench_build/usysbench-out/. The last line of standard output is the run's
JSON result.

`--size small` shrinks every circuit for the benchmark's own tests
(usysbench/test_usysbench.py); the benchmark proper always runs full size.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "usysbench")
OUT_DIR = os.path.join(".bench_build", "usysbench-out")  # relative: socket paths stay short
WORKLOADS = ("fig3_hdl", "array_tran_1k", "array_op_20k", "mc_server")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print("usysbench: " + message, file=sys.stderr)
    return 2


def build():
    """Configures (once) and builds the program; True on success."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("usysbench: build step failed: %s" % e, file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def git_commit():
    """HEAD of the checkout, or "none" when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the paths and bytes of every file the program is built from."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--size", default="full", choices=("full", "small"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    if not os.path.exists(os.path.join(ROOT, "src", "api", "api.hpp")):
        return fail("no usys sources under %s/src; run from a full checkout" % ROOT)
    if not build():
        return fail("build failed")

    cmd = [os.path.join(BUILD_DIR, "usysbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--size", args.size,
           "--out-dir", OUT_DIR, "--commit", git_commit(),
           "--source-digest", source_digest()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("workload run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs one benchmark workload of the dqma repository.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout. It builds the Release tree
(dqma_serve, dqma_bench and the harness, see perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
harness. The last line of standard output is the JSON result; a run that
cannot build or complete exits non-zero without printing one.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("exact", "serve_mixed", "sweep_tables")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def build(root, build_dir):
    """Configures once and builds the three targets; returns True on success."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        configured = any(os.path.exists(os.path.join(build_dir, name))
                         for name in ("build.ninja", "Makefile"))
        if not configured:
            configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=subprocess.STDOUT) != 0:
                return False, log_path
        jobs = str(min(4, os.cpu_count() or 1))
        command = ["cmake", "--build", build_dir, "-j", jobs, "--target",
                   "dqma_serve", "dqma_bench", "perfbench_harness"]
        ok = subprocess.call(command, stdout=log, stderr=subprocess.STDOUT) == 0
    return ok, log_path


def main():
    args = parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(target, "perfbench")
    ok, log_path = build(root, build_dir)
    if not ok:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        sys.stderr.write("perfbench: build failed (see %s)\n" % log_path)
        return 1
    # Relative paths keep the server's Unix socket path short.
    harness = [os.path.join(build_dir, "perfbench_harness"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--bin-dir", os.path.relpath(os.path.join(build_dir, "dqma"), root),
               "--work-dir", os.path.relpath(os.path.join(target, "work"), root)]
    return subprocess.call(harness)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the pdexplore end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
libraries, pdx_tool and the perfbench binary (Release) under
$CARGO_TARGET_DIR (default .bench_build); later runs reuse that build.
The benchmark's output is passed through; its last line is the JSON result.
The exit code is non-zero when the build, a correctness gate or an output
check fails. See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpcd_compare", "crm_compare", "tpcd_tune_rw", "serve_mixed")


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary dir."""
    cmake_dir = os.path.join(build_dir, "perfbench")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(cmake_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "pdx_tool", "-j", jobs])
    # Compiler temporaries stay inside the build directory too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                 env=env)
            if rc != 0:
                # A failed configure must not leave a cache that skips it.
                if cmd[1] == "-S":
                    shutil.rmtree(cmake_dir, ignore_errors=True)
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return None
    return cmake_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed (default 1; held-out seed: 4242)")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    bin_dir = build(build_dir)
    if bin_dir is None:
        return 1
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(bin_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pdx-tool", os.path.join(bin_dir, "pdx_tool"),
           "--work-dir", work_dir]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())

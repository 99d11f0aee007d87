#!/usr/bin/env python3
"""Builds the perfbench executable from source and runs one workload.

    python3 perfbench/run.py --workload analyze_cold --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root; scratch files (temporary verdict
stores, generated C, traces, counter baselines) go to <that dir>/work. The
last line of standard output is the benchmark's JSON result; build logs go
to standard error. Exits non-zero, without a result, if the build or the
run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("analyze_cold", "native_adjoint", "serve_warm_edits")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", bench_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # A failed configure leaves a cache that would skip it next time.
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or
                           ".bench_build")
    build_dir = os.path.join(out_dir, "perfbench")
    work_dir = os.path.join(out_dir, "work")

    t0 = time.monotonic()
    if not build(bench_dir, build_dir):
        log("build failed")
        return 1
    log(f"build ready in {time.monotonic() - t0:.1f} s")

    tmp_dir = os.path.join(work_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work_dir]
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    if code != 0:
        log(f"run failed with exit code {code}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

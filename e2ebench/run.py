#!/usr/bin/env python3
"""Build and run the fpr end-to-end benchmark.

    python3 e2ebench/run.py --workload study|pareto|trace-replay|assay \
        --seed N --seconds S --trace 0|1 [--tiny] [--corrupt-trace] \
        [--search-seed N]

Configures and builds e2ebench/ (fpr_core from src/ plus the e2ebench
program) in $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench)
under the repository root, then runs one workload. Build output goes to stderr; the
last stdout line is the result object. A traced run (--trace 1) also
writes its spans as Chrome Trace Event JSON to
<build>/traces/<workload>-seed<N>.json. See e2ebench/NOTES.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure and build (both incremental); returns the program path or
    None."""
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(build_dir, "e2ebench")


def option(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv[:-1] else default


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2ebench")
    exe = build(build_dir)
    if exe is None:
        return 1
    workload = option(argv, "--workload", "none")
    seed = option(argv, "--seed", "42")
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    work = os.path.join(build_dir, "work-%d" % os.getpid())
    cmd = [exe] + argv + [
        "--work-dir", work,
        "--trace-out", os.path.join(traces, "%s-seed%s.json" % (workload, seed)),
    ]
    try:
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""The benchmark's own tests, at tiny size (about a minute after the build).

    python3 e2ebench/selftest.py

1. Smoke: every workload, traced and untraced, prints exactly the metrics
   BENCHMARK.json names for that mode, each with its unit, and is correct
   at the default seed and at one other seed.
2. Negative: one flipped payload byte in a recorded trace makes
   trace-replay report failures (pass_frac < 1).
3. Exact counts: two traced runs of the same code report identical counts.
   study.memo.* is printed but not compared: the library's evaluator fills
   its memo racily, so the hit/miss split can vary between runs.
4. Accounting: per-layer self times plus the unattributed remainder equal
   the traced pass's wall time.
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
LAYERS = ("kernels", "memsim", "model", "study", "io")
UNEXACT = ("study.memo.",)


def run(workload, trace, seed=42, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        sys.exit("FAIL %s: exit %d\n%s" % (cmd, out.returncode, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(cond, what):
    if not cond:
        sys.exit("FAIL " + what)
    print("ok   " + what)


def is_count(name, unit):
    return unit in ("count", "B") and not name.startswith(UNEXACT)


def main():
    for w in [w["name"] for w in SPEC["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            res = run(w, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, "%s trace %d: metric names and units" % (w, trace))
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  "%s trace %d: correct at seed 42" % (w, trace))
            if trace == 0:
                check(res["metrics"]["pass_frac"]["value"] == 1.0,
                      "%s: pass_frac is 1" % w)
                continue
            m = {k: v["value"] for k, v in res["metrics"].items()}
            total = m["trace.unattributed_s"] + sum(m[l + ".self_s"] for l in LAYERS)
            check(abs(total - m["trace.wall_s"]) <= 1e-6 * max(1.0, m["trace.wall_s"]),
                  "%s: self times + unattributed = traced wall" % w)
            again = run(w, 1)["metrics"]
            diff = [k for k, v in res["metrics"].items()
                    if is_count(k, v["unit"]) and v["value"] != again[k]["value"]]
            check(not diff, "%s: counts identical across two runs %s" % (w, diff))
        res = run(w, 0, 7)
        check(res["correct"] and res["failed"] == 0, "%s: correct at seed 7" % w)

    res = run("trace-replay", 0, 42, "--corrupt-trace")
    check(res["failed"] > 0 and res["metrics"]["pass_frac"]["value"] < 1.0,
          "trace-replay: a flipped payload byte is reported as a failure")
    print("all checks passed")


if __name__ == "__main__":
    main()

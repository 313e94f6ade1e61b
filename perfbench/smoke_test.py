#!/usr/bin/env python3
"""Tiny-scale smoke test of the benchmark (about a minute after the build).

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it checks that
  * an untraced run prints every end-to-end metric with its declared unit,
    reports a correct result and exits 0;
  * a traced run prints every per-layer metric with its declared unit;
  * a run with one deliberately corrupted result (--corrupt) reports
    correct=false, counts the failure and exits nonzero, so the
    correctness check cannot pass vacuously.
It also checks that the benchmark fails, without printing a result, in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits nonzero on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--scale", "tiny"]


def run(args, cwd=ROOT, env=None):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def check(condition, what):
    if not condition:
        print("FAIL: " + what)
        sys.exit(1)
    print("ok:   " + what)


def check_metrics(result, declared, what):
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        check(got is not None and got.get("unit") == m["unit"]
              and isinstance(got.get("value"), (int, float)),
              "%s prints %s in %s" % (what, m["name"], m["unit"]))
    check(set(metrics) == {m["name"] for m in declared},
          "%s prints no undeclared metric" % what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in [w["name"] for w in spec["workloads"]]:
        base = ["--workload", w, "--seed", "7", "--seconds", "1"] + TINY
        proc, result = run(base + ["--trace", "0"])
        check(proc.returncode == 0 and result is not None and result["correct"]
              and result["failed"] == 0 and result["attempted"] >= 1,
              "%s untraced run is correct and exits 0" % w)
        check_metrics(result, spec["end_to_end"], w + " untraced")
        for m in spec["end_to_end"]:
            check(result["metrics"][m["name"]]["value"] > 0,
                  "%s %s is nonzero" % (w, m["name"]))

        proc, result = run(base + ["--trace", "1"])
        check(proc.returncode == 0 and result is not None and result["correct"],
              "%s traced run is correct and exits 0" % w)
        check_metrics(result, spec["per_layer"], w + " traced")

        proc, result = run(base + ["--trace", "0", "--corrupt"])
        check(proc.returncode != 0 and result is not None
              and not result["correct"] and result["failed"] >= 1,
              "%s corrupted result trips the correctness check" % w)

    # A directory with only BENCHMARK.json and the benchmark's files must
    # fail without printing a result (the library sources are missing).
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc, result = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=bare, env=env)
    check(proc.returncode != 0 and result is None,
          "benchmark alone (no library sources) exits nonzero without a result")
    shutil.rmtree(bare, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

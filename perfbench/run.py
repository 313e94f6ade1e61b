#!/usr/bin/env python3
"""End-to-end benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` driver from source (CMake, Release) into the build
directory ($CARGO_TARGET_DIR, default .bench_build at the repository root),
then runs it. Build output goes to stderr; the driver's stdout passes
through, and its last line is the JSON result. Extra driver flags
(--scale tiny, --corrupt) pass through unchanged.

    python3 perfbench/run.py --seed-scan [--seeds 1,2,3,42] [--workload <name>]

prints each workload's work counters per seed (the seed-stability check).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["oneshot_hacc3d", "serve_mixed", "session_window"]
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; run from a "
             "full checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(nproc())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def child_env():
    env = dict(os.environ)
    # Run the library's shipped defaults: no service, session, tracing or
    # kernel-backend knob leaks in from the caller's environment.
    for key in list(env):
        if key.startswith(("FDBSCAN_SERVICE_", "FDBSCAN_SESSION_")) or key in (
                "FDBSCAN_TRACE", "FDBSCAN_STATUSZ", "FDBSCAN_SIMD", "FDBSCAN_LOG",
                "FDBSCAN_LOG_LEVEL"):
            del env[key]
    # One CPU stays free for the service's dispatcher and runner threads,
    # the clients and the host: on a shared VM, kernels spread over every
    # CPU wait on whichever one the host preempts.
    env.setdefault("FDBSCAN_NUM_THREADS", str(max(1, nproc() - 1)))
    return env


def arg_value(args, flag, default=None):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def run_driver(binary, args):
    try:
        proc = subprocess.run([binary] + args, env=child_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode


def seed_scan(binary, args):
    seeds = arg_value(args, "--seeds", "1,2,3,42").split(",")
    only = arg_value(args, "--workload")
    code = 0
    for workload in [only] if only else WORKLOADS:
        for seed in seeds:
            code |= run_driver(binary, ["--seed-scan", "--workload", workload,
                                        "--seed", seed, "--seconds", "1"])
    return code


def main():
    args = sys.argv[1:]
    binary = build()
    if "--seed-scan" in args:
        return seed_scan(binary, args)
    if arg_value(args, "--trace") == "1" and "--trace-out" not in args:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (arg_value(args, "--workload", "run"),
                                   arg_value(args, "--seed", "0"))
        args = args + ["--trace-out", os.path.join(traces, name)]
    return run_driver(binary, args)


if __name__ == "__main__":
    sys.exit(main())

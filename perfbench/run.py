#!/usr/bin/env python3
"""Builds the middleware and the perfbench binary, then runs one workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root, as an optimized Release build; later runs rebuild
incrementally. The binary's stdout is passed through; its last line is the
JSON result ("all" runs the four workloads in turn, one process each). The
middleware's log output (stderr) goes to a file in the build directory.
Exits non-zero when the build fails, a correctness gate fails, or a result
line is missing.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ("bulk", "rpc", "ping_under_bulk", "gossip_10k")


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    # Configure once; "cmake --build" re-runs it when a CMakeLists changes.
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
                return None
    return os.path.join(build_dir, "perfbench")


def run_one(binary, build_dir, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, args.seed))]
    log_path = os.path.join(build_dir, "run-%s.log" % workload)
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=log,
                                  text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
            return 1
    lines = proc.stdout.splitlines()
    # Everything but the result line; the result is printed last.
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write("perfbench: binary exited with %d (log: %s)\n"
                         % (proc.returncode, log_path))
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write("perfbench: no result line (log: %s)\n" % log_path)
        return 1
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result.get("correct") is True else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_one(binary, build_dir, name, args) for name in names)


if __name__ == "__main__":
    sys.exit(main())

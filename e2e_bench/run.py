#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2e_bench/run.py --workload dblp-simplehgn --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout. It configures and builds
e2e_bench/CMakeLists.txt (the repository's libraries, the deployed
autoac_serve and the autoac_bench binary) into $CARGO_TARGET_DIR, default
.bench_build, then runs autoac_bench in a fresh work directory inside the
build tree. autoac_bench's last stdout line is the result JSON; this script
keeps from its "metrics" exactly the metrics BENCHMARK.json lists for the
mode (end_to_end without tracing, per_layer with it) and fails when one is
missing, so autoac_bench and BENCHMARK.json cannot drift apart.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "autoac_bench", "autoac_serve"])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out, see {log_path}")
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed: {' '.join(step)}")


def stop_group(pgid):
    """Kills whatever autoac_bench left in its process group and waits."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src", "cli", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to e2e_bench/; run from a full "
                 "checkout of the repository", code=2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)
    work_dir = os.path.join(build_dir, "run")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    command = [os.path.join(build_dir, "autoac_bench"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--serve_bin={os.path.join(build_dir, 'autoac', 'cli', 'autoac_serve')}",
               f"--work_dir={work_dir}"]
    bench = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = bench.communicate(timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(bench.pid)
        bench.communicate()
        fail(f"autoac_bench exceeded {BENCH_TIMEOUT_S} s")
    stop_group(bench.pid)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(out)
        fail(f"autoac_bench exited {bench.returncode} without a result")
    got = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in got]
    wrong_unit = [m["name"] for m in wanted
                  if m["name"] in got and got[m["name"]]["unit"] != m["unit"]]
    if missing or wrong_unit:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"autoac_bench and BENCHMARK.json disagree: missing {missing}, "
             f"unit differs {wrong_unit}")
    result["metrics"] = {m["name"]: got[m["name"]] for m in wanted}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    if bench.returncode == 0:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()

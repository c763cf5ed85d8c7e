#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the repository root):
  python3 e2e_bench/run.py --workload bigworld_batch --seed 1 \
      --seconds 24 --trace 0

The build goes to .bench_build/e2e_bench (an up-to-date build is a
no-op). Build output goes to stderr; the benchmark's report, whose last
line is one JSON object, goes to stdout. Exits non-zero without a report
when the build fails.

kgbench runs in a process group of its own. When it ends, any
process it left behind (a serve_model it could not stop) is killed with
the group, so no run outlives its command.
"""
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e_bench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)


def kill_group(pgid):
    """Kills what is left of kgbench's process group and waits (up
    to 10 s) until none of it remains."""
    for _ in range(200):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print("e2e_bench: build failed: %s" % err, file=sys.stderr)
        return 1
    sys.stdout.flush()
    bench = subprocess.Popen(
        [os.path.join(BUILD, "kgbench"), "--tools",
         os.path.join(BUILD, "kgag_tools")] + sys.argv[1:],
        cwd=ROOT, start_new_session=True)

    def forward(signum, _frame):
        kill_group(bench.pid)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    code = bench.wait()
    kill_group(bench.pid)
    return code


if __name__ == "__main__":
    sys.exit(main())

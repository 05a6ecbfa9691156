#!/usr/bin/env python3
"""Build and run the Spitz benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload ingest|read|mixed --seed N \
        --seconds S --trace 0|1

Builds perfbench/spitzbench.exe with dune (into the checkout's _build),
then runs it in a fresh process with a scratch directory inside the
checkout. The program's stdout is passed through; its last line is the
JSON result. Build output goes to stderr. Exits non-zero without a result
if the checkout cannot be built or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "spitzbench.exe")
WORK_ROOT = ".perfbench_work"
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["ingest", "read", "mixed"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the root of a Spitz source checkout", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "./perfbench/spitzbench.exe"],
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    # one scratch directory per run, so concurrent runs never share one
    work_dir = os.path.join(WORK_ROOT, str(os.getpid()))
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--dir", work_dir,
    ]
    try:
        # run() kills the child on timeout and waits for it
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())

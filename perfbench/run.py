"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload kronecker-n1 --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(worker.py) with numpy's BLAS pool pinned to one thread and a fixed hash
seed.  This process passes the spawn time, so that the child's set-up is timed
from its start, and prints the child's result line.  Exits non-zero,
printing no result, when the child fails or overruns.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   help="kronecker-n1, plane-n2, varying-n1 or foliation")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    runs = os.path.join(HERE, ".runs")
    out_dir = os.path.join(runs, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(runs, exist_ok=True)
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(spawned_at), "--out", out_dir]
    proc = subprocess.Popen(cmd, env={**os.environ, **PINNED_ENV},
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"workload overran {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"workload exited with {proc.returncode}", file=sys.stderr)
        return 1
    print(json.dumps(json.loads(lines[-1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())

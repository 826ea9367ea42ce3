"""Run one dwell benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root: the program is imported from ./src.  With
--trace 0 the result carries the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  Workloads: cli-mix, spectrum-deep,
sweep, oracle (see bench/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETUP_REPS = 3
WORKLOADS = ("cli-mix", "spectrum-deep", "sweep", "oracle")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


def bench_env(root: str) -> dict[str, str]:
    """Environment for the worker and every process it starts: BLAS and
    OpenMP pinned to one thread, ./src first on the import path."""
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for name in ("DWELL_CONSTANTS", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(name, None)
    return env


def run_worker(args, rep: int, setup_only: bool, env: dict, root: str) -> tuple[float, str]:
    """Start a worker; return (seconds until it reported ready, its stdout)."""
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--rep", str(rep)]
    cmd += ["--setup-only"] * setup_only + ["--tiny"] * args.tiny
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out = proc.stdout.read()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dwell", "__init__.py")):
        sys.stderr.write("run.py: no ./src/dwell here; run from the repository root\n")
        return 2
    env = bench_env(root)
    reps = 1 if args.trace else SETUP_REPS
    try:
        setups, out = [], ""
        for rep in range(reps):
            seconds, out = run_worker(args, rep, rep < reps - 1, env, root)
            setups.append(seconds)
        result = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        sys.stderr.write(f"run.py: {args.workload}: {exc}\n")
        return 1
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One benchmark process: set up a workload, say "ready", then measure.

Started by run.py from the repository root, with PYTHONPATH pointing at
./src and BLAS/OpenMP pinned to one thread.  A --setup-only worker stops
after "ready", so run.py can time set-up several times.  The last line of
stdout is the result as JSON (setup_s is added by run.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer

TAIL_PERCENTILE = 75

END_TO_END = (
    ("cli_latency_p50_s", "s"), ("cli_latency_tail_s", "s"), ("levels_per_s", "1/s"),
    ("sweep_rows_per_s", "1/s"), ("oracle_checks_per_s", "1/s"), ("failed_ops_frac", "frac"),
    ("peak_rss_mb", "MB"),
)

SELF_TIMES = (
    "spectrum.solve_below_barrier", "spectrum.verify_bounds", "spectrum.gap_sweep",
    "spectrum.find_b_for_gap", "dynamics.from_well", "wavefunction.build_eigenfunction",
    "wavefunction.dipole_matrix_element", "grid_oracle.build_grid_hamiltonian",
    "grid_oracle.lowest_eigenvalues", "grid_oracle.eigenvector", "dynamics.rk4_two_level",
)
PER_LAYER = (
    [(f"import.{m}_s", "s") for m in ("dwell", "scipy", "numpy")]
    + [(f"cli.{k}.{part}", "s") for k in workloads.CLI_KINDS for part in ("wall_p50_s", "compute_s")]
    + [(f"{name}.self_s", "s") for name in SELF_TIMES]
    + [("spectrum.levels", "count"), ("spectrum.iterations_per_level", "iter/level"),
       ("spectrum.degenerate_pairs", "count"), ("spectrum.find_b_for_gap.steps", "count"),
       ("grid_oracle.cells", "count"), ("dynamics.rk4_substeps", "count")]
    + [(f"ops.{s}", "count") for s in ("ok", "flagged", "wrong", "crashed")]
    + [("trace.overhead_frac", "frac")]
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rep", type=int, default=0, help="set-up repetition index")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-tests")
    return parser.parse_args(argv)


def measure(wl, seconds: float, trace: bool):
    """Replay rounds until about `seconds` have passed: stop once the next
    round would end more than half a round past the limit.  With tracing,
    rounds alternate untraced / traced and at least one of each runs."""
    tracer, off = Tracer(trace), Tracer(False)
    rounds = []  # (traced, ops, calls)
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        ops, calls = wl.run_round(tracer if traced else off, keep_payload=not rounds)
        rounds.append((traced, ops, calls))
        elapsed = time.perf_counter() - start
        enough = elapsed * (1.0 + 0.5 / len(rounds)) >= seconds
        if enough and (not trace or len(rounds) >= 2):
            return rounds, tracer


def distinct_ops(rounds) -> list:
    """One op per distinct input, in round order: the first repeat that did
    not end ok, else the first round's.  Counts of attempted and failed
    operations are over these, so they do not depend on how many rounds
    fitted in the run."""
    return [next((op for op in same if op.status != "ok"), same[0])
            for same in zip(*(ops for _, ops, _ in rounds))]


def quantile(samples, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of all
    order statistics.  It is steadier than a single order statistic when
    the samples are few or come from inputs of different sizes."""
    from scipy.special import betainc  # here, so set-up does not import it for dwell

    x = np.sort(samples)
    n = len(x)
    weights = np.diff(betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n))
    return float(weights @ x)


def end_to_end(wl, rounds, cli: bool) -> dict[str, float]:
    """Rates are medians over rounds of work / busy time, which damps the
    seconds-long slow phases of a shared machine; latencies pool every
    call (or every round, for a workload whose round is one study)."""
    ops = distinct_ops(rounds)
    busy = [sum(dt for _, dt in calls) for _, _, calls in rounds]
    if wl.latency_per_round:
        samples = busy
    else:
        samples = [dt for _, _, calls in rounds for _, dt in calls]

    def rate(field: str) -> float:
        return statistics.median(sum(getattr(op, field) for op in round_ops) / seconds
                                 for (_, round_ops, _), seconds in zip(rounds, busy))

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    return {
        "cli_latency_p50_s": quantile(samples, 0.5),
        "cli_latency_tail_s": quantile(samples, TAIL_PERCENTILE / 100),
        "levels_per_s": rate("levels"),
        "sweep_rows_per_s": rate("splittings"),
        "oracle_checks_per_s": rate("checks"),
        "failed_ops_frac": sum(op.status != "ok" for op in ops) / len(ops),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def per_layer(wl, rounds, tracer, extras_tracer, extras, root) -> dict[str, float]:
    traced = [(ops, calls) for t, ops, calls in rounds if t]
    untraced = [(ops, calls) for t, ops, calls in rounds if not t]
    values = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    for name, seconds in tracer.self_times().items():
        values[f"{name}.self_s"] = seconds / len(traced)
    for name, seconds in extras_tracer.self_times().items():
        values[f"{name}.self_s"] = values.get(f"{name}.self_s", 0.0) + seconds
    values.update(wl.round_counts(rounds[0][1]))
    ops = distinct_ops(rounds)
    for status in ("ok", "flagged", "wrong", "crashed"):
        values[f"ops.{status}"] = sum(op.status == status for op in ops)
    busy = [sum(dt for _, dt in calls) for _, calls in traced], \
        [sum(dt for _, dt in calls) for _, calls in untraced]
    values["trace.overhead_frac"] = statistics.median(busy[0]) / statistics.median(busy[1]) - 1.0
    values.update(extras)
    values.update(workloads.import_times(root))
    return {name: values[name] for name, _ in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    import dwell
    if Path(dwell.__file__).resolve().parent != Path(root, "src", "dwell").resolve():
        sys.stderr.write(f"worker: dwell imported from {dwell.__file__}, not ./src\n")
        return 2

    wl = workloads.make(args.workload, args.seed, args.tiny, root)
    cli = args.workload == "cli-mix"
    if cli:  # each set-up repetition warms a different argv
        wl.warm_up([workloads.CLI_KINDS[args.rep % len(workloads.CLI_KINDS)]])
    else:
        wl.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if cli:
        wl.warm_up([k for k in workloads.CLI_KINDS if k not in workloads.CLI_KINDS[:args.rep]])

    rounds, tracer = measure(wl, args.seconds, bool(args.trace))
    extras_tracer = Tracer(bool(args.trace))
    calls = [c for _, _, round_calls in rounds for c in round_calls]
    extras = wl.trace_extras(extras_tracer, calls) if args.trace else {}
    wl.finish([ops for _, ops, _ in rounds])

    ops = distinct_ops(rounds)
    failed = [op for op in ops if op.status != "ok"]
    summary: dict[tuple, list] = {}
    for op in failed:
        summary.setdefault((op.probe, op.kind, op.status), []).append(op.detail)
    for (probe, kind, status), details in summary.items():
        sys.stderr.write(f"{'probe' if probe else 'CONTROL'} {kind} {status} x{len(details)}, "
                         f"e.g. {details[0][:160]}\n")
    if args.trace:
        metrics = per_layer(wl, rounds, tracer, extras_tracer, extras, root)
        units = dict(PER_LAYER)
        out = Path(root, "bench", "out")
        out.mkdir(exist_ok=True)
        with open(out / f"trace-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as f:
            json.dump({"environment": workloads.environment(), "metrics": metrics,
                       "spans": tracer.as_records() + extras_tracer.as_records()}, f)
    else:
        metrics = end_to_end(wl, rounds, cli)
        units = dict(END_TO_END)
    sys.stderr.write(f"environment: {json.dumps(workloads.environment())}\n")
    result = {
        "correct": not any(op.status == "wrong" and not op.probe
                           for _, round_ops, _ in rounds for op in round_ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

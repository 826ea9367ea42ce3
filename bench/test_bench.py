"""Self-tests of the benchmark: each checker rejects a corrupted result, and
every workload completes a tiny run with a well-formed result line.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def first_ok(ops, kind=None):
    return next(op for op in ops if op.status == "ok" and not op.probe
                and (kind is None or op.kind == kind))


@pytest.fixture(scope="module")
def spectrum_round():
    wl = workloads.SpectrumDeep(seed=5, tiny=True)
    return wl, wl.run_round(Tracer(False), keep_payload=True)[0]


@pytest.fixture(scope="module")
def oracle_round():
    wl = workloads.Oracle(seed=5, tiny=True)
    return wl, wl.run_round(Tracer(False), keep_payload=True)[0]


def test_spectrum_checker_rejects_eps_perturbed_by_1e_9(spectrum_round):
    wl, ops = spectrum_round
    good, bad = first_ok(ops), first_ok(ops)
    good = workloads.Op(**{**good.__dict__})
    index, eps, residuals, kappa, lam, holds = bad.payload
    eps = eps.copy()
    eps[len(eps) // 2] *= 1.0 + 1e-9
    bad = workloads.Op(**{**bad.__dict__, "payload": (index, eps, residuals, kappa, lam, holds)})
    wl.check([good, bad])
    assert good.status == "ok"
    assert bad.status == "wrong" and "certificate" in bad.detail


def test_spectrum_checker_rejects_a_missing_level(spectrum_round):
    wl, ops = spectrum_round
    index, eps, residuals, kappa, lam, holds = first_ok(ops).payload
    assert ref.check_spectrum(index[:-1], eps[:-1], residuals[:-1], kappa, lam, holds)[0]


def test_table1_checker_rejects_one_altered_cell():
    import dwell.cli
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert dwell.cli.main(["table1"]) == 0
    assert ref.check_table1(*ref.parse_cli(text.getvalue(), "csv")[:2], 1e-8) == []
    lines = text.getvalue().splitlines()
    cells = lines[3].split(",")
    cells[1] = f"{float(cells[1]) * (1 + 2e-4):.9g}"  # E0 of the third row
    lines[3] = ",".join(cells)
    assert ref.check_table1(*ref.parse_cli("\n".join(lines), "csv")[:2], 1e-8)


def test_oracle_checker_rejects_one_shifted_grid_eigenvalue(oracle_round):
    wl, ops = oracle_round
    op = first_ok(ops)
    payload = list(op.payload)
    grid = payload[1].copy()
    grid[2] *= 1.0 + 1e-3
    payload[1] = grid
    good = workloads.Op(**{**op.__dict__})
    bad = workloads.Op(**{**op.__dict__, "payload": tuple(payload)})
    wl.check([good, bad])
    assert good.status == "ok"
    assert bad.status == "wrong" and "grid eigenvalue" in bad.detail


def test_oracle_checker_rejects_one_shifted_rk4_sample(oracle_round):
    wl, ops = oracle_round
    op = first_ok(ops)
    payload = list(op.payload)
    p1 = payload[6].copy()
    p1[len(p1) // 2] += 1e-5
    payload[6] = p1
    bad = workloads.Op(**{**op.__dict__, "payload": tuple(payload)})
    wl.check([bad])
    assert bad.status == "wrong" and "RK4" in bad.detail


def test_sweep_checker_rejects_a_perturbed_splitting():
    wl = workloads.Sweep(seed=5, tiny=True)
    ops, _ = wl.run_round(Tracer(False), keep_payload=True)
    row = first_ok(ops, "row")
    b, e0, delta_e = row.payload
    bad = workloads.Op(**{**row.__dict__, "payload": (b, e0, delta_e * (1.0 + 1e-5))})
    wl.check([row, bad])
    assert row.status == "ok"
    assert bad.status == "wrong" and "splitting" in bad.detail


def test_counts_are_over_distinct_inputs():
    import worker
    ok, crashed = workloads.Op("row", False), workloads.Op("row", False, status="crashed")
    rounds = [(False, [ok, ok], []), (False, [ok, crashed], []), (False, [ok, ok], [])]
    assert [op.status for op in worker.distinct_ops(rounds)] == ["ok", "crashed"]


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["cli-mix", "spectrum-deep", "sweep", "oracle"])
def test_tiny_smoke_run(workload, trace):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_bench(str(tmp_path), "--workload", "sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""

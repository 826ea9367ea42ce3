"""Property tests.  Over the whole (kappa, lambda) domain every well either
solves to a spectrum that meets every guaranteed bound, or raises a
DwellError; no other exception escapes.  The grid oracle's cyclic-reduction
inertia counts the eigenvalues below any shift as stebz does.  Every CLI
command ends in one of its exit channels, and repeats itself byte for byte."""

import contextlib
import functools
import io
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dwell import (  # noqa: E402
    ScaledWell,
    SpectrumResult,
    WellSpec,
    solve_below_barrier,
    verify_bounds,
)
from dwell.cli import _COMMANDS, main  # noqa: E402
from dwell.errors import DwellError  # noqa: E402
from dwell.spectrum import level_count  # noqa: E402


def _ulps_above(x: float, k: int) -> float:
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    return x


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(kappa=st.floats(math.log(0.25), math.log(1e4)).map(math.exp),
       lam=st.floats(-320.0, 2.0).map(lambda p: 10.0 ** p))
@example(kappa=_ulps_above(0.25, 1), lam=1.0)
@example(kappa=_ulps_above(2.25, 1), lam=0.1)
@example(kappa=_ulps_above(2.25, 8), lam=0.1)
@example(kappa=_ulps_above(30.25, 3), lam=1e-8)
@example(kappa=_ulps_above(1056.25, 2), lam=1e2)
@example(kappa=_ulps_above(9900.25, 5), lam=0.01)
@example(kappa=179.7514346070671, lam=1.5674681681252858e-13)  # PoleCollision at pair 0
@example(kappa=40.0, lam=1e-300)  # BarrierUnderflow
def test_every_well_solves_within_bounds_or_raises_a_dwell_error(kappa, lam):
    assume(kappa > 0.25)  # exp(log(1/4)) may round onto 1/4, where no level exists
    try:
        result = solve_below_barrier(ScaledWell(kappa, lam))
    except DwellError:
        return
    assert isinstance(result, SpectrumResult)
    assert verify_bounds(result).all_hold
    assert len(result.levels) == level_count(ScaledWell(kappa, lam))  # the CLI's count


@functools.cache
def _grid_block(n: int, even: bool):
    # one scaled parity block of the table-1 grid, with all its eigenvalues by stebz
    from scipy.linalg import eigh_tridiagonal

    from dwell import TABLE1_WELL, build_grid_hamiltonian
    from dwell.grid_oracle import _parity_block

    diag, off, _, _ = _parity_block(build_grid_hamiltonian(TABLE1_WELL, n), even)
    return diag, off, eigh_tridiagonal(diag, off, eigvals_only=True, lapack_driver="stebz")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(n=st.sampled_from([400, 401, 2000, 2001]), even=st.booleans(),
       p=st.floats(-1.0, 6.0))
@example(n=401, even=True, p=-1.0)  # below the spectrum: no negative pivot
@example(n=2001, even=False, p=6.0)  # above it: every pivot negative
def test_cyclic_reduction_inertia_matches_stebz(n, even, p):
    from dwell.grid_oracle import _cyclic_reduction

    diag, off, eigenvalues = _grid_block(n, even)
    shift = 10.0 ** p - 0.5
    # a shift within roundoff of an eigenvalue has no well-defined count
    assume(np.min(np.abs(eigenvalues - shift)) > 1e-9 * eigenvalues[-1])
    below = int(np.searchsorted(eigenvalues, shift))
    assert _cyclic_reduction(diag - shift, off, keep=False)[1] == below


def _log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda p: 10.0 ** p)


def _run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _quantity(lo: float):
    """An optional flag value: absent, log-uniform from 10^lo up to 1e300, or
    the text 1e400, which parses to inf."""
    return st.one_of(st.none(), _log_uniform(lo, 300.0).map(repr), st.just("1e400"))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(command=st.sampled_from(sorted(_COMMANDS)), a=_log_uniform(-10.0, -3.0),
       b=_log_uniform(-11.0, -4.0), k=_log_uniform(-30.0, -16.0), m=_log_uniform(-31.0, -24.0),
       grid_n=st.integers(1, 3000), t_steps=st.integers(1, 50), oracle=st.booleans(),
       fmt=st.sampled_from(["csv", "json"]), t_max=_quantity(-15.0),
       drive_amp=_quantity(-40.0), drive_omega=_quantity(-3.0), delta=_quantity(-40.0))
# A/hbar overflows to inf, where (R1/R0)^2 would fill every row with nan
@example(command="rabi", a=1e-6, b=1e-7, k=2e-24, m=9.1e-31, grid_n=2000, t_steps=3,
         oracle=False, fmt="csv", t_max=None, drive_amp="1e300", drive_omega=None, delta=None)
def test_every_command_ends_in_an_exit_channel_and_repeats_itself(
        command, a, b, k, m, grid_n, t_steps, oracle, fmt, t_max, drive_amp, drive_omega, delta):
    # kappa <= 1e6 bounds the work of the commands that solve every level
    assume(k <= 1e6 * WellSpec(a, b, k, m).barrier_bound)
    argv = [command, "--a", repr(a), "--b", repr(b), "--k", repr(k), "--m", repr(m),
            "--grid-n", str(grid_n), "--t-steps", str(t_steps), "--format", fmt]
    argv += ["--oracle"] if oracle else []
    for flag, value in (("--t-max", t_max), ("--drive-amp", drive_amp),
                        ("--drive-omega", drive_omega), ("--delta", delta)):
        argv += [flag, value] if value is not None else []
    code, out, err = _run_main(argv)
    assert code in (0, 1, 2)
    if out and fmt == "json":
        payload = json.loads(out)
        has_error_record = any(r["type"] == "error" for r in payload["records"])
        cells = [cell for row in payload["rows"] for cell in row]
        nan = None
    else:
        has_error_record = "\n# error: " in out
        cells = [cell for line in out.splitlines()[1:] if not line.startswith("#")
                 for cell in line.split(",")]
        nan = "nan"
    if code == 0 and command in ("dynamics", "rabi"):
        assert nan not in cells
    if code == 1:
        assert (out and has_error_record and not err) or (
            not out and err.startswith("error: ") and err.count("\n") == 1
            and err.endswith("\n"))
    if code == 2:
        assert not out and err.startswith("config error: ") and err.count("\n") == 1
    assert _run_main(argv) == (code, out, err)

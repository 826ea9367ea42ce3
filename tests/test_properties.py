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
    to_dimensionless,
    verify_bounds,
)
from dwell.cli import _COMMANDS, _OPTIONS, main  # noqa: E402
from dwell.errors import DwellError  # noqa: E402
from dwell.spectrum import _FLAT_X, level_count  # noqa: E402


def _ulps_above(x: float, k: int) -> float:
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    return x


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(kappa=st.floats(math.log(0.25), math.log(1e6)).map(math.exp),
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
    # a flat pair (bracket top at the cot pole, x >= _FLAT_X there) copies its even root
    levels = {level.index: level for level in result.levels}
    report = {d.index: d for d in result.solver_report}
    for n in range(len(result.levels) // 2):
        if (n + 1) ** 2 < kappa and math.pi * lam * math.sqrt(kappa - (n + 1) ** 2) >= _FLAT_X:
            assert levels[2 * n + 1].eps == levels[2 * n].eps
            assert report[2 * n + 1][1:] == report[2 * n][1:]


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
    """An optional flag value: absent or log-uniform from 10^lo up to 1e300,
    and in one draw in 20 the text 1e400, which parses to inf.  A larger
    share would stop most draws of the commands that read several
    quantities on that config error, before they compute anything."""
    value = st.one_of(st.none(), _log_uniform(lo, 300.0).map(repr))
    return st.integers(1, 20).flatmap(lambda i: st.just("1e400") if i == 20 else value)


def _reads(command: str, oracle: bool) -> list[str]:
    """The options command reads besides format and out; spectrum reads
    grid_n only with oracle."""
    reads = _COMMANDS[command][1].split()
    return [key for key in reads if key != "grid_n" or oracle or "oracle" not in reads]


# A well of every command's reading path that must exit 0: the table-1 well,
# on a grid fine enough for the oracle check's 1e-4
_REFERENCE = {"a": 1e-6, "b": 1e-7, "k": 2e-24, "m": 9.1e-31, "grid_n": 20_000, "t_steps": 3,
              "oracle": True, "t_max": None, "drive_amp": None, "drive_omega": None,
              "delta": None}


def _scale(reference: float):
    """A well scale: log-uniform over the whole float range, or, in the draws
    that share near = True, within half a decade of the table-1 value, where
    most wells solve and the commands reach their output paths."""
    near = st.shared(st.booleans(), key="near")
    return near.flatmap(lambda near: _log_uniform(-0.5, 0.5).map(lambda f: reference * f)
                        if near else _log_uniform(-320.0, 300.0))


def _on_every_command(test):
    for command in sorted(_COMMANDS):
        test = example(command=command, fmt="csv", unread=None, **_REFERENCE)(test)
    return test


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(command=st.sampled_from(sorted(_COMMANDS)), fmt=st.sampled_from(["csv", "json"]),
       unread=st.one_of(st.none(), st.none(), st.integers(0, 12)),  # unread: a share of draws
       a=_scale(_REFERENCE["a"]), b=_scale(_REFERENCE["b"]),
       k=_scale(_REFERENCE["k"]), m=_scale(_REFERENCE["m"]),
       grid_n=st.integers(1, 3000), t_steps=st.integers(1, 50), oracle=st.booleans(),
       t_max=_quantity(-15.0), drive_amp=_quantity(-40.0), drive_omega=_quantity(-3.0),
       delta=_quantity(-40.0))
@_on_every_command
# A/hbar overflows to inf, where (R1/R0)^2 would fill every row with nan
@example(command="rabi", fmt="csv", unread=None, **{**_REFERENCE, "drive_amp": "1e300"})
# a flag value that overflows to inf: the first error, whatever else is drawn
@example(command="rabi", fmt="csv", unread=3, **{**_REFERENCE, "drive_omega": "1e400"})
# 2 m a^2 underflows to 0, so B = pi^2 hbar^2/(2 m a^2) is inf
@example(command="spectrum", fmt="csv", unread=None, **{**_REFERENCE, "a": 1e-200, "k": 1e-20})
# 16 m c a^2 underflows to 0 as well, so T_B is inf
@example(command="thermal", fmt="csv", unread=None,
         **{**_REFERENCE, "a": 7.84407459481502e-257, "b": 1.4019182046075838e+34,
            "k": 3.0202062922289437e-204, "m": 2.5524492553354014e-260})
def test_every_command_ends_in_an_exit_channel_and_repeats_itself(
        command, fmt, unread, a, b, k, m, grid_n, t_steps, oracle, t_max, drive_amp,
        drive_omega, delta):
    drawn = {"a": a, "b": b, "k": k, "m": m, "grid_n": grid_n, "t_steps": t_steps,
             "oracle": oracle, "t_max": t_max, "drive_amp": drive_amp,
             "drive_omega": drive_omega, "delta": delta}
    reads = _reads(command, oracle)
    if "k" in reads:
        # kappa <= 1e6 bounds the work of the commands that solve every level;
        # a well that cannot be scaled ends in its error record at once
        with contextlib.suppress(DwellError):
            assume(to_dimensionless(WellSpec(a, b, k, m)).kappa <= 1e6)
    argv = [command, "--format", fmt]
    for key in reads:
        flag, value = "--" + key.replace("_", "-"), drawn[key]
        if value is not None and value is not False:
            argv += [flag] if value is True else [flag, str(value)]
    if unread is not None:
        # one option the command does not read: a configuration error
        others = [key for key in _OPTIONS if key not in ("format", "out", *reads)]
        key = others[unread % len(others)]
        argv += ["--" + key.replace("_", "-")] + ([] if key == "oracle" else ["1"])
    code, out, err = _run_main(argv)
    assert code in (0, 1, 2)
    if drawn == _REFERENCE and unread is None:
        assert code == 0, argv
    if "1e400" in argv:  # an overflowing value is the first error, before an unread key
        assert (code, out, err) == (2, "", "config error: quantity '1e400' (flag) is not finite\n")
    elif unread is not None:
        mode = " without oracle" if command == "spectrum" and not oracle else ""
        assert (code, err) == (2, f"config error: {command}{mode} does not read {key} (flag)\n")
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

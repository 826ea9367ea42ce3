"""The certified sign walk in _refine_root against plain bisection.

With the phase-form scout forced to return None, certification fails and
every bisection midpoint is evaluated: that is the reference loop.  The
walk must reproduce its levels, iterations, residuals and flags bit for
bit, or raise the same error, and a wrong scout must be caught by the
certificate rather than change an output.
"""

from __future__ import annotations

import math

import pytest

import dwell.spectrum as spectrum
from dwell import ScaledWell, solve_below_barrier
from dwell.errors import DwellError


def _above(kappa: float, ulps: int) -> float:
    for _ in range(ulps):
        kappa = math.nextafter(kappa, math.inf)
    return kappa


WELLS = [
    # deep wells, kappa in [1e3, 1e6]
    (1e3, 0.3), (3.7e3, 0.012), (1.2e4, 0.9), (4.5e4, 0.05), (2.1e5, 0.2), (1e6, 0.03),
    # threshold wells 1, 3 and 8 ulp above (n + 1/2)^2: the top bracket is a few ulp wide
    *((_above((n + 0.5) ** 2, ulps), 0.1) for n in (3, 12, 40) for ulps in (1, 3, 8)),
    # top pair capped by the cot pole 1600 just below kappa
    (1610.0, 0.1), (1610.0, 0.6),
    # the stalled-Newton wells: an inverted pair 438, and pair 149 left at residual 2e-6
    (248795.34095324992, 0.014441382492667404),
    (102437.77554226437, 0.07973093676576264),
]


def _outcome(kappa: float, lam: float):
    try:
        result = solve_below_barrier(ScaledWell(kappa, lam))
    except DwellError as exc:
        return type(exc).__name__, str(exc), exc.pair_index
    report = {d.index: d for d in result.solver_report}
    return [(lv.index, lv.parity, lv.eps.hex(), report[lv.index].iterations,
             report[lv.index].residual.hex(), report[lv.index].degenerate_pair)
            for lv in result.levels]


def _counted(monkeypatch) -> list[int]:
    calls = [0]
    f_and_deriv = spectrum._f_and_deriv

    def counting(*args):
        calls[0] += 1
        return f_and_deriv(*args)

    monkeypatch.setattr(spectrum, "_f_and_deriv", counting)
    return calls


def _plain_bisection(kappa: float, lam: float, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(spectrum, "_phase_scout", lambda *args: None)
        calls = _counted(m)
        return _outcome(kappa, lam), calls[0]


@pytest.mark.parametrize("well", WELLS, ids=repr)
def test_walk_is_bit_identical_to_plain_bisection(well, monkeypatch):
    reference, plain_calls = _plain_bisection(*well, monkeypatch)
    calls = _counted(monkeypatch)
    assert _outcome(*well) == reference
    if isinstance(reference, list) and len(reference) > 100:
        assert calls[0] < 0.4 * plain_calls  # the walk skips most evaluations


def test_certified_band_gives_the_sign_at_the_lower_end(monkeypatch):
    # kappa = 1e4, lambda = 0.1: 200 levels.  The band also certifies
    # F((n+1/2)^2) < 0, so no root evaluates F at its bracket's lower end;
    # evaluating it there would cost one call per level, 1897 in all
    calls = _counted(monkeypatch)
    assert len(solve_below_barrier(ScaledWell(1e4, 0.1)).levels) == 200
    assert calls[0] == 1697


def _delta(r: float) -> float:
    return spectrum._BAND_ULPS * math.ulp(r) + spectrum._BAND_ABS


@pytest.mark.parametrize("wrong", [
    lambda r: r * (1.0 + 1e-6), lambda r: r * (1.0 - 1e-6),
    lambda r: r + 10.0 * _delta(r), lambda r: r - 10.0 * _delta(r),
], ids=["r(1+1e-6)", "r(1-1e-6)", "r+10delta", "r-10delta"])
@pytest.mark.parametrize("well", [(1e3, 0.3), (4.5e4, 0.05), (1610.0, 0.1)], ids=repr)
def test_certificate_rejects_a_wrong_scout(well, wrong, monkeypatch):
    reference, _ = _plain_bisection(*well, monkeypatch)
    scout = spectrum._phase_scout
    band = spectrum._certified_band
    bands = []

    def wrong_scout(*args):
        r = scout(*args)
        return None if r is None else wrong(r)

    def recorded_band(*args):
        bands.append(band(*args))
        return bands[-1]

    monkeypatch.setattr(spectrum, "_phase_scout", wrong_scout)
    monkeypatch.setattr(spectrum, "_certified_band", recorded_band)
    assert _outcome(*well) == reference
    assert bands and all(b is None for b in bands)


@pytest.mark.parametrize("well", [(1e3, 0.3), (1610.0, 0.6), (2.1e5, 0.2)], ids=repr)
def test_scout_certifies_every_wide_bracket(well, monkeypatch):
    band = spectrum._certified_band
    bands = []
    monkeypatch.setattr(spectrum, "_certified_band",
                        lambda *args: bands.append(band(*args)) or bands[-1])
    solve_below_barrier(ScaledWell(*well))
    assert bands and all(b is not None for b in bands)

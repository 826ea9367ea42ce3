"""The certified sign walk in _refine_root against plain bisection.

With the phase-form scout forced to return None, certification fails and
every bisection midpoint is evaluated: that is the reference loop.  The
walk must reproduce its levels, iterations, residuals and flags bit for
bit, or raise the same error, and a wrong scout must be caught by the
certificate rather than change an output.

The flat-pair shortcut, which copies the even root of a pair whose barrier
term rounds to 1 for both parities, is checked the same way against the
full odd solve, with _FLAT_X set to inf.
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
    # evaluating it there would cost one call per level, 1897 in all, with
    # every odd root solved.  Pairs 0-70 are flat, and skipping their odd
    # solves leaves 1075
    for flat_x, expected in [(math.inf, 1697), (spectrum._FLAT_X, 1075)]:
        with monkeypatch.context() as m:
            m.setattr(spectrum, "_FLAT_X", flat_x)
            calls = _counted(m)
            assert len(solve_below_barrier(ScaledWell(1e4, 0.1)).levels) == 200
            assert calls[0] == expected, flat_x


def _flat_pairs(kappa: float, lam: float) -> set[int]:
    # pairs whose bracket top is the cot pole, with x >= _FLAT_X there
    return {n for n in range(math.isqrt(int(kappa)) + 1)
            if (n + 1) ** 2 < kappa and math.pi * lam * math.sqrt(kappa - (n + 1) ** 2)
            >= spectrum._FLAT_X}


def _odd_solves(kappa: float, lam: float, monkeypatch):
    # the outcome, and the pairs whose odd root _refine_root was asked for
    refine = spectrum._refine_root
    pairs = set()

    def recorded(*args):
        if args[4] == "odd":
            pairs.add(args[5])
        return refine(*args)

    with monkeypatch.context() as m:
        m.setattr(spectrum, "_refine_root", recorded)
        return _outcome(kappa, lam), pairs


# pair 0 of the last well has x = 21.5 at its bracket top: float-degenerate, yet solved twice
FLAT_WELLS = [*WELLS, (1e4, 0.1), (1e4, 21.5 / (math.pi * math.sqrt(1e4 - 1.0)))]


@pytest.mark.parametrize("well", FLAT_WELLS, ids=repr)
def test_flat_pair_copies_the_even_root_bit_for_bit(well, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(spectrum, "_FLAT_X", math.inf)  # the reference: every odd root solved
        reference, every_odd = _odd_solves(*well, monkeypatch)
    outcome, odd_solved = _odd_solves(*well, monkeypatch)
    assert outcome == reference
    assert odd_solved == every_odd - _flat_pairs(*well)  # skipped on every flat pair, only there


def test_flat_pairs_of_the_deep_and_the_near_threshold_well():
    assert _flat_pairs(1e4, 0.1) == set(range(71))  # pairs 71-99 are solved twice
    assert not _flat_pairs(*FLAT_WELLS[-1])


@pytest.mark.parametrize("x", [spectrum._FLAT_X, *(10.0 ** (k / 8) for k in range(11, 25))],
                         ids=repr)
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_barrier_term_is_flat_from_flat_x_on(x, parity):
    lam = 1.0
    u = x / math.pi
    while math.pi * lam * u < x:
        u = math.nextafter(u, math.inf)
    t, x_dt = spectrum._barrier_term(u, lam, parity)
    assert t == 1.0
    assert t + x_dt == 1.0


def test_barrier_term_is_not_flat_below_the_threshold():
    # x = 20 < 20.93: coth's T + x T' still differs from 1, so the constant is not vacuous
    t, x_dt = spectrum._barrier_term(20.0 / math.pi, 1.0, "odd")
    assert t + x_dt != 1.0


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

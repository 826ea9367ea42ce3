import json
import math

import numpy as np
import pytest

import dwell.spectrum as spectrum
from dwell import (
    ScaledWell,
    WellSpec,
    find_b_for_gap,
    gap01,
    gap_sweep,
    solve_below_barrier,
    to_dimensionless,
    verify_bounds,
)
from dwell.errors import (
    BarrierUnderflow,
    BracketFailure,
    ConvergenceFailure,
    DegenerateGap,
    NotReached,
    PoleCollision,
)
from dwell.spectrum import (BoundCheck, BoundReport, EnergyLevel, Gap01, GapSearchResult,
                            LevelDiagnostics, SpectrumResult, SweepRow, _cot, _f_and_deriv,
                            _refine_root, level_count)

# frozen from an independent 50-digit evaluation
G_AT_089 = 5.2493156196093767     # g(0.89)
H_AT_089 = 6.2537988455015496     # h(0.89; kappa=40, lambda=0.8)
J_AT_089 = 6.2537988455021069     # j(0.89; kappa=40, lambda=0.8)
EPS0_FORTY = 0.90612969164553877  # even root, pair 0, kappa=40, lambda=0.8
EPS0_TABLE = 0.892275120405       # pair 0 at kappa=33.1968533517, lambda=0.1
EPS1_TABLE = 0.902704049718
GAP_TABLE_ROW1 = 6.283083e-28     # J, from the same evaluation

# published reference energies for the 100 nm row
E0_REPORTED = 5.3753895e-26
E1_REPORTED = 5.4382093e-26


def _condition_functions(eps: float, kappa: float, lam: float) -> tuple[float, float, float]:
    """(g, h, j) at eps, read off the kernel: g from _cot, and h and j as
    g - F for F = g - h (even) and F = g - j (odd)."""
    s, _, cot = _cot(eps)
    g = -s * cot
    return (g, g - _f_and_deriv(eps, kappa, lam, "even")[0],
            g - _f_and_deriv(eps, kappa, lam, "odd")[0])


def test_condition_functions_reference_point():
    g, h, j = _condition_functions(0.89, 40.0, 0.8)
    assert g == pytest.approx(G_AT_089, rel=1e-13)
    assert h == pytest.approx(H_AT_089, rel=1e-13)
    assert j == pytest.approx(J_AT_089, rel=1e-13)
    assert j > h


def test_condition_functions_quarter():
    s, _, cot = _cot(0.25)
    assert abs(-s * cot) < 1e-15  # g = 0, since cot(pi/2) = 0


def test_condition_functions_wide_barrier_coalescence():
    # tanh and coth both go to 1, so h and j collapse onto sqrt(kappa - eps)
    g, h, j = _condition_functions(0.9, 40.0, 50.0)
    assert h == pytest.approx(math.sqrt(39.1), rel=1e-12)
    assert j == pytest.approx(math.sqrt(39.1), rel=1e-12)
    assert h <= j


@pytest.mark.parametrize("eps", [1.0, 4.0, 9.0])
def test_condition_functions_pole(eps):
    with pytest.raises(PoleCollision):
        _cot(eps)
    for parity in ("even", "odd"):
        with pytest.raises(PoleCollision):
            _f_and_deriv(eps, 40.0, 0.8, parity)


def test_refine_root_rejects_a_bracket_without_a_sign_change():
    # F > 0 on the whole bracket: the even root of pair 0 is at 0.9061
    with pytest.raises(BracketFailure, match="no sign change for the even condition"):
        _refine_root(0.95, 0.999, 40.0, 0.8, "even", 0)


def test_spectrum_result_ties_only_the_members_of_a_flagged_pair():
    levels = tuple(EnergyLevel(i, ("even", "odd")[i % 2], eps, math.nan)
                   for i, eps in enumerate((0.9, 1.0, 1.0, 1.0)))
    report = tuple(LevelDiagnostics(i, 0, 0.0, i // 2 == 1) for i in range(4))
    with pytest.raises(ValueError, match="levels 1,2 are not increasing"):
        SpectrumResult(levels, ScaledWell(40.0, 0.8), report)
    tied = levels[:1] + (EnergyLevel(1, "odd", 0.95, math.nan),) + levels[2:]
    assert SpectrumResult(tied, ScaledWell(40.0, 0.8), report).eps_values == (0.9, 0.95, 1.0, 1.0)


@pytest.mark.parametrize("record", [
    EnergyLevel(0, "even", 0.9, 5.4e-26),
    LevelDiagnostics(0, 7, 1e-14, False),
    BoundCheck("window: eps0 > 1/4", True, 0.65),
    BoundReport((BoundCheck("window: eps0 > 1/4", True, 0.65),)),
    Gap01(6.3e-28, 1.05e-6),
    SweepRow(1e-7, 5.4e-26, 5.5e-26, 6.3e-28, 1.05e-6),
    GapSearchResult(2e-7, 1e-29, 0.9, 0.9, 0.1, 131.0, True, 3),
], ids=lambda record: type(record).__name__)
def test_records_are_immutable_and_compare_field_by_field(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        assert record._replace(**{name: object()}) != record
    with pytest.raises(AttributeError):
        record.extra = 0
    copy = type(record)(**{name: getattr(record, name) for name in record._fields})
    assert copy == record and hash(copy) == hash(record)
    assert record == tuple(record)  # a record is a tuple: iterable, indexable, equal to one


def test_solve_pair_reference_row(table_well):
    even, odd = solve_below_barrier(to_dimensionless(table_well), 1).levels
    assert even.eps == pytest.approx(EPS0_TABLE, abs=1e-11)
    assert odd.eps == pytest.approx(EPS1_TABLE, abs=1e-11)
    assert even.energy == pytest.approx(E0_REPORTED, rel=1e-4)
    assert odd.energy == pytest.approx(E1_REPORTED, rel=1e-4)
    assert even.index == 0 and odd.index == 1
    assert even.parity == "even" and odd.parity == "odd"


def test_solve_pair_deeper_reference_rows(table_well):
    # frozen 50-digit values at b = 158.74011 nm and 251.98421 nm
    even, odd = solve_below_barrier(to_dimensionless(table_well.with_b(158.74011e-9)), 1).levels
    assert even.eps == pytest.approx(0.896963009389, abs=1e-11)
    assert odd.eps == pytest.approx(0.898242662559, abs=1e-11)
    even, odd = solve_below_barrier(to_dimensionless(table_well.with_b(251.98421e-9)), 1).levels
    assert even.eps == pytest.approx(0.897581642897, abs=1e-11)
    assert odd.eps == pytest.approx(0.897627461785, abs=1e-11)


def test_solve_pair_second_pair_reference(table_well):
    even, odd = solve_below_barrier(to_dimensionless(table_well), 2).levels[2:]
    assert even.eps == pytest.approx(3.56141116171, abs=1e-10)
    assert even.index == 2 and odd.index == 3
    assert 2.25 < even.eps < odd.eps < 4.0


def test_solve_pair_even_below_odd():
    for kappa, lam in [(33.2, 0.1), (12.0, 0.3), (60.0, 0.05)]:
        from dwell import ScaledWell

        even, odd = solve_below_barrier(ScaledWell(kappa, lam), 1).levels
        assert even.eps < odd.eps


def test_solve_pair_near_coalescence(deep_well):
    even, odd = solve_below_barrier(to_dimensionless(deep_well), 1).levels
    assert even.eps == pytest.approx(EPS0_FORTY, abs=1e-12)
    assert odd.eps >= even.eps
    assert odd.eps == pytest.approx(EPS0_FORTY, abs=1e-11)


def test_residuals_meet_invariant():
    for kappa, lam in [(10.0, 0.05), (33.2, 0.1), (40.0, 0.8), (100.0, 0.4)]:
        from dwell import ScaledWell

        result = solve_below_barrier(ScaledWell(kappa, lam))
        assert result.levels
        for diag in result.solver_report:
            assert diag.residual <= 1e-12


def test_pair_brackets_hold():
    from dwell import ScaledWell

    for kappa, lam in [(15.0, 0.2), (40.0, 0.8), (70.0, 0.12)]:
        result = solve_below_barrier(ScaledWell(kappa, lam))
        levels = {lv.index: lv for lv in result.levels}
        pairs = 1 + max(levels) // 2
        for n in range(pairs):
            even = levels[2 * n]
            assert (n + 0.5) ** 2 < even.eps < (n + 1.0) ** 2
            if 2 * n + 1 in levels:
                assert even.eps <= levels[2 * n + 1].eps < (n + 1.0) ** 2


def test_empty_spectrum_below_threshold():
    from dwell import ScaledWell

    result = solve_below_barrier(ScaledWell(0.2, 1.0))
    assert result.levels == ()


def test_below_barrier_count_forty_b(deep_well):
    # (n+1/2)^2 < 40 admits pairs n = 0..5; the odd member of every pair
    # stays below the barrier here, so 12 levels total
    result = solve_below_barrier(to_dimensionless(deep_well))
    assert len(result.levels) == 12
    assert [lv.index for lv in result.levels] == list(range(12))


def test_single_even_level_near_threshold():
    from dwell import ScaledWell

    result = solve_below_barrier(ScaledWell(0.27, 1.0))
    assert [lv.index for lv in result.levels] == [0]
    report = verify_bounds(result)
    assert report.all_hold
    assert any(not c.applicable for c in report.checks)


def test_verify_bounds_reference_row(table_spectrum):
    report = verify_bounds(table_spectrum)
    assert report.all_hold
    eps = table_spectrum.eps_values
    assert 0.25 < eps[0] < eps[1] < 1.0
    # the published energies over the computed scale sit in the same window
    b_scale = table_spectrum.well.b_scale
    assert 0.25 < E0_REPORTED / b_scale < E1_REPORTED / b_scale < 1.0


def test_verify_bounds_holds_flagged_pairs_at_exact_ties():
    # kappa = 40, lambda = 2: all six pairs are flagged and clamped to ties
    result = solve_below_barrier(ScaledWell(40.0, 2.0))
    flagged = {d.index // 2 for d in result.solver_report if d.degenerate_pair}
    assert flagged == set(range(6))
    checks = {c.name: c for c in verify_bounds(result).checks}
    ties = ["window: eps1 > eps0",
            *(f"bracket pair {n}: eps_{2*n} < eps_{2*n+1}" for n in sorted(flagged))]
    for name in ties:
        assert checks[name].margin == 0.0 and checks[name].holds, name
    assert all(c.margin >= 0.0 for c in checks.values() if c.applicable)


def test_gap01_reference_row(table_spectrum):
    gap = gap01(table_spectrum)
    assert gap.delta_e == pytest.approx(GAP_TABLE_ROW1, rel=1e-6)
    hbar = table_spectrum.well.constants.hbar
    assert gap.tau == pytest.approx(2.0 * math.pi * hbar / gap.delta_e, rel=1e-15)
    assert gap.tau > 11e-9
    # published one-digit cells: dE = 6.3e-28 J, tau = 1.0 us
    assert gap.delta_e == pytest.approx(6.3e-28, rel=0.05)
    assert gap.tau == pytest.approx(1.05e-6, rel=0.05)


def test_gap01_degenerate(deep_well):
    wide = WellSpec(deep_well.a, 2.0 * deep_well.a, deep_well.k, deep_well.m,
                    deep_well.constants)
    result = solve_below_barrier(to_dimensionless(wide))
    with pytest.raises(DegenerateGap):
        gap01(result)


def test_shallow_well_without_odd_level_raises_bracket_failure_everywhere(table_well, capsys):
    # kappa = 0.5, lambda = 0.1: the even level lies below the barrier, the
    # odd one above it; every path to the lowest pair ends in gap01's raise
    from dwell import TwoLevelSystem
    from dwell.cli import main

    shallow = WellSpec(table_well.a, 100e-9, 0.5 * table_well.barrier_bound, table_well.m,
                       table_well.constants)
    assert shallow.k == pytest.approx(3.0e-26, rel=0.01)
    pair = solve_below_barrier(to_dimensionless(shallow), 1)
    assert [level.index for level in pair.levels] == [0]
    with pytest.raises(BracketFailure, match="no odd level below the barrier"):
        gap01(pair)
    with pytest.raises(BracketFailure, match="no odd level below the barrier"):
        TwoLevelSystem.from_well(shallow)
    (row,) = gap_sweep(shallow, [100e-9])
    assert row.error.startswith("BracketFailure: ")

    assert main(["dynamics", "--k", "3e-26J", "--format", "json"]) == 1
    (record,) = json.loads(capsys.readouterr().out)["records"]
    assert record["error_class"] == "BracketFailure"


def _count_probe_wells():
    """Seeded wells over kappa in [0.2, 3000] and lambda in [1e-3, 3], a
    third of them with kappa just below a square, where the barrier caps the
    top pair and its odd level may be missing, and threshold wells 1, 2 and
    8 ulp above (n+1/2)^2, whose top pair keeps only its even level."""
    rng = np.random.default_rng(22)
    wells = []
    for i in range(240):
        kappa = 10.0 ** rng.uniform(-0.7, 3.5)
        if i % 3 == 0:
            kappa = math.ceil(math.sqrt(kappa)) ** 2 * (1.0 - 10.0 ** rng.uniform(-6.0, -1.0))
        wells.append(ScaledWell(float(kappa), float(10.0 ** rng.uniform(-3.0, 0.5))))
    for n, lam in ((0, 0.3), (3, 0.01), (17, 1.0), (40, 0.1)):
        lo = (n + 0.5) ** 2
        wells += [ScaledWell(lo + k * math.ulp(lo), lam) for k in (1, 2, 8)]
    return wells


def test_level_count_matches_the_solve():
    missing_odd = 0
    for well in _count_probe_wells():
        levels = solve_below_barrier(well).levels
        assert level_count(well) == len(levels), well
        missing_odd += len(levels) % 2
    assert missing_odd >= 20  # the top odd level is counted out, not only in


@pytest.mark.parametrize("kappa", [0.1, 0.25, math.nextafter(0.25, 1.0), 2.25,
                                   math.nextafter(2.25, 3.0), 6.8e11])
def test_level_count_follows_the_loop_guard(kappa):
    # two levels per pair n with (n + 1/2)^2 < kappa, the top odd one maybe not
    pairs = 0
    while (pairs + 0.5) ** 2 < kappa:
        pairs += 1
    count = level_count(ScaledWell(kappa, 0.1))
    assert count in ((2 * pairs - 1, 2 * pairs) if pairs else (0,))


def test_gap_sweep_rows(table_well):
    b_values = [1e-7, 1.3e-7, 1.7e-7, 2.2e-7]
    rows = gap_sweep(table_well, b_values)
    assert len(rows) == 4
    assert all(r.error is None for r in rows)
    gaps = [r.delta_e for r in rows]
    assert all(x > y for x, y in zip(gaps, gaps[1:]))
    # log-convexity: divided differences of ln(gap) increase with b
    slopes = [(math.log(g2) - math.log(g1)) / (b2 - b1)
              for (g1, b1), (g2, b2) in zip(zip(gaps, b_values),
                                            zip(gaps[1:], b_values[1:]))]
    assert all(s2 > s1 for s1, s2 in zip(slopes, slopes[1:]))


def test_gap_sweep_log_convex_on_reference_rows(table_well):
    from dwell import TABLE1_B_VALUES

    rows = gap_sweep(table_well, list(TABLE1_B_VALUES))
    gaps = [r.delta_e for r in rows]
    assert all(x > y for x, y in zip(gaps, gaps[1:]))
    slopes = [(math.log(g2) - math.log(g1)) / (b2 - b1)
              for (g1, b1), (g2, b2) in zip(zip(gaps, TABLE1_B_VALUES),
                                            zip(gaps[1:], TABLE1_B_VALUES[1:]))]
    assert all(s2 > s1 for s1, s2 in zip(slopes, slopes[1:]))


def test_gap_sweep_deterministic(table_well):
    rows = gap_sweep(table_well, [1e-7, 1e-7])
    assert rows[0] == rows[1]


def test_gap_sweep_collects_errors(table_well):
    shallow = WellSpec(table_well.a, table_well.b, 1e-27, table_well.m,
                       table_well.constants)
    rows = gap_sweep(shallow, [1e-7])
    assert rows[0].error is not None


# frozen from the same 50-digit evaluation of the geometric search
FIND_B_EXPECTED = {
    1e-28: 154.2210825e-9,
    1e-29: 218.1015465e-9,
    1e-30: 282.8427125e-9,
}


@pytest.mark.parametrize("delta", sorted(FIND_B_EXPECTED))
def test_find_b_for_gap(table_well, delta):
    found = find_b_for_gap(delta, table_well)
    assert found.b == pytest.approx(FIND_B_EXPECTED[delta], rel=1e-9)
    assert found.gap < delta
    assert found.certified
    assert found.cot2 < found.cot2_bound
    # re-solve at the returned width and confirm
    even, odd = solve_below_barrier(to_dimensionless(table_well.with_b(found.b)), 1).levels
    assert odd.energy - even.energy < delta


def test_find_b_for_gap_bracketed_by_reference_rows(table_well):
    found = find_b_for_gap(1e-29, table_well)
    assert 216.01195e-9 < found.b < 251.98421e-9


def test_find_b_already_satisfied(table_well):
    found = find_b_for_gap(1e-26, table_well)  # row-1 gap is 6.3e-28
    assert found.b == table_well.b
    assert found.steps == 0


def test_find_b_not_reached(table_well):
    # the walk starts past its cap of b = 100 a
    with pytest.raises(NotReached):
        find_b_for_gap(1e-80, table_well.with_b(100.5 * table_well.a))


def test_find_b_requires_deep_regime(table_well):
    shallow = WellSpec(table_well.a, table_well.b, 2.0 * table_well.barrier_bound,
                       table_well.m, table_well.constants)
    with pytest.raises(ValueError):
        find_b_for_gap(1e-29, shallow)


@pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -1e-29])
def test_find_b_rejects_a_non_finite_or_non_positive_delta(table_well, delta):
    with pytest.raises(ValueError, match="delta must be finite and > 0"):
        find_b_for_gap(delta, table_well)


def test_cot_squared_monotone_on_band():
    eps = np.linspace(0.2501, 0.9999, 1000)
    v = np.array([_cot(e)[2] ** 2 for e in eps])
    w = eps * v
    assert np.all(np.diff(v) > 0)
    assert np.all(np.diff(w) > 0)


def test_solver_error_pair_index_names_failed_pair(table_well, monkeypatch):
    solve = spectrum._solve_pair_diagnosed

    def fail_pair_two(n, well):
        if n == 2:
            raise ConvergenceFailure("injected")
        return solve(n, well)

    monkeypatch.setattr(spectrum, "_solve_pair_diagnosed", fail_pair_two)
    with pytest.raises(ConvergenceFailure) as info:
        solve_below_barrier(to_dimensionless(table_well))
    assert info.value.pair_index == 2


def test_gap_sweep_lets_programming_errors_out(table_well, monkeypatch):
    def broken(n, well):
        raise RuntimeError("bug")

    monkeypatch.setattr(spectrum, "_solve_pair_diagnosed", broken)
    with pytest.raises(RuntimeError, match="bug"):
        gap_sweep(table_well, [1e-7])


def _level_bits(result):
    report = {d.index: d for d in result.solver_report}
    return [(lv.index, lv.parity, lv.eps.hex(), report[lv.index]) for lv in result.levels]


def _threshold_well(n: int, k: int) -> tuple[float, ScaledWell]:
    # kappa k ulp above (n+1/2)^2: the top pair's bracket is k ulp wide
    lo = (n + 0.5) ** 2
    return lo, ScaledWell(lo + k * math.ulp(lo), 0.1)


@pytest.mark.parametrize("k", [1, 2, 8])
@pytest.mark.parametrize("n", [0, 1, 4, 20])
def test_threshold_well_keeps_its_solved_pairs(n, k):
    # the top bracket is too narrow for _upper_eval_point's probe, so its
    # even level is bisected over the floats inside it
    lo, well = _threshold_well(n, k)
    result = solve_below_barrier(well)
    assert [level.index for level in result.levels] == list(range(2 * n + 1))
    assert _level_bits(result)[:2 * n] == _level_bits(solve_below_barrier(well, n))
    assert lo < result.levels[-1].eps <= well.kappa
    assert verify_bounds(result).all_hold


@pytest.mark.parametrize("k", [8, 10**6, 4 * 10**8])
def test_threshold_level_is_the_root_to_a_few_ulp(k):
    # the probe rounds onto kappa in top brackets up to about 5e8 ulp wide,
    # where the bracket's midpoint would miss the root by up to half of that
    mp = pytest.importorskip("mpmath").mp
    lo, well = _threshold_well(20, k)
    with mp.workdps(50):
        kappa, lam = mp.mpf(well.kappa), mp.mpf(well.lam)

        def f(eps):
            u = mp.sqrt(kappa - eps)
            return -mp.sqrt(eps) * mp.cot(mp.pi * mp.sqrt(eps)) - u * mp.tanh(mp.pi * lam * u)

        below, above = mp.mpf(lo), kappa
        for _ in range(200):
            mid = (below + above) / 2
            below, above = (mid, above) if f(mid) < 0 else (below, mid)
        root = float(below)
    level = solve_below_barrier(well).levels[-1]
    assert abs(level.eps - root) <= 4 * math.ulp(lo)


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("eps", [0.9, 3.0, 20.0])
def test_condition_derivative_matches_central_difference(parity, eps):
    kappa = 33.2
    u = math.sqrt(kappa - eps)
    for x in np.geomspace(1e-3, 45.0, 25):  # barrier argument pi lambda u
        lam = x / (math.pi * u)
        h = 1e-6 * eps
        _, deriv = _f_and_deriv(eps, kappa, lam, parity)
        f_plus, _ = _f_and_deriv(eps + h, kappa, lam, parity)
        f_minus, _ = _f_and_deriv(eps - h, kappa, lam, parity)
        assert (f_plus - f_minus) / (2.0 * h) == pytest.approx(deriv, rel=1e-6)


B_ACROSS_FLAG = [float(b) for b in np.linspace(600e-9, 1000e-9, 41)]


def test_gap_sweep_rows_follow_the_degenerate_flag(table_well):
    rows = gap_sweep(table_well, B_ACROSS_FLAG)
    flagged = 0
    for row in rows:
        result = solve_below_barrier(to_dimensionless(table_well.with_b(row.b)))
        if result.solver_report[0].degenerate_pair:
            flagged += 1
            assert row.error.startswith("DegenerateGap: ")
        else:
            assert row.error is None
            assert (row.e0, row.e1) == (result.levels[0].energy, result.levels[1].energy)
    assert 0 < flagged < len(rows)


def test_lowest_pair_alone_feeds_sweep(table_well, monkeypatch):
    before = gap_sweep(table_well, [1e-7, 2e-7])
    solve = spectrum._solve_pair_diagnosed

    def fail_upper_pairs(n, well):
        if n >= 1:
            raise ConvergenceFailure("injected")
        return solve(n, well)

    monkeypatch.setattr(spectrum, "_solve_pair_diagnosed", fail_upper_pairs)
    assert gap_sweep(table_well, [1e-7, 2e-7]) == before


@pytest.mark.parametrize("lam", [1e-200, 1e-300, 5e-324])
@pytest.mark.parametrize("kappa", [40.0, 2000.0, 1e5])
def test_vanishing_barrier_ends_in_dwell_error(kappa, lam):
    # exp(-pi lam u) rounds to 1, where the odd condition cannot be evaluated
    with pytest.raises(BarrierUnderflow) as info:
        solve_below_barrier(ScaledWell(kappa, lam))
    assert info.value.pair_index == 0


def test_vanishing_barrier_near_the_top_is_not_a_missing_level():
    # kappa one ulp below the pole 56^2: the top odd level sits 1.2e-8 below
    # kappa, but the probes above it find exp(-x) == 1; the pair must fail,
    # not report its odd level as pushed above the barrier
    with pytest.raises(BarrierUnderflow) as info:
        solve_below_barrier(ScaledWell(math.nextafter(3136.0, 0.0), 1.9296726144975342e-12))
    assert info.value.pair_index == 55


def test_inverted_resolvable_pair_raises_convergence_failure():
    # Newton stalls one bisection width off the odd root of pair 438, below
    # the even level, although the pair is far from degenerate
    well = ScaledWell(248795.34095324992, 0.014441382492667404)
    with pytest.raises(ConvergenceFailure, match="not above even level") as info:
        spectrum._solve_pair_diagnosed(438, well)
    assert info.value.pair_index == 438
    with pytest.raises(ConvergenceFailure) as info:
        solve_below_barrier(well)
    assert info.value.pair_index == 438


def _mp_odd_root_pair0(kappa: str, lam: str) -> float:
    # eps of the odd level of pair 0 by bisection of -s cot(pi s) = u coth(pi lam u)
    # on s in (1/2, 1), at 60 digits
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 60
    k, lm = mp.mpf(kappa), mp.mpf(lam)

    def f(s):
        u = mp.sqrt(k - s * s)
        return -s * mp.cot(mp.pi * s) - u * mp.coth(mp.pi * lm * u)

    lo, hi = mp.mpf(0.5), 1 - mp.mpf(10) ** -50
    assert f(lo) < 0 < f(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
    return float(lo * lo)


@pytest.mark.xfail(strict=True, reason="Newton stalls at the centre of the bisection "
                   "bracket (ROADMAP item 8)")
def test_small_lambda_odd_level_matches_mpmath():
    # bisection leaves the odd root's bracket centred at 0.9999996423713815,
    # where F = -1.65e11 and dF = 4.98e12; Newton's step of +0.033 leaves the
    # bracket, the fallback midpoint is the centre itself, and the level is
    # returned there, 3.6e-7 off the root 0.99999999999614
    reference = _mp_odd_root_pair0("3100", "1.93e-12")
    level = solve_below_barrier(ScaledWell(3100.0, 1.93e-12)).levels[1]
    assert level.parity == "odd"
    assert level.eps == pytest.approx(reference, rel=1e-12)

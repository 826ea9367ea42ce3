import math

import numpy as np
import pytest

from dwell import (
    WellSpec,
    aligned_size,
    build_grid_hamiltonian,
    eigenvector,
    lowest_eigenvalues,
)
from dwell.errors import ConvergenceFailure

# frozen from an independent 50-digit evaluation (kappa = 33.1968533517)
EPS0_TABLE = 0.892275120405


def test_box_limit(table_well):
    # a vanishing barrier leaves a plain box of width 2(a+b)
    box = WellSpec(table_well.a, table_well.b, 1e-40, table_well.m,
                   table_well.constants)
    h = build_grid_hamiltonian(box, 20_000)
    levels = lowest_eigenvalues(h, 4)
    width = 2.0 * (box.a + box.b)
    hbar = box.constants.hbar
    exact = np.array([(n * math.pi * hbar) ** 2 / (2.0 * box.m * width**2)
                      for n in (1, 2, 3, 4)])
    assert np.all(np.abs(levels / exact - 1.0) <= 1e-6)


def test_agrees_with_transcendental_solver(table_well, table_spectrum):
    h = build_grid_hamiltonian(table_well, 20_000)
    grid = lowest_eigenvalues(h, len(table_spectrum.levels))
    for level, grid_e in zip(table_spectrum.levels, grid):
        assert abs(grid_e / level.energy - 1.0) <= 1e-4


def test_below_barrier_count_matches(table_well, table_spectrum):
    h = build_grid_hamiltonian(table_well, 20_000)
    grid = lowest_eigenvalues(h, len(table_spectrum.levels) + 4)
    assert int(np.sum(grid < table_well.k)) == len(table_spectrum.levels)


def test_second_order_convergence(table_well):
    # grid sizes aligned so both potential steps sit on cell edges; the
    # interface error constant is then reproducible between n and 2n.
    # Sturm bisection carried an eps ||H|| error that grows as n^2 and
    # overtook the dx^2 error past n = 8e4; certified Rayleigh quotients
    # keep the order at 2 out to 3.2e5 cells
    n = aligned_size(table_well, 5000)
    e_ref = EPS0_TABLE * table_well.barrier_bound
    errs = []
    while n < 330_000:
        h = build_grid_hamiltonian(table_well, n)
        errs.append(abs(float(lowest_eigenvalues(h, 1)[0]) / e_ref - 1.0))
        n *= 2
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    assert len(orders) == 6 and min(orders) >= 1.9, orders


def test_aligned_size_divides_cleanly(table_well):
    n = aligned_size(table_well, 20_000)
    dx = 2.0 * table_well.half_width / n
    assert table_well.a / dx == pytest.approx(round(table_well.a / dx), abs=1e-6)
    assert 2.0 * table_well.b / dx == pytest.approx(round(2.0 * table_well.b / dx), abs=1e-6)


def test_eigenvalues_strictly_increasing(table_well):
    h = build_grid_hamiltonian(table_well, 20_000)
    levels = lowest_eigenvalues(h, 12)
    assert np.all(np.diff(levels) > 0)


def test_eigenvector_parity_and_nodes(table_well):
    h = build_grid_hamiltonian(table_well, 20_000)
    levels = lowest_eigenvalues(h, 4)
    for idx, energy in enumerate(levels):
        v = eigenvector(h, float(energy))
        sign = 1.0 if idx % 2 == 0 else -1.0
        residual = np.max(np.abs(v - sign * v[::-1])) / np.max(np.abs(v))
        assert residual <= 1e-6
        interior = v[np.abs(v) > 1e-9 * np.max(np.abs(v))]
        nodes = int(np.sum(np.sign(interior[1:]) != np.sign(interior[:-1])))
        assert nodes == idx


def test_eigenvector_residual_and_normalization(table_well):
    h = build_grid_hamiltonian(table_well, 20_000)
    energy = float(lowest_eigenvalues(h, 1)[0])
    v = eigenvector(h, energy)
    assert float(v @ v) * h.dx == pytest.approx(1.0, rel=1e-12)
    hv = h.apply(v)
    rq = float(v @ hv) / float(v @ v)
    assert np.linalg.norm(hv - rq * v) / np.linalg.norm(v) <= 1e-8 * abs(energy)
    assert rq == pytest.approx(energy, rel=1e-10)


def test_eigenvector_deterministic(table_well):
    h = build_grid_hamiltonian(table_well, 4994)
    energy = float(lowest_eigenvalues(h, 1)[0])
    v1 = eigenvector(h, energy)
    v2 = eigenvector(h, energy)
    assert np.array_equal(v1, v2)


def test_count_precondition(table_well):
    h = build_grid_hamiltonian(table_well, 2002)
    with pytest.raises(ValueError):
        lowest_eigenvalues(h, 500)


def test_grid_size_guards(table_well):
    with pytest.raises(ValueError):
        build_grid_hamiltonian(table_well, 50)
    thin = WellSpec(table_well.a, 1e-10, table_well.k, table_well.m,
                    table_well.constants)
    with pytest.raises(ValueError):
        build_grid_hamiltonian(thin, 500)


def test_positions_symmetric(table_well):
    h = build_grid_hamiltonian(table_well, 2002)
    x = h.positions
    assert np.allclose(x, -x[::-1], atol=1e-20)
    assert x[0] == pytest.approx(-table_well.half_width + 0.5 * h.dx, rel=1e-12)


def _with_b(spec, b):
    return WellSpec(spec.a, b, spec.k, spec.m, spec.constants)


def _resolution(h):
    # the resolution of Sturm bisection on the assembled matrix, 4 eps ||H||
    return 4.0 * np.finfo(float).eps * (np.max(np.abs(h.diagonal)) + 2.0 * abs(h.off_diagonal))


def _full_grid_levels(h, count):
    # full-grid reference: stebz to locate each level, float64 inverse
    # iteration on the whole grid for its vector, then the Rayleigh quotient
    # in long double and second-difference form, free of the eps ||H|| error
    # that both stebz and a float64 quotient carry
    from scipy.linalg import eigh_tridiagonal, solve_banded

    scale = h.energy_scale
    located = eigh_tridiagonal(h.diagonal / scale, np.full(h.n - 1, h.off_diagonal / scale),
                               select="i", select_range=(0, count - 1), eigvals_only=True,
                               tol=1e-13, lapack_driver="stebz")
    ab = np.zeros((3, h.n))
    ab[0, 1:] = ab[2, :-1] = h.off_diagonal / scale
    rng = np.random.default_rng(0)
    levels = []
    for shift in located:
        ab[1] = h.diagonal / scale - shift
        v = rng.standard_normal(h.n)
        for _ in range(3):
            v = solve_banded((1, 1), ab, v)
            v /= np.linalg.norm(v)
        v = v.astype(np.longdouble)
        levels.append(float((v @ h.apply(v)) / (v @ v)))
    return np.array(levels)


@pytest.mark.parametrize("n", [20_000, 20_001, 4994, 4995])
def test_parity_blocks_match_full_grid(table_well, n):
    h = build_grid_hamiltonian(table_well, n)
    full = _full_grid_levels(h, 12)
    assert np.max(np.abs(lowest_eigenvalues(h, 12) / full - 1.0)) <= 1e-12


def test_grid_splitting_at_300nm(table_well):
    # the grid splitting is a difference of two eigenvalues 1e-4 apart, so
    # an eps ||H|| error in each (4e-3 of the splitting at n = 1.6e5) ruins it
    from dwell import solve_below_barrier, to_dimensionless

    spec = _with_b(table_well, 300e-9)
    pair = solve_below_barrier(to_dimensionless(spec), 1).levels
    e0, e1 = lowest_eigenvalues(build_grid_hamiltonian(spec, 160_000), 2)
    assert abs((e1 - e0) / (pair[1].energy - pair[0].energy) - 1.0) <= 1e-6


def test_many_levels_match_stebz_within_its_error(table_well):
    # 150 levels need about 75 Lanczos steps per block; stebz on the same
    # blocks is accurate to its tolerance plus about eps ||H||
    from scipy.linalg import eigh_tridiagonal

    from dwell.grid_oracle import _parity_block

    h = build_grid_hamiltonian(table_well, 20_000)
    scale = h.energy_scale
    parts = []
    for even, k in ((True, 75), (False, 75)):
        diag, off, _, _ = _parity_block(h, even)  # in units of energy_scale
        parts.append(eigh_tridiagonal(diag, off, select="i",
                                      select_range=(0, k - 1), eigvals_only=True,
                                      tol=1e-13, lapack_driver="stebz"))
    stebz = np.sort(np.concatenate(parts)) * scale
    levels = lowest_eigenvalues(h, 150)
    assert np.all(np.diff(levels) > 0)
    assert np.max(np.abs(levels - stebz)) <= _resolution(h) + 1e-13 * scale


def test_lowest_eigenvalues_deterministic(table_well):
    h = build_grid_hamiltonian(table_well, 20_001)
    assert lowest_eigenvalues(h, 12).tobytes() == lowest_eigenvalues(h, 12).tobytes()


def _fail_certificate(monkeypatch):
    # every residual comes back too large, before and after the correction
    from dwell import grid_oracle

    rayleigh = grid_oracle._rayleigh
    monkeypatch.setattr(grid_oracle, "_rayleigh",
                        lambda *args: (rayleigh(*args)[0], 1.0))


def test_uncertified_eigenvalue_raises(table_well, monkeypatch):
    _fail_certificate(monkeypatch)
    with pytest.raises(ConvergenceFailure, match="not certified"):
        lowest_eigenvalues(build_grid_hamiltonian(table_well, 4994), 6)


@pytest.mark.parametrize("argv", [["oracle-check"], ["spectrum", "--oracle"]])
def test_uncertified_eigenvalue_is_one_cli_error_line(argv, monkeypatch, capsys):
    from dwell.cli import main

    _fail_certificate(monkeypatch)
    code = main(argv + ["--grid-n", "4994"])
    out = capsys.readouterr().out
    assert code == 1
    errors = [line for line in out.splitlines() if "error" in line]
    assert errors == [errors[0]] and errors[0].startswith("# error: grid eigenvalue 0 ")


@pytest.mark.parametrize("n", [20_000, 20_001])
def test_eigenvector_parity_is_exact_at_600nm(table_well, n):
    # at 600 nm e1 - e0 lies below 4 eps ||H|| but is 1800 times the
    # certificate, so each level has its own exact parity and its own value
    h = build_grid_hamiltonian(_with_b(table_well, 600e-9), n)
    for i, energy in enumerate(lowest_eigenvalues(h, 4)):
        v = eigenvector(h, float(energy))
        assert np.array_equal(v, (-1) ** i * v[::-1]), i
        rq = float(v @ h.apply(v)) / float(v @ v)
        assert abs(rq / energy - 1.0) <= 1e-12, i


def test_eigenvector_rejects_an_energy_off_the_grid_spectrum(table_well):
    h = build_grid_hamiltonian(table_well, 4994)
    e0, _, e2 = lowest_eigenvalues(h, 3)
    for energy in (0.5 * (e0 + e2), 0.5 * e0, 10.0 * float(np.max(h.diagonal)), math.nan):
        with pytest.raises(ValueError):
            eigenvector(h, float(energy))


def test_unresolved_pair_gives_the_even_ground_state(table_well):
    from dwell import build_eigenfunction, solve_below_barrier, to_dimensionless

    spec = _with_b(table_well, 470e-9)
    h = build_grid_hamiltonian(spec, 200_000)
    v = eigenvector(h, float(lowest_eigenvalues(h, 1)[0]))
    assert np.array_equal(v, v[::-1])
    level0 = solve_below_barrier(to_dimensionless(spec)).levels[0]
    psi = build_eigenfunction(spec, level0)(h.positions)
    psi /= math.sqrt(float(psi @ psi) * h.dx)
    assert math.sqrt(float(((v - psi) ** 2).sum()) * h.dx) <= 1e-4


@pytest.mark.parametrize("n", [4994, 4995])
def test_level_one_is_odd_where_the_pair_is_resolved(table_well, n):
    seen = set()
    for b_nm in (100, 200, 300, 400, 500, 600, 700, 800, 900, 1000):
        h = build_grid_hamiltonian(_with_b(table_well, b_nm * 1e-9), n)
        e0, e1 = lowest_eigenvalues(h, 2)
        v = eigenvector(h, float(e1))
        certificate = 1e-13 * h.energy_scale
        if e1 - e0 > 2.0 * certificate:
            assert np.array_equal(v, -v[::-1]), b_nm
            seen.add("odd")
        elif e1 - e0 < 0.5 * certificate:
            assert np.array_equal(v, v[::-1]), b_nm  # the tie rule: even wins
            seen.add("even")
    assert seen == {"odd", "even"}


def _count_runs(monkeypatch) -> list:
    """Record the parity of every Lanczos run (_block_lowest) from now on."""
    import dwell.grid_oracle as grid_oracle

    runs, original = [], grid_oracle._block_lowest

    def counted(h, even, *args, **kwargs):
        runs.append(even)
        return original(h, even, *args, **kwargs)

    monkeypatch.setattr(grid_oracle, "_block_lowest", counted)
    return runs


def test_eigenvector_reuses_the_run_of_lowest_eigenvalues(table_well, monkeypatch):
    runs = _count_runs(monkeypatch)
    h = build_grid_hamiltonian(table_well, 4994)
    levels = lowest_eigenvalues(h, 6)
    assert runs == [True, False]
    for energy in levels:
        eigenvector(h, float(energy))
    assert runs == [True, False]


def test_eigenvector_runs_its_own_lanczos_on_a_fresh_grid(table_well, monkeypatch):
    e0 = float(lowest_eigenvalues(build_grid_hamiltonian(table_well, 4994), 1)[0])
    runs = _count_runs(monkeypatch)
    h = build_grid_hamiltonian(table_well, 4994)
    first = eigenvector(h, e0)
    assert runs == [True]
    assert eigenvector(h, e0).tobytes() == first.tobytes()  # its run is stored
    assert runs == [True]


@pytest.mark.parametrize("b_nm, n", [(100, 4994), (600, 20_000)])
def test_memoised_eigenvector_matches_the_standalone_one(table_well, b_nm, n):
    spec = _with_b(table_well, b_nm * 1e-9)
    shared = build_grid_hamiltonian(spec, n)
    levels = lowest_eigenvalues(shared, 6)
    for i, energy in enumerate(levels):
        memoised = eigenvector(shared, float(energy))
        alone = eigenvector(build_grid_hamiltonian(spec, n), float(energy))
        assert np.array_equal(memoised, (-1) ** i * memoised[::-1]), i
        assert np.array_equal(alone, (-1) ** i * alone[::-1]), i
        assert math.sqrt(float(((memoised - alone) ** 2).sum()) * shared.dx) <= 1e-9, i


def test_lowest_eigenvalues_ignores_the_memo(table_well):
    h = build_grid_hamiltonian(table_well, 4994)
    before = lowest_eigenvalues(h, 12)
    lowest_eigenvalues(h, 2)  # leaves one-value runs in the memo
    for energy in (before[11], before[0], before[6]):  # eigenvector stores its own runs
        eigenvector(h, float(energy))
    assert lowest_eigenvalues(h, 12).tobytes() == before.tobytes()

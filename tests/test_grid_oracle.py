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
    # interface error constant is then reproducible between n and 2n
    n1 = aligned_size(table_well, 5000)
    n2 = 2 * n1
    e_ref = EPS0_TABLE * table_well.barrier_bound
    errs = []
    for n in (n1, n2):
        h = build_grid_hamiltonian(table_well, n)
        errs.append(abs(float(lowest_eigenvalues(h, 1)[0]) / e_ref - 1.0))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.9


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


def _parity_defect(v):
    # distance from the nearer of pure even and pure odd parity
    mirrored = v[::-1]
    return min(np.linalg.norm(v - mirrored), np.linalg.norm(v + mirrored)) / np.linalg.norm(v)


def _resolution(h):
    # the grid's eigenvalue resolution, 4 eps ||H||, that eigenvector's tie rule uses
    return 4.0 * np.finfo(float).eps * (np.max(np.abs(h.diagonal)) + 2.0 * abs(h.off_diagonal))


@pytest.mark.parametrize("n", [20_000, 20_001, 4994, 4995])
def test_parity_blocks_match_full_grid(table_well, n):
    from scipy.linalg import eigh_tridiagonal

    h = build_grid_hamiltonian(table_well, n)
    scale = h.energy_scale
    full = eigh_tridiagonal(h.diagonal / scale, np.full(n - 1, h.off_diagonal / scale),
                            select="i", select_range=(0, 11), eigvals_only=True,
                            tol=1e-13, lapack_driver="stebz") * scale
    assert np.max(np.abs(lowest_eigenvalues(h, 12) / full - 1.0)) <= 1e-12


@pytest.mark.parametrize("n", [20_000, 20_001])
def test_eigenvector_parity_is_exact_at_600nm(table_well, n):
    # at 600 nm the grid cannot separate the lowest pair; a full-grid
    # inverse iteration returned parity-mixed vectors there
    h = build_grid_hamiltonian(_with_b(table_well, 600e-9), n)
    for energy in lowest_eigenvalues(h, 4):
        assert _parity_defect(eigenvector(h, float(energy))) <= 1e-14


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
    for b_nm in (100, 200, 300, 400, 500, 600, 700):
        h = build_grid_hamiltonian(_with_b(table_well, b_nm * 1e-9), n)
        e0, e1 = lowest_eigenvalues(h, 2)
        v = eigenvector(h, float(e1))
        if e1 - e0 > 2.0 * _resolution(h):
            assert np.array_equal(v, -v[::-1]), b_nm
            seen.add("odd")
        elif e1 - e0 < 0.5 * _resolution(h):
            assert np.array_equal(v, v[::-1]), b_nm  # the tie rule: even wins
            seen.add("even")
    assert seen == {"odd", "even"}

import math

import numpy as np
import pytest
from scipy.integrate import quad

from dwell import (
    EnergyLevel,
    LocalizedState,
    WellSpec,
    build_eigenfunction,
    build_grid_hamiltonian,
    dipole_matrix_element,
    eigenvector,
    lowest_eigenvalues,
    position_matrix_element,
    solve_below_barrier,
    to_dimensionless,
)
from dwell.errors import MatchFailure
from dwell.wavefunction import _gauss_legendre, _legendre_rule, _quad_position

# frozen from an independent 50-digit evaluation at the reference geometry
DIPOLE_ROW1 = 5.71939355632e-7  # m


def _norm_quad(psi):
    edge = psi.a + psi.b
    total = 0.0
    for lo, hi in ((-edge, -psi.b), (-psi.b, psi.b), (psi.b, edge)):
        val, _ = quad(lambda x: float(psi(np.array([x]))[0]) ** 2, lo, hi,
                      epsabs=1e-13, epsrel=1e-12, limit=200)
        total += val
    return total


def test_normalization(table_pair):
    psi0, psi1 = table_pair
    assert _norm_quad(psi0) == pytest.approx(1.0, abs=1e-10)
    assert _norm_quad(psi1) == pytest.approx(1.0, abs=1e-10)


def test_matching_at_barrier_edges(table_pair):
    # value and slope continuity across +-b, relative to the local scale
    for psi in table_pair:
        for s in (-1.0, 1.0):
            x_in = np.array([s * psi.b * (1.0 - 1e-9)])
            x_out = np.array([s * psi.b * (1.0 + 1e-9)])
            v_in, v_out = psi(x_in)[0], psi(x_out)[0]
            d_in, d_out = psi.derivative(x_in)[0], psi.derivative(x_out)[0]
            assert abs(v_out - v_in) <= 1e-6 * max(abs(v_in), abs(v_out))
            assert abs(d_out - d_in) <= 1e-6 * max(abs(d_in), abs(d_out))


def test_parity_and_sign_convention(table_pair):
    psi0, psi1 = table_pair
    x = np.linspace(-psi0.a - psi0.b, psi0.a + psi0.b, 100)
    assert np.allclose(psi0(-x), psi0(x), atol=1e-9 * np.max(np.abs(psi0(x))))
    assert np.allclose(psi1(-x), -psi1(x), atol=1e-9 * np.max(np.abs(psi1(x))))
    assert psi0(np.array([0.0]))[0] > 0
    assert psi1(np.array([psi1.b * 1e-3]))[0] > 0


def test_walls_and_outside(table_pair):
    psi0, psi1 = table_pair
    edge = psi0.a + psi0.b
    for psi in (psi0, psi1):
        assert psi(np.array([edge, -edge, 2 * edge, -3 * edge])) == pytest.approx(0.0)


def test_orthogonality(table_pair):
    psi0, psi1 = table_pair
    edge = psi0.a + psi0.b
    overlap = 0.0
    for lo, hi in ((-edge, -psi0.b), (-psi0.b, psi0.b), (psi0.b, edge)):
        val, _ = quad(lambda x: float(psi0(np.array([x]))[0] * psi1(np.array([x]))[0]),
                      lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
        overlap += val
    assert abs(overlap) <= 1e-10


def test_node_counts(table_pair):
    def sign_changes(psi) -> int:
        # interior sign changes over 10 000 uniform points, walls excluded
        edge = psi.a + psi.b
        values = psi(np.linspace(-edge, edge, 10_002)[1:-1])
        values = values[np.abs(values) > 1e-30]
        return int(np.sum(np.sign(values[1:]) != np.sign(values[:-1])))

    psi0, psi1 = table_pair
    assert sign_changes(psi0) == 0
    assert sign_changes(psi1) == 1
    # the odd node sits at the center
    assert abs(psi1(np.array([0.0]))[0]) < 1e-20


def test_matches_grid_eigenvector(table_well, table_pair):
    h = build_grid_hamiltonian(table_well, 20_000)
    grid_levels = lowest_eigenvalues(h, 2)
    x = h.positions
    scale = math.sqrt(table_well.a)  # compare O(1)-sized functions
    for psi, energy in zip(table_pair, grid_levels):
        v = eigenvector(h, float(energy))
        assert np.max(np.abs(v - psi(x))) * scale <= 1e-3


def test_position_element_same_parity_vanishes(table_pair):
    psi0, psi1 = table_pair
    assert position_matrix_element(psi0, psi0) == 0.0
    assert position_matrix_element(psi1, psi1) == 0.0


def test_dipole_reference_value(table_pair):
    psi0, psi1 = table_pair
    d = dipole_matrix_element(psi0, psi1)
    assert d == pytest.approx(DIPOLE_ROW1, rel=1e-9)
    assert 0.0 < d < psi0.a + psi0.b


def test_dipole_matches_grid_quadrature(table_well, table_pair):
    # independent route: trapezoid sum over the grid solver's eigenvectors
    psi0, psi1 = table_pair
    h = build_grid_hamiltonian(table_well, 20_000)
    e0, e1 = lowest_eigenvalues(h, 2)
    v0 = eigenvector(h, float(e0))
    v1 = eigenvector(h, float(e1))
    d_grid = float(np.sum(h.positions * v0 * v1) * h.dx)
    d = dipole_matrix_element(psi0, psi1)
    assert abs(d_grid / d - 1.0) <= 1e-3


def _rule_against_analytic(well):
    """Relative distance of the Gauss-Legendre rule from the analytic dipole
    element of pair 0, scaled as in the dipole check."""
    level0, level1 = solve_below_barrier(to_dimensionless(well), 1).levels
    psi0, psi1 = build_eigenfunction(well, level0), build_eigenfunction(well, level1)
    d = position_matrix_element(psi0, psi1)
    d_num, _ = _quad_position(psi0, psi1)
    dipole_matrix_element(psi0, psi1)  # the panel estimate does not raise
    return abs(d_num - d) / max(abs(d), 1e-3 * (well.a + well.b)), psi0.beta * well.b


def test_gauss_legendre_rule_matches_analytic_on_table1_widths(table_well):
    for b in np.linspace(30e-9, 780e-9, 40):
        err, _ = _rule_against_analytic(table_well.with_b(b))
        assert err <= 1e-13


@pytest.mark.parametrize("kappa", [1e2, 1e3, 1e4])
@pytest.mark.parametrize("opacity", [30.0, 100.0, 200.0, 349.0])
def test_gauss_legendre_rule_matches_analytic_on_opaque_wells(table_well, kappa, opacity):
    # lambda puts beta*b just below `opacity` (the lowest level has eps < 1),
    # up to the beta*b = 350 guard of build_eigenfunction
    lam = opacity / (math.pi * math.sqrt(kappa))
    well = WellSpec(a=table_well.a, b=lam * table_well.a, k=kappa * table_well.barrier_bound,
                    m=table_well.m)
    err, beta_b = _rule_against_analytic(well)
    assert 0.99 * opacity <= beta_b <= opacity
    assert err <= 1e-13


def test_gauss_legendre_estimate_sees_a_kink():
    # |x - 0.3| has its kink inside a panel of both rules (8 and 4 panels)
    val, err = _gauss_legendre(lambda x: abs(x - 0.3), -1.0, 1.0, 8)
    assert err > 1e-8 and abs(val - 1.09) > 1e-8
    val, err = _gauss_legendre(math.cos, -1.0, 1.0, 8)
    assert err <= 1e-15 and val == pytest.approx(2.0 * math.sin(1.0), rel=1e-15)


def test_legendre_nodes_and_weights_match_references():
    # nodes against numpy's eigenvalue-based rule; weights within 1e-15 of
    # a 40-digit evaluation, but only 4e-15 of leggauss, whose own weights
    # are off by up to 1.2e-15 at n = 20 and 3.2e-15 at n = 40
    mp = pytest.importorskip("mpmath").mp
    for n in (1, 2, 5, 20, 21, 40):
        nodes, weights = _legendre_rule(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(np.array(nodes) - ref_nodes)) <= 1e-15
        assert np.max(np.abs(np.array(weights) - ref_weights)) <= 4e-15
        with mp.workdps(40):
            for z, w in zip(nodes, weights):
                root = mp.findroot(lambda u: mp.legendre(n, u), z)
                slope = mp.diff(lambda u: mp.legendre(n, u), root)
                assert abs(z - root) <= 1e-15
                assert abs(w - 2 / ((1 - root**2) * slope**2)) <= 1e-15


def test_dipole_requires_opposite_parity(table_pair):
    psi0, _ = table_pair
    with pytest.raises(ValueError):
        dipole_matrix_element(psi0, psi0)


def test_dipole_deep_barrier_tends_to_well_center(table_well):
    # the localized state piles into one valley, so d -> b + a/2 up to the
    # sinusoidal shape correction (a few percent)
    for b in (1e-7, 251.98421e-9):
        spec = table_well.with_b(b)
        result = solve_below_barrier(to_dimensionless(spec))
        levels = {lv.index: lv for lv in result.levels}
        psi0 = build_eigenfunction(spec, levels[0])
        psi1 = build_eigenfunction(spec, levels[1])
        d = dipole_matrix_element(psi0, psi1)
        assert d == pytest.approx(b + spec.a / 2.0, rel=0.10)


def test_dipole_equals_position_mean_of_localized_state(table_pair):
    # <x> of the t=0 localized state integrates to exactly the dipole element
    psi0, psi1 = table_pair
    state = LocalizedState(psi0, psi1, "L")
    edge = psi0.a + psi0.b

    def integrand(x: float) -> float:
        return x * abs(state(np.array([x]), 0.0)[0]) ** 2

    total = 0.0
    for lo, hi in ((-edge, -psi0.b), (-psi0.b, psi0.b), (psi0.b, edge)):
        val, _ = quad(integrand, lo, hi, epsabs=1e-17, epsrel=1e-12, limit=200)
        total += val
    d = dipole_matrix_element(psi0, psi1)
    assert total == pytest.approx(d, rel=1e-9)


def test_localized_state_is_one_sided(table_pair):
    psi0, psi1 = table_pair
    state = LocalizedState(psi0, psi1, "L")
    values = state(np.linspace(-psi0.a - psi0.b,
                                                      psi0.a + psi0.b, 500), 0.0)
    assert np.max(np.abs(values.imag)) == 0.0  # real at t = 0

    def mass(side) -> float:
        lo, hi = (0.0, psi0.a + psi0.b) if side > 0 else (-psi0.a - psi0.b, 0.0)
        val, _ = quad(lambda x: abs(state(np.array([x]), 0.0)[0]) ** 2,
                      lo, hi, points=[psi0.b * side], limit=200)
        return val

    concentrated = mass(+1)
    assert concentrated > 0.9
    assert mass(-1) == pytest.approx(1.0 - concentrated, abs=1e-9)


def test_specular_symmetry(table_pair):
    psi0, psi1 = table_pair
    left = LocalizedState(psi0, psi1, "L")
    right = LocalizedState(psi0, psi1, "R")
    x = np.linspace(-psi0.a - psi0.b, psi0.a + psi0.b, 40)
    omega = (psi1.level.energy - psi0.level.energy) / psi0.hbar
    for t in np.linspace(0.0, 2.0 * math.pi / omega, 7):
        lhs = left(-x, t)
        rhs = right(x, t)
        assert np.max(np.abs(lhs - rhs)) * math.sqrt(psi0.a) <= 1e-10


def test_time_displaced_replica(table_pair):
    # psi_L(x, t + pi/omega) = i exp(-i pi Omega/omega) psi_R(x, t)
    psi0, psi1 = table_pair
    left = LocalizedState(psi0, psi1, "L")
    right = LocalizedState(psi0, psi1, "R")
    e0, e1 = psi0.level.energy, psi1.level.energy
    omega = (e1 - e0) / psi0.hbar
    big_omega = (e0 + e1) / (2.0 * psi0.hbar)
    factor = 1j * np.exp(-1j * math.pi * big_omega / omega)
    x = np.linspace(-psi0.a - psi0.b, psi0.a + psi0.b, 50)
    for t in np.linspace(0.0, 4.0 * math.pi / omega, 50):
        lhs = left(x, t + math.pi / omega)
        rhs = factor * right(x, t)
        assert np.max(np.abs(lhs - rhs)) * math.sqrt(psi0.a) <= 1e-10


def test_norm_preserved_in_time(table_pair):
    psi0, psi1 = table_pair
    state = LocalizedState(psi0, psi1, "L")
    edge = psi0.a + psi0.b
    omega = (psi1.level.energy - psi0.level.energy) / psi0.hbar
    for t in (0.0, 0.3 / omega, math.pi / omega, 7.7 / omega):
        total = 0.0
        for lo, hi in ((-edge, -psi0.b), (-psi0.b, psi0.b), (psi0.b, edge)):
            val, _ = quad(lambda x: abs(state(np.array([x]), t)[0]) ** 2,
                          lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
            total += val
        assert total == pytest.approx(1.0, abs=1e-10)


def test_position_expectation_oscillates_with_dipole_amplitude(table_pair):
    psi0, psi1 = table_pair
    state = LocalizedState(psi0, psi1, "L")
    d = dipole_matrix_element(psi0, psi1)
    omega = (psi1.level.energy - psi0.level.energy) / psi0.hbar
    edge = psi0.a + psi0.b

    for t in np.linspace(0.0, 2.0 * math.pi / omega, 20):
        total = 0.0
        for lo, hi in ((-edge, -psi0.b), (-psi0.b, psi0.b), (psi0.b, edge)):
            val, _ = quad(
                lambda x: x * abs(state(np.array([x]), t)[0]) ** 2,
                lo, hi, epsabs=1e-16, epsrel=1e-12, limit=200)
            total += val
        assert abs(total - d * math.cos(omega * t)) <= 1e-8 * psi0.a


def test_energy_expectation_is_pair_mean(table_pair, table_well):
    psi0, psi1 = table_pair
    state = LocalizedState(psi0, psi1, "L")
    hbar, m = psi0.hbar, table_well.m
    edge = psi0.a + psi0.b

    omega = (psi1.level.energy - psi0.level.energy) / hbar
    t_probe = 0.37 * 2.0 * math.pi / omega

    def kinetic_density(x: float) -> float:
        # |d psi_L/dx|^2 from the analytic piece derivatives
        phase0 = np.exp(-1j * psi0.level.energy * t_probe / hbar)
        phase1 = np.exp(-1j * psi1.level.energy * t_probe / hbar)
        deriv = (phase0 * psi0.derivative(np.array([x]))[0]
                 + phase1 * psi1.derivative(np.array([x]))[0]) / math.sqrt(2.0)
        return hbar**2 / (2.0 * m) * abs(deriv) ** 2

    def potential_density(x: float) -> float:
        u = table_well.k if abs(x) <= psi0.b else 0.0
        return u * abs(state(np.array([x]), t_probe)[0]) ** 2

    total = 0.0
    for lo, hi in ((-edge, -psi0.b), (-psi0.b, psi0.b), (psi0.b, edge)):
        kin, _ = quad(kinetic_density, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)
        pot, _ = quad(potential_density, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)
        total += kin + pot
    mean = 0.5 * (psi0.level.energy + psi1.level.energy)
    assert total == pytest.approx(mean, rel=1e-8)


def test_bad_eigenvalue_rejected(table_well):
    bogus = EnergyLevel(0, "even", 0.5, 0.5 * table_well.barrier_bound)
    with pytest.raises(MatchFailure):
        build_eigenfunction(table_well, bogus)


def test_overflow_guard(table_well):
    result = solve_below_barrier(to_dimensionless(table_well))
    level = result.levels[0]
    wide = table_well.with_b(40e-6)  # beta*b > 350
    with pytest.raises(MatchFailure):
        build_eigenfunction(wide, level)


def test_amplitude_overflow_is_a_match_failure(table_well):
    # kappa = 1e6, beta*b ~ 349: pair 0 sits near the wall-side node, so
    # cosh(beta b)/sin(alpha a) ~ 1e154 and its square overflows a float
    lam = 349.0 / (1000.0 * math.pi)
    well = WellSpec(a=table_well.a, b=lam * table_well.a, k=1e6 * table_well.barrier_bound,
                    m=table_well.m)
    result = solve_below_barrier(to_dimensionless(well), 1)
    assert len(result.levels) == 2
    for level in result.levels:
        with pytest.raises(MatchFailure, match="overflows its square"):
            build_eigenfunction(well, level)

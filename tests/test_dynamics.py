import cmath
import hashlib
import math
import re

import numpy as np
import pytest

from dwell import (
    Basis,
    HarmonicDrive,
    TwoByTwoOperator,
    TwoLevelSystem,
    flip_flop,
    perturbation_matrices,
    rabi_localized,
    rabi_off_resonance,
    transition_amplitude,
    x_expectation,
)
from dwell.dynamics import (
    flip_flop_generator,
    localized_drive_interaction,
    rk4_step_for,
    rk4_two_level,
    simple_drive_interaction,
)
import dwell.spectrum as spectrum
import dwell.wavefunction as wavefunction
from dwell import solve_below_barrier, to_dimensionless
from dwell.errors import ConvergenceFailure, DegenerateGap, QuadratureError, ResonantDenominator


def test_x_expectation_turning_points(two_level):
    assert x_expectation(two_level, "L", 0.0) == pytest.approx(two_level.d, rel=1e-15)
    t_half = math.pi / two_level.omega
    assert x_expectation(two_level, "L", t_half) == pytest.approx(-two_level.d, rel=1e-10)
    assert x_expectation(two_level, "R", 0.0) == pytest.approx(-two_level.d, rel=1e-15)
    period = 2.0 * math.pi / two_level.omega
    assert x_expectation(two_level, "L", period) == pytest.approx(two_level.d, rel=1e-10)


def test_x_expectation_period_matches_gap(two_level, table_spectrum):
    from dwell import gap01

    gap = gap01(table_spectrum)
    assert 2.0 * math.pi / two_level.omega == pytest.approx(gap.tau, rel=1e-12)


def test_basis_change_unitary():
    # rotated conjugates by O, which is unitary, its own inverse and sends
    # (1,0) -> (1,1)/sqrt2 and (0,1) -> (1,-1)/sqrt2
    o = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    assert np.allclose(o @ o.conj().T, np.eye(2), atol=1e-15)
    assert np.allclose(o @ o, np.eye(2), atol=1e-15)
    for m in (np.diag([1.0, 0.0]), np.array([[0.3, 1j], [-1j, 2.0]])):
        op = TwoByTwoOperator(m, Basis.ENERGY)
        assert np.allclose(np.asarray(op.rotated().matrix), o @ m @ o, atol=1e-15)
        assert np.allclose(np.asarray(op.rotated().rotated().matrix), m, atol=1e-15)


@pytest.mark.parametrize("drive", [HarmonicDrive(3e-30, 6e6), HarmonicDrive(0.0, 0.0)])
def test_closed_forms_agree_at_a_float_and_an_array(two_level, drive):
    # each closed form has one scalar formula on math, mapped over an array
    # point by point, so an array sample is the float call's value
    times = np.linspace(-2.0, 13.0, 61) / two_level.omega
    traces = [lambda t: (x_expectation(two_level, "L", t), x_expectation(two_level, "R", t)),
              lambda t: flip_flop(two_level, 0.3, t),
              lambda t: rabi_off_resonance(two_level, drive, t),
              lambda t: rabi_localized(two_level, drive, t)]
    for trace in traces:
        arrays = trace(times)
        for i, t in enumerate(times.tolist()):
            for value, array in zip(trace(t), arrays):
                assert type(value) is float
                assert value == array[i]


def test_perturbation_matrices(two_level):
    h, h_prime, w, h_rot, w_rot = perturbation_matrices(two_level)
    hbar_omega = two_level.hbar * two_level.omega
    e_mean = 0.5 * (two_level.e0 + two_level.e1)

    assert h.basis is Basis.ENERGY and h_rot.basis is Basis.LOCALIZED
    assert np.allclose(h.matrix, np.diag([two_level.e0, two_level.e1]))
    assert np.allclose(h_prime.matrix, e_mean * np.eye(2))
    assert np.allclose(w.matrix, np.diag([hbar_omega / 2.0, -hbar_omega / 2.0]))

    # trace is preserved by the similarity transform
    assert np.trace(h_rot.matrix) == pytest.approx(two_level.e0 + two_level.e1)
    assert np.allclose(h_rot.matrix,
                       [[e_mean, -hbar_omega / 2.0], [-hbar_omega / 2.0, e_mean]],
                       rtol=1e-14)
    # the rotated perturbation is purely off-diagonal with equal entries
    assert np.allclose(np.diag(w_rot.matrix), 0.0, atol=1e-30)
    assert w_rot.matrix[0][1] == pytest.approx(hbar_omega / 2.0, rel=1e-14)
    assert w_rot.matrix[1][0] == pytest.approx(hbar_omega / 2.0, rel=1e-14)


def test_rotation_involutive(two_level):
    h, *_ = perturbation_matrices(two_level)
    assert np.allclose(h.rotated().rotated().matrix, h.matrix, rtol=1e-14)


def test_flip_flop_certainties(two_level):
    omega = two_level.omega
    p_l, p_r = flip_flop(two_level, math.pi / 2.0, 0.0)
    assert p_l == 1.0 and p_r == 0.0
    p_l, p_r = flip_flop(two_level, math.pi / 2.0, math.pi / omega)
    assert p_l < 1e-30 and p_r >= 1.0 - 1e-30
    p_l, p_r = flip_flop(two_level, math.pi / 2.0, 2.0 * math.pi / omega)
    assert p_l >= 1.0 - 1e-30 and p_r < 1e-30


def test_flip_flop_quarter_period(two_level):
    # sin^2(pi/4 + pi/2) = 1/2 at t = pi/(2 omega)
    t = math.pi / (2.0 * two_level.omega)
    p_l, p_r = flip_flop(two_level, math.pi / 2.0, t)
    assert p_l == pytest.approx(0.5, abs=1e-12)
    assert p_r == pytest.approx(0.5, abs=1e-12)


def test_flip_flop_probability_conservation(two_level):
    t = np.linspace(0.0, 6.0 * math.pi / two_level.omega, 1000)
    p_l, p_r = flip_flop(two_level, 0.7, t)
    assert np.all(p_l >= 0.0) and np.all(p_l <= 1.0)
    assert np.max(np.abs(p_l + p_r - 1.0)) <= 1e-12


def test_flip_flop_matches_rk4(two_level):
    phi = 0.3
    omega = two_level.omega
    times = np.linspace(0.0, 4.0 * math.pi / omega, 80)
    c0 = np.array([math.sin(phi), -1j * math.cos(phi)])
    c = rk4_two_level(flip_flop_generator(two_level), c0, times,
                      two_level.hbar, (2.0 * math.pi / omega) / 200.0)
    p_l_exact, _ = flip_flop(two_level, phi, times)
    assert np.max(np.abs(np.abs(c[:, 0]) ** 2 - p_l_exact)) <= 1e-6
    # unitarity of the integrator itself
    assert np.max(np.abs(np.sum(np.abs(c) ** 2, axis=1) - 1.0)) <= 1e-10


def test_rabi_resonant_full_transfer(two_level):
    drive = HarmonicDrive(0.05 * two_level.hbar * two_level.omega, two_level.omega)
    r0 = drive.amplitude / two_level.hbar
    t_flip = math.pi / (2.0 * r0)
    p0, p1 = rabi_off_resonance(two_level, drive, t_flip)
    assert p1 == pytest.approx(1.0, abs=1e-12)
    assert p0 == pytest.approx(0.0, abs=1e-12)


def test_rabi_no_drive(two_level):
    drive = HarmonicDrive(0.0, 0.9 * two_level.omega)
    t = np.linspace(0.0, 10.0 / two_level.omega, 50)
    p0, p1 = rabi_off_resonance(two_level, drive, t)
    assert np.all(p1 == 0.0) and np.all(p0 == 1.0)


@pytest.mark.parametrize("amplitude, omega_prime", [(math.inf, 1.0), (1.0, math.inf),
                                                    (math.nan, 1.0), (1.0, math.nan),
                                                    (-1.0, 1.0), (1.0, -1.0)])
def test_harmonic_drive_rejects_a_non_finite_or_negative_value(amplitude, omega_prime):
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        HarmonicDrive(amplitude, omega_prime)


def test_a_rabi_rate_that_overflows_raises(two_level):
    # A/hbar overflows to inf, where (R1/R0)^2 is NaN and the RK4 step is 0
    drive = HarmonicDrive(1e300, two_level.omega)
    for call in (rabi_off_resonance, rabi_localized):
        with pytest.raises(ValueError, match="Rabi rate overflows"):
            call(two_level, drive, 0.0)
    with pytest.raises(ValueError, match="Rabi rate overflows"):
        rk4_step_for(two_level, drive)


@pytest.mark.parametrize("t", [1e300, -1e300, math.inf, math.nan])
def test_a_phase_past_2_52_rad_raises(two_level, t):
    # from 2**52 rad on adjacent doubles are 1 rad apart: the sine is noise
    drive = HarmonicDrive(0.1 * two_level.hbar * two_level.omega, two_level.omega)
    calls = [("omega*t", lambda t: x_expectation(two_level, "L", t)),
             ("omega*t/2 + phi", lambda t: flip_flop(two_level, math.pi / 2.0, t)),
             ("R0*t", lambda t: rabi_off_resonance(two_level, drive, t)),
             ("R0*t", lambda t: rabi_localized(two_level, drive, t))]
    for name, call in calls:
        for at in (t, np.array([0.0, t])):
            with pytest.raises(ValueError, match=re.escape(f"phase |{name}| = ")):
                call(at)


def test_a_phase_below_2_52_rad_keeps_its_bits(two_level):
    t = 2.0**51 / two_level.omega
    assert x_expectation(two_level, "L", t) == two_level.d * math.cos(two_level.omega * t)
    with pytest.raises(ValueError, match="is not below 2\\*\\*52 rad"):
        x_expectation(two_level, "L", 4.0 * t)


def test_rabi_half_amplitude_at_twice_rate_detuning(two_level):
    a = 0.02 * two_level.hbar * two_level.omega
    detuning = 2.0 * a / two_level.hbar
    drive = HarmonicDrive(a, two_level.omega + detuning)
    r1 = a / two_level.hbar
    r0 = math.hypot(r1, detuning / 2.0)
    _, p1_peak = rabi_off_resonance(two_level, drive, math.pi / (2.0 * r0))
    assert p1_peak == pytest.approx(0.5, abs=1e-12)


def test_rabi_amplitude_monotone_in_detuning(two_level):
    a = 0.02 * two_level.hbar * two_level.omega
    amplitudes = []
    for mult in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        detuning = mult * a / two_level.hbar
        r1 = a / two_level.hbar
        r0 = math.hypot(r1, detuning / 2.0)
        amplitudes.append((r1 / r0) ** 2)
    assert all(x > y for x, y in zip(amplitudes, amplitudes[1:]))


@pytest.mark.parametrize("omega_mult", [0.97, 1.02])
def test_rabi_matches_rk4(two_level, omega_mult):
    a = 0.08 * two_level.hbar * two_level.omega
    drive = HarmonicDrive(a, omega_mult * two_level.omega)
    r0 = math.hypot(a / two_level.hbar, (drive.omega_prime - two_level.omega) / 2.0)
    times = np.linspace(0.0, 2.0 * math.pi / r0, 60)  # two Rabi periods
    c = rk4_two_level(simple_drive_interaction(two_level, drive),
                      np.array([1.0 + 0.0j, 0.0j]), times, two_level.hbar,
                      rk4_step_for(two_level, drive))
    p0, p1 = rabi_off_resonance(two_level, drive, times)
    assert np.max(np.abs(np.abs(c[:, 1]) ** 2 - p1)) <= 1e-6
    assert np.max(np.abs(np.abs(c[:, 0]) ** 2 - p0)) <= 1e-6


def test_rabi_localized_static_limit(two_level):
    a = 0.03 * two_level.hbar * two_level.omega
    drive = HarmonicDrive(a, 0.0)
    r0p = a / two_level.hbar
    t = np.linspace(0.0, math.pi / r0p, 30)
    p_l, p_r = rabi_localized(two_level, drive, t)
    assert p_l[0] == 0.0
    assert np.max(np.abs(p_l + p_r - 1.0)) <= 1e-12
    # full transfer exactly at the quarter period
    p_peak, _ = rabi_localized(two_level, drive, math.pi / (2.0 * r0p))
    assert p_peak == pytest.approx(1.0, abs=1e-12)


def test_rabi_localized_no_drive(two_level):
    drive = HarmonicDrive(0.0, 0.4 * two_level.omega)
    t = np.linspace(0.0, 5.0 / two_level.omega, 20)
    p_l, _ = rabi_localized(two_level, drive, t)
    assert np.all(p_l == 0.0)


def test_rabi_localized_matches_rk4(two_level):
    a = 0.05 * two_level.hbar * two_level.omega
    drive = HarmonicDrive(a, 0.6 * two_level.omega)
    r0p = math.hypot(a / two_level.hbar, drive.omega_prime / 2.0)
    times = np.linspace(0.0, 2.0 * math.pi / r0p, 60)
    c = rk4_two_level(localized_drive_interaction(drive),
                      np.array([0.0j, 1.0 + 0.0j]), times, two_level.hbar,
                      rk4_step_for(two_level, drive))
    p_l, p_r = rabi_localized(two_level, drive, times)
    assert np.max(np.abs(np.abs(c[:, 0]) ** 2 - p_l)) <= 1e-6
    assert np.max(np.abs(np.abs(c[:, 1]) ** 2 - p_r)) <= 1e-6


def test_transition_amplitude_zero_cases(two_level):
    hbar = two_level.hbar
    elems = (0.3 + 0.1j, 0.3 - 0.1j)
    c = transition_amplitude(two_level.e0, two_level.e1, elems,
                             0.3 * two_level.omega, 0.0, hbar)
    assert c == 0.0
    c = transition_amplitude(two_level.e0, two_level.e1, (0.0, 0.0),
                             0.3 * two_level.omega, 1.0 / two_level.omega, hbar)
    assert c == 0.0


def test_transition_amplitude_resonant_guard(two_level):
    elems = (1e-30, 1e-30)
    with pytest.raises(ResonantDenominator):
        transition_amplitude(two_level.e0, two_level.e1, elems,
                             two_level.omega, 1.0, two_level.hbar)


@pytest.mark.parametrize("t", [1e300, 1e15])
def test_a_transition_amplitude_phase_past_2_52_rad_raises(t):
    # at 1e300 s the phase overflows to inf; at 1e15 s it is about 9.5e23
    # rad, where e^{i phase} is rounding noise
    with pytest.raises(ValueError, match=re.escape("phase |((E_m-E_n)/hbar - w')*t| = ")):
        transition_amplitude(1e-25, 2e-25, (1e-30, 1e-30), 1e6, t, 1.054571817e-34)


def test_rk4_output_of_the_builtin_drives_keeps_its_bits(two_level):
    # float.hex digests of rk4_two_level's output, recorded when the drive
    # matrices were still read as arrays of times in batches
    drive = HarmonicDrive(0.05 * two_level.hbar * two_level.omega, 1.02 * two_level.omega)
    times = np.linspace(0.0, 6.0 * math.pi / two_level.omega, 9)
    step = rk4_step_for(two_level, drive)
    pinned = [(simple_drive_interaction(two_level, drive), "8f2a3c40feb80824"),
              (localized_drive_interaction(drive), "749d71d667d3df5e"),
              (flip_flop_generator(two_level), "e3b5389724df3636")]
    for fn, expected in pinned:
        c = rk4_two_level(fn, np.array([0.6 + 0.0j, 0.8j]), times, two_level.hbar, step)
        assert c.shape == (9, 2) and c.dtype == complex
        values = c.real.ravel().tolist() + c.imag.ravel().tolist()
        text = ",".join(v.hex() for v in values)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == expected


def test_transition_amplitude_matches_first_order_rk4(two_level):
    # weak symmetric drive 2A cos(w' t) sigma_x; both matrix elements real
    hbar = two_level.hbar
    omega = two_level.omega
    a = hbar * omega / 500.0
    omega_prime = 0.7 * omega
    drive = HarmonicDrive(a, omega_prime)

    def interaction(t: float):
        coupling = 2.0 * a * math.cos(omega_prime * t) * cmath.exp(-1j * omega * t)
        return ((0.0, coupling), (coupling.conjugate(), 0.0))

    times = np.linspace(0.0, 20.0 / omega, 40)
    c = rk4_two_level(interaction, np.array([1.0 + 0.0j, 0.0j]), times, hbar,
                      rk4_step_for(two_level, drive))
    p_rk4 = np.abs(c[:, 1]) ** 2
    p_formula = np.array([
        abs(transition_amplitude(two_level.e0, two_level.e1, (a, a),
                                 omega_prime, t, hbar)) ** 2
        for t in times])
    assert np.max(p_rk4) < 0.01  # the perturbative window
    mask = p_rk4 > 0.2 * np.max(p_rk4)
    rel = np.abs(p_formula[mask] / p_rk4[mask] - 1.0)
    assert np.max(rel) <= 0.05


def test_rk4_is_fourth_order_under_a_time_dependent_drive():
    # no closed form: the drive's amplitude, phase and detuning all vary in
    # time, so a stage read at the wrong time drops the order below four
    def matrix(t: float):
        detuning = 0.4 * math.cos(1.3 * t)
        coupling = (1.0 + 0.5 * math.sin(2.1 * t)) * cmath.exp(0.7j * t * t)
        return ((detuning, coupling), (coupling.conjugate(), -detuning))

    times = np.array([0.0, 1.0, 2.0, 3.0])
    c0 = np.array([1.0 + 0.0j, 0.0j])
    fine = rk4_two_level(matrix, c0, times, 1.0, 0.2 / 64)
    errors = [np.max(np.abs(rk4_two_level(matrix, c0, times, 1.0, step) - fine))
              for step in (0.2, 0.1)]
    assert errors[0] >= 12.0 * errors[1]


def test_two_level_validation(two_level):
    with pytest.raises(ValueError):
        TwoLevelSystem(2.0, 1.0, 1e-7, two_level.hbar)
    with pytest.raises(ValueError):
        TwoLevelSystem(1e-26, 1.1e-26, -1e-7, two_level.hbar)
    with pytest.raises(ValueError):
        # splitting at the scale bound is not a valid two-level system
        TwoLevelSystem(1e-26, 3e-26, 1e-7, two_level.hbar,
                       confinement_scale=1e-26)


def test_from_well_consistency(table_well, two_level, table_spectrum):
    levels = {lv.index: lv for lv in table_spectrum.levels}
    assert two_level.e0 == pytest.approx(levels[0].energy, rel=1e-14)
    assert two_level.e1 == pytest.approx(levels[1].energy, rel=1e-14)
    assert two_level.omega > 0
    assert two_level.big_omega > two_level.omega


def test_from_well_runs_the_quad_cross_check(table_well, monkeypatch):
    # the dipole element is checked by the Gauss-Legendre rule on every call,
    # once per region of the well, with an even panel count
    calls = []
    rule = wavefunction._gauss_legendre

    def counting_rule(func, lo, hi, panels):
        calls.append((lo, hi))
        assert panels >= 2 and panels % 2 == 0
        return rule(func, lo, hi, panels)

    monkeypatch.setattr(wavefunction, "_gauss_legendre", counting_rule)
    TwoLevelSystem.from_well(table_well)
    edge = table_well.a + table_well.b
    assert calls == [(-edge, -table_well.b), (-table_well.b, table_well.b), (table_well.b, edge)]


def test_from_well_rejects_a_disagreeing_quadrature(table_well, monkeypatch):
    rule = wavefunction._gauss_legendre

    def biased_rule(func, lo, hi, panels):
        val, err = rule(func, lo, hi, panels)
        return val * (1.0 + 1e-6), err

    monkeypatch.setattr(wavefunction, "_gauss_legendre", biased_rule)
    with pytest.raises(QuadratureError, match="analytic dipole"):
        TwoLevelSystem.from_well(table_well)


def test_from_well_rejects_disagreeing_panel_counts(table_well, monkeypatch):
    # skewing only the coarse rule leaves the fine value right, so the
    # panel estimate is the check that fires
    rules = wavefunction._panel_rules

    def skewed_rules(panels):
        fine, (nodes, weights) = rules(panels)
        return fine, (nodes, tuple(w * (1.0 + 1e-6) for w in weights))

    monkeypatch.setattr(wavefunction, "_panel_rules", skewed_rules)
    with pytest.raises(QuadratureError, match="n and n/2 panels disagree by"):
        TwoLevelSystem.from_well(table_well)


def test_from_well_raises_exactly_on_flagged_widths(table_well):
    flagged = 0
    for b in np.linspace(600e-9, 1000e-9, 21):
        spec = table_well.with_b(float(b))
        result = solve_below_barrier(to_dimensionless(spec))
        if result.solver_report[0].degenerate_pair:
            flagged += 1
            with pytest.raises(DegenerateGap, match="the solver cannot resolve the lowest pair"):
                TwoLevelSystem.from_well(spec)
        else:
            sys = TwoLevelSystem.from_well(spec)
            assert (sys.e0, sys.e1) == (result.levels[0].energy, result.levels[1].energy)
    assert 0 < flagged < 21


def test_from_well_solves_only_the_lowest_pair(table_well, two_level, monkeypatch):
    solve = spectrum._solve_pair_diagnosed

    def fail_upper_pairs(n, well):
        if n >= 1:
            raise ConvergenceFailure("injected")
        return solve(n, well)

    monkeypatch.setattr(spectrum, "_solve_pair_diagnosed", fail_upper_pairs)
    assert TwoLevelSystem.from_well(table_well) == two_level


def test_operator_requires_2x2():
    with pytest.raises(ValueError):
        TwoByTwoOperator(np.eye(3), Basis.ENERGY)

"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with `pytest -s tests/test_acceptance.py`
to see them) and enforces its tolerances with plain asserts.
"""

import math
import time

import numpy as np
import pytest

from dwell import (
    CODATA_CONSTANTS,
    PAPER_CONSTANTS,
    TABLE1_WELL,
    Basis,
    HarmonicDrive,
    LocalizedState,
    TwoByTwoOperator,
    WellSpec,
    aligned_size,
    build_grid_hamiltonian,
    change_basis,
    expectation,
    find_b_for_gap,
    flip_flop,
    global_temperature_bound,
    is_pure,
    lowest_eigenvalues,
    rabi_localized,
    rabi_off_resonance,
    reduce_state,
    reference_states,
    solve_below_barrier,
    to_dimensionless,
    verify_bounds,
)
from dwell.cli import table1_rows
from dwell.density import CompositeState
from dwell.dynamics import (
    localized_drive_interaction,
    rk4_step_for,
    rk4_two_level,
    simple_drive_interaction,
)

HBAR = CODATA_CONSTANTS.hbar

# the published seven-row reference: (b nm, E0 J, E1 J, dE J, tau s)
REPORTED_ROWS = (
    (100.00000, 5.3753895e-26, 5.4382093e-26, 6.3e-28, 1.0e-6),
    (116.65290, 5.3899569e-26, 5.4246062e-26, 3.5e-28, 2.9e-6),
    (136.07900, 5.3987829e-26, 5.4160961e-26, 1.7e-28, 3.8e-6),
    (158.74011, 5.4036276e-26, 5.4113353e-26, 0.77e-28, 8.6e-6),
    (185.17494, 5.4059909e-26, 5.4089897e-26, 0.30e-28, 22.0e-6),
    (216.01195, 5.4069931e-26, 5.4079902e-26, 0.10e-28, 66.0e-6),
    (251.98421, 5.4073539e-26, 5.4076298e-26, 2.7e-30, 240e-6),
)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def solved_rows():
    start = time.perf_counter()
    rows = table1_rows()
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_1_reference_table(solved_rows):
    rows, elapsed = solved_rows
    worst_e = worst_gap = worst_tau = 0.0
    for row, (b_nm, e0_ref, e1_ref, gap_ref, tau_ref) in zip(rows, REPORTED_ROWS):
        assert row.error is None
        worst_e = max(worst_e, abs(row.e0 / e0_ref - 1.0), abs(row.e1 / e1_ref - 1.0))
        worst_gap = max(worst_gap, abs(row.delta_e / gap_ref - 1.0))
        # tau cells are checked against the printed value when that value is
        # consistent with the row's own printed splitting, otherwise (rows 1
        # and 2, which are not) against 2 pi hbar / dE_printed
        tau_from_gap = 2.0 * math.pi * HBAR / gap_ref
        reference = tau_ref if abs(tau_from_gap / tau_ref - 1.0) <= 0.05 else tau_from_gap
        worst_tau = max(worst_tau, abs(row.tau / reference - 1.0))
    ok = worst_e <= 1e-4 and worst_gap <= 0.05 and worst_tau <= 0.05 and elapsed < 5.0
    _report(1, ok,
            f"seven-row table: max |dE0,1| = {worst_e:.2e} (<=1e-4), "
            f"max |d(gap)| = {worst_gap:.1%} (<=5%), max |d(tau)| = {worst_tau:.1%} "
            f"(<=5%), solved in {elapsed:.2f} s (<5 s)")


def test_criterion_2_scale_constants(solved_rows):
    rows, _ = solved_rows
    b_paper = WellSpec(1e-6, 1e-7, 2e-24, 9.1e-31).barrier_bound
    t_bound = global_temperature_bound(1e-6, 9.1e-31)
    tau_floor = 4.0 * 9.1e-31 * (1e-6) ** 2 / (math.pi * PAPER_CONSTANTS.hbar)
    ok_b = abs(b_paper / 0.6e-25 - 1.0) <= 0.01
    ok_t = abs(t_bound / 1.1e-3 - 1.0) <= 0.05
    ok_tau = all(r.tau > 11e-9 for r in rows) and tau_floor > 10.5e-9
    ok = ok_b and ok_t and ok_tau
    _report(2, ok,
            f"B = {b_paper:.4e} J (0.6e-25 within 1%), T_B = {t_bound:.4e} K "
            f"(1.1 mK within 5%), every period > 11 ns (floor {tau_floor * 1e9:.2f} ns)")


def test_criterion_3_bound_suite():
    from dwell import ScaledWell

    kappas = np.geomspace(10.0, 100.0, 8)
    lams = (0.05, 0.1, 0.2, 0.4, 0.8, 1.4, 2.0)
    wells = 0
    violations: list[str] = []
    for kappa in kappas:
        for lam in lams:
            result = solve_below_barrier(ScaledWell(float(kappa), float(lam)))
            wells += 1
            report = verify_bounds(result)
            for check in report.failures():
                violations.append(f"kappa={kappa:.3g} lam={lam}: {check.name}")

    lemma_ok = True
    for delta in (1e-28, 1e-29, 1e-30):
        found = find_b_for_gap(delta, TABLE1_WELL)
        even, odd = solve_below_barrier(to_dimensionless(TABLE1_WELL.with_b(found.b)), 1).levels
        lemma_ok &= (odd.energy - even.energy < delta) and found.certified

    ok = wells >= 50 and not violations and lemma_ok
    _report(3, ok,
            f"{wells} wells across kappa in [10,100], lambda in [0.05,2]: "
            f"{len(violations)} bound violations; gap targets 1e-28..1e-30 J "
            f"reached and re-solve confirmed")


def test_criterion_4_oracle_equivalence():
    a, m = 1e-6, PAPER_CONSTANTS.m_e
    probe = WellSpec(a, a, 1.0, m)
    b_scale = probe.barrier_bound
    sample = [(12.0, 0.07), (15.0, 0.15), (20.0, 0.3), (25.0, 0.5), (33.2, 0.1),
              (40.0, 0.8), (55.0, 0.12), (70.0, 0.25), (85.0, 0.06), (100.0, 0.4)]
    worst = 0.0
    for kappa, lam in sample:
        spec = WellSpec(a, lam * a, kappa * b_scale, m)
        result = solve_below_barrier(to_dimensionless(spec))
        grid = lowest_eigenvalues(build_grid_hamiltonian(spec, 20_000),
                                  len(result.levels))
        for level, grid_e in zip(result.levels, grid):
            worst = max(worst, abs(float(grid_e) / level.energy - 1.0))

    n1 = aligned_size(TABLE1_WELL, 5000)
    e_ref = solve_below_barrier(to_dimensionless(TABLE1_WELL), 1).levels[0].energy
    errs = [abs(float(lowest_eigenvalues(build_grid_hamiltonian(TABLE1_WELL, n), 1)[0])
                / e_ref - 1.0) for n in (n1, 2 * n1)]
    order = math.log2(errs[0] / errs[1])

    ok = worst <= 1e-4 and order >= 1.9
    _report(4, ok,
            f"10 wells at n=2e4: worst level disagreement {worst:.2e} (<=1e-4); "
            f"measured convergence order {order:.2f} (>=1.9)")


def test_criterion_5_dynamics(two_level, table_pair):
    sys_ = two_level
    omega = sys_.omega

    # probability conservation on every closed-form series
    t_grid = np.linspace(0.0, 6.0 * math.pi / omega, 400)
    drive_a = HarmonicDrive(0.08 * sys_.hbar * omega, 1.02 * omega)
    drive_b = HarmonicDrive(0.05 * sys_.hbar * omega, 0.6 * omega)
    conserved = 0.0
    for pair in (flip_flop(sys_, 0.4, t_grid),
                 rabi_off_resonance(sys_, drive_a, t_grid),
                 rabi_localized(sys_, drive_b, t_grid)):
        conserved = max(conserved, float(np.max(np.abs(pair[0] + pair[1] - 1.0))))

    p_l_half = flip_flop(sys_, math.pi / 2.0, math.pi / omega)[0]
    p_l_full = flip_flop(sys_, math.pi / 2.0, 2.0 * math.pi / omega)[0]
    certainty_ok = p_l_half < 1e-30 and p_l_full >= 1.0 - 1e-30

    # closed forms against the RK4 integrator over two Rabi periods
    r0 = math.hypot(drive_a.amplitude / sys_.hbar, (drive_a.omega_prime - omega) / 2.0)
    times = np.linspace(0.0, 2.0 * math.pi / r0, 80)
    c = rk4_two_level(simple_drive_interaction(sys_, drive_a),
                      np.array([1.0 + 0.0j, 0.0j]), times, sys_.hbar,
                      rk4_step_for(sys_, drive_a))
    rabi_err = float(np.max(np.abs(np.abs(c[:, 1]) ** 2
                                   - rabi_off_resonance(sys_, drive_a, times)[1])))
    r0p = math.hypot(drive_b.amplitude / sys_.hbar, drive_b.omega_prime / 2.0)
    times_b = np.linspace(0.0, 2.0 * math.pi / r0p, 80)
    c_b = rk4_two_level(localized_drive_interaction(drive_b),
                        np.array([0.0j, 1.0 + 0.0j]), times_b, sys_.hbar,
                        rk4_step_for(sys_, drive_b))
    rabi_err = max(rabi_err,
                   float(np.max(np.abs(np.abs(c_b[:, 0]) ** 2
                                       - rabi_localized(sys_, drive_b, times_b)[0]))))

    # time-displaced replica on a 50 x 50 sample, in sqrt(a)-scaled units
    psi0, psi1 = table_pair
    left = LocalizedState(psi0, psi1, "L")
    right = LocalizedState(psi0, psi1, "R")
    big_omega = (psi0.level.energy + psi1.level.energy) / (2.0 * psi0.hbar)
    factor = 1j * np.exp(-1j * math.pi * big_omega / omega)
    x = np.linspace(-psi0.a - psi0.b, psi0.a + psi0.b, 50)
    replica = 0.0
    for t in np.linspace(0.0, 4.0 * math.pi / omega, 50):
        lhs = left(x, t + math.pi / omega)
        rhs = factor * right(x, t)
        replica = max(replica, float(np.max(np.abs(lhs - rhs))) * math.sqrt(psi0.a))

    ok = (conserved <= 1e-12 and certainty_ok and rabi_err <= 1e-6
          and replica <= 1e-10)
    _report(5, ok,
            f"probability conservation {conserved:.1e} (<=1e-12); flip-flop "
            f"certainties exact; Rabi vs RK4 {rabi_err:.1e} (<=1e-6); replica "
            f"identity {replica:.1e} (<=1e-10)")


def test_criterion_6_density_suite():
    kinds = [is_pure(state) for _, state in reference_states()]
    classified_ok = kinds == [True, True, True, False, False, False]

    rng = np.random.default_rng(7)
    s2 = 1.0 / math.sqrt(2.0)
    pipeline = 0.0
    for _ in range(1000):
        amp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c_l, c_r = amp / np.linalg.norm(amp)
        coeffs = np.array([[c_l * s2, c_r * s2], [c_l * s2, -c_r * s2]])
        rho = change_basis(reduce_state(CompositeState(coeffs)), Basis.LOCALIZED)
        f = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        f = f + f.conj().T
        value = expectation(rho, TwoByTwoOperator(f, Basis.LOCALIZED))
        classical = abs(c_l) ** 2 * f[0, 0].real + abs(c_r) ** 2 * f[1, 1].real
        pipeline = max(pipeline, abs(value - classical))

    purity_drift = 0.0
    for _ in range(200):
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = reduce_state(CompositeState(c / np.linalg.norm(c)))
        purity_drift = max(purity_drift,
                           abs(change_basis(rho, Basis.LOCALIZED).purity - rho.purity))

    ok = classified_ok and pipeline <= 1e-10 and purity_drift <= 1e-12
    _report(6, ok,
            f"reference states classify 3 pure / 3 mixed; localized-mixture "
            f"expectation pipeline max error {pipeline:.1e} (<=1e-10); purity "
            f"rotation drift {purity_drift:.1e} (<=1e-12)")


def test_criterion_7_exponential_splitting(solved_rows):
    rows, _ = solved_rows
    b = np.array([r.b for r in rows])
    ln_gap = np.log([r.delta_e for r in rows])
    slope, intercept = np.polyfit(b, ln_gap, 1)
    fitted = slope * b + intercept
    ss_res = float(np.sum((ln_gap - fitted) ** 2))
    ss_tot = float(np.sum((ln_gap - ln_gap.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot

    e0_mean = float(np.mean([r.e0 for r in rows]))
    beta = math.sqrt(2.0 * TABLE1_WELL.m * (TABLE1_WELL.k - e0_mean)) / HBAR
    slope_match = abs(slope / (-2.0 * beta) - 1.0)

    ok = r_squared >= 0.999 and slope_match <= 0.03
    _report(7, ok,
            f"ln(gap) vs b: R^2 = {r_squared:.6f} (>=0.999); fitted slope within "
            f"{slope_match:.2%} of -2 beta (<=3%)")

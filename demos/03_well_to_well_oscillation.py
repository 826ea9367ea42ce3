"""The zero-point well-to-well oscillation of the lowest pair.

Equal-weight superpositions of the even ground state and the odd first
excited state localize in one valley and slosh to the other at omega =
(E1 - E0)/hbar, with no external drive: <x>(t) = d cos(omega t), and the
occupation probabilities flip-flop as sin^2/cos^2.  The same motion viewed
in the localized basis is a resonant Rabi oscillation driven by the
tunneling coupling hbar omega / 2.
"""

import math

import numpy as np

from dwell import (
    TABLE1_WELL,
    LocalizedState,
    TwoLevelSystem,
    build_eigenfunction,
    dipole_matrix_element,
    flip_flop,
    perturbation_matrices,
    solve_below_barrier,
    to_dimensionless,
    x_expectation,
)

sys_ = TwoLevelSystem.from_well(TABLE1_WELL)
period = 2.0 * math.pi / sys_.omega
print(f"splitting       E1 - E0 = {sys_.e1 - sys_.e0:.4e} J")
print(f"frequency       omega   = {sys_.omega:.4e} rad/s")
print(f"period          tau     = {period * 1e6:.3f} us")
print(f"dipole element  d       = {sys_.d * 1e6:.4f} um")

print("\noccupations and position through one period (prepared on one side):")
print(f"{'t/tau':>6} {'P_L':>8} {'P_R':>8} {'<x> (um)':>10}")
for frac in np.linspace(0.0, 1.0, 9):
    t = frac * period
    p_l, p_r = flip_flop(sys_, math.pi / 2.0, t)
    x = x_expectation(sys_, "L", t)
    print(f"{frac:>6.3f} {float(p_l):>8.4f} {float(p_r):>8.4f} {float(x) * 1e6:>10.4f}")

# the two faces of the same coupling: diagonal splitting in the energy
# basis, pure off-diagonal hbar omega / 2 in the localized basis
h, h_prime, w, h_rot, w_rot = perturbation_matrices(sys_)
print("\nperturbation in the energy basis (diagonal, +-hbar omega/2):")
print(np.real(w.matrix))
print("rotated to the localized basis (purely off-diagonal):")
print(np.real(w_rot.matrix))

# the t = 0 localized state really does live on one side
result = solve_below_barrier(to_dimensionless(TABLE1_WELL))
levels = {lv.index: lv for lv in result.levels}
psi0 = build_eigenfunction(TABLE1_WELL, levels[0])
psi1 = build_eigenfunction(TABLE1_WELL, levels[1])
state = LocalizedState(psi0, psi1, "L")
x_grid = np.linspace(0.0, psi0.a + psi0.b, 20_001)
one_sided = np.trapezoid(np.abs(state(x_grid, 0.0)) ** 2, x_grid)
print(f"\nprobability on the occupied side at t = 0: {one_sided:.6f}")
print(f"dipole from the eigenfunctions: {dipole_matrix_element(psi0, psi1) * 1e6:.4f} um")

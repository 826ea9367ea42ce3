"""The tunneling splitting dies exponentially with barrier width.

Sweeping the barrier half-width b at fixed valley width and barrier height
reproduces the reference seven-row table: the gap E1 - E0 falls by two
orders of magnitude while the oscillation period tau = 2 pi hbar / dE grows
from a microsecond to a quarter millisecond.  A log-linear fit of the gap
recovers the barrier decay constant beta = sqrt(2 m (k - E0)) / hbar.
"""

import math

import numpy as np

from dwell import TABLE1_B_VALUES, TABLE1_WELL, find_b_for_gap, gap_sweep

rows = gap_sweep(TABLE1_WELL, list(TABLE1_B_VALUES))

print(f"{'b (nm)':>10} {'E0 (J)':>14} {'E1 (J)':>14} {'dE (J)':>12} {'tau':>12}")
for r in rows:
    print(f"{r.b * 1e9:>10.5f} {r.e0:>14.7e} {r.e1:>14.7e} {r.delta_e:>12.4e} "
          f"{r.tau * 1e6:>10.2f} us")

b = np.array([r.b for r in rows])
ln_gap = np.log([r.delta_e for r in rows])
slope, intercept = np.polyfit(b, ln_gap, 1)
residual = ln_gap - (slope * b + intercept)
r2 = 1.0 - np.sum(residual**2) / np.sum((ln_gap - ln_gap.mean()) ** 2)

e0_mean = np.mean([r.e0 for r in rows])
beta = math.sqrt(2.0 * TABLE1_WELL.m * (TABLE1_WELL.k - e0_mean)) / TABLE1_WELL.constants.hbar
print(f"\nln(dE) vs b: slope = {slope:.5e} 1/m   (R^2 = {r2:.7f})")
print(f"-2 beta      = {-2.0 * beta:.5e} 1/m   (slope/-2beta = {slope / (-2 * beta):.5f})")

# invert the relation: how wide must the barrier be for a target splitting?
for delta in (1e-28, 1e-29, 1e-30):
    found = find_b_for_gap(delta, TABLE1_WELL)
    print(f"gap < {delta:.0e} J first reached at b = {found.b * 1e9:8.2f} nm "
          f"(gap there {found.gap:.2e} J, certificate "
          f"cot^2 = {found.cot2:.1f} < {found.cot2_bound:.1f}: {found.certified})")

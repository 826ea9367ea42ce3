"""Driven transitions and the temperature ceiling of the two-level picture.

A harmonic drive A e^{i w' t} + h.c. produces Rabi oscillations whose
amplitude (R1/R0)^2 collapses as the drive detunes from the splitting;
closed forms are cross-checked here against a fixed-step RK4 integration.
Wien's displacement law then converts the second excited level's distance
into the highest radiation temperature the two-level description survives.
"""

import math

import numpy as np

from dwell import (
    TABLE1_WELL,
    HarmonicDrive,
    TwoLevelSystem,
    rabi_off_resonance,
    solve_below_barrier,
    temperature_limit,
    thermal_report,
    to_dimensionless,
    wien_peak_frequency,
)
from dwell.dynamics import rk4_step_for, rk4_two_level, simple_drive_interaction

sys_ = TwoLevelSystem.from_well(TABLE1_WELL)

print("Rabi amplitude vs detuning (drive A = 0.05 hbar omega):")
a = 0.05 * sys_.hbar * sys_.omega
for mult in (0.0, 1.0, 2.0, 4.0, 8.0):
    detuning = mult * a / sys_.hbar
    drive = HarmonicDrive(a, sys_.omega + detuning)
    r1 = a / sys_.hbar
    r0 = math.hypot(r1, detuning / 2.0)
    print(f"  detuning = {mult:3.0f} (A/hbar): peak P1 = {(r1 / r0) ** 2:.4f}")

drive = HarmonicDrive(a, 1.01 * sys_.omega)
r0 = math.hypot(a / sys_.hbar, (drive.omega_prime - sys_.omega) / 2.0)
times = np.linspace(0.0, 2.0 * math.pi / r0, 9)
c = rk4_two_level(simple_drive_interaction(sys_, drive),
                  np.array([1.0 + 0.0j, 0.0j]), times, sys_.hbar,
                  rk4_step_for(sys_, drive))
_, p1 = rabi_off_resonance(sys_, drive, times)
print("\nclosed form vs RK4 integration (slightly detuned drive):")
print(f"{'t R0/pi':>8} {'P1 formula':>12} {'P1 RK4':>12}")
for t, p_formula, amps in zip(times, p1, c):
    print(f"{t * r0 / math.pi:>8.3f} {float(p_formula):>12.8f} "
          f"{abs(amps[1]) ** 2:>12.8f}")

# thermal ceiling: radiation hotter than T_max pumps the system past the
# two lowest levels; T_B bounds T_max for every barrier width
result = solve_below_barrier(to_dimensionless(TABLE1_WELL))
levels = {lv.index: lv for lv in result.levels}
gap12 = levels[2].energy - levels[1].energy
report = thermal_report(gap12, TABLE1_WELL.a, TABLE1_WELL.m, TABLE1_WELL.constants)
print(f"\nE2 - E1 = {gap12:.3e} J")
print(f"T_max   = {report.t_max * 1e3:.3f} mK")
print(f"T_B     = {report.t_bound * 1e3:.3f} mK  (T_max/T_B = "
      f"{report.t_max / report.t_bound:.3f}, always in [1, 3])")
t = report.t_max
print(f"Wien peak at T_max: omega' = {wien_peak_frequency(t, TABLE1_WELL.constants):.3e} rad/s")
print(f"round trip back to temperature: "
      f"{temperature_limit(TABLE1_WELL.constants.hbar * wien_peak_frequency(t, TABLE1_WELL.constants), TABLE1_WELL.constants):.6e} K")

"""Wien-law temperature limits for the two-level description.

Thermal radiation at temperature T peaks at omega' = 2 pi c T / b_W.  The
two-level picture survives only while that peak cannot reach the second
excited level, giving T_max = (b_W / 2 pi c) (E2 - E1) / hbar, bounded for
every barrier width by T_B <= T_max <= 3 T_B with
T_B = 5 pi hbar b_W / (16 m c a^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .units import PAPER_CONSTANTS, PhysicalConstants, _positive_finite

__all__ = [
    "ThermalLimit",
    "temperature_limit",
    "global_temperature_bound",
    "wien_peak_frequency",
    "thermal_report",
]


@dataclass(frozen=True)
class ThermalLimit:
    """Temperature ceiling for one well plus the geometry-only bound."""

    t_max: float
    e_gap_12: float
    t_bound: float

    @property
    def within_universal_band(self) -> bool:
        """T_B <= T_max <= 3 T_B, guaranteed when the spectral bounds hold."""
        return self.t_bound <= self.t_max <= 3.0 * self.t_bound


def temperature_limit(e2_minus_e1: float,
                      constants: PhysicalConstants = PAPER_CONSTANTS) -> float:
    """Highest radiation temperature that cannot excite past level 1."""
    if e2_minus_e1 <= 0:
        raise ValueError("E2 - E1 must be > 0")
    return constants.b_w / (2.0 * math.pi * constants.c) * e2_minus_e1 / constants.hbar


def global_temperature_bound(a: float, m: float,
                             constants: PhysicalConstants = PAPER_CONSTANTS) -> float:
    """T_B = 5 pi hbar b_W / (16 m c a^2), independent of barrier width;
    NonFiniteScaling where 16 m c a^2 or T_B is not a positive finite float."""
    if a <= 0 or m <= 0:
        raise ValueError("a and m must be > 0")
    denominator = 16.0 * m * constants.c * a * a  # 0 where it underflows, so T_B = inf
    return _positive_finite("T_B", 5.0 * math.pi * constants.hbar * constants.b_w / denominator
                            if denominator else math.inf)


def wien_peak_frequency(temperature: float,
                        constants: PhysicalConstants = PAPER_CONSTANTS) -> float:
    """Angular frequency of the Wien peak, omega' = 2 pi c T / b_W."""
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    return 2.0 * math.pi * constants.c * temperature / constants.b_w


def thermal_report(e2_minus_e1: float, a: float, m: float,
                   constants: PhysicalConstants = PAPER_CONSTANTS) -> ThermalLimit:
    return ThermalLimit(
        t_max=temperature_limit(e2_minus_e1, constants),
        e_gap_12=e2_minus_e1,
        t_bound=global_temperature_bound(a, m, constants),
    )

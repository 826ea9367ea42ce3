"""Physical constants, the double-square-well geometry, and the
dimensionless scaling used by every solver module.

The well is the even piecewise-constant potential with infinite walls at
x = +-(a+b), two flat valleys of width a, and a central barrier of height
k on [-b, b].  All spectral math runs on the dimensionless pair

    kappa = k / B,    lambda = b / a,    B = pi^2 hbar^2 / (2 m a^2),

so that root-finding happens on O(1) numbers instead of 1e-26 J.

`pointwise` maps a scalar formula over an array: every formula outside
the grid oracle computes at one point on `math`, and this is where an
array input imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NonFiniteScaling

__all__ = [
    "PhysicalConstants",
    "PAPER_CONSTANTS",
    "CODATA_CONSTANTS",
    "WellSpec",
    "ScaledWell",
    "to_dimensionless",
    "TABLE1_B_VALUES",
    "TABLE1_K",
    "TABLE1_WELL",
    "pointwise",
]


def pointwise(f, x):
    """f(x) for a Python number x; for any other x, f at each point of x as
    a float, returned as a float array of x's shape."""
    if isinstance(x, (int, float)):
        return f(float(x))
    import numpy as np

    x = np.asarray(x, dtype=float)
    return np.array([f(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def _positive_finite(name: str, value: float, error: type = NonFiniteScaling) -> float:
    """value; error unless it is a positive finite float."""
    if not 0.0 < value < math.inf:
        raise error(f"{name} must be finite and > 0, got {value!r}")
    return value


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants entering the solver.

    hbar: reduced Planck constant (J s)
    m_e: electron rest mass (kg); PAPER_CONSTANTS keeps the paper's
         2-digit 9.1e-31 kg, CODATA_CONSTANTS the full CODATA 2018 value
    c: speed of light (m/s)
    b_w: Wien displacement constant (m K)
    """

    hbar: float = 1.054571817e-34
    m_e: float = 9.1e-31
    c: float = 2.99792458e8
    b_w: float = 2.897771955e-3

    def __post_init__(self) -> None:
        for name in ("hbar", "m_e", "c", "b_w"):
            _positive_finite(f"constant {name}", getattr(self, name), ValueError)


PAPER_CONSTANTS = PhysicalConstants()
CODATA_CONSTANTS = PhysicalConstants(m_e=9.1093837015e-31)

@dataclass(frozen=True)
class WellSpec:
    """One double square well: valley width a, barrier half-width b,
    barrier height k, particle mass m (all SI)."""

    a: float
    b: float
    k: float
    m: float
    constants: PhysicalConstants = PAPER_CONSTANTS

    def __post_init__(self) -> None:
        for name in ("a", "b", "k", "m"):
            _positive_finite(f"well parameter {name}", getattr(self, name), ValueError)

    @property
    def barrier_bound(self) -> float:
        """Confinement scale B = pi^2 hbar^2 / (2 m a^2) in J, a positive finite
        float or NonFiniteScaling; the first level pair lies in (B/4, B)."""
        two_m_a2 = 2.0 * self.m * self.a * self.a  # 0 where it underflows, so B = inf
        return _positive_finite("B", math.pi**2 * self.constants.hbar**2 / two_m_a2
                                if two_m_a2 else math.inf)

    @property
    def big_enough(self) -> bool:
        """Deep-barrier regime flag k >= 10 B (narrow tunneling gap)."""
        return self.k >= 10 * self.barrier_bound

    @property
    def half_width(self) -> float:
        """Distance from the center to either infinite wall, a + b."""
        return self.a + self.b

    def with_b(self, b: float) -> "WellSpec":
        return WellSpec(self.a, b, self.k, self.m, self.constants)


@dataclass(frozen=True)
class ScaledWell:
    """Dimensionless well (kappa = k/B, lam = b/a) plus the SI context
    (b_scale = B in J, and the constants) that gives results in SI units."""

    kappa: float
    lam: float
    b_scale: float = field(repr=False, default=math.nan)
    constants: PhysicalConstants = field(repr=False, default=PAPER_CONSTANTS)

    def __post_init__(self) -> None:
        _positive_finite("kappa", self.kappa)
        _positive_finite("lambda", self.lam)


def to_dimensionless(spec: WellSpec) -> ScaledWell:
    """Rescale a WellSpec to (kappa, lambda), keeping its SI context: B and
    the constants."""
    b_scale = spec.barrier_bound
    return ScaledWell(kappa=spec.k / b_scale, lam=spec.b / spec.a, b_scale=b_scale,
                      constants=spec.constants)


# Reference geometry for the splitting-vs-width table: a = 1 um, electron
# mass, k = 2e-24 J.  The barrier height and the full-precision electron
# mass are the calibrated values that actually reproduce the published
# reference energies (see the discrepancy records the table1 command emits).
TABLE1_B_VALUES = tuple(b * 1e-9 for b in
                        (100.0, 116.65290, 136.07900, 158.74011,
                         185.17494, 216.01195, 251.98421))
TABLE1_K = 2e-24
TABLE1_WELL = WellSpec(a=1e-6, b=TABLE1_B_VALUES[0], k=TABLE1_K,
                       m=CODATA_CONSTANTS.m_e, constants=CODATA_CONSTANTS)

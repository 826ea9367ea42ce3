"""Exception types shared across the solver modules."""

from __future__ import annotations


class DwellError(Exception):
    """Base class for all solver errors; the spectrum solver sets pair_index
    to the pair n whose solve failed."""

    pair_index: int | None = None


class NonFiniteScaling(DwellError):
    """Dimensionless rescaling produced a non-finite value."""


class PoleCollision(DwellError):
    """A root bracket touched a pole of the cotangent condition function."""


class BarrierUnderflow(DwellError):
    """The barrier argument x = pi lambda u is so small that exp(-x) rounds
    to 1, where the odd condition cannot be evaluated in float64."""


class BracketFailure(DwellError):
    """No sign change was found in the scanned interval."""

    def __init__(self, message: str, interval: tuple[float, float]):
        super().__init__(f"{message} (scanned [{interval[0]:.6g}, {interval[1]:.6g}])")
        self.interval = interval


class DegenerateGap(DwellError):
    """The level pair is coalesced beyond float64 resolution."""


class NotReached(DwellError):
    """The gap target was not attained before the barrier-width cap."""


class MatchFailure(DwellError):
    """Piecewise wavefunction matching residual exceeds tolerance."""


class QuadratureError(DwellError):
    """Analytic and numeric quadrature disagree beyond tolerance."""


class ResonantDenominator(DwellError):
    """First-order amplitude requested at (or too near) a resonance."""


class BasisMismatch(DwellError):
    """Operands are tagged with different bases."""


class AmbiguousPurity(DwellError):
    """|det c| falls in the band where pure/mixed cannot be decided."""


class ConvergenceFailure(DwellError):
    """Iterative eigensolve failed to converge."""


class ConfigError(DwellError):
    """Bad run configuration; message carries the offending location."""

"""Two-level dynamics: the zero-point well-to-well oscillation, the
degenerate flip-flop picture, driven Rabi formulas, and the first-order
harmonic transition amplitude, plus the RK4 integrator used to cross-check
every closed form.

Conventions (fixing two sign typos that would make the formulas mutually
inconsistent): omega = (E1 - E0)/hbar and Omega = (E0 + E1)/(2 hbar).
A closed form raises ValueError where its phase (omega t, R0 t, or either
phase of the transition amplitude) reaches 2**52 rad, from where adjacent
doubles are 1 rad apart.

The module loads no numpy: each formula, the RK4 oracle's drive matrices
included, evaluates at one time on `math`, `cmath` and Python complex.
A closed form maps an array of times through units.pointwise, and the
RK4 oracle imports numpy for its output array alone.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import ResonantDenominator
from .spectrum import gap01, solve_below_barrier
from .units import WellSpec, pointwise, to_dimensionless

if TYPE_CHECKING:
    import numpy as np

    Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]

__all__ = [
    "Basis",
    "TwoByTwoOperator",
    "TwoLevelSystem",
    "HarmonicDrive",
    "x_expectation",
    "perturbation_matrices",
    "flip_flop",
    "rabi_off_resonance",
    "rabi_localized",
    "transition_amplitude",
    "rk4_two_level",
    "simple_drive_interaction",
    "localized_drive_interaction",
    "flip_flop_generator",
    "rk4_step_for",
]


class Basis(enum.Enum):
    ENERGY = "energy"  # {psi0, psi1}, equivalently {psi+, psi-}
    LOCALIZED = "localized"  # {psi_L, psi_R}


# the basis change O maps (1,0) -> (1,1)/sqrt2 and (0,1) -> (1,-1)/sqrt2;
# it is its own inverse
_S = 1.0 / math.sqrt(2.0)
_BASIS_CHANGE = ((_S, _S), (_S, -_S))


def _frozen_2x2(obj, name: str) -> Matrix2:
    """Store field `name` of frozen dataclass obj, any 2x2 array-like, as a
    nested tuple of complex; the one 2x2 shape check."""
    value = getattr(obj, name)
    try:
        m = tuple(tuple(map(complex, row)) for row in value)
    except TypeError:  # not a sequence of sequences of numbers
        m = ()
    if len(m) != 2 or any(len(row) != 2 for row in m):
        raise ValueError(f"need a 2x2 matrix, got {value!r}")
    object.__setattr__(obj, name, m)
    return m


def _mul(a: Matrix2, b: Matrix2) -> Matrix2:
    """The 2x2 product a b, each entry summed in row-by-column order."""
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return ((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
            (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11))


@dataclass(frozen=True)
class TwoByTwoOperator:
    """A 2x2 operator tagged with its basis; `matrix` holds its rows as a
    nested tuple of complex (wrap it in numpy.asarray for array algebra)."""

    matrix: Matrix2
    basis: Basis

    def __post_init__(self) -> None:
        _frozen_2x2(self, "matrix")

    def rotated(self) -> "TwoByTwoOperator":
        """Conjugate by the basis-change unitary, flipping the tag; same type."""
        other = Basis.LOCALIZED if self.basis is Basis.ENERGY else Basis.ENERGY
        return type(self)(_mul(_mul(_BASIS_CHANGE, self.matrix), _BASIS_CHANGE), other)


@dataclass(frozen=True)
class TwoLevelSystem:
    """The two lowest levels and their dipole element d = <psi0|x|psi1>."""

    e0: float
    e1: float
    d: float
    hbar: float
    confinement_scale: float | None = None  # B, enables the hbar*omega < 5/4 B check

    def __post_init__(self) -> None:
        if not self.e1 > self.e0:
            raise ValueError(f"need E1 > E0, got {self.e0!r}, {self.e1!r}")
        if self.d <= 0:
            raise ValueError("dipole element must be positive (sign convention)")
        if self.confinement_scale is not None:
            if self.hbar * self.omega >= 1.25 * self.confinement_scale:
                raise ValueError(
                    "hbar*omega >= (5/4)B: the pair splitting exceeds the "
                    "guaranteed distance to the next level")

    @property
    def omega(self) -> float:
        """Oscillation angular frequency (E1 - E0)/hbar."""
        return (self.e1 - self.e0) / self.hbar

    @property
    def big_omega(self) -> float:
        """Mean angular frequency (E0 + E1)/(2 hbar)."""
        return (self.e0 + self.e1) / (2.0 * self.hbar)

    @classmethod
    def from_well(cls, spec: WellSpec) -> "TwoLevelSystem":
        """Solve the well and assemble the system from its lowest pair."""
        from .wavefunction import build_eigenfunction, dipole_matrix_element

        result = solve_below_barrier(to_dimensionless(spec), 1)
        gap01(result)  # the one check of the lowest pair
        level0, level1 = result.levels
        psi0 = build_eigenfunction(spec, level0)
        psi1 = build_eigenfunction(spec, level1)
        d = dipole_matrix_element(psi0, psi1)
        return cls(level0.energy, level1.energy, d,
                   spec.constants.hbar, spec.barrier_bound)


@dataclass(frozen=True)
class HarmonicDrive:
    """Harmonic perturbation amplitude A (J) and drive frequency (rad/s)."""

    amplitude: float
    omega_prime: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.amplitude < math.inf and 0.0 <= self.omega_prime < math.inf):
            raise ValueError(f"drive amplitude and frequency must be finite and >= 0, "
                             f"got {self.amplitude!r}, {self.omega_prime!r}")


def _phase(phase: float, name: str) -> float:
    """The phase of a closed form, or ValueError when |phase| is not below
    2**52 rad (or not finite): there adjacent doubles are 1 rad apart, so
    its sine is rounding noise."""
    if not abs(phase) < 2.0 ** 52:
        raise ValueError(f"phase |{name}| = {abs(phase)!r} rad is not below 2**52 rad, "
                         "where adjacent doubles are 1 rad apart")
    return phase


def x_expectation(sys: TwoLevelSystem, side: str, t):
    """<x>(t) = +-d cos(omega t); + for the L-labeled state."""
    if side not in ("L", "R"):
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    amplitude = (1.0 if side == "L" else -1.0) * sys.d
    return pointwise(lambda t: amplitude * math.cos(_phase(sys.omega * t, "omega*t")), t)


def perturbation_matrices(
    sys: TwoLevelSystem,
) -> tuple[TwoByTwoOperator, TwoByTwoOperator, TwoByTwoOperator,
           TwoByTwoOperator, TwoByTwoOperator]:
    """(H, H', W, H~, W~): the well Hamiltonian, its degenerate counterpart
    E' I, the perturbation W = H' - H, and the two rotated into the
    localized basis, where W~ is purely off-diagonal with entries
    hbar omega / 2."""
    e_mean = 0.5 * (sys.e0 + sys.e1)
    h = TwoByTwoOperator(((sys.e0, 0.0), (0.0, sys.e1)), Basis.ENERGY)
    h_prime = TwoByTwoOperator(((e_mean, 0.0), (0.0, e_mean)), Basis.ENERGY)
    w = TwoByTwoOperator(((e_mean - sys.e0, 0.0), (0.0, e_mean - sys.e1)), Basis.ENERGY)
    return h, h_prime, w, h.rotated(), w.rotated()


def flip_flop(sys: TwoLevelSystem, phi: float, t):
    """Degenerate-picture occupation of the localized states,
    P_L = sin^2(omega t / 2 + phi), P_R = 1 - P_L."""
    def p_l(t: float) -> float:
        s = math.sin(_phase(sys.omega * t / 2.0 + phi, "omega*t/2 + phi"))
        return s * s

    p = pointwise(p_l, t)
    return p, 1.0 - p


def _rabi_rates(sys: TwoLevelSystem, drive: HarmonicDrive, detuning: float
                ) -> tuple[float, float]:
    """(R1, R0) with R1 = A/hbar and R0 = sqrt(R1^2 + (detuning/2)^2); raises
    ValueError when R0 overflows, where (R1/R0)^2 would be NaN."""
    r1 = drive.amplitude / sys.hbar
    r0 = math.hypot(r1, detuning / 2.0)
    if not math.isfinite(r0):
        raise ValueError(f"Rabi rate overflows: A/hbar = {r1!r} rad/s, "
                         f"detuning = {detuning!r} rad/s")
    return r1, r0


def _rabi_transfer(sys: TwoLevelSystem, drive: HarmonicDrive, detuning: float, t):
    """(R1/R0)^2 sin^2(R0 t) with R1 = A/hbar, R0 = sqrt(R1^2 + (detuning/2)^2)."""
    r1, r0 = _rabi_rates(sys, drive, detuning)

    def transfer(t: float) -> float:
        if r0 == 0.0:
            return 0.0
        s = math.sin(_phase(r0 * t, "R0*t"))
        return (r1 / r0) ** 2 * (s * s)

    return pointwise(transfer, t)


def rabi_off_resonance(sys: TwoLevelSystem, drive: HarmonicDrive, t):
    """Driven populations of the energy eigenstates for c0(0) = 1:
    P1 = (R1/R0)^2 sin^2(R0 t) with R0 = sqrt((A/hbar)^2 + (detuning/2)^2)."""
    p1 = _rabi_transfer(sys, drive, drive.omega_prime - sys.omega, t)
    return 1.0 - p1, p1


def rabi_localized(sys: TwoLevelSystem, drive: HarmonicDrive, t):
    """Driven populations of the localized states (degenerate core,
    starting in R): P_L = (R1/R0')^2 sin^2(R0' t) with
    R0' = sqrt((A/hbar)^2 + (omega'/2)^2)."""
    p_l = _rabi_transfer(sys, drive, drive.omega_prime, t)
    return p_l, 1.0 - p_l


def transition_amplitude(e_n: float, e_m: float, matrix_elems: tuple[complex, complex],
                         omega_prime: float, t: float, hbar: float) -> complex:
    """First-order amplitude n -> m under A e^{i w' t} + A^dagger e^{-i w' t}:

        <m|A|n>   (1 - e^{i((E_m-E_n)/hbar - w') t}) / (E_m - E_n - hbar w')
      + <m|A*|n>  (1 - e^{i((E_m-E_n)/hbar + w') t}) / (E_m - E_n + hbar w')

    Raises ResonantDenominator near either resonance, where this expression
    turns secular and stops being meaningful, and ValueError where either
    phase reaches 2**52 rad."""
    elem_a, elem_a_conj = matrix_elems
    gap = e_m - e_n
    tol = 1e-12 * (abs(e_m) + abs(e_n))
    for denom in (gap - hbar * omega_prime, gap + hbar * omega_prime):
        if abs(denom) < tol:
            raise ResonantDenominator(
                f"|E_m - E_n -+ hbar omega'| = {abs(denom):.3e} J is resonant")
    phase1 = _phase((gap / hbar - omega_prime) * t, "((E_m-E_n)/hbar - w')*t")
    phase2 = _phase((gap / hbar + omega_prime) * t, "((E_m-E_n)/hbar + w')*t")
    term1 = elem_a * (1.0 - cmath.exp(1j * phase1)) / (gap - hbar * omega_prime)
    term2 = elem_a_conj * (1.0 - cmath.exp(1j * phase2)) / (gap + hbar * omega_prime)
    return term1 + term2


# ---------------------------------------------------------------------------
# RK4 oracle for the driven two-level ODEs i hbar dc/dt = M(t) c

MatrixFn = Callable[[float], "Matrix2"]
"""M(t): the 2x2 matrix at one float time t, as two rows of two numbers."""


def rk4_step_for(sys: TwoLevelSystem, drive: HarmonicDrive) -> float:
    """Fixed RK4 step resolving the fastest of omega, omega', R0 with a
    factor-200 margin."""
    r0 = _rabi_rates(sys, drive, drive.omega_prime - sys.omega)[1]
    r0p = _rabi_rates(sys, drive, drive.omega_prime)[1]
    rates = [sys.omega, drive.omega_prime, r0, r0p]
    fastest = max(r for r in rates if r > 0)
    return 2.0 * math.pi / fastest / 200.0


def rk4_two_level(matrix_fn: MatrixFn, c0: np.ndarray, times: np.ndarray,
                  hbar: float, max_step: float) -> np.ndarray:
    """Integrate i hbar dc/dt = M(t) c through the sample times; returns an
    array of shape (len(times), 2).  The state is carried as two Python
    complex numbers, and matrix_fn is called at the stage times t, t + h/2
    and t + h of each substep, so the shared time t + h is read twice, as
    the end of one substep and the start of the next."""
    import numpy as np

    times = [float(t) for t in times]
    out = np.empty((len(times), 2), dtype=complex)
    x, y = map(complex, c0)
    p = -1j / hbar

    t_now = times[0]
    out[0] = (x, y)
    for idx in range(1, len(times)):
        t_next = times[idx]
        span = t_next - t_now
        n_sub = max(1, math.ceil(abs(span) / max_step))
        h = span / n_sub
        half = h / 2.0
        for i in range(n_sub):
            t = t_now + i * h
            (a, b), (c, d) = matrix_fn(t)
            k1x, k1y = p * (a * x + b * y), p * (c * x + d * y)
            (a, b), (c, d) = matrix_fn(t + half)
            x2, y2 = x + half * k1x, y + half * k1y
            k2x, k2y = p * (a * x2 + b * y2), p * (c * x2 + d * y2)
            x3, y3 = x + half * k2x, y + half * k2y
            k3x, k3y = p * (a * x3 + b * y3), p * (c * x3 + d * y3)
            (a, b), (c, d) = matrix_fn(t + h)
            x4, y4 = x + h * k3x, y + h * k3y
            k4x, k4y = p * (a * x4 + b * y4), p * (c * x4 + d * y4)
            x = x + h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            y = y + h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        t_now = t_next
        out[idx] = (x, y)
    return out


def _drive_matrix(amplitude: float, rate: float) -> MatrixFn:
    """A [[0, e^{i rate t}], [cc, 0]]."""
    def matrix(t: float) -> Matrix2:
        phase = cmath.exp(1j * rate * t)
        return ((0j, amplitude * phase), (amplitude * phase.conjugate(), 0j))

    return matrix


def simple_drive_interaction(sys: TwoLevelSystem, drive: HarmonicDrive) -> MatrixFn:
    """Interaction-picture matrix of the upper-triangular drive choice
    A [[0,1],[0,0]] in the energy basis: A [[0, e^{i(w'-w)t}], [cc, 0]]."""
    return _drive_matrix(drive.amplitude, drive.omega_prime - sys.omega)


def localized_drive_interaction(drive: HarmonicDrive) -> MatrixFn:
    """Drive coupling the degenerate localized pair:
    A [[0, e^{i w' t}], [cc, 0]] acting on (c_L, c_R)."""
    return _drive_matrix(drive.amplitude, drive.omega_prime)


def flip_flop_generator(sys: TwoLevelSystem) -> MatrixFn:
    """Static coupling -(hbar omega/2) sigma_x that drives the flip-flop."""
    g = -(sys.hbar * sys.omega / 2.0)
    m = ((-0.0, g), (g, -0.0))  # g sigma_x, entry by entry: g * 0.0 is -0.0
    return lambda t: m

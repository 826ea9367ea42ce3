"""Piecewise-analytic eigenfunctions, localized superpositions, and the
dipole matrix element.

Below the barrier an eigenfunction is a sinusoid in each valley (vanishing
at the infinite wall) and a cosh (even) or sinh (odd) across the barrier:

    even:  A sin(alpha (a+b+x)) | C cosh(beta x) | A sin(alpha (a+b-x))
    odd:  -A sin(alpha (a+b+x)) | D sinh(beta x) | A sin(alpha (a+b-x))

with alpha = sqrt(2 m E)/hbar and beta = sqrt(2 m (k-E))/hbar.  Value
matching at x = +-b is built in; derivative matching holds exactly when E
solves the discretization condition, and its residual is checked here.

Sign convention: the even member is positive at x = 0 and the odd member
has positive slope there, which makes the dipole element of the lowest
pair positive and golden outputs reproducible.

Norms and dipole integrals use exact antiderivatives of the piecewise
products. Every dipole element is also checked against a composite
Gauss-Legendre rule, region by region, whose panels follow the region's
rate and which carries its own error estimate.

The module computes on `math` alone: psi and psi' have one scalar
evaluation, and the dipole check sums it at Legendre nodes built here.
units.pointwise maps it over an array, the one path that imports numpy.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Literal

from .errors import MatchFailure, QuadratureError
from .spectrum import EnergyLevel
from .units import WellSpec, pointwise

__all__ = [
    "PiecewiseEigenfunction",
    "LocalizedState",
    "build_eigenfunction",
    "position_matrix_element",
    "dipole_matrix_element",
]

_MATCH_TOL = 1e-9
# Gauss-Legendre check of the dipole element: per region, equal panels of
# _GL_NODES nodes spanning at most _GL_PANEL_RAD radians of the region's
# rate each, with the rule of half as many panels as the estimate
_GL_NODES = 20
_GL_PANEL_RAD = 8.0


@dataclass(frozen=True)
class PiecewiseEigenfunction:
    """One normalized below-barrier eigenfunction on [-(a+b), a+b]: its
    right half, mirrored to the left and negated there when odd."""

    level: EnergyLevel
    a: float
    b: float
    alpha: float
    beta: float
    amplitudes: tuple[float, float]  # (barrier, valley)
    hbar: float

    @property
    def parity(self) -> str:
        return self.level.parity

    def _at(self, x: float, derivative: bool) -> float:
        """psi, or psi' if derivative, at the point x; zero outside the walls."""
        r = abs(x)
        even = self.parity == "even"
        if r <= self.b:
            beta = self.beta
            if derivative:
                out = self.amplitudes[0] * beta * (math.sinh if even else math.cosh)(beta * r)
            else:
                out = self.amplitudes[0] * (math.cosh if even else math.sinh)(beta * r)
        else:
            edge = self.a + self.b
            if r >= edge:
                return 0.0
            alpha = self.alpha
            if derivative:
                out = -self.amplitudes[1] * alpha * math.cos(alpha * (edge - r))
            else:
                out = self.amplitudes[1] * math.sin(alpha * (edge - r))
        # an odd function (psi odd, or psi' of an even psi) flips on the left
        return -out if even == derivative and x < 0.0 else out

    def __call__(self, x):
        """Evaluate pointwise; zero outside the walls."""
        return pointwise(lambda v: self._at(v, False), x)

    def derivative(self, x):
        return pointwise(lambda v: self._at(v, True), x)


def build_eigenfunction(well: WellSpec, level: EnergyLevel) -> PiecewiseEigenfunction:
    """Construct and normalize the eigenfunction of a solved level."""
    e = level.energy
    if not (math.isfinite(e) and 0.0 < e < well.k):
        raise MatchFailure(f"level energy {e!r} is not below the barrier {well.k!r}")
    hbar = well.constants.hbar
    alpha = math.sqrt(2.0 * well.m * e) / hbar
    beta = math.sqrt(2.0 * well.m * (well.k - e)) / hbar
    a, b = well.a, well.b
    if beta * b > 350.0:
        raise MatchFailure(f"barrier opacity beta*b = {beta * b:.1f} overflows cosh")

    sin_aa = math.sin(alpha * a)
    if abs(sin_aa) < 1e-14:
        raise MatchFailure("sin(alpha a) vanishes; level sits on a node at the wall side")
    if math.cosh(beta * b) > math.sqrt(sys.float_info.max) * abs(sin_aa):
        raise MatchFailure(f"valley amplitude cosh(beta b)/sin(alpha a) at beta*b = "
                           f"{beta * b:.1f} overflows its square")

    # barrier profile (value, slope) with unit amplitude, and the sign of
    # the left valley: cosh, sinh, + (even) or sinh, cosh, - (odd)
    value, slope, sign = ((math.cosh, math.sinh, 1.0) if level.parity == "even"
                          else (math.sinh, math.cosh, -1.0))
    amp_raw = value(beta * b) / sin_aa
    deriv_lhs = -alpha * amp_raw * math.cos(alpha * a)
    deriv_rhs = beta * slope(beta * b)
    norm_sq = (2.0 * amp_raw**2 * _int_sin_sq(alpha, a)
               + (math.sinh(2.0 * beta * b) / (2.0 * beta) + sign * b))

    residual = abs(deriv_lhs - deriv_rhs) / max(abs(deriv_lhs), abs(deriv_rhs))
    if residual > _MATCH_TOL:
        raise MatchFailure(
            f"derivative matching residual {residual:.2e} exceeds {_MATCH_TOL}; "
            "the eigenvalue does not solve the discretization condition")

    norm = 1.0 / math.sqrt(norm_sq)
    amp = amp_raw * norm
    return PiecewiseEigenfunction(level, a, b, alpha, beta, (norm, amp), hbar)


def _int_sin_sq(p: float, a: float) -> float:
    # int_0^a sin^2(p u) du
    return a / 2.0 - math.sin(2.0 * p * a) / (4.0 * p)


def _int_sin_sin(p: float, q: float, a: float) -> float:
    # int_0^a sin(p u) sin(q u) du; the p != q form is cancellation-free
    if p == q:
        return _int_sin_sq(p, a)
    dm, dp = p - q, p + q
    return math.sin(dm * a) / (2.0 * dm) - math.sin(dp * a) / (2.0 * dp)


def _int_u_cos(c: float, a: float) -> float:
    # int_0^a u cos(c u) du, stable for small c via cos(x)-1 = -2 sin^2(x/2)
    if c == 0.0:
        return a * a / 2.0
    half = math.sin(0.5 * c * a)
    return (-2.0 * half * half) / (c * c) + a * math.sin(c * a) / c


def _int_u_sin_sin(p: float, q: float, a: float) -> float:
    # int_0^a u sin(p u) sin(q u) du
    if p == q:
        return a * a / 4.0 - _int_u_cos(2.0 * p, a) / 2.0
    return 0.5 * (_int_u_cos(p - q, a) - _int_u_cos(p + q, a))


def _int_u_sinh(c: float, b: float) -> float:
    # int_0^b u sinh(c u) du, series for small |c| b where the closed form cancels
    cb = c * b
    if abs(cb) < 1e-4:
        return c * b**3 / 3.0 * (1.0 + cb * cb / 10.0)
    return b * math.cosh(cb) / c - math.sinh(cb) / (c * c)


def position_matrix_element(f: PiecewiseEigenfunction, g: PiecewiseEigenfunction) -> float:
    """<f| x |g> from exact piecewise antiderivatives; 0.0 at equal parity."""
    if not (f.a == g.a and f.b == g.b):
        raise ValueError("eigenfunctions live on different wells")
    if f.parity == g.parity:
        return 0.0
    a, b = f.a, f.b
    (fb, fv), (gb, gv) = f.amplitudes, g.amplitudes

    # the two valleys contribute equally: x f g is even
    iw1 = _int_sin_sin(f.alpha, g.alpha, a)
    iw2 = _int_u_sin_sin(f.alpha, g.alpha, a)
    wells = 2.0 * (fv * gv) * ((a + b) * iw1 - iw2)

    # x cosh(p x) sinh(q x) is even; cosh sinh = [sinh((q+p)x) + sinh((q-p)x)]/2
    p = f.beta if f.parity == "even" else g.beta
    q = g.beta if f.parity == "even" else f.beta
    barrier = fb * gb * (_int_u_sinh(q + p, b) + _int_u_sinh(q - p, b))
    return wells + barrier


def dipole_matrix_element(psi0: PiecewiseEigenfunction, psi1: PiecewiseEigenfunction) -> float:
    """|<psi0| x |psi1>| for an opposite-parity pair; positive by the sign
    convention (equivalent to flipping psi1's global sign when needed).

    The analytic value is checked on every call against a composite
    Gauss-Legendre rule to 1e-10 relative: per region, panels of 20 nodes
    spanning at most 8 rad of the integrand's rate (alpha0 + alpha1 in the
    valleys, beta0 + beta1 in the barrier). The rule's own error estimate,
    its disagreement with half as many panels, must meet the same
    tolerance; either miss raises QuadratureError."""
    if psi0.parity == psi1.parity:
        raise ValueError("dipole element needs opposite parities")
    d = position_matrix_element(psi0, psi1)
    edge = psi0.a + psi0.b
    if not 0.0 < abs(d) < edge:
        raise ValueError(f"dipole element {d!r} outside (0, a+b)")
    d_num, d_err = _quad_position(psi0, psi1)
    tol = 1e-10 * max(abs(d), 1e-3 * edge)
    if d_err > tol:
        raise QuadratureError(
            f"Gauss-Legendre rule unconverged: n and n/2 panels disagree by "
            f"{d_err:.1e}, beyond {tol:.1e}")
    if abs(d_num - d) > tol:
        raise QuadratureError(
            f"analytic dipole {d:.15e} vs quadrature {d_num:.15e} beyond {tol:.1e}")
    return abs(d)


def _quad_position(f: PiecewiseEigenfunction, g: PiecewiseEigenfunction) -> tuple[float, float]:
    """<f| x |g> by the Gauss-Legendre rule over the left valley, the barrier
    and the right valley, and the summed error estimate of the three."""
    edge = f.a + f.b
    valley, barrier = f.alpha + g.alpha, f.beta + g.beta

    def integrand(x: float) -> float:
        return x * f._at(x, False) * g._at(x, False)

    total = err = 0.0
    for lo, hi, rate in ((-edge, -f.b, valley), (-f.b, f.b, barrier), (f.b, edge, valley)):
        panels = 2 * max(1, math.ceil(rate * (hi - lo) / (2.0 * _GL_PANEL_RAD)))
        val, val_err = _gauss_legendre(integrand, lo, hi, panels)
        total += val
        err += val_err
    return total, err


def _gauss_legendre(func, lo: float, hi: float, panels: int) -> tuple[float, float]:
    """int_lo^hi func by `panels` equal panels (an even count), and its
    distance from the value of panels/2 panels."""
    width = hi - lo
    fine, coarse = (width * math.fsum(w * func(lo + width * u) for u, w in zip(*rule))
                    for rule in _panel_rules(panels))
    return fine, abs(fine - coarse)


@functools.lru_cache(maxsize=64)
def _panel_rules(panels: int) -> tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]:
    """(nodes, weights) on [0, 1] of the composite rule of `panels` equal
    panels, then of panels // 2, with _GL_NODES Legendre nodes per panel."""
    x, w = _legendre_rule(_GL_NODES)
    return tuple((tuple((j + 0.5 * (xi + 1.0)) / p for j in range(p) for xi in x),
                  tuple(wi / (2.0 * p) for _ in range(p) for wi in w))
                 for p in (panels, panels // 2))


@functools.cache
def _legendre_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes (ascending) and weights of order n on [-1, 1].
    Each positive node is Newton's method on P_n, evaluated with P_n' by
    the three-term recurrence, from cos(pi (i + 3/4)/(n + 1/2)); the
    negative nodes mirror them."""
    nodes, weights = [0.0] * n, [0.0] * n
    for i in range((n + 1) // 2):
        z = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre_and_slope(n, z)
            step = p / dp
            z -= step
            if abs(step) < 1e-14:  # the step just taken is quadratically smaller
                break
        _, dp = _legendre_and_slope(n, z)
        nodes[i], nodes[n - 1 - i] = -z, z
        weights[i] = weights[n - 1 - i] = 2.0 / ((1.0 - z * z) * dp * dp)
    return tuple(nodes), tuple(weights)


def _legendre_and_slope(n: int, z: float) -> tuple[float, float]:
    """P_n(z) and P_n'(z), for |z| < 1, by (j+1) P_{j+1} = (2j+1) z P_j - j P_{j-1}."""
    p_prev, p = 0.0, 1.0
    for j in range(n):
        p_prev, p = p, ((2 * j + 1) * z * p - j * p_prev) / (j + 1)
    return p, n * (z * p - p_prev) / (z * z - 1.0)


@dataclass(frozen=True)
class LocalizedState:
    """Equal-weight superposition of the lowest pair, oscillating between
    the wells at omega = (E1 - E0)/hbar; 'L' takes the + combination."""

    psi0: PiecewiseEigenfunction
    psi1: PiecewiseEigenfunction
    side: Literal["L", "R"]

    def __post_init__(self) -> None:
        if self.psi0.parity == self.psi1.parity:
            raise ValueError("localized states need an opposite-parity pair")

    def __call__(self, x, t: float):
        """(1/sqrt2) [exp(-i E0 t/hbar) psi0 +- exp(-i E1 t/hbar) psi1]; a
        complex number at a Python number x, else a complex array."""
        hbar = self.psi0.hbar
        sign = 1.0 if self.side == "L" else -1.0
        phase0 = cmath.exp(-1j * self.psi0.level.energy * t / hbar)
        phase1 = cmath.exp(-1j * self.psi1.level.energy * t / hbar)
        return (phase0 * self.psi0(x) + sign * phase1 * self.psi1(x)) / math.sqrt(2.0)

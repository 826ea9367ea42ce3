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
products. Every dipole element is also checked against a fixed
Gauss-Legendre rule, region by region, which carries its own error estimate.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import MatchFailure, QuadratureError
from .spectrum import EnergyLevel
from .units import WellSpec

__all__ = [
    "PiecewiseEigenfunction",
    "LocalizedState",
    "build_eigenfunction",
    "position_matrix_element",
    "dipole_matrix_element",
    "localized_state_value",
    "count_nodes",
]

_MATCH_TOL = 1e-9
# Gauss-Legendre check of the dipole element: _GL_PANELS equal panels of
# _GL_NODES nodes per region, with _GL_COARSE_PANELS panels as the estimate
_GL_NODES = 160
_GL_PANELS = 8
_GL_COARSE_PANELS = 4


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
    mass: float

    @property
    def parity(self) -> str:
        return self.level.parity

    def _evaluate(self, x, derivative: bool) -> np.ndarray:
        """psi, or psi' if derivative, at x; zero outside the walls."""
        x = np.asarray(x, dtype=float)
        r, edge = np.abs(x), self.a + self.b
        barrier, valley = r <= self.b, (r > self.b) & (r < edge)
        amp_b, amp_v = self.amplitudes
        even = self.parity == "even"
        out = np.zeros_like(x)
        if derivative:
            out[barrier] = amp_b * self.beta * (np.sinh if even else np.cosh)(self.beta * r[barrier])
            out[valley] = -amp_v * self.alpha * np.cos(self.alpha * (edge - r[valley]))
        else:
            out[barrier] = amp_b * (np.cosh if even else np.sinh)(self.beta * r[barrier])
            out[valley] = amp_v * np.sin(self.alpha * (edge - r[valley]))
        if even == derivative:  # an odd function (psi odd, or psi' of an even psi)
            left = (x < 0.0) & (barrier | valley)  # inside the walls: no -0.0
            out[left] = -out[left]
        return out

    def __call__(self, x) -> np.ndarray:
        """Evaluate pointwise; zero outside the walls."""
        return self._evaluate(x, False)

    def derivative(self, x) -> np.ndarray:
        return self._evaluate(x, True)


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
    return PiecewiseEigenfunction(level, a, b, alpha, beta, (norm, amp), hbar, well.m)


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

    The analytic value is checked on every call against a Gauss-Legendre
    rule (8 panels of 160 nodes per region) to 1e-10 relative. The rule's
    own error estimate, its disagreement with 4 panels, must meet the same
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
            f"Gauss-Legendre rule unconverged: {_GL_PANELS} and {_GL_COARSE_PANELS} "
            f"panels disagree by {d_err:.1e}, beyond {tol:.1e}")
    if abs(d_num - d) > tol:
        raise QuadratureError(
            f"analytic dipole {d:.15e} vs quadrature {d_num:.15e} beyond {tol:.1e}")
    return abs(d)


def _quad_position(f: PiecewiseEigenfunction, g: PiecewiseEigenfunction) -> tuple[float, float]:
    """<f| x |g> by the Gauss-Legendre rule over the left valley, the barrier
    and the right valley, and the summed error estimate of the three."""
    edge = f.a + f.b

    def integrand(x: np.ndarray) -> np.ndarray:
        return x * f(x) * g(x)

    total = err = 0.0
    for lo, hi in ((-edge, -f.b), (-f.b, f.b), (f.b, edge)):
        val, val_err = _gauss_legendre(integrand, lo, hi)
        total += val
        err += val_err
    return total, err


def _gauss_legendre(func, lo: float, hi: float) -> tuple[float, float]:
    """int_lo^hi func by _GL_PANELS panels, and its distance from the
    _GL_COARSE_PANELS-panel value; both rules share one call of func."""
    nodes, weights = _panel_rules()
    fine, coarse = (hi - lo) * (weights @ func(lo + (hi - lo) * nodes))
    return float(fine), abs(float(fine - coarse))


@functools.cache
def _panel_rules() -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [0, 1] of the fine and then the coarse panel rule, and a
    2-row weight matrix whose rows are the two rules. Built on first use,
    not at import: leggauss(160) costs tens of ms. Read-only, as shared."""
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    counts = (_GL_PANELS, _GL_COARSE_PANELS)
    nodes = np.concatenate([((np.arange(p)[:, None] + 0.5 * (x + 1.0)) / p).ravel()
                            for p in counts])
    weights = np.zeros((2, nodes.size))
    split = _GL_PANELS * _GL_NODES
    weights[0, :split] = np.tile(w, _GL_PANELS) / (2.0 * _GL_PANELS)
    weights[1, split:] = np.tile(w, _GL_COARSE_PANELS) / (2.0 * _GL_COARSE_PANELS)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


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

    def __call__(self, x, t: float) -> np.ndarray:
        return localized_state_value(self, x, t)


def localized_state_value(state: LocalizedState, x, t: float) -> np.ndarray:
    """(1/sqrt2) [exp(-i E0 t/hbar) psi0 +- exp(-i E1 t/hbar) psi1]."""
    hbar = state.psi0.hbar
    sign = 1.0 if state.side == "L" else -1.0
    phase0 = np.exp(-1j * state.psi0.level.energy * t / hbar)
    phase1 = np.exp(-1j * state.psi1.level.energy * t / hbar)
    return (phase0 * state.psi0(x) + sign * phase1 * state.psi1(x)) / math.sqrt(2.0)


def count_nodes(psi: PiecewiseEigenfunction) -> int:
    """Interior sign changes over 10 000 uniform points (walls excluded)."""
    edge = psi.a + psi.b
    x = np.linspace(-edge, edge, 10_002)[1:-1]
    values = psi(x)
    values = values[np.abs(values) > 1e-30]
    return int(np.sum(np.sign(values[1:]) != np.sign(values[:-1])))

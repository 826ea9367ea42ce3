"""Composite system x environment states, pure/mixed classification, the
reduced density matrix, and trace expectations.

The composite state is a normalized 2x2 complex coefficient matrix c[j,k]
over {psi+, psi-} x {phi_alpha, phi_beta}.  It factorizes (is pure) exactly
when det c = 0; tracing out the environment gives the 2x2 density matrix
rho_{j,j'} = sum_k conj(c[j,k]) c[j',k], whose diagonal holds the
populations and off-diagonal the coherences.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .dynamics import Basis, TwoByTwoOperator, _frozen_2x2, _mul
from .errors import AmbiguousPurity, BasisMismatch

if TYPE_CHECKING:
    from .dynamics import Matrix2

__all__ = [
    "CompositeState",
    "DensityMatrix",
    "abs_det",
    "is_pure",
    "reduce_state",
    "expectation",
    "change_basis",
    "coherence_magnitude",
    "reference_states",
]

_PURE_TOL = 1e-12
"""|det c| below this is a product (pure) state.  An absolute bound is a
relative one here: the coefficients of a CompositeState are normalized,
sum |c|^2 = 1, so |det c| <= 1/2 whatever scale its amplitudes came at."""

_AMBIGUOUS_TOL = 1e-9
"""|det c| in [_PURE_TOL, _AMBIGUOUS_TOL] raises AmbiguousPurity.  Like
_PURE_TOL it is absolute because |det c| of a normalized state is at most
1/2; in this band rounding noise cannot be told from entanglement."""

_UNIT_TRACE_TOL = 1e-12
"""The Hermitian, trace and lowest-eigenvalue tolerance of DensityMatrix.
An absolute tolerance is a relative one here: a unit-trace positive
semidefinite 2x2 matrix has every |entry| <= 1, and its trace is 1."""


def _norm2(m: Matrix2) -> float:
    """sum |m[j][k]|^2, added in row-major order as numpy.sum adds four terms."""
    (a, b), (c, d) = m
    return abs(a) * abs(a) + abs(b) * abs(b) + abs(c) * abs(c) + abs(d) * abs(d)


@dataclass(frozen=True)
class CompositeState:
    """Normalized coefficients c[j,k]: rows are the system basis (+, -),
    columns the environment basis (alpha, beta); `coeffs` holds them as a
    nested tuple of complex."""

    coeffs: Matrix2

    def __post_init__(self) -> None:
        norm = _norm2(_frozen_2x2(self, "coeffs"))
        if not abs(norm - 1.0) <= 1e-12:  # a NaN or infinite coefficient fails too
            raise ValueError(f"state is not normalized: sum |c|^2 = {norm!r}")

    @classmethod
    def from_terms(cls, terms: dict[tuple[str, str], complex]) -> "CompositeState":
        """Build from {('+'|'-', 'alpha'|'beta'): amplitude} and normalize."""
        c = [[0j, 0j], [0j, 0j]]
        rows = {"+": 0, "-": 1}
        cols = {"alpha": 0, "beta": 1}
        for (j, k), amp in terms.items():
            if j not in rows or k not in cols:
                raise ValueError(f"unknown term ({j!r}, {k!r}): the system label must be "
                                 f"one of {list(rows)} and the environment label one of "
                                 f"{list(cols)}")
            c[rows[j]][cols[k]] += amp
        norm2 = _norm2(c)
        if not sys.float_info.min <= norm2 < math.inf:  # squares overflow or lose bits
            big = max(abs(x) for row in c for x in row)
            if big == 0:
                raise ValueError("zero state")
            c = [[x / big for x in row] for row in c]
            norm2 = _norm2(c)
            if not math.isfinite(norm2):
                raise ValueError("cannot normalize: an amplitude is not finite")
        scale = 1.0 / math.sqrt(norm2)  # numpy divides complex by real as times 1/norm
        return cls(tuple(tuple(x * scale for x in row) for row in c))


def _is_hermitian(m: Matrix2, atol: float) -> bool:
    """|m[j][k] - conj(m[k][j])| <= atol for every entry, as
    numpy.allclose(m, m^H, atol=atol, rtol=0) (a NaN entry fails)."""
    (a, b), (c, d) = m
    return (abs(a - a.conjugate()) <= atol and abs(d - d.conjugate()) <= atol
            and abs(b - c.conjugate()) <= atol)


def _min_eigenvalue(m: Matrix2) -> float:
    """The lower eigenvalue of a Hermitian 2x2 m in closed form:
    (m00 + m11)/2 - hypot((m00 - m11)/2, |m01|)."""
    p, q = m[0][0].real, m[1][1].real
    return (p + q) / 2.0 - math.hypot((p - q) / 2.0, abs(m[0][1]))


@dataclass(frozen=True)
class DensityMatrix(TwoByTwoOperator):
    """A TwoByTwoOperator (cast, shape check) that is also Hermitian,
    unit-trace and positive semidefinite."""

    def __post_init__(self) -> None:
        super().__post_init__()
        m = self.matrix
        if not _is_hermitian(m, _UNIT_TRACE_TOL):
            raise ValueError("density matrix is not Hermitian")
        trace = m[0][0] + m[1][1]
        if abs(trace.real - 1.0) > _UNIT_TRACE_TOL:
            raise ValueError(f"trace must be 1, got {trace!r}")
        if _min_eigenvalue(m) < -_UNIT_TRACE_TOL:
            raise ValueError("density matrix has a negative eigenvalue")

    @property
    def purity(self) -> float:
        """Tr(rho^2), 1/2 for maximally mixed up to 1 for pure."""
        (a, _), (_, d) = _mul(self.matrix, self.matrix)
        return (a + d).real

    @property
    def populations(self) -> tuple[float, float]:
        return self.matrix[0][0].real, self.matrix[1][1].real


def abs_det(state: CompositeState) -> float:
    """|det c|, rounded as numpy.linalg.det rounds it: LU with partial
    pivoting on |Re| + |Im| (LAPACK getrf, which scales by 1/pivot unless
    that overflows), then exp(log|u00| + log|u11|), and 0 on a zero pivot."""
    (a, b), (c, d) = state.coeffs
    if abs(c.real) + abs(c.imag) > abs(a.real) + abs(a.imag):
        a, b, c, d = c, d, a, b
    if a == 0:
        return 0.0
    u11 = d - (c * (1.0 / a) if abs(a) >= sys.float_info.min else c / a) * b
    if u11 == 0:
        return 0.0
    return math.exp(math.log(abs(a)) + math.log(abs(u11)))


def is_pure(state: CompositeState) -> bool:
    """Product-state test via |det c|; raises AmbiguousPurity inside the
    band [1e-12, 1e-9] where rounding noise and genuine entanglement are
    indistinguishable."""
    det = abs_det(state)
    if det < _PURE_TOL:
        return True
    if det <= _AMBIGUOUS_TOL:
        raise AmbiguousPurity(f"|det c| = {det:.3e} is numerically ambiguous")
    return False


def reduce_state(state: CompositeState) -> DensityMatrix:
    """Trace out the environment: rho_{j,j'} = sum_k conj(c[j,k]) c[j',k]."""
    c = state.coeffs
    conj = tuple(tuple(x.conjugate() for x in row) for row in c)
    return DensityMatrix(_mul(conj, tuple(zip(*c))), Basis.ENERGY)


def expectation(rho: DensityMatrix, observable: TwoByTwoOperator) -> float:
    """<f> = Tr(f rho); the operands must carry the same basis tag.  The
    observable's checks scale with its largest |entry|, so they hold at
    any energy scale."""
    if rho.basis is not observable.basis:
        raise BasisMismatch(
            f"density matrix in {rho.basis.value}, observable in {observable.basis.value}")
    scale = max(abs(x) for row in observable.matrix for x in row)
    if not _is_hermitian(observable.matrix, 1e-10 * scale):
        raise ValueError("observable must be Hermitian")
    (a, _), (_, d) = _mul(observable.matrix, rho.matrix)
    value = a + d
    if abs(value.imag) > 1e-12 * max(scale, abs(value.real)):
        raise ValueError(f"expectation has a stray imaginary part: {value!r}")
    return value.real


def change_basis(rho: DensityMatrix, to: Basis) -> DensityMatrix:
    """Rotate between the energy and localized bases with the fixed
    unitary that sends psi0 -> (psi0+psi1)/sqrt2; purity is preserved."""
    return rho if rho.basis is to else rho.rotated()


def coherence_magnitude(rho: DensityMatrix) -> float:
    """|rho_01| in the tagged basis; zero iff the state is classical-looking
    in that basis."""
    return abs(rho.matrix[0][1])


def reference_states() -> tuple[tuple[str, CompositeState], ...]:
    """Six textbook composite states: three that factorize and three that
    do not (the last has det c = -1/3 despite its innocuous look)."""
    s2 = 1.0 / math.sqrt(2.0)
    s3 = math.sqrt(3.0)
    return (
        ("(psi+ + psi-) phi_b / sqrt2",
         CompositeState.from_terms({("+", "beta"): s2, ("-", "beta"): s2})),
        ("psi- (phi_b + sqrt3 phi_a) / 2",
         CompositeState.from_terms({("-", "beta"): 0.5, ("-", "alpha"): s3 / 2.0})),
        ("(psi- - sqrt3 psi+)(phi_b + sqrt3 phi_a) / 4",
         CompositeState.from_terms({("-", "beta"): 0.25, ("-", "alpha"): s3 / 4.0,
                                    ("+", "beta"): -s3 / 4.0, ("+", "alpha"): -0.75})),
        ("(psi- phi_a + psi+ phi_b) / sqrt2",
         CompositeState.from_terms({("-", "alpha"): s2, ("+", "beta"): s2})),
        ("(psi- phi_b + psi+ phi_a) / sqrt2",
         CompositeState.from_terms({("-", "beta"): s2, ("+", "alpha"): s2})),
        ("(psi+ phi_a + psi+ phi_b + psi- phi_a) / sqrt3",
         CompositeState.from_terms({("+", "alpha"): 1.0 / s3, ("+", "beta"): 1.0 / s3,
                                    ("-", "alpha"): 1.0 / s3})),
    )

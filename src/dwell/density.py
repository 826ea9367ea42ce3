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
from dataclasses import dataclass

import numpy as np

from .dynamics import Basis, TwoByTwoOperator, _frozen_2x2
from .errors import AmbiguousPurity, BasisMismatch

__all__ = [
    "CompositeState",
    "DensityMatrix",
    "is_pure",
    "reduce_state",
    "expectation",
    "change_basis",
    "coherence_magnitude",
    "reference_states",
]

_PURE_TOL = 1e-12
_AMBIGUOUS_TOL = 1e-9


@dataclass(frozen=True)
class CompositeState:
    """Normalized coefficients c[j,k]: rows are the system basis (+, -),
    columns the environment basis (alpha, beta)."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        norm = float(np.sum(np.abs(_frozen_2x2(self, "coeffs")) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state is not normalized: sum |c|^2 = {norm!r}")

    @classmethod
    def from_terms(cls, terms: dict[tuple[str, str], complex]) -> "CompositeState":
        """Build from {('+'|'-', 'alpha'|'beta'): amplitude} and normalize."""
        c = np.zeros((2, 2), dtype=complex)
        rows = {"+": 0, "-": 1}
        cols = {"alpha": 0, "beta": 1}
        for (j, k), amp in terms.items():
            c[rows[j], cols[k]] += amp
        norm = math.sqrt(float(np.sum(np.abs(c) ** 2)))
        if norm == 0:
            raise ValueError("zero state")
        return cls(c / norm)


@dataclass(frozen=True)
class DensityMatrix(TwoByTwoOperator):
    """A TwoByTwoOperator (cast, shape check, freeze) that is also
    Hermitian, unit-trace and positive semidefinite."""

    def __post_init__(self) -> None:
        super().__post_init__()
        m = self.matrix
        if not np.allclose(m, m.conj().T, atol=1e-12, rtol=0.0):
            raise ValueError("density matrix is not Hermitian")
        if abs(m.trace().real - 1.0) > 1e-12:
            raise ValueError(f"trace must be 1, got {m.trace()!r}")
        if np.linalg.eigvalsh(m).min() < -1e-12:
            raise ValueError("density matrix has a negative eigenvalue")

    @property
    def purity(self) -> float:
        """Tr(rho^2), 1/2 for maximally mixed up to 1 for pure."""
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    @property
    def populations(self) -> tuple[float, float]:
        return float(self.matrix[0, 0].real), float(self.matrix[1, 1].real)


def is_pure(state: CompositeState) -> bool:
    """Product-state test via |det c|; raises AmbiguousPurity inside the
    band [1e-12, 1e-9] where rounding noise and genuine entanglement are
    indistinguishable."""
    det = abs(np.linalg.det(state.coeffs))
    if det < _PURE_TOL:
        return True
    if det <= _AMBIGUOUS_TOL:
        raise AmbiguousPurity(f"|det c| = {det:.3e} is numerically ambiguous")
    return False


def reduce_state(state: CompositeState) -> DensityMatrix:
    """Trace out the environment: rho_{j,j'} = sum_k conj(c[j,k]) c[j',k]."""
    c = state.coeffs
    rho = c.conj() @ c.T
    return DensityMatrix(rho, Basis.ENERGY)


def expectation(rho: DensityMatrix, observable: TwoByTwoOperator) -> float:
    """<f> = Tr(f rho); the operands must carry the same basis tag."""
    if rho.basis is not observable.basis:
        raise BasisMismatch(
            f"density matrix in {rho.basis.value}, observable in {observable.basis.value}")
    f = observable.matrix
    if not np.allclose(f, f.conj().T, atol=1e-10, rtol=0.0):
        raise ValueError("observable must be Hermitian")
    value = complex(np.trace(f @ rho.matrix))
    if abs(value.imag) > 1e-12 * max(1.0, abs(value.real)):
        raise ValueError(f"expectation has a stray imaginary part: {value!r}")
    return value.real


def change_basis(rho: DensityMatrix, to: Basis) -> DensityMatrix:
    """Rotate between the energy and localized bases with the fixed
    unitary that sends psi0 -> (psi0+psi1)/sqrt2; purity is preserved."""
    return rho if rho.basis is to else rho.rotated()


def coherence_magnitude(rho: DensityMatrix) -> float:
    """|rho_01| in the tagged basis; zero iff the state is classical-looking
    in that basis."""
    return float(abs(rho.matrix[0, 1]))


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

"""Independent finite-difference cross-check for spectra and eigenfunctions.

Second-order scheme on a cell-centered uniform grid: nodes sit at cell
midpoints, the infinite walls coincide with the outer cell edges (Dirichlet
imposed through an antisymmetric ghost cell), and the potential is sampled
at the cell midpoints.  The two cells straddling the barrier edges x = +-b
get the exact cell average of the step instead of the midpoint sample:
midpoint sampling there leaves an O(dx) eigenvalue error that wanders with
the grid alignment, while cell averaging keeps the scheme second order for
any geometry.

The grid is mirror symmetric, so H splits exactly into an even and an odd
block, each built from the left half-grid alone (which makes the mirror
symmetry exact to the last bit) and differing only in the centre ghost.
Eigenvalues alternate between the blocks up the spectrum, and each
eigenvector is solved on one block, so it has exact parity.  Where the
grid cannot separate a pair, eigenvector returns the even member: see its
tie rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceFailure, SingularShift
from .units import WellSpec

__all__ = [
    "GridHamiltonian",
    "build_grid_hamiltonian",
    "aligned_size",
    "lowest_eigenvalues",
    "eigenvector",
]


@dataclass(frozen=True)
class GridHamiltonian:
    """Symmetric tridiagonal discretization of one well.

    diagonal holds kinetic + potential samples (J); off_diagonal is the
    constant coupling -hbar^2/(2 m dx^2) (J).  The potential samples are
    kept separately so H can be applied in second-difference form, which
    avoids the kinetic-diagonal cancellation that would otherwise drown
    residuals in roundoff.
    """

    n: int
    dx: float
    diagonal: np.ndarray
    off_diagonal: float
    potential: np.ndarray
    half_width: float
    energy_scale: float  # conditioning scale (B) used for the eigensolves

    def __post_init__(self) -> None:
        self.diagonal.setflags(write=False)
        self.potential.setflags(write=False)

    @property
    def positions(self) -> np.ndarray:
        """Cell-center coordinates, symmetric about x = 0."""
        return -self.half_width + (np.arange(self.n) + 0.5) * self.dx

    def apply(self, v: np.ndarray) -> np.ndarray:
        """H @ v evaluated as -t (second difference) + V v (cancellation-safe),
        in the precision of v."""
        # walls half a cell outside the end nodes: ghost = -v
        return _second_difference_form(self.off_diagonal, self.potential, v, -v[-1])


def _second_difference_form(off: float, potential: np.ndarray, v: np.ndarray,
                            beyond) -> np.ndarray:
    """-t (second difference of v) + V v in the precision of v, with t = -off,
    the wall ghost -v[0] before v[0] and the value beyond after v[-1]."""
    t = v.dtype.type(-off)
    d2 = np.empty_like(v)
    d2[1:-1] = (v[2:] - v[1:-1]) + (v[:-2] - v[1:-1])
    d2[0] = (v[1] - v[0]) - 2.0 * v[0]
    d2[-1] = (v[-2] - v[-1]) + (beyond - v[-1])
    return -t * d2 + potential.astype(v.dtype, copy=False) * v


def build_grid_hamiltonian(spec: WellSpec, n: int = 20_000) -> GridHamiltonian:
    """Discretize the well on n cells over [-(a+b), a+b]."""
    if n < 100:
        raise ValueError(f"grid needs at least 100 cells, got {n}")
    half = spec.half_width
    dx = 2.0 * half / n
    if 2.0 * spec.b < 4.0 * dx:
        raise ValueError("barrier narrower than 4 cells; raise n")
    hbar = spec.constants.hbar
    t = hbar**2 / (2.0 * spec.m * dx * dx)

    try:
        centers = -half + (np.arange(n) + 0.5) * dx
        v = np.where(np.abs(centers) <= spec.b, spec.k, 0.0)
        edges = -half + np.arange(n + 1) * dx
        diag = np.full(n, 2.0 * t)
    except MemoryError:
        raise ValueError(f"cannot allocate a grid of n = {n} cells") from None

    # exact cell averages where a potential step crosses a cell
    for s, u_left in ((-spec.b, 0.0), (spec.b, spec.k)):
        i = int(np.searchsorted(edges, s)) - 1
        if 0 <= i < n and edges[i] < s < edges[i + 1]:
            phi = (s - edges[i]) / dx
            u_right = spec.k - u_left
            v[i] = u_left * phi + u_right * (1.0 - phi)

    diag += v
    diag[0] += t  # antisymmetric ghost: psi = 0 at the wall cell edge
    diag[-1] += t
    return GridHamiltonian(n, dx, diag, -t, v, half, spec.barrier_bound)


def aligned_size(spec: WellSpec, target: int, max_denominator: int = 200) -> int:
    """Largest grid size <= target for which both potential steps fall on
    cell edges (needs b/a close to a small rational); used by convergence
    studies so the interface error constant is reproducible across sizes."""
    frac = Fraction(2.0 * spec.b / spec.a).limit_denominator(max_denominator)
    if abs(float(frac) - 2.0 * spec.b / spec.a) > 1e-12:
        raise ValueError("b/a is not close to a small rational; no aligned size")
    period = 2 * frac.denominator + frac.numerator
    m = max(target // period, 1)
    return period * m


def _parity_block(h: GridHamiltonian, even: bool
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float | None]:
    """One parity block on the left half-grid, in symmetric form:
    (diagonal, off-diagonals, potential, centre ghost).

    A block vector w holds the left half of v, v[n-1-i] = +-v[i].  Past its
    last cell the block sees the centre ghost * w[-1]: ghost is +1 (even n,
    even), -1 (even n, odd) or 0 (odd n, odd: v is 0 on the centre cell).
    For odd n and even parity the last cell is the centre cell, whose row
    couples back with 2 off and which weighs 1/2 in norms; ghost is then
    None, and w[-1] = v[-1] / sqrt(2) makes that coupling sqrt(2) off."""
    c, odd_n = divmod(h.n, 2)
    ghost = None if odd_n and even else 0.0 if odd_n else 1.0 if even else -1.0
    size = c + (ghost is None)
    diag = h.diagonal[:size].copy()
    off = np.full(size - 1, h.off_diagonal)
    if ghost is None:
        off[-1] *= math.sqrt(2.0)
    else:
        diag[-1] += ghost * h.off_diagonal
    return diag, off, h.potential[:size], ghost


def _block_apply(h: GridHamiltonian, potential: np.ndarray, ghost: float | None,
                 w: np.ndarray) -> np.ndarray:
    """Block @ w in second-difference form, in the precision of w."""
    if ghost is not None:
        return _second_difference_form(h.off_diagonal, potential, w, ghost * w[-1])
    root2 = np.sqrt(w.dtype.type(2.0))
    v = w.copy()
    v[-1] *= root2  # back to the centre value of the full vector
    hv = _second_difference_form(h.off_diagonal, potential, v, v[-2])
    hv[-1] /= root2
    return hv


def lowest_eigenvalues(h: GridHamiltonian, count: int) -> np.ndarray:
    """The count smallest eigenvalues (J) by Sturm-sequence bisection: the
    ceil(count/2) lowest of the even block and the floor(count/2) lowest of
    the odd block, which alternate up the spectrum."""
    # local import: scipy.linalg costs ~0.3 s to load, paid only by oracle paths
    from scipy.linalg import eigh_tridiagonal

    if count < 1 or count > h.n // 10:
        raise ValueError(f"count must be in [1, n/10], got {count}")
    scale = h.energy_scale
    parts = []
    for even, k in ((True, (count + 1) // 2), (False, count // 2)):
        if k == 0:
            continue
        diag, off, _, _ = _parity_block(h, even)
        parts.append(eigh_tridiagonal(diag / scale, off / scale, select="i",
                                      select_range=(0, k - 1), eigvals_only=True,
                                      tol=1e-13, lapack_driver="stebz"))
    return np.sort(np.concatenate(parts)) * scale


def eigenvector(h: GridHamiltonian, eigenvalue: float, *, max_iter: int = 30) -> np.ndarray:
    """Inverse-iteration eigenvector for a converged eigenvalue, normalized
    so that sum(v^2) dx = 1 and sign-aligned to v > 0 just right of x = 0.

    Float64 inverse iteration runs on both parity blocks of the left
    half-grid (see _parity_block), so the vector has exact parity.  The
    block whose Rayleigh quotient is nearer the eigenvalue wins, and ties
    go to the even block: the odd block wins only when nearer by more than
    the grid's eigenvalue resolution 4 eps ||H||.  Where the grid cannot
    separate a pair, its even member is the lower one.

    Plain float64 inverse iteration stalls at a residual ~ eps ||H|| from
    the solver's injected roundoff, which at n = 2e4 sits above 1e-8 |E|;
    a couple of extended-precision residual refinements of the winning
    block push it well below."""
    # local import: scipy.linalg costs ~0.3 s to load, paid only by oracle paths
    from scipy.linalg import solve_banded

    scale = h.energy_scale
    blocks = {even: _parity_block(h, even) for even in (True, False)}
    resolution = 4.0 * np.finfo(float).eps * (
        float(np.max(np.abs(h.diagonal))) + 2.0 * abs(h.off_diagonal))

    rng = np.random.default_rng(h.n)
    accept_tol = 1e-9 * abs(eigenvalue)

    last_exc: Exception | None = None
    for attempt in range(4):
        shift = (eigenvalue / scale) * (1.0 + attempt * 3e-13)
        try:
            found = {}
            for even, (diag, off, potential, ghost) in blocks.items():
                ab = np.zeros((3, len(diag)))
                ab[0, 1:] = off / scale
                ab[1] = diag / scale - shift
                ab[2, :-1] = off / scale
                v = rng.standard_normal(len(diag))
                v /= np.linalg.norm(v)
                prev = rq = math.inf
                for _ in range(max_iter):
                    w = solve_banded((1, 1), ab, v)
                    nw = np.linalg.norm(w)
                    if not np.isfinite(nw) or nw == 0.0:
                        raise SingularShift(f"inverse iteration blew up at shift {shift}")
                    v = w / nw
                    hv = _block_apply(h, potential, ghost, v)
                    rq = float(v @ hv)
                    residual = float(np.linalg.norm(hv - rq * v))
                    if residual > 0.5 * prev:
                        break  # at the float64 floor
                    prev = residual
                found[even] = (abs(rq - eigenvalue), v, ab)
            even = not found[False][0] < found[True][0] - resolution
            _, v, ab = found[even]
            _, _, potential, ghost = blocks[even]
            # mixed-precision polish: extended residual, float64 correction
            v_ld = v.astype(np.longdouble)
            best_v, best_residual = None, math.inf
            for _ in range(3):
                hv = _block_apply(h, potential, ghost, v_ld)
                rq = np.longdouble(v_ld @ hv) / np.longdouble(v_ld @ v_ld)
                r = hv - rq * v_ld
                residual = float(np.sqrt(np.longdouble(r @ r)))
                if residual < best_residual:
                    best_v, best_residual = v_ld, residual
                if residual <= 0.01 * accept_tol:
                    break
                c = solve_banded((1, 1), ab, (r / scale).astype(np.float64))
                v_new = v_ld - c.astype(np.longdouble)
                v_ld = v_new / np.sqrt(np.longdouble(v_new @ v_new))
            if best_v is None or best_residual > accept_tol:
                raise SingularShift(
                    f"residual {best_residual:.3e} J above {accept_tol:.3e} J at shift {shift}")
        except SingularShift as exc:
            last_exc = exc
            continue
        left = best_v.astype(np.float64)  # mirrored onto the full grid:
        if ghost is None:
            left[-1] *= math.sqrt(2.0)
            v = np.concatenate([left, left[-2::-1]])
        elif ghost == 0.0:
            v = np.concatenate([left, [0.0], -left[::-1]])
        else:
            v = np.concatenate([left, ghost * left[::-1]])
        mid = h.n // 2
        pivot = v[mid] if v[mid] != 0.0 else v[mid + 1]
        if pivot < 0:
            v = -v
        return v / math.sqrt(float(v @ v) * h.dx)
    raise ConvergenceFailure(f"inverse iteration failed after retries: {last_exc}")

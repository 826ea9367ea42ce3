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
eigenvector is a Ritz vector of one block, so it has exact parity.  Where
two block eigenvalues lie within their certificate of each other,
eigenvector returns the even member: see its tie rule.

Eigenvalues and eigenvectors come from one path, in numpy alone:
shift-invert Lanczos on each block, solved with an odd-even
cyclic-reduction factor.  The eigenvalues are Rayleigh quotients of the
Ritz vectors in second-difference form, each certified by a Kato-Temple
residual bound and a Sylvester inertia count.  They are exact for the
finite-difference operator to about 1e-16 relative, where Sturm bisection
of the assembled matrix stops at eps ||H||, which grows as n^2.

Each GridHamiltonian memoises the last certified run of each block, so
eigenvector after lowest_eigenvalues on the same H reuses its Ritz pairs
instead of solving again.  lowest_eigenvalues only writes the memo, so its
values never depend on earlier calls; eigenvector's last bits depend on
which run it reuses.  No cache outlives the GridHamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConvergenceFailure
from .units import WellSpec

__all__ = [
    "GridHamiltonian",
    "build_grid_hamiltonian",
    "aligned_size",
    "lowest_eigenvalues",
    "eigenvector",
    "check_request",
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
    # parity (True: even) -> the last certified run (rho, vectors) of
    # _block_lowest on this H, for eigenvector to reuse
    _ritz: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    d2 *= -t
    d2 += potential.astype(v.dtype, copy=False) * v
    return d2


def build_grid_hamiltonian(spec: WellSpec, n: int = 20_000) -> GridHamiltonian:
    """Discretize the well on n cells over [-(a+b), a+b]."""
    half = spec.half_width
    dx = _cell_width(spec, n)
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


def _cell_width(spec: WellSpec, n: int) -> float:
    """The cell width of an n-cell grid, after the checks on n."""
    if n < 100:
        raise ValueError(f"grid needs at least 100 cells, got {n}")
    dx = 2.0 * spec.half_width / n
    if 2.0 * spec.b < 4.0 * dx:
        raise ValueError("barrier narrower than 4 cells; raise n")
    return dx


def _check_count(n: int, count: int) -> None:
    """The one check of an eigenvalue count asked of an n-cell grid."""
    if count < 1 or count > n // 10:
        raise ValueError(f"count must be in [1, n/10], got {count}")


def check_request(spec: WellSpec, n: int, count: int) -> None:
    """Raise the ValueError that build_grid_hamiltonian(spec, n) and then
    lowest_eigenvalues(h, count) raise on their parameters, without
    building the grid; so a caller rejects a level count it cannot check
    before it solves for the levels."""
    _cell_width(spec, n)
    _check_count(n, count)


def aligned_size(spec: WellSpec, target: int) -> int:
    """Largest grid size <= target for which both potential steps fall on
    cell edges (needs 2b/a close to a fraction of denominator <= 200); used by
    convergence studies so the interface error constant is reproducible."""
    frac = Fraction(2.0 * spec.b / spec.a).limit_denominator(200)
    if abs(float(frac) - 2.0 * spec.b / spec.a) > 1e-12:
        raise ValueError("b/a is not close to a small rational; no aligned size")
    period = 2 * frac.denominator + frac.numerator
    m = max(target // period, 1)
    return period * m


def _parity_block(h: GridHamiltonian, even: bool
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float | None]:
    """One parity block on the left half-grid, in symmetric form:
    (diagonal, off-diagonals, potential, centre ghost), with the diagonal
    and off-diagonals in units of energy_scale.

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
    diag /= h.energy_scale
    off /= h.energy_scale
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


def _cyclic_reduction(diag: np.ndarray, off: np.ndarray,
                      keep: bool = True) -> tuple[list, int]:
    """Odd-even cyclic reduction of T = tridiag(off, diag, off).

    Each level eliminates the unknowns at even positions, which couple only
    to those at odd positions, and leaves a tridiagonal Schur complement
    half the size, so log2(n) vectorized levels make the LDL^T factor of
    the matrix with its rows permuted level by level.  For a positive
    definite matrix that is a Cholesky factor, which is backward stable.
    Returns the levels the solve needs (inverse pivots and the multipliers
    to the right and left neighbours; none unless keep) and the number of
    negative pivots, which by Sylvester's law of inertia is the number of
    negative eigenvalues: pass diag - shift to count those below shift."""
    d, e = diag, off
    levels, negative = [], 0
    while len(d):
        inv = 1.0 / d[0::2]
        if not np.all(np.isfinite(inv)):
            raise ConvergenceFailure("cyclic reduction met a zero pivot")
        negative += int(np.count_nonzero(inv < 0.0))
        right, left = e[0::2], e[1::2]  # eliminated i to kept i, kept i to eliminated i + 1
        a = right * inv[:len(right)]
        c = left * inv[1:len(left) + 1]
        kept = d[1::2] - right * a
        kept[:len(c)] -= left * c
        inner = max(len(kept) - 1, 0)
        d, e = kept, -c[:inner] * e[2::2][:inner]
        if keep:
            levels.append((inv, a, c))
    return levels, negative


def _cr_solve(levels: list, f: np.ndarray) -> np.ndarray:
    """x with T x = f (float64), from the levels of _cyclic_reduction.  The
    unknowns of level l sit at stride 2**l in one array, so both sweeps run
    in place on a single copy of f."""
    x = np.array(f, dtype=np.float64)
    views = [x[(1 << level) - 1::1 << level] for level in range(len(levels))]
    for (_, a, c), g in zip(levels, views):
        g[1::2] -= a * g[0:2 * len(a):2]
        g[1:2 * len(c) + 1:2] -= c * g[2:2 * len(c) + 2:2]
    for (inv, a, c), g in zip(reversed(levels), reversed(views)):
        g[0::2] *= inv
        g[0:2 * len(a):2] -= a * g[1::2]
        g[2:2 * len(c) + 2:2] -= c * g[1:2 * len(c) + 1:2]
    return x


_CERTIFY_TOL = 1e-13  # bound on ||r||^2 / gap, in units of the energy scale


def _count_below(h: GridHamiltonian, even: bool, shift: float) -> int:
    """The number of eigenvalues of one parity block below shift (in units
    of energy_scale), by the inertia of its cyclic-reduction factor."""
    diag, off, _, _ = _parity_block(h, even)
    diag -= shift
    return _cyclic_reduction(diag, off, keep=False)[1]


def _basis(store: list, rows: int, size: int, filled: int = 0) -> np.ndarray:
    """A rows x size Lanczos basis on the flat buffer held in store, which
    is reused from call to call and replaced by a larger one when short;
    its first filled rows keep their values."""
    if not store or store[0].size < rows * size:
        grown = np.empty(rows * size)
        if filled:
            grown[:filled * size] = store[0][:filled * size]
        store[:] = [grown]
    return store[0][:rows * size].reshape(rows, size)


def _block_lowest(h: GridHamiltonian, even: bool, k: int, rng: np.random.Generator,
                  store: list | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """The k lowest eigenvalues (J) of one parity block, certified, with
    their Ritz vectors on the block.

    Shift-invert Lanczos at 0 with full reorthogonalization runs on the
    block scaled by energy_scale, solving with its cyclic-reduction factor.
    It stops once the Lanczos estimate of ||r||^2 / gap falls below a
    thousandth of _CERTIFY_TOL for each of the k lowest Ritz pairs (their
    vectors then carry errors near 1e-8, of which the Rayleigh quotient
    sees the square).  Each purified Ritz vector x = T^-1 (Q s) / theta
    gives rho = x.Hx / x.x and r = Hx - rho x, both in second-difference
    form (_block_apply), so neither carries the eps ||H|| roundoff of the
    kinetic diagonal.  rho_i is accepted when ||r_i||^2 / gap_i <=
    _CERTIFY_TOL * energy_scale, gap_i being the distance to the
    neighbouring rho or to Ritz value k + 1 (Kato-Temple), and when the
    inertia at the midpoint between rho_{k-1} and Ritz value k + 1 is k, so
    no eigenvalue below was missed; a wrong count keeps the iteration going.

    Once ||H|| nears 1e9 energy_scale (n about 2.5e5) the float64 residual
    floor, about eps ||H||, can exceed the bound; a failing vector then gets
    one mixed-precision correction, x <- T^-1 x solved in float64 and
    refined once against a long-double residual, and is rescored in long
    double.  A vector that still fails raises ConvergenceFailure.  The
    vectors returned are the ones scored: float64 purified Ritz vectors, or
    long double where the correction ran.  The basis lives in store (see
    _basis), so consecutive calls can share one buffer."""
    store = [] if store is None else store
    scale = h.energy_scale
    diag, off, potential, ghost = _parity_block(h, even)
    factor, _ = _cyclic_reduction(diag, off)
    size = len(diag)
    del diag, off
    rows = min(size, 4 * k + 6)  # covers the steps seen for k <= 8; doubles if short
    limit = min(size - 1, 4 * rows)
    basis = _basis(store, rows, size)
    basis[0] = _cr_solve(factor, rng.standard_normal(size))
    basis[0] /= np.linalg.norm(basis[0])
    alpha, beta = [], []
    for j in range(limit):
        w = _cr_solve(factor, basis[j])
        alpha.append(float(w @ basis[j]))
        for _ in range(2):  # classical Gram-Schmidt, twice is enough
            w -= (basis[:j + 1] @ w) @ basis[:j + 1]
        beta.append(float(np.linalg.norm(w)))
        if not (math.isfinite(beta[-1]) and beta[-1] > 0.0):
            break
        if j + 1 == rows:
            rows = min(2 * rows, size)
            basis = _basis(store, rows, size, j + 1)
        np.divide(w, beta[-1], out=basis[j + 1])
        del w
        if j < k:
            continue
        tri = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
        theta, s = np.linalg.eigh(tri)
        theta, s = theta[:-k - 2:-1], s[:, :-k - 2:-1]  # largest first
        ritz = 1.0 / theta  # the k + 1 lowest Ritz values of the block
        weight = beta[-1] * s[-1, :k] / theta[:k]
        gap = np.minimum(np.diff(ritz), np.append(np.inf, np.diff(ritz)[:-1]))
        if np.any((weight * ritz[:k]) ** 2 > 1e-3 * _CERTIFY_TOL * gap):
            continue

        def ritz_vector(i):  # purified: T^-1 (Q s) = theta Q s + beta s_j q_j+1
            return s[:, i] @ basis[:j + 1] + weight[i] * basis[j + 1]

        vectors = [ritz_vector(i) for i in range(k)]
        rho, norm2 = np.empty(k), np.empty(k)
        for i, x in enumerate(vectors):
            rho[i], norm2[i] = _rayleigh(h, potential, ghost, x)
        upper = ritz[k] * scale
        if _count_below(h, even, 0.5 * (rho[-1] / scale + ritz[k])) != k:
            continue
        del basis, ritz_vector
        failing = [i for i in range(k)
                   if norm2[i] > _CERTIFY_TOL * scale * _gap(rho, upper, i)]
        if failing:
            store.clear()  # the basis is spent: free it for the long-double work
        for i in failing:  # at the float64 floor: one mixed-precision correction
            x = vectors[i]
            y = _cr_solve(factor, x).astype(np.longdouble)
            y += _cr_solve(factor, x - _block_apply(h, potential, ghost, y) / scale)
            vectors[i] = y
            rho[i], norm2[i] = _rayleigh(h, potential, ghost, y)
        for i in range(k):
            bound = norm2[i] / _gap(rho, upper, i) / scale
            if bound > _CERTIFY_TOL:
                raise ConvergenceFailure(
                    f"grid eigenvalue {i} of the {'even' if even else 'odd'} block not "
                    f"certified: ||r||^2/gap = {bound:.2e} B above {_CERTIFY_TOL:.0e} B")
        return rho, vectors
    raise ConvergenceFailure(
        f"shift-invert Lanczos on the {'even' if even else 'odd'} block did not certify "
        f"{k} eigenvalues in {len(alpha)} steps")


def _rayleigh(h: GridHamiltonian, potential: np.ndarray, ghost: float | None,
              x: np.ndarray) -> tuple[float, float]:
    """(x.Hx / x.x, ||Hx - rho x||^2 / x.x) in second-difference form, in
    the precision of x."""
    hx = _block_apply(h, potential, ghost, x)
    xx = x @ x
    rho = (x @ hx) / xx
    hx -= rho * x
    return float(rho), float((hx @ hx) / xx)


def _gap(rho: np.ndarray, upper: float, i: int) -> float:
    above = rho[i + 1] if i + 1 < len(rho) else upper
    return min(above - rho[i], rho[i] - rho[i - 1] if i else math.inf)


def lowest_eigenvalues(h: GridHamiltonian, count: int) -> np.ndarray:
    """The count smallest eigenvalues (J): the ceil(count/2) lowest of the
    even block and the floor(count/2) lowest of the odd block, which
    alternate up the spectrum, each by certified shift-invert Lanczos
    (_block_lowest, one basis buffer for both blocks).  Every value is a
    Rayleigh quotient within _CERTIFY_TOL * energy_scale of the exact
    finite-difference eigenvalue by the Kato-Temple bound; where that
    cannot be certified it raises ConvergenceFailure.  The start vectors
    come from a generator seeded with n, so repeated calls are
    bit-identical.  Each block's run is stored in h._ritz for eigenvector,
    and never read here, so the values do not depend on earlier calls."""
    _check_count(h.n, count)
    rng = np.random.default_rng(h.n)
    store: list = []
    parts = []
    for even, k in ((True, (count + 1) // 2), (False, count // 2)):
        if k:
            h._ritz[even] = run = _block_lowest(h, even, k, rng, store)
            parts.append(run[0])
    return np.sort(np.concatenate(parts))


def eigenvector(h: GridHamiltonian, eigenvalue: float) -> np.ndarray:
    """The grid eigenvector whose eigenvalue is nearest eigenvalue (J),
    normalized so that sum(v^2) dx = 1 and sign-aligned to v > 0 just right
    of x = 0.

    Each parity block counts its eigenvalues below eigenvalue + w by
    inertia, w = 4 eps ||H|| being the backward error of that count; for a
    count k > 0 it takes the k-th certified Ritz pair of the block's run in
    h._ritz when that run holds at least k, and otherwise makes and stores
    its own run of the certified Lanczos of lowest_eigenvalues
    (_block_lowest, same seed).  So after lowest_eigenvalues(h, count) the
    vectors of those count levels cost no solve; their last bits depend on
    which run they come from (the memoised and the standalone vectors
    agree to about 1e-9 in L2).  The block whose certified value is nearer
    eigenvalue gives the Ritz vector, mirrored onto the full grid, so the
    vector has exact parity.  The tie rule: the odd block wins only when
    nearer by more than the Kato-Temple certificate _CERTIFY_TOL *
    energy_scale, so where the grid cannot separate a pair the even member
    is returned.  Raises ValueError when no grid eigenvalue lies within
    1e-9 |eigenvalue|, or when more than n/10 lie below it."""
    if not math.isfinite(eigenvalue):
        raise ValueError(f"eigenvalue must be finite, got {eigenvalue}")
    scale = h.energy_scale
    window = 4.0 * np.finfo(float).eps * (
        float(np.max(np.abs(h.diagonal))) + 2.0 * abs(h.off_diagonal)) / scale
    counts = {even: _count_below(h, even, eigenvalue / scale + window) for even in (True, False)}
    if sum(counts.values()) > h.n // 10:
        raise ValueError(f"{eigenvalue:.6e} J lies above n/10 grid eigenvalues")
    rng = np.random.default_rng(h.n)
    distance, vector = {}, {}
    for even, k in counts.items():
        if k:
            if even not in h._ritz or len(h._ritz[even][0]) < k:
                h._ritz[even] = _block_lowest(h, even, k, rng)
            rho, vectors = h._ritz[even]
            distance[even], vector[even] = abs(rho[k - 1] - eigenvalue), vectors[k - 1]
    even = distance.get(True, math.inf) <= distance.get(False, math.inf) + _CERTIFY_TOL * scale
    if distance.get(even, math.inf) > 1e-9 * abs(eigenvalue):
        raise ValueError(f"no grid eigenvalue within 1e-9 relative of {eigenvalue:.6e} J")
    left = vector[even].astype(np.float64)  # mirrored onto the full grid:
    ghost = _parity_block(h, even)[3]
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

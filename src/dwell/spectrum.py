"""Below-barrier spectrum of the double square well.

Even and odd levels solve the transcendental matching conditions

    even:  g(eps) = h(eps),    odd:  g(eps) = j(eps),

with, in dimensionless form (eps = E/B, kappa = k/B, lambda = b/a),

    g(eps) = -sqrt(eps) * cot(pi sqrt(eps))
    h(eps) = sqrt(kappa - eps) * tanh(pi lambda sqrt(kappa - eps))
    j(eps) = sqrt(kappa - eps) * coth(pi lambda sqrt(kappa - eps))

Pair n is bracketed inside ((n + 1/2)^2, min((n + 1)^2, kappa)); the even
member always exists there, the odd member can be pushed above the barrier.
F = g - h (or g - j) is strictly increasing on the bracket, so each root is
found in three steps:

- a scout solves the phase form P(s) = s - n - 1/2 - atan(R(s))/pi = 0,
  with s = sqrt(eps) and R = h/s (even) or j/s (odd), by safeguarded
  Newton (P' >= 1 there);
- two evaluations of F certify a band a few thousand ulp wide around the
  scout's root, beyond which the sign of the computed F is known;
- bisection narrows the bracket to 1e-6 without evaluating F at the
  midpoints outside the band, and Newton steps with analytic derivatives
  polish the root inside the bracket bisection leaves.

A top bracket too narrow to probe, kappa just above (n + 1/2)^2, takes its
even root by plain bisection over the floats inside it instead.

The bracket, and so every level bit, is that of plain bisection, which
runs instead whenever the scout or its certificate fails.  The reported
iterations count bracket halvings and Newton steps, not evaluations of F.

A pair whose even/odd splitting float64 cannot resolve is flagged by
LevelDiagnostics.degenerate_pair, set once per pair by the solver; that
flag is the one definition of a degenerate pair.  gap01, the one check of
the lowest pair, reads it for gap_sweep, find_b_for_gap and from_well.
They solve pair 0 alone: solve_below_barrier, the one solve entry, takes a
pair count, so a pair its caller does not read is never solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

from .errors import (
    BarrierUnderflow,
    BracketFailure,
    ConvergenceFailure,
    DegenerateGap,
    DwellError,
    NotReached,
    PoleCollision,
)
from .units import ScaledWell, WellSpec, to_dimensionless

__all__ = [
    "EnergyLevel",
    "LevelDiagnostics",
    "SpectrumResult",
    "BoundCheck",
    "BoundReport",
    "Gap01",
    "SweepRow",
    "GapSearchResult",
    "solve_below_barrier",
    "level_count",
    "verify_bounds",
    "gap01",
    "gap_sweep",
    "find_b_for_gap",
]

# refinement targets (dimensionless eps units)
_STEP_TOL = 1e-13
_RESIDUAL_TOL = 1e-13
_BISECT_WIDTH = 1e-6
_MAX_ITER = 300
# certified walk: band half-width delta = _BAND_ULPS ulp(r) + _BAND_ABS
_BAND_ULPS = 1e3
_BAND_ABS = 1e-11
_POLE_MARGIN = 1e-6
_SCOUT_ITER = 40
_SCOUT_TOL = 1e-12
_GAP_GRID_RATIO = 2.0 ** 0.125  # find_b_for_gap's geometric step in b
_GAP_CAP = 100.0  # find_b_for_gap stops past b = _GAP_CAP * a

Parity = Literal["even", "odd"]


class EnergyLevel(NamedTuple):
    """One below-barrier level: global index (even levels carry even
    indices), parity, dimensionless eps = E/B, and E in J (NaN when the
    well carries no SI context)."""

    index: int
    parity: Parity
    eps: float
    energy: float


class LevelDiagnostics(NamedTuple):
    index: int
    iterations: int
    residual: float
    degenerate_pair: bool


@dataclass(frozen=True)
class SpectrumResult:
    """All solved below-barrier levels of one well, ordered by energy; only
    the even and odd member of a flagged pair may tie."""

    levels: tuple[EnergyLevel, ...]
    well: ScaledWell
    solver_report: tuple[LevelDiagnostics, ...]

    def __post_init__(self) -> None:
        degenerate = {d.index for d in self.solver_report if d.degenerate_pair}
        for lo, hi in zip(self.levels, self.levels[1:]):
            if hi.eps > lo.eps:
                continue
            tied_pair = lo.index % 2 == 0 and hi.index == lo.index + 1 and hi.index in degenerate
            if not (tied_pair and hi.eps >= lo.eps):
                raise ValueError(f"levels {lo.index},{hi.index} are not increasing")

    @property
    def eps_values(self) -> tuple[float, ...]:
        return tuple(level.eps for level in self.levels)


def _cot(eps: float) -> tuple[float, float, float]:
    """(sqrt(eps), sin(pi sqrt(eps)), cot(pi sqrt(eps))); the one cot pole
    guard, raising PoleCollision."""
    s = math.sqrt(eps)
    sin_pis = math.sin(math.pi * s)
    if abs(sin_pis) < 1e-14:
        raise PoleCollision(f"cot pole at sqrt(eps) = {s!r}")
    return s, sin_pis, math.cos(math.pi * s) / sin_pis


def _barrier_term(u: float, lam: float, parity: Parity) -> tuple[float, float]:
    """T(x) = tanh(x) (even) or coth(x) (odd) at x = pi lam u, with x T'(x)."""
    x = math.pi * lam * u
    t = math.tanh(x)
    e = math.exp(-x)  # sech and csch as 2e/(1 +- e^2), without overflowing cosh/sinh
    if parity == "even":
        sech = 2.0 * e / (1.0 + e * e)
        return t, x * (sech * sech)
    if e == 1.0:  # x < 2^-54: 1 - e^2 rounds to 0, so csch cannot be formed
        raise BarrierUnderflow(f"odd condition unresolvable: exp(-x) rounds to 1 at "
                               f"barrier argument x = {x!r}")
    csch = 2.0 * e / (1.0 - e * e)
    return 1.0 / t, -x * (csch * csch)


def _f_and_deriv(eps: float, kappa: float, lam: float, parity: Parity) -> tuple[float, float]:
    """F = g - h (even) or g - j (odd), with dF/deps."""
    s, sin_pis, cot = _cot(eps)
    csc2 = 1.0 / (sin_pis * sin_pis)
    g = -s * cot
    dg = (-cot + math.pi * s * csc2) / (2.0 * s)

    u = math.sqrt(kappa - eps)
    t, x_dt = _barrier_term(u, lam, parity)
    drhs = -(t + x_dt) / (2.0 * u)
    return g - u * t, dg - drhs


def _phase(s: float, n: int, kappa: float, lam: float, parity: Parity) -> tuple[float, float]:
    """Phase form P(s) = s - n - 1/2 - atan(R(s))/pi of pair n, with dP/ds;
    R = u T(x)/s and u = sqrt(kappa - s^2).  P' >= 1 on the pair bracket."""
    u = math.sqrt(kappa - s * s)
    t, x_dt = _barrier_term(u, lam, parity)
    r = u * t / s
    dr = -(t + x_dt) / u - r / s
    return s - n - 0.5 - math.atan(r) / math.pi, 1.0 - dr / (math.pi * (1.0 + r * r))


def _phase_scout(n: int, lo: float, hi: float, kappa: float, lam: float,
                 parity: Parity) -> float | None:
    """Root of pair n's phase form in [sqrt(lo), sqrt(hi)], as eps = s^2, by
    safeguarded Newton from s = n + 1/2 + atan(R(n + 1/2))/pi; None when it
    does not converge or an evaluation raises."""
    s_lo, s_hi = math.sqrt(lo), math.sqrt(hi)
    try:
        s = n + 0.5 - _phase(n + 0.5, n, kappa, lam, parity)[0]
        for _ in range(_SCOUT_ITER):
            if not s_lo < s < s_hi:
                s = 0.5 * (s_lo + s_hi)
            p, dp = _phase(s, n, kappa, lam, parity)
            if p < 0.0:
                s_lo = s
            else:
                s_hi = s
            step = p / dp
            s -= step
            if abs(step) <= _SCOUT_TOL * s:
                return s * s
    except (DwellError, ArithmeticError, ValueError):
        pass
    return None


def _certified_band(n: int, lo: float, hi: float, kappa: float, lam: float,
                    parity: Parity) -> tuple[float, float] | None:
    """(r - 2 delta, r + 2 delta) around the scout root r, or None when
    the two evaluations of F at r -+ delta do not certify it.

    Rounding bound, with u = 2^-53.  The computed F = g - h carries a
    relative error of a few u in each term, plus the rounding of
    pi sqrt(eps), which acts on g as a shift of eps by a few ulp(eps).  Its
    sign can differ from the true F's only where |F| is below that error.
    The true dF/deps >= pi/2 + pi h^2 / (2 eps) on the whole bracket, and
    g = h at the true root r*, so this zone is an interval around r* of
    half-width rho <= few ulp(eps) + 6u sqrt(eps): below delta / 100 for
    delta = 1e3 ulp(r) + 1e-11.  A computed F(r - delta) < 0 < F(r + delta)
    then puts r* within delta + rho of r, so every point below r - 2 delta
    or above r + 2 delta lies more than rho from r*, and its computed F
    has the sign of the true F there, which monotonicity gives.  That
    includes the bracket's lower end lo = (n+1/2)^2 when it lies below
    r - 2 delta: sin(pi sqrt(lo)) = +-1 there, far from every cot pole, so
    _refine_root takes F(lo) < 0 from the band instead of evaluating it."""
    r = _phase_scout(n, lo, hi, kappa, lam, parity)
    if r is None:
        return None
    delta = _BAND_ULPS * math.ulp(r) + _BAND_ABS
    if not (lo < r - delta and r + delta < hi):
        return None
    try:
        f_below, _ = _f_and_deriv(r - delta, kappa, lam, parity)
        f_above, _ = _f_and_deriv(r + delta, kappa, lam, parity)
    except (DwellError, ArithmeticError):
        return None
    if not f_below < 0.0 < f_above:
        return None
    return r - 2.0 * delta, r + 2.0 * delta


def _refine_root(lo: float, hi: float, kappa: float, lam: float, parity: Parity,
                 n: int) -> tuple[float, float, int, float]:
    """Safeguarded bisection+Newton inside the bracket [lo, hi] of pair n,
    where hi is _upper_eval_point's point, so F(hi) > 0, and F(lo) < 0:
    certified by the band when lo lies below it, else evaluated, with
    BracketFailure unless it holds.  Only the sign of F(lo) is read, so
    every point whose F is negative becomes the new lo.

    Bisection skips the evaluation of every midpoint outside the certified
    band, whose sign is known, except within a 1e-6 relative margin of the
    cot pole (n+1)^2, where sin(pi sqrt(eps)) loses its relative accuracy.
    Each midpoint it does evaluate, and the bracket it leaves to Newton,
    are those of plain bisection.  Returns (root, residual, iterations,
    dF/deps at the root); iterations count bracket halvings and Newton
    steps, not evaluations."""
    band = _certified_band(n, lo, hi, kappa, lam, parity) if hi - lo > _BISECT_WIDTH else None
    below, above = band or (-math.inf, math.inf)
    if not lo < below:
        f_lo, df_lo = _f_and_deriv(lo, kappa, lam, parity)
        if f_lo == 0.0:
            return lo, 0.0, 0, df_lo
        if math.copysign(1.0, f_lo) > 0.0:
            raise BracketFailure(f"no sign change for the {parity} condition", (lo, hi))

    ceiling = (1.0 - _POLE_MARGIN) * (n + 1) ** 2
    iters = 0
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        iters += 1
        if mid < below:  # F(mid) < 0
            lo = mid
            continue
        if above < mid < ceiling:
            hi = mid
            continue
        f_mid, df_mid = _f_and_deriv(mid, kappa, lam, parity)
        if f_mid == 0.0:
            return mid, 0.0, iters, df_mid
        if math.copysign(1.0, f_mid) < 0.0:
            lo = mid
        else:
            hi = mid

    x = 0.5 * (lo + hi)
    f, df = _f_and_deriv(x, kappa, lam, parity)
    x_best, f_best, df_best = x, abs(f), df
    while iters < _MAX_ITER:
        iters += 1
        step = f / df if df != 0.0 else math.inf
        x_new = x - step
        if not (lo < x_new < hi) or not math.isfinite(x_new):
            x_new = 0.5 * (lo + hi)  # bisection fallback keeps the bracket
            step = x_new - x
        f_new, df_new = _f_and_deriv(x_new, kappa, lam, parity)
        if math.copysign(1.0, f_new) < 0.0:
            lo = x_new
        else:
            hi = x_new
        x, f, df = x_new, f_new, df_new
        if abs(f) < f_best:
            x_best, f_best, df_best = x, abs(f), df
        if f_best <= _RESIDUAL_TOL and abs(step) <= _STEP_TOL:
            return x_best, f_best, iters, df_best
        if abs(step) <= 4.0 * math.ulp(x):
            return x_best, f_best, iters, df_best
    raise ConvergenceFailure(
        f"{parity} root did not converge in {_MAX_ITER} iterations (bracket [{lo}, {hi}])")


def _threshold_root(lo: float, kappa: float, lam: float) -> tuple[float, float, int]:
    """Even root of a top bracket (lo, kappa] too narrow for
    _upper_eval_point to probe, as (root, residual |F|, halvings).
    P+(sqrt(kappa)) > 0 whenever kappa > lo = (n+1/2)^2, so the root exists.
    Plain bisection on the sign of F at the floats strictly inside the
    bracket, never at kappa itself, where u = sqrt(kappa - eps) = 0 divides
    dF/deps, narrows it to two adjacent floats and returns the upper one:
    the last midpoint with F >= 0, else kappa, where h vanishes and F = g."""
    s, _, cot = _cot(kappa)
    hi, f_hi, iters = kappa, -s * cot, 0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        iters += 1
        f_mid = _f_and_deriv(mid, kappa, lam, "even")[0]
        if f_mid < 0.0:
            lo = mid
        else:
            hi, f_hi = mid, f_mid
        mid = 0.5 * (lo + hi)
    return hi, abs(f_hi), iters


def _pair_bracket(n: int, kappa: float) -> tuple[float, float, bool]:
    """Bracket ((n+1/2)^2, min((n+1)^2, kappa)); flag whether the upper end
    is the barrier (True) or the cot pole (False)."""
    lo = (n + 0.5) ** 2
    hi_pole = float((n + 1) ** 2)
    if kappa <= hi_pole:
        return lo, kappa, True
    return lo, hi_pole, False


def _crosses_below_cap(kappa: float, lam: float, parity: Parity) -> bool:
    """Whether a bracket capped by the barrier holds a root: the closed-form
    test g(kappa) > the limit of the right-hand side at kappa^- (0 for tanh,
    1/(pi lambda) for coth)."""
    try:
        s, _, cot = _cot(kappa)
        g_cap = -s * cot
    except PoleCollision:
        g_cap = math.inf  # the cap sits exactly on a pole: g diverges
    limit = 0.0 if parity == "even" else 1.0 / (math.pi * lam)
    return g_cap > limit


def _upper_eval_point(lo: float, hi: float, capped_by_barrier: bool,
                      kappa: float, lam: float, parity: Parity) -> float | None:
    """Find an evaluation point below the upper bracket end where F > 0.

    Near a cot pole g -> +inf, so we only need to creep toward the pole
    until the sign flips.  When the barrier caps the bracket, the limit of
    the right-hand side at kappa^- (0 for tanh, 1/(pi lambda) for coth)
    decides whether the root exists at all.  None means the odd level was
    pushed above the barrier, or that a capped bracket is too narrow to
    probe: narrower than about 5e8 ulp(kappa), so that the first probe,
    1e-9 of the width below kappa, rounds onto kappa, or so narrow that
    g(kappa) rounds to <= 0.  _threshold_root takes the even level there."""
    if capped_by_barrier and not _crosses_below_cap(kappa, lam, parity):
        return None
    width = hi - lo
    shrink = 1e-9
    for _ in range(12):
        point = hi - shrink * width
        if not lo < point < hi:  # a few-ulp bracket: the probe rounds onto an end
            break
        try:
            f, _ = _f_and_deriv(point, kappa, lam, parity)
        except PoleCollision:
            shrink *= 1e-3
            continue
        if f > 0.0:
            return point
        shrink *= 1e-3
        if shrink * width < 2.0 * math.ulp(hi):
            break
    if capped_by_barrier:
        return None  # root indistinguishable from the barrier top
    raise PoleCollision(
        f"could not find a positive {parity} condition value below the pole at {hi}")


def _pair_unresolvable(eps: float, kappa: float, lam: float, df: float) -> bool:
    """True when the even/odd pair at eps cannot be separated in float64;
    df is the even dF/deps at eps.

    Two criteria: tanh and coth of the barrier argument agree to < 1e-15,
    or the first-order estimate of the root separation,
    (j - h) / |d(g - h)/deps|, falls below the solver resolution.  The
    second catches large-eps pairs whose splitting is a few ulps even
    though tanh and coth still differ representably."""
    u = math.sqrt(max(kappa - eps, 0.0))
    x = math.pi * lam * u
    if x == 0.0:
        return False
    t = math.tanh(x)
    rhs_diff = u * (1.0 / t - t)  # = 2u / sinh(2x), positive
    if rhs_diff / u < 1e-15:
        return True
    separation = rhs_diff / abs(df) if df != 0.0 else math.inf
    return separation < max(2.0 * _STEP_TOL, 64.0 * math.ulp(eps))


def _solve_pair_diagnosed(
    n: int, well: ScaledWell
) -> tuple[EnergyLevel, LevelDiagnostics, EnergyLevel | None, LevelDiagnostics | None]:
    kappa, lam = well.kappa, well.lam
    lo, hi, capped = _pair_bracket(n, kappa)
    scale = well.b_scale

    even_hi = _upper_eval_point(lo, hi, capped, kappa, lam, "even")
    if even_hi is None:  # the even root exists below the cap: a threshold well
        eps_even, res_even, it_even = _threshold_root(lo, kappa, lam)
        degenerate = False
    else:
        eps_even, res_even, it_even, df_even = _refine_root(lo, even_hi, kappa, lam, "even", n)
        degenerate = _pair_unresolvable(eps_even, kappa, lam, df_even)
    even = EnergyLevel(2 * n, "even", eps_even, eps_even * scale)
    even_diag = LevelDiagnostics(2 * n, it_even, res_even, degenerate)

    odd_hi = _upper_eval_point(lo, hi, capped, kappa, lam, "odd")
    if odd_hi is None:
        return even, even_diag, None, None
    eps_odd, res_odd, it_odd, _ = _refine_root(lo, odd_hi, kappa, lam, "odd", n)
    if degenerate and eps_odd < eps_even:
        eps_odd = eps_even  # tie, not a fabricated (negative) splitting
    elif not degenerate and eps_odd <= eps_even:
        exc = ConvergenceFailure(f"pair {n}: odd level {eps_odd!r} is not above even level "
                                 f"{eps_even!r}, although the pair is resolvable")
        exc.pair_index = n
        raise exc
    odd = EnergyLevel(2 * n + 1, "odd", eps_odd, eps_odd * scale)
    odd_diag = LevelDiagnostics(2 * n + 1, it_odd, res_odd, degenerate)
    return even, even_diag, odd, odd_diag


def _has_pair(n: int, kappa: float) -> bool:
    """Pair n lies below the barrier: (n+1/2)^2 < kappa, the loop guard of
    solve_below_barrier."""
    return (n + 0.5) ** 2 < kappa


def level_count(well: ScaledWell) -> int:
    """How many levels solve_below_barrier(well) returns, counted without
    solving: two per pair its loop guard admits, less the odd level of the
    top pair where the barrier caps that pair's bracket and the closed-form
    test finds no odd root below the cap.  A threshold well, kappa so
    close above (n+1/2)^2 that _upper_eval_point cannot probe the top
    bracket, counts 2n + 1: _threshold_root bisects its top even level,
    and the closed-form test rejects its odd one.  A solve that fails
    raises instead; one that finds the top odd root indistinguishable from
    the barrier top returns one level fewer."""
    kappa = well.kappa
    if not _has_pair(0, kappa):
        return 0
    # the guard is monotone in n, so bisect for the first pair it rejects
    lo, pairs = 0, 2 * math.ceil(math.sqrt(kappa)) + 2  # admitted, rejected
    while pairs - lo > 1:
        mid = (lo + pairs) // 2
        if _has_pair(mid, kappa):
            lo = mid
        else:
            pairs = mid
    capped = _pair_bracket(pairs - 1, kappa)[2]
    return 2 * pairs - (capped and not _crosses_below_cap(kappa, well.lam, "odd"))


def solve_below_barrier(well: ScaledWell, pairs: float = math.inf) -> SpectrumResult:
    """Solve the first `pairs` pairs (default all) with (n+1/2)^2 < kappa;
    empty when kappa <= 1/4.  A pair's levels depend only on n and the well,
    so they are bit-equal whatever the count."""
    levels: list[EnergyLevel] = []
    report: list[LevelDiagnostics] = []
    n = 0
    while n < pairs and _has_pair(n, well.kappa):
        try:
            even, even_diag, odd, odd_diag = _solve_pair_diagnosed(n, well)
        except DwellError as exc:
            exc.pair_index = n
            raise
        levels.append(even)
        report.append(even_diag)
        if odd is not None and odd_diag is not None:
            levels.append(odd)
            report.append(odd_diag)
        n += 1
    return SpectrumResult(tuple(levels), well, tuple(report))


class BoundCheck(NamedTuple):
    name: str
    holds: bool
    margin: float
    applicable: bool = True


class BoundReport(NamedTuple):
    checks: tuple[BoundCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks if c.applicable)

    def failures(self) -> tuple[BoundCheck, ...]:
        return tuple(c for c in self.checks if c.applicable and not c.holds)


def verify_bounds(result: SpectrumResult) -> BoundReport:
    """Check every spectral inequality the well family guarantees:
    B/4 < E0 < E1 < B; the per-pair brackets; E_{2n+2}-E_{2n+1} > (n+5/4)B;
    (5/4)B < E2-E1 < (15/4)B; E1-E0 < (3/4)B.  Margins are dimensionless.
    The solver clamps a flagged pair to an exact tie, so the ordering check
    of a degenerate pair holds at margin 0.0; every other check needs a
    positive margin."""
    if not result.levels:
        raise ValueError("spectrum is empty")
    eps = {level.index: level.eps for level in result.levels}
    degenerate_pairs = {d.index // 2 for d in result.solver_report if d.degenerate_pair}
    checks: list[BoundCheck] = []

    def strict(name: str, margin: float, degenerate: bool = False) -> None:
        holds = margin > 0 or (degenerate and margin == 0.0)
        checks.append(BoundCheck(name, holds, margin))

    def vacuous(name: str) -> None:
        checks.append(BoundCheck(name, True, math.nan, applicable=False))

    strict("window: eps0 > 1/4", eps[0] - 0.25)
    if 1 in eps:
        strict("window: eps1 > eps0", eps[1] - eps[0], 0 in degenerate_pairs)
        strict("window: eps1 < 1", 1.0 - eps[1])
        strict("splitting ceiling: eps1 - eps0 < 3/4", 0.75 - (eps[1] - eps[0]))
    else:
        strict("window: eps0 < 1", 1.0 - eps[0])
        vacuous("window: eps1 > eps0")
        vacuous("splitting ceiling: eps1 - eps0 < 3/4")

    if 1 in eps and 2 in eps:
        strict("next-gap floor: eps2 - eps1 > 5/4", (eps[2] - eps[1]) - 1.25)
        strict("next-gap ceiling: eps2 - eps1 < 15/4", 3.75 - (eps[2] - eps[1]))
    else:
        vacuous("next-gap floor: eps2 - eps1 > 5/4")
        vacuous("next-gap ceiling: eps2 - eps1 < 15/4")

    pairs = 1 + max(level.index for level in result.levels) // 2
    for n in range(pairs):
        lo = (n + 0.5) ** 2
        hi = (n + 1.0) ** 2
        if 2 * n not in eps:
            continue
        strict(f"bracket pair {n}: eps_{2*n} > (n+1/2)^2", eps[2 * n] - lo)
        if 2 * n + 1 in eps:
            strict(f"bracket pair {n}: eps_{2*n} < eps_{2*n+1}",
                   eps[2 * n + 1] - eps[2 * n], n in degenerate_pairs)
            strict(f"bracket pair {n}: eps_{2*n+1} < (n+1)^2", hi - eps[2 * n + 1])
        else:
            strict(f"bracket pair {n}: eps_{2*n} < (n+1)^2", hi - eps[2 * n])
        if 2 * n + 2 in eps and 2 * n + 1 in eps:
            strict(f"inter-pair gap {n}: eps_{2*n+2} - eps_{2*n+1} > n + 5/4",
                   (eps[2 * n + 2] - eps[2 * n + 1]) - (n + 1.25))

    return BoundReport(tuple(checks))


class Gap01(NamedTuple):
    """Tunneling splitting E1 - E0 and the oscillation period 2 pi hbar / dE."""

    delta_e: float
    tau: float


def gap01(result: SpectrumResult) -> Gap01:
    """Splitting of the lowest pair, and its one check: BracketFailure
    without an odd level, DegenerateGap on a pair the solver flags."""
    eps = {level.index: level for level in result.levels}
    if 1 not in eps:
        raise BracketFailure("the lowest pair has no odd level below the barrier",
                             (0.25, result.well.kappa))
    e0, e1 = eps[0].energy, eps[1].energy
    if not math.isfinite(e0):
        raise ValueError("well carries no SI scale; solve from a WellSpec")
    delta = e1 - e0
    if result.solver_report[0].degenerate_pair:
        raise DegenerateGap(f"the solver cannot resolve the lowest pair at E1 = {e1:.3e} J: "
                            f"E1 - E0 = {delta:.3e} J is within its resolution")
    hbar = result.well.constants.hbar
    tau = 2.0 * math.pi * hbar / delta
    floor = 2.0 * math.pi * hbar / result.well.b_scale
    if not tau > floor:  # tau > 2 pi hbar / B always; a breach means a solver bug
        raise DwellError(f"period {tau:.3e} s violates the global floor {floor:.3e} s")
    return Gap01(delta, tau)


class SweepRow(NamedTuple):
    b: float
    e0: float
    e1: float
    delta_e: float
    tau: float
    error: str | None = None


def gap_sweep(template: WellSpec, b_values: list[float]) -> tuple[SweepRow, ...]:
    """Solve the lowest pair for each barrier half-width; failures are
    recorded per row and the sweep continues."""
    rows: list[SweepRow] = []
    for b in b_values:
        try:
            result = solve_below_barrier(to_dimensionless(template.with_b(b)), 1)
            gap = gap01(result)
            e0, e1 = result.levels
            rows.append(SweepRow(b, e0.energy, e1.energy, gap.delta_e, gap.tau))
        except (DwellError, ValueError) as exc:  # row-local: sweep must continue
            rows.append(SweepRow(b, math.nan, math.nan, math.nan, math.nan,
                                 error=f"{type(exc).__name__}: {exc}"))
    return tuple(rows)


class GapSearchResult(NamedTuple):
    """Smallest grid b with E1 - E0 < delta, plus the ground-level
    cotangent certificate cot^2(pi sqrt(eps0)) < 4 kappa - 1."""

    b: float
    gap: float
    eps0: float
    eps1: float
    cot2: float
    cot2_bound: float
    certified: bool
    steps: int


def find_b_for_gap(delta: float, template: WellSpec) -> GapSearchResult:
    """Walk the grid b_i = b0 * 2^(i/8) from the template's b0 until
    gap01's splitting drops below delta, reading its DegenerateGap as gap 0
    unless delta < 1e-15 E1; NotReached past b = 100 a."""
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")
    if not template.big_enough:
        raise ValueError("template must be in the deep-barrier regime k >= 10 B")
    cap = _GAP_CAP * template.a
    b = template.b
    steps = 0
    while b <= cap:
        pair = solve_below_barrier(to_dimensionless(template.with_b(b)), 1)
        try:
            gap = gap01(pair).delta_e
        except DegenerateGap:
            if delta < 1e-15 * pair.levels[1].energy:
                raise DegenerateGap(f"target {delta:.3e} J is below the splitting the "
                                    f"solver resolves at b = {b:.6g} m") from None
            gap = 0.0
        if gap < delta:
            even, odd = pair.levels
            cot = _cot(even.eps)[2]
            cot2 = cot * cot
            bound = 4.0 * pair.well.kappa - 1.0
            return GapSearchResult(b, gap, even.eps, odd.eps, cot2, bound,
                                   cot2 < bound, steps)
        b *= _GAP_GRID_RATIO
        steps += 1
    raise NotReached(f"gap {delta:.3e} J not reached before b = {cap:.3e} m")

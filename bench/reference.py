"""Independent references and result checkers for the dwell benchmark.

Nothing here imports dwell: every reference value is derived from the
paper's matching conditions with this module's own code (float64 bisection
in numpy, 40-digit mpmath roots, Gauss-Legendre quadrature), so a defect in
the package cannot hide in its own reference.

Each checker returns a list of problems; an empty list means the result
passed.  The benchmark calls them outside its timed regions.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath
import numpy as np

HBAR = 1.054571817e-34  # J s
M_PAPER = 9.1e-31  # the paper's 2-digit electron mass, kg
M_CODATA = 9.1093837015e-31  # CODATA 2018 electron mass, kg

# acceptance tolerances
CERT_REL_WIDTH = 1e-11  # sign-change certificate half-width, relative to eps
SPLIT_RTOL = 1e-6  # tunneling splitting vs the 40-digit mpmath root pair
DIPOLE_RTOL = 1e-8
GRID_RTOL = 1e-4  # grid eigenvalues (and eigenvector L2 error) vs reference
RK4_ATOL = 1e-6  # RK4 populations vs the closed-form Rabi formula
TABLE1_RTOL = 1e-4  # published table energies
LEVEL_RTOL = 1e-10  # CLI level energies vs the bisection reference
MP_DPS = 40

# the published splitting-vs-width table: b (nm), E0 (J), E1 (J)
TABLE1_PUBLISHED = (
    (100.00000, 5.3753895e-26, 5.4382093e-26),
    (116.65290, 5.3899569e-26, 5.4246062e-26),
    (136.07900, 5.3987829e-26, 5.4160961e-26),
    (158.74011, 5.4036276e-26, 5.4113353e-26),
    (185.17494, 5.4059909e-26, 5.4089897e-26),
    (216.01195, 5.4069931e-26, 5.4079902e-26),
    (251.98421, 5.4073539e-26, 5.4076298e-26),
)


def energy_scale(a: float, m: float) -> float:
    """B = pi^2 hbar^2 / (2 m a^2): the dimensionless unit of energy."""
    return math.pi ** 2 * HBAR ** 2 / (2.0 * m * a * a)


# ---------------------------------------------------------------------------
# float64 matching conditions and bisection


def condition(eps, kappa: float, lam: float, odd) -> np.ndarray:
    """F = g - h (even) or g - j (odd), increasing in eps inside each pair
    bracket; at eps = kappa the barrier term takes its limit."""
    eps = np.asarray(eps, dtype=float)
    odd = np.broadcast_to(np.asarray(odd, dtype=bool), eps.shape)
    s = np.sqrt(eps)
    g = -s * np.cos(np.pi * s) / np.sin(np.pi * s)
    u = np.sqrt(np.maximum(kappa - eps, 0.0))
    x = np.pi * lam * u
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.tanh(x)
        rhs = np.where(odd, u / t, u * t)
    limit = np.where(odd, 1.0 / (np.pi * lam), 0.0)
    return g - np.where(u > 0.0, rhs, limit)


def pair_bracket(n, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    n = np.asarray(n, dtype=float)
    return (n + 0.5) ** 2, np.minimum((n + 1.0) ** 2, kappa)


def bisect_roots(kappa: float, lam: float, n, odd, iterations: int = 90) -> np.ndarray:
    """Roots of the matching condition in the brackets of pairs n; the
    endpoints are never evaluated, so the cot pole cannot flip a sign."""
    lo, hi = pair_bracket(n, kappa)
    lo, hi = lo.copy(), hi.copy()
    odd = np.asarray(odd, dtype=bool)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        positive = condition(mid, kappa, lam, odd) > 0.0
        hi = np.where(positive, mid, hi)
        lo = np.where(positive, lo, mid)
    return 0.5 * (lo + hi)


def reference_levels(kappa: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """(index, eps) of every below-barrier level, index 2n even, 2n+1 odd."""
    pairs = 0
    while (pairs + 0.5) ** 2 < kappa:
        pairs += 1
    n = np.arange(pairs)
    odd_present = np.ones(pairs, dtype=bool)
    if pairs and kappa <= float(pairs) ** 2:
        top = pairs - 1
        # the odd member of a barrier-capped pair exists iff g(kappa) > 1/(pi lam)
        odd_present[top] = bool(condition(kappa, kappa, lam, True) > 0.0)
    index = np.concatenate([2 * n, 2 * n[odd_present] + 1])
    order = np.argsort(index, kind="stable")
    index = index[order]
    eps = bisect_roots(kappa, lam, index // 2, index % 2 == 1)
    return index, eps


def certify_levels(index, eps, kappa: float, lam: float,
                   rel_width: float = CERT_REL_WIDTH) -> np.ndarray:
    """True per level when its matching condition changes sign across
    [eps (1 - w), eps (1 + w)], clipped to the level's pair bracket."""
    index = np.asarray(index)
    eps = np.asarray(eps, dtype=float)
    odd = index % 2 == 1
    lo_b, hi_b = pair_bracket(index // 2, kappa)
    pole_capped = hi_b < kappa
    hi_b = np.where(pole_capped, np.nextafter(hi_b, 0.0), hi_b)
    lo = np.clip(eps * (1.0 - rel_width), np.nextafter(lo_b, np.inf), hi_b)
    hi = np.clip(eps * (1.0 + rel_width), np.nextafter(lo_b, np.inf), hi_b)
    inside = (eps > lo_b) & (eps <= hi_b)
    return inside & (condition(lo, kappa, lam, odd) <= 0.0) & (condition(hi, kappa, lam, odd) >= 0.0)


# ---------------------------------------------------------------------------
# 40-digit mpmath references for the lowest pair


def mp_pair0_many(a: float, b_values, k: float, m: float) -> list[tuple]:
    """mp_pair0 for many barrier widths, bisecting all float64 guesses at once."""
    lam = np.repeat(np.asarray(b_values, dtype=float) / a, 2)
    guesses = bisect_roots(k / energy_scale(a, m), lam, np.zeros(lam.size),
                           np.tile([False, True], lam.size // 2))
    return [mp_pair0(a, b, k, m, guesses[2 * i:2 * i + 2]) for i, b in enumerate(b_values)]


def mp_pair0(a: float, b: float, k: float, m: float, guesses=None) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(E0, E1) in J from 40-digit roots of the even and odd conditions."""
    if guesses is None:
        guesses = bisect_roots(k / energy_scale(a, m), b / a, [0, 0], [False, True])
    with mpmath.workdps(MP_DPS):
        a_, b_, k_, m_ = (mpmath.mpf(v) for v in (a, b, k, m))
        scale = mpmath.pi ** 2 * mpmath.mpf(HBAR) ** 2 / (2 * m_ * a_ * a_)
        kap, lam = k_ / scale, b_ / a_
        roots = []
        for odd, guess in zip((False, True), guesses):
            def f(e, odd=odd):
                s = mpmath.sqrt(e)
                u = mpmath.sqrt(kap - e)
                x = mpmath.pi * lam * u
                rhs = u * (mpmath.coth(x) if odd else mpmath.tanh(x))
                return -s * mpmath.cot(mpmath.pi * s) - rhs
            roots.append(_secant(f, mpmath.mpf(float(guess))) * scale)
        return roots[0], roots[1]


def _secant(f, guess):
    """Secant polish of a float64 root to the working precision; the
    float64 guess is already good to ~1e-16, so a few steps suffice."""
    tol = mpmath.mpf(10) ** (3 - mpmath.mp.dps)
    x0, x1 = guess, guess * (1 + mpmath.mpf(10) ** -13)
    f0, f1 = f(x0), f(x1)
    for _ in range(12):
        if f1 == f0:
            break
        x0, f0, x1 = x1, f1, x1 - f1 * (x1 - x0) / (f1 - f0)
        f1 = f(x1)
        if abs(x1 - x0) <= tol * abs(x1):
            break
    if not abs(x1 / guess - 1) < 1e-9:
        raise ArithmeticError(f"secant left the float64 root: {x1} vs {guess}")
    return x1


def splitting_error(delta_e: float, e0_ref, e1_ref) -> float:
    with mpmath.workdps(MP_DPS):
        ref = e1_ref - e0_ref
        return float(abs(mpmath.mpf(delta_e) / ref - 1))


# ---------------------------------------------------------------------------
# eigenfunctions and the dipole element by quadrature

_GL_X, _GL_W = np.polynomial.legendre.leggauss(160)


def eigenfunction(a: float, b: float, k: float, m: float, energy: float, odd: bool):
    """Unnormalized piecewise eigenfunction as a numpy callable."""
    alpha = math.sqrt(2.0 * m * energy) / HBAR
    beta = math.sqrt(2.0 * m * (k - energy)) / HBAR
    edge = a + b
    inner = math.sinh(beta * b) if odd else math.cosh(beta * b)
    amp = inner / math.sin(alpha * a)

    def psi(x):
        x = np.asarray(x, dtype=float)
        barrier = np.sinh(beta * x) if odd else np.cosh(beta * x)
        valley = amp * np.sin(alpha * (edge - np.abs(x)))
        if odd:
            valley = np.sign(x) * valley
        return np.where(np.abs(x) <= b, barrier, np.where(np.abs(x) < edge, valley, 0.0))

    return psi


def _integrate(f, a: float, b: float) -> float:
    total = 0.0
    for lo, hi in ((-a - b, -b), (-b, b), (b, a + b)):
        x = 0.5 * (hi - lo) * _GL_X + 0.5 * (hi + lo)
        total += 0.5 * (hi - lo) * float(np.dot(_GL_W, f(x)))
    return total


def normalized(a, b, k, m, energy, odd):
    psi = eigenfunction(a, b, k, m, energy, odd)
    norm = math.sqrt(_integrate(lambda x: psi(x) ** 2, a, b))
    return lambda x: psi(x) / norm


def dipole(a: float, b: float, k: float, m: float, e0: float, e1: float) -> float:
    """|<psi0| x |psi1>| by piecewise Gauss-Legendre quadrature."""
    psi0 = normalized(a, b, k, m, e0, False)
    psi1 = normalized(a, b, k, m, e1, True)
    return abs(_integrate(lambda x: x * psi0(x) * psi1(x), a, b))


# ---------------------------------------------------------------------------
# checkers


def check_spectrum(index, eps, residuals, kappa: float, lam: float,
                   bounds_hold: bool) -> tuple[list[str], bool]:
    """Level count, per-level sign-change certificates and the bound suite.

    Returns (problems, disclosed).  disclosed is True when the only problems
    are failed certificates and each such level's own reported residual,
    divided by the slope of its condition, already implies an error of at
    least half the certificate width: the output then carries its flag."""
    ref_index, _ = reference_levels(kappa, lam)
    if list(index) != list(ref_index):
        return [f"level indices differ from the reference ({len(index)} vs {len(ref_index)} levels)"], False
    problems = []
    eps = np.asarray(eps, dtype=float)
    bad = np.flatnonzero(~certify_levels(index, eps, kappa, lam))
    disclosed = bool(bad.size) and bounds_hold
    if bad.size:
        problems.append(f"{bad.size} levels fail their sign-change certificate (first index {int(index[bad[0]])})")
        width = CERT_REL_WIDTH * eps[bad]
        odd = np.asarray(index)[bad] % 2 == 1
        slope = (condition(eps[bad] + width, kappa, lam, odd)
                 - condition(eps[bad] - width, kappa, lam, odd)) / (2.0 * width)
        disclosed = disclosed and bool(np.all(np.asarray(residuals)[bad] / np.abs(slope) >= 0.5 * width))
    if not bounds_hold:
        problems.append("verify_bounds reports a violated bound")
    return problems, disclosed


def check_splitting(delta_e: float, ref: tuple) -> list[str]:
    err = splitting_error(delta_e, *ref)
    return [] if err <= SPLIT_RTOL else [f"splitting off by {err:.2e} (tolerance {SPLIT_RTOL:.0e})"]


def check_dipole(d: float, d_ref: float) -> list[str]:
    err = abs(d / d_ref - 1.0)
    return [] if err <= DIPOLE_RTOL else [f"dipole element off by {err:.2e}"]


def ground_state_distance(a: float, b: float, k: float, m: float, vector, positions,
                          dx: float) -> float:
    """L2 distance between a unit-norm grid ground state and the analytic one."""
    scale = energy_scale(a, m)
    eps0 = float(bisect_roots(k / scale, b / a, [0], [False])[0])
    psi = eigenfunction(a, b, k, m, eps0 * scale, False)(positions)
    psi /= math.sqrt(float(psi @ psi) * dx)
    return math.sqrt(float(((vector - psi) ** 2).sum()) * dx)


def check_grid(grid_energies, ref_energies, distance: float) -> list[str]:
    """Grid eigenvalues against reference energies, and the ground
    eigenvector's L2 distance from the analytic ground state."""
    problems = []
    rel = np.abs(np.asarray(grid_energies) / np.asarray(ref_energies) - 1.0)
    if not np.all(rel <= GRID_RTOL):
        problems.append(f"grid eigenvalue off by {float(np.max(rel)):.2e}")
    if not distance <= GRID_RTOL:
        problems.append(f"grid eigenvector L2 distance {distance:.2e}")
    return problems


def rabi_p1(omega: float, hbar: float, amplitude: float, omega_prime: float, t) -> np.ndarray:
    r1 = amplitude / hbar
    r0 = math.hypot(r1, (omega_prime - omega) / 2.0)
    return (r1 / r0) ** 2 * np.sin(r0 * np.asarray(t, dtype=float)) ** 2


def check_rabi(p1_rk4, p1_closed, p1_ref) -> list[str]:
    problems = []
    err = float(np.max(np.abs(np.asarray(p1_rk4) - p1_ref)))
    if not err <= RK4_ATOL:
        problems.append(f"RK4 population off by {err:.2e}")
    err = float(np.max(np.abs(np.asarray(p1_closed) - p1_ref)))
    if not err <= 1e-12:
        problems.append(f"rabi_off_resonance off by {err:.2e}")
    return problems


# ---------------------------------------------------------------------------
# CLI output


def parse_cli(text: str, fmt: str) -> tuple[list[str], list[list], list[dict]]:
    """(columns, rows, records) from CSV or JSON output; CSV cells are
    converted to float where they parse as one."""
    if fmt == "json":
        payload = json.loads(text)
        rows = [[math.nan if v is None else v for v in row] for row in payload["rows"]]
        return payload["columns"], rows, payload["records"]
    lines = text.splitlines()
    records = []
    body = []
    for line in lines[1:]:
        if line.startswith("# "):
            kind, _, message = line[2:].partition(": ")
            records.append({"type": kind, "message": message})
        else:
            body.append(line)
    rows = [[_cell(v) for v in row] for row in csv.reader(io.StringIO("\n".join(body)))]
    return lines[0].split(","), rows, records


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def check_table1(columns, rows, cell_rtol: float = 0.0) -> list[str]:
    """Published energies to 1e-4, and delta_e and tau consistent with them;
    cell_rtol is the rounding of the output's cells (5e-9 for 9-digit CSV)."""
    if len(rows) != len(TABLE1_PUBLISHED):
        return [f"table1 has {len(rows)} rows"]
    col = {name: i for i, name in enumerate(columns)}
    worst = 0.0
    for row, (b_nm, e0, e1) in zip(rows, TABLE1_PUBLISHED):
        if abs(float(row[col["b_nm"]]) / b_nm - 1.0) > 1e-8:
            return ["table1 barrier widths differ from the published rows"]
        worst = max(worst, abs(float(row[col["e0_J"]]) / e0 - 1.0),
                    abs(float(row[col["e1_J"]]) / e1 - 1.0))
        e0_cell, e1_cell = float(row[col["e0_J"]]), float(row[col["e1_J"]])
        gap = float(row[col["delta_e_J"]])
        if abs(gap - (e1_cell - e0_cell)) > 1e-6 * gap + 2.0 * cell_rtol * e1_cell:
            return ["table1 delta_e is not e1 - e0"]
        if abs(float(row[col["tau_s"]]) * gap / (2.0 * math.pi * HBAR) - 1.0) > 1e-6 + 2.0 * cell_rtol:
            return ["table1 tau is not 2 pi hbar / delta_e"]
    return [] if worst <= TABLE1_RTOL else [f"table1 energy off the published value by {worst:.2e}"]


def check_oracle_table(columns, rows) -> list[str]:
    col = columns.index("within_tol")
    if not rows:
        return ["oracle-check produced no rows"]
    return [] if all(row[col] is True for row in rows) else ["oracle-check row outside tolerance"]

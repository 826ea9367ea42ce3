"""The four benchmark workloads.

Each workload turns a seed into one round of inputs and replays that round
as a closed loop: one operation at a time, from one process.  An operation's
outcome is classified as it happens (ok, flagged by a DwellError, crashed by
any other exception); outputs of the first round are checked against the
independent references in ``reference.py`` after the timed loop, and later
rounds must reproduce the first round's outputs exactly.

Every input is either a control input, where the package is expected to be
right, or a probe input, which sits in a domain with a known defect: opaque
barriers near 1 um (the tunneling splitting loses accuracy and DegenerateGap
fires spuriously) and kappa a few ulp above (n + 1/2)^2 (ZeroDivisionError).
Failures on probes are counted; a failure on a control input makes the run
incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import reference as ref
from dwell import (
    CODATA_CONSTANTS,
    PAPER_CONSTANTS,
    HarmonicDrive,
    ScaledWell,
    TwoLevelSystem,
    WellSpec,
    build_eigenfunction,
    build_grid_hamiltonian,
    dipole_matrix_element,
    eigenvector,
    find_b_for_gap,
    gap_sweep,
    lowest_eigenvalues,
    rabi_off_resonance,
    solve_below_barrier,
    to_dimensionless,
    verify_bounds,
)
from dwell.dynamics import rk4_step_for, rk4_two_level, simple_drive_interaction
from dwell.errors import DwellError
from tracing import Tracer


def _subclass_names(cls) -> set[str]:
    names = {cls.__name__}
    for sub in cls.__subclasses__():
        names |= _subclass_names(sub)
    return names


DWELL_ERRORS = _subclass_names(DwellError)

TABLE1 = dict(a=1e-6, k=2e-24, m=CODATA_CONSTANTS.m_e, constants=CODATA_CONSTANTS)


@dataclass
class Op:
    """One attempted operation: what it was, how it ended, what it produced."""

    kind: str
    probe: bool
    status: str = "ok"  # ok | flagged | crashed; checks may turn ok into wrong
    detail: str = ""
    fingerprint: object = None
    payload: object = None  # what the checker needs; kept for the first round only
    levels: int = 0  # energy levels returned
    splittings: int = 0  # tunneling splittings returned
    checks: int = 0  # independent checks of a result completed
    counts: dict = field(default_factory=dict)


def attempt(fn):
    """(status, value, detail): a DwellError is flagged, any other exception
    crashed; the loop must keep running either way."""
    try:
        return "ok", fn(), ""
    except DwellError as exc:
        return "flagged", None, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # counted as a crash, not fatal to the run
        return "crashed", None, f"{type(exc).__name__}: {exc}"


def status_of_error(text: str) -> str:
    return "flagged" if text.split(":", 1)[0] in DWELL_ERRORS else "crashed"


def stratified(rng, lo: float, hi: float, count: int) -> np.ndarray:
    """One uniform draw in each of count equal strata of [lo, hi], ascending."""
    return lo + (hi - lo) * (np.arange(count) + rng.random(count)) / count


def lattice(count: int) -> np.ndarray:
    """A fixed stride through count strata, coprime with count (a rank-1
    lattice), for pairing two stratified draws: the pairs cover the plane
    evenly and only their jitter within the strata changes with the seed."""
    step = max(1, round(count / 1.618033988749895))
    while math.gcd(step, count) != 1:
        step += 1
    return (np.arange(count) * step) % count


def digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


class Workload:
    """One round of seeded inputs, replayed as a closed loop; every round
    makes the same calls in the same order."""

    latency_per_round = False  # True when one round is what a caller waits on

    def warm_up(self) -> None:
        """One untimed operation on the round's smallest input."""

    def run_round(self, tracer, keep_payload: bool) -> tuple[list[Op], list[tuple[str, float]]]:
        """Every operation of the round once; returns the ops and the
        (call kind, seconds) latency of every public call."""
        raise NotImplementedError

    def check(self, ops: list[Op]) -> None:
        """Mark first-round ops whose output misses its reference as wrong."""

    def finish(self, rounds: list[list[Op]]) -> None:
        """Check the first round; later rounds must reproduce it exactly."""
        first = rounds[0]
        self.check(first)
        for ops in rounds[1:]:
            for op, base in zip(ops, first):
                if op.fingerprint != base.fingerprint:
                    mark_wrong(op, ["output differs from the first round"])
                elif base.status == "wrong":
                    mark_wrong(op, [base.detail])

    def round_counts(self, ops: list[Op]) -> dict[str, float]:
        """Exact per-round counts for the traced run."""
        return {}

    def trace_extras(self, tracer, calls) -> dict[str, float]:
        """Per-layer figures that need calls beyond the timed rounds."""
        return {}


def timed(fn):
    t0 = time.perf_counter()
    status, value, detail = attempt(fn)
    return status, value, detail, time.perf_counter() - t0


def mark_wrong(op: Op, problems: list[str]) -> None:
    if problems and op.status == "ok":
        op.status = "wrong"
        op.detail = "; ".join(problems)


# ---------------------------------------------------------------------------
# spectrum-deep


class SpectrumDeep(Workload):
    """solve_below_barrier + verify_bounds on deep wells: kappa log-uniform in
    [1e3, 1e6], lambda log-uniform in [1e-2, 1]; one well in eight sits 2-8
    ulp above kappa = (n + 1/2)^2.  A round is one study of the whole
    family; its latency, not one well's, is the latency sample, because a
    percentile over wells of such different depths depends on the seed."""

    latency_per_round = True
    PROBE_SHARE = 8

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng(seed)
        wells = 8 if tiny else 64
        top = 4.0 if tiny else 6.0
        probes = wells // self.PROBE_SHARE
        regular = wells - probes
        log_k = stratified(rng, 3.0, top, regular)
        log_l = stratified(rng, -2.0, 0.0, regular)[lattice(regular)]
        inputs = [(float(10 ** k), float(10 ** lam), False) for k, lam in zip(log_k, log_l)]
        n_lo, n_hi = math.log10(math.sqrt(1e3) - 0.5), math.log10(math.sqrt(10 ** top) - 0.5)
        probe_l = stratified(rng, -2.0, 0.0, probes)[lattice(probes)]
        for log_n, lam in zip(stratified(rng, n_lo, n_hi, probes), probe_l):
            kappa = (int(10 ** log_n) + 0.5) ** 2
            for _ in range(int(rng.integers(2, 9))):
                kappa = math.nextafter(kappa, math.inf)
            inputs.append((kappa, float(10 ** lam), True))
        self.inputs = [inputs[i] for i in rng.permutation(len(inputs))]

    @staticmethod
    def _solve(kappa, lam, tracer):
        with tracer.span("spectrum.solve_below_barrier"):
            result = solve_below_barrier(ScaledWell(kappa, lam))
        with tracer.span("spectrum.verify_bounds"):
            report = verify_bounds(result)
        return result, report

    def warm_up(self):
        kappa, lam, _ = min((w for w in self.inputs if not w[2]), key=lambda w: w[0])
        self._solve(kappa, lam, Tracer(False))

    def run_round(self, tracer, keep_payload):
        ops, calls = [], []
        for kappa, lam, probe in self.inputs:
            with tracer.operation("op.spectrum"):
                status, value, detail, dt = timed(lambda: self._solve(kappa, lam, tracer))
            calls.append(("spectrum", dt))
            op = Op("spectrum", probe, status, detail)
            if value is not None:
                result, report = value
                index = np.array([lv.index for lv in result.levels])
                eps = np.array([lv.eps for lv in result.levels])
                op.fingerprint = (digest(index, eps), report.all_hold)
                op.levels = len(index)
                op.splittings = int(np.count_nonzero(index % 2))
                op.checks = sum(c.applicable for c in report.checks)
                op.counts = {
                    "iterations": sum(d.iterations for d in result.solver_report),
                    "degenerate_pairs": sum(d.degenerate_pair and d.index % 2 == 0
                                            for d in result.solver_report),
                }
                if keep_payload:
                    residual = {d.index: d.residual for d in result.solver_report}
                    op.payload = (index, eps, np.array([residual[i] for i in index]),
                                  kappa, lam, report.all_hold)
            ops.append(op)
        return ops, calls

    def check(self, ops):
        for op in ops:
            if op.status == "ok":
                problems, disclosed = ref.check_spectrum(*op.payload)
                if disclosed:  # the solver's own residual reports the miss
                    op.status, op.detail = "flagged", "; ".join(problems) + " (residual reported)"
                mark_wrong(op, problems)

    def round_counts(self, ops):
        levels = sum(op.levels for op in ops)
        iterations = sum(op.counts.get("iterations", 0) for op in ops)
        return {
            "spectrum.levels": levels,
            "spectrum.iterations_per_level": iterations / levels if levels else 0.0,
            "spectrum.degenerate_pairs": sum(op.counts.get("degenerate_pairs", 0) for op in ops),
        }


# ---------------------------------------------------------------------------
# sweep


class Sweep(Workload):
    """The splitting-vs-width study at the table-1 geometry: one gap_sweep
    over a stratified log-uniform b grid in [100 nm, 1 um], from_well at
    every tenth of those b, and find_b_for_gap for stratified log-uniform
    targets between the splittings at 1 um and 100 nm.  Rows above 500 nm
    and targets below 1e-33 J are probes of the splitting's accuracy loss."""

    latency_per_round = True  # one splitting-vs-width study
    PROBE_B = 500e-9
    PROBE_GAP = 1e-33
    RATIO = 2.0 ** 0.125  # find_b_for_gap's default grid ratio

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng(seed)
        rows, wells, targets = (40, 4, 4) if tiny else (200, 20, 16)
        self.template = WellSpec(b=1e-7, **TABLE1)
        self.b_values = [float(b) for b in 10 ** stratified(rng, -7.0, -6.0, rows)]
        step = rows // wells
        self.well_b = self.b_values[step // 2::step]
        self.targets = [float(d) for d in 10 ** stratified(rng, math.log10(7e-42),
                                                            math.log10(6e-28), targets)]
        self._refs: dict[float, tuple] = {}  # b -> 40-digit (E0, E1), filled by check()

    def _from_well(self, b, tracer):
        with tracer.span("dynamics.from_well"):
            return TwoLevelSystem.from_well(self.template.with_b(b))

    def warm_up(self):
        self._from_well(self.well_b[0], Tracer(False))

    def run_round(self, tracer, keep_payload):
        ops, calls = [], []
        with tracer.operation("op.gap_sweep"), tracer.span("spectrum.gap_sweep"):
            status, rows, detail, dt = timed(lambda: gap_sweep(self.template, self.b_values))
        calls.append(("gap_sweep", dt))
        if rows is None:  # the whole call failed: every row counts as failed
            ops += [Op("row", b >= self.PROBE_B, status, detail) for b in self.b_values]
        else:
            for row in rows:
                op = Op("row", row.b >= self.PROBE_B, fingerprint=(row.e0, row.e1, row.delta_e, row.tau, row.error))
                if row.error:
                    op.status, op.detail = status_of_error(row.error), row.error
                else:
                    op.levels, op.splittings = 2, 1
                    op.payload = (row.b, row.e0, row.delta_e) if keep_payload else None
                ops.append(op)
        for b in self.well_b:
            with tracer.operation("op.from_well"):
                status, sys_, detail, dt = timed(lambda: self._from_well(b, tracer))
            calls.append(("from_well", dt))
            op = Op("from_well", b >= self.PROBE_B, status, detail)
            if sys_ is not None:
                op.fingerprint = (sys_.e0, sys_.e1, sys_.d)
                op.levels, op.splittings = 2, 1
                op.payload = (b, sys_.e0, sys_.e1, sys_.d) if keep_payload else None
            ops.append(op)
        for delta in self.targets:
            with tracer.operation("op.find_b"), tracer.span("spectrum.find_b_for_gap"):
                status, found, detail, dt = timed(lambda: find_b_for_gap(delta, self.template))
            calls.append(("find_b_for_gap", dt))
            op = Op("find_b", delta < self.PROBE_GAP, status, detail)
            if found is not None:
                op.fingerprint = (found.b, found.gap, found.eps0, found.eps1, found.certified, found.steps)
                op.levels, op.splittings, op.checks = 2, 1, 1
                op.counts = {"steps": found.steps}
                op.payload = (delta, found) if keep_payload else None
            ops.append(op)
        return ops, calls

    def _walk(self, steps: int) -> list[float]:
        b, grid = self.template.b, []
        for _ in range(steps + 1):
            grid.append(b)
            b *= self.RATIO
        return grid

    def check(self, ops):
        todo = sorted(set(self.b_values) | set(self._walk(30)))
        self._refs.update(zip(todo, ref.mp_pair0_many(1e-6, todo, 2e-24, TABLE1["m"])))
        for op in ops:
            if op.status != "ok":
                continue
            if op.kind == "row":
                b, e0, delta_e = op.payload
                e0_ref, e1_ref = self._refs[b]
                problems = ref.check_splitting(delta_e, (e0_ref, e1_ref))
                if abs(e0 / float(e0_ref) - 1.0) > ref.LEVEL_RTOL:
                    problems.append("E0 off its reference")
            elif op.kind == "from_well":
                b, e0, e1, d = op.payload
                e0_ref, e1_ref = self._refs[b]
                problems = ref.check_splitting(e1 - e0, (e0_ref, e1_ref))
                problems += ref.check_dipole(d, ref.dipole(1e-6, b, 2e-24, TABLE1["m"],
                                                           float(e0_ref), float(e1_ref)))
            else:
                problems = self._check_find_b(*op.payload)
            mark_wrong(op, problems)

    def _check_find_b(self, delta, found) -> list[str]:
        grid = self._walk(30)
        gaps = [float(self._refs[b][1] - self._refs[b][0]) for b in grid]
        expected = next((i for i, g in enumerate(gaps) if g < delta), None)
        if expected is None:
            return ["target not reached on the reference grid"]
        problems = []
        if found.steps != expected or found.b != grid[expected]:
            problems.append(f"stopped at step {found.steps}, reference step {expected}")
        elif abs(found.gap / gaps[expected] - 1.0) > ref.SPLIT_RTOL:
            problems.append(f"reported gap {found.gap:.3e} J vs reference {gaps[expected]:.3e} J")
        if not found.certified:
            problems.append("cotangent certificate not met")
        return problems

    def round_counts(self, ops):
        return {"spectrum.find_b_for_gap.steps": sum(op.counts.get("steps", 0) for op in ops)}

    def trace_extras(self, tracer, calls):
        """The public parts of from_well, timed one by one on the same inputs."""
        for b in self.well_b:
            spec = self.template.with_b(b)
            with tracer.operation("decompose.from_well"):
                status, result, _, _ = timed(lambda: self._traced_solve(spec, tracer))
                if result is None or 1 not in result:
                    continue
                with tracer.span("wavefunction.build_eigenfunction"):
                    status, psi0, _, _ = timed(lambda: build_eigenfunction(spec, result[0]))
                with tracer.span("wavefunction.build_eigenfunction"):
                    status, psi1, _, _ = timed(lambda: build_eigenfunction(spec, result[1]))
                if psi0 is not None and psi1 is not None:
                    with tracer.span("wavefunction.dipole_matrix_element"):
                        attempt(lambda: dipole_matrix_element(psi0, psi1))
        return {}

    @staticmethod
    def _traced_solve(spec, tracer):
        with tracer.span("spectrum.solve_below_barrier"):
            result = solve_below_barrier(to_dimensionless(spec))
        return {lv.index: lv for lv in result.levels}


# ---------------------------------------------------------------------------
# oracle


class Oracle(Workload):
    """Grid cross-check (build_grid_hamiltonian, lowest_eigenvalues(6), the
    ground eigenvector) at n log-uniform in [2e4, 2e5], then one RK4 Rabi
    period of the lowest pair checked against rabi_off_resonance.  Control
    wells are near the table-1 geometry with b in [100, 350] nm.  Two wells
    in twenty-four are probes: an opaque table-1 well with b in [960 nm, 1 um],
    whose splitting from_well wrongly calls unresolvable, and one of the
    (b, n) points below where eigenvector's inverse iteration fails.  That
    failure is sporadic for b in about [390, 500] nm at n >= 1.1e5, so the
    control wells stay below it and the probe takes a point that fails
    every time."""

    LEVELS = 6
    SAMPLES = 41
    EIGENVECTOR_FAILURES = ((410, 200000), (440, 200000), (470, 200000), (500, 200000))

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng(seed)
        regular = 1 if tiny else 22
        n_top = math.log10(4e4 if tiny else 2e5)
        sizes = [int(n) for n in 10 ** stratified(rng, math.log10(2e4), n_top, regular + 1)]
        probe_n = sizes.pop(regular // 2)
        log_b = stratified(rng, -7.0, math.log10(3.5e-7), regular)[lattice(regular)]
        inputs = []
        for n, lb in zip(sizes, log_b):
            spec = WellSpec(1e-6 * 10 ** rng.uniform(-0.05, 0.05), float(10 ** lb),
                            2e-24 * 10 ** rng.uniform(-0.1, 0.1), PAPER_CONSTANTS.m_e)
            inputs.append((spec, n, False))
        opaque = WellSpec(b=float(10 ** rng.uniform(math.log10(9.6e-7), -6.0)), **TABLE1)
        inputs.append((opaque, probe_n, True))
        if not tiny:
            b_nm, n = self.EIGENVECTOR_FAILURES[int(rng.integers(len(self.EIGENVECTOR_FAILURES)))]
            inputs.append((WellSpec(1e-6, b_nm * 1e-9, 2e-24, PAPER_CONSTANTS.m_e), n, True))
        # ascending grid size: how far peak memory creeps over a round then
        # does not depend on a seeded order
        self.inputs = sorted(inputs, key=lambda w: w[1])

    def _check_well(self, spec, n, tracer):
        with tracer.span("grid_oracle.build_grid_hamiltonian"):
            h = build_grid_hamiltonian(spec, n)
        with tracer.span("grid_oracle.lowest_eigenvalues"):
            grid = lowest_eigenvalues(h, self.LEVELS)
        with tracer.span("grid_oracle.eigenvector"):
            vec = eigenvector(h, float(grid[0]))
        with tracer.span("dynamics.from_well"):
            sys_ = TwoLevelSystem.from_well(spec)
        drive = HarmonicDrive(0.05 * sys_.hbar * sys_.omega, 1.02 * sys_.omega)
        r0 = math.hypot(drive.amplitude / sys_.hbar, (drive.omega_prime - sys_.omega) / 2.0)
        times = np.linspace(0.0, math.pi / r0, self.SAMPLES)
        step = rk4_step_for(sys_, drive)
        with tracer.span("dynamics.rk4_two_level"):
            c = rk4_two_level(simple_drive_interaction(sys_, drive), np.array([1.0 + 0.0j, 0.0j]),
                              times, sys_.hbar, step)
        with tracer.span("dynamics.rabi_off_resonance"):
            p1 = rabi_off_resonance(sys_, drive, times)[1]
        return h, grid, vec, sys_, drive, times, step, np.abs(c[:, 1]) ** 2, p1

    def warm_up(self):
        spec, n, _ = min((w for w in self.inputs if not w[2]), key=lambda w: w[1])
        self._check_well(spec, n, Tracer(False))

    def run_round(self, tracer, keep_payload):
        ops, calls = [], []
        for spec, n, probe in self.inputs:
            with tracer.operation("op.oracle"):
                status, value, detail, dt = timed(lambda: self._check_well(spec, n, tracer))
            calls.append(("oracle", dt))
            ops.append(self._record(Op("oracle", probe, status, detail), spec, n, value, keep_payload))
            value = None  # free this grid before the next well, so peak memory is one well's
        return ops, calls

    def _record(self, op, spec, n, value, keep_payload):
        if value is None:
            return op
        h, grid, vec, sys_, drive, times, step, p1_rk4, p1 = value
        op.fingerprint = digest(grid, vec, p1_rk4, p1, [sys_.e0, sys_.e1, sys_.d])
        op.levels, op.splittings, op.checks = self.LEVELS + 2, 1, 2
        substeps = sum(max(1, math.ceil(abs(dt_) / step)) for dt_ in np.diff(times))
        op.counts = {"cells": n, "substeps": substeps}
        if keep_payload:  # the eigenvector is checked now, so it need not be kept
            distance = ref.ground_state_distance(spec.a, spec.b, spec.k, spec.m, vec,
                                                 h.positions, h.dx)
            op.payload = (spec, grid, distance, sys_, drive, times, p1_rk4, p1)
        return op

    def check(self, ops):
        for op in ops:
            if op.status != "ok":
                continue
            spec, grid, distance, sys_, drive, times, p1_rk4, p1 = op.payload
            scale = ref.energy_scale(spec.a, spec.m)
            _, eps = ref.reference_levels(spec.k / scale, spec.b / spec.a)
            e0_ref, e1_ref = ref.mp_pair0(spec.a, spec.b, spec.k, spec.m)
            problems = ref.check_grid(grid, eps[:self.LEVELS] * scale, distance)
            problems += ref.check_splitting(sys_.e1 - sys_.e0, (e0_ref, e1_ref))
            p1_ref = ref.rabi_p1(sys_.omega, sys_.hbar, drive.amplitude, drive.omega_prime, times)
            problems += ref.check_rabi(p1_rk4, p1, p1_ref)
            mark_wrong(op, problems)

    def round_counts(self, ops):
        return {
            "grid_oracle.cells": sum(op.counts.get("cells", 0) for op in ops),
            "dynamics.rk4_substeps": sum(op.counts.get("substeps", 0) for op in ops),
        }


# ---------------------------------------------------------------------------
# cli-mix

CLI_KINDS = ("spectrum", "spectrum-oracle", "table1", "dynamics", "rabi", "thermal",
             "gap-sweep", "density", "oracle-check")


class CliMix(Workload):
    """`dwell <cmd>` as a fresh process, one at a time, over the 8 commands
    plus spectrum --oracle.  Each argv gets a seeded geometry near the
    table-1 well and a seeded output format; the gap-sweep argv sweeps the
    table-1 well out to 1 um and is the probe.  Every round calls the argvs
    in the same seeded order, so each argv's calls are a round apart."""

    PROBE_KIND = "gap-sweep"

    def __init__(self, seed: int, tiny: bool, root: str):
        rng = np.random.default_rng(seed)
        self.root = root
        self.argvs: dict[str, list[str]] = {}
        self.geometry: dict[str, tuple[float, float, float]] = {}
        for kind in CLI_KINDS:
            # a and k keep kappa in [30.6, 36.0], between the level-count
            # thresholds 5.5^2 and 6.5^2, so every seed's wells have 12 levels
            a = float(f"{1e-6 * 10 ** rng.uniform(-0.01, 0.01):.6e}")
            b = float(f"{10 ** rng.uniform(-7.0, math.log10(2.5e-7)):.6e}")
            k = float(f"{2e-24 * 10 ** rng.uniform(-0.015, 0.015):.6e}")
            fmt = str(rng.choice(["csv", "json"]))
            well = ["--a", f"{a:.6e}", "--b", f"{b:.6e}", "--k", f"{k:.6e}", "--m", f"{ref.M_PAPER:.6e}"]
            command = {"spectrum-oracle": ["spectrum", "--oracle"]}.get(kind, [kind])
            if kind in ("table1", "density"):
                well = []
            elif kind in ("dynamics", "rabi"):
                well += ["--t-steps", str(int(rng.integers(50, 201)))]
            elif kind == "gap-sweep":
                b_list = [f"{b:.6e}" for b in 10 ** stratified(rng, -7.0, -6.0, 7)] + ["1e-06"]
                well = ["--a", "1e-06", "--k", "2e-24", "--m", f"{ref.M_CODATA:.10e}",
                        "--b", ",".join(b_list)]
            self.argvs[kind] = command + well + ["--format", fmt]
            self.geometry[kind] = (a, b, k)
        self.order = [CLI_KINDS[i] for i in rng.permutation(len(CLI_KINDS))]
        self.outputs: dict[str, tuple[int, bytes]] = {}  # first output seen per argv
        self.stats: dict[str, dict] = {}

    def _spawn(self, kind):
        return subprocess.Popen([sys.executable, "-m", "dwell.cli", *self.argvs[kind]],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=self.root)

    def call(self, kind) -> tuple[int, bytes, bytes]:
        proc = subprocess.run([sys.executable, "-m", "dwell.cli", *self.argvs[kind]],
                              capture_output=True, cwd=self.root, timeout=150)
        return proc.returncode, proc.stdout, proc.stderr

    def warm_up(self, kinds=None):
        """One untimed call per argv (two processes at a time), so bytecode
        and file caches are warm and each argv has its reference output."""
        kinds = [k for k in (kinds or CLI_KINDS) if k not in self.outputs]
        for pair in (kinds[i:i + 2] for i in range(0, len(kinds), 2)):
            procs = [(kind, self._spawn(kind)) for kind in pair]
            try:
                for kind, proc in procs:
                    out, _ = proc.communicate(timeout=150)
                    self.outputs[kind] = (proc.returncode, out)
            finally:
                for _, proc in procs:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()

    def classify(self, code: int, out: bytes, err: bytes) -> tuple[str, str]:
        text = err.decode(errors="replace")
        if "Traceback" in text:
            return "crashed", text.strip().splitlines()[-1]
        if code == 0:
            return "ok", ""
        if text.startswith(("error: ", "config error: ")):
            message = text.split(": ", 1)[1]
            return status_of_error(message), message.strip()
        if b'"type": "error"' in out or b"\n# error: " in out:
            return "flagged", "error record"
        return "crashed", f"exit code {code}"

    def run_round(self, tracer, keep_payload):
        ops, calls = [], []
        for kind in self.order:
            with tracer.operation(f"op.cli"), tracer.span(f"cli.{kind}"):
                t0 = time.perf_counter()
                code, out, err = self.call(kind)
                dt = time.perf_counter() - t0
            calls.append((kind, dt))
            status, detail = self.classify(code, out, err)
            self.outputs.setdefault(kind, (code, out))
            ops.append(Op(kind, kind == self.PROBE_KIND, status, detail, fingerprint=(code, out)))
        return ops, calls

    def finish(self, rounds):
        self.check([op for ops in rounds for op in ops])

    def check(self, ops):
        for kind in CLI_KINDS:
            code, out = self.outputs[kind]
            fmt = self.argvs[kind][-1]
            self.stats[kind] = {"problems": [], "levels": 0, "splittings": 0, "checks": 0}
            try:
                columns, rows, records = ref.parse_cli(out.decode(), fmt)
                self.stats[kind] = self._check_kind(kind, columns, rows, 1e-8 if fmt == "csv" else 0.0)
            except (ValueError, KeyError, IndexError) as exc:
                self.stats[kind]["problems"] = [f"unreadable output: {type(exc).__name__}: {exc}"]
        for op in ops:
            stats = self.stats[op.kind]
            op.levels, op.splittings, op.checks = stats["levels"], stats["splittings"], stats["checks"]
            if op.fingerprint != self.outputs[op.kind]:
                mark_wrong(op, ["output differs from the first call with the same argv"])
            elif op.status == "ok":
                mark_wrong(op, stats["problems"])

    def _check_kind(self, kind, columns, rows, cell: float) -> dict:
        """Content checks of one argv's output; cell is the relative rounding
        allowance of its cells (CSV keeps 9 significant digits)."""
        col = {name: i for i, name in enumerate(columns)}
        problems, levels, splittings, checks = [], 0, 0, 0
        a, b, k = self.geometry[kind]
        m = ref.M_PAPER
        if kind in ("spectrum", "spectrum-oracle", "oracle-check", "thermal"):
            scale = ref.energy_scale(a, m)
            index, eps = ref.reference_levels(k / scale, b / a)
            energies = eps * scale
        if kind in ("dynamics", "rabi"):
            e0, e1 = ref.mp_pair0(a, b, k, m)
            omega = float(e1 - e0) / ref.HBAR
            t = np.array([float(r[col["t_s"]]) for r in rows])
        if kind in ("spectrum", "spectrum-oracle", "oracle-check"):
            e_col = "energy_J" if kind != "oracle-check" else "energy_solver_J"
            got = np.array([float(r[col[e_col]]) for r in rows])
            levels = len(rows)
            if [int(r[col["index"]]) for r in rows] != list(index):
                problems.append("level indices differ from the reference")
            elif not np.all(np.abs(got / energies - 1.0) <= max(ref.LEVEL_RTOL, cell)):
                problems.append("level energy off its reference")
            grid_col = {"spectrum-oracle": "grid_energy_J", "oracle-check": "energy_grid_J"}.get(kind)
            if grid_col and len(rows) == len(index):
                checks = len(rows)
                grid = np.array([float(r[col[grid_col]]) for r in rows])
                if not np.all(np.abs(grid / energies - 1.0) <= ref.GRID_RTOL):
                    problems.append("grid energy off its reference")
            if kind == "oracle-check":
                problems += ref.check_oracle_table(columns, rows)
        elif kind == "table1":
            problems += ref.check_table1(columns, rows, cell)
            levels, splittings = 2 * len(rows), len(rows)
        elif kind == "gap-sweep":
            ok_rows = [r for r in rows if isinstance(r[col["delta_e_J"]], float)
                       and not math.isnan(r[col["delta_e_J"]])]
            levels, splittings = 2 * len(ok_rows), len(ok_rows)
            refs = ref.mp_pair0_many(1e-6, [float(r[col["b_m"]]) for r in ok_rows], 2e-24, ref.M_CODATA)
            for r, pair in zip(ok_rows, refs):
                problems += ref.check_splitting(float(r[col["delta_e_J"]]), pair)
        elif kind == "dynamics":
            d = ref.dipole(a, b, k, m, float(e0), float(e1))
            p_l = np.array([float(r[col["p_l"]]) for r in rows])
            p_r = np.array([float(r[col["p_r"]]) for r in rows])
            x = np.array([float(r[col["x_expect_m"]]) for r in rows])
            if abs(t[-1] * omega / (2.0 * math.pi) - 1.0) > ref.SPLIT_RTOL:
                problems.append("trace length is not one period")
            if np.max(np.abs(p_l - np.cos(omega * t / 2.0) ** 2)) > ref.RK4_ATOL or \
                    np.max(np.abs(p_l + p_r - 1.0)) > max(1e-12, cell):
                problems.append("P_L(t) off the flip-flop reference")
            if np.max(np.abs(x - d * np.cos(omega * t))) > ref.RK4_ATOL * d:
                problems.append("<x>(t) off the reference")
        elif kind == "rabi":
            r0 = 2.0 * math.pi / t[-1]  # on resonance with amplitude 0.1 hbar omega
            if abs(r0 / (0.1 * omega) - 1.0) > ref.SPLIT_RTOL:
                problems.append("Rabi period off the reference")
            r0p = r0 * math.hypot(1.0, 5.0)
            want = {"p1": np.sin(r0 * t) ** 2, "p0": np.cos(r0 * t) ** 2,
                    "p_l": np.sin(r0p * t) ** 2 / 26.0, "p_r": 1.0 - np.sin(r0p * t) ** 2 / 26.0}
            for name, expected in want.items():
                got = np.array([float(r[col[name]]) for r in rows])
                if np.max(np.abs(got - expected)) > ref.RK4_ATOL:  # CSV keeps 9 digits
                    problems.append(f"{name} off the closed form")
        elif kind == "thermal":
            row = rows[0]
            b_w, c = 2.897771955e-3, 2.99792458e8
            t_bound = 5.0 * math.pi * ref.HBAR * b_w / (16.0 * m * c * a * a)
            gap12 = energies[2] - energies[1]
            t_max = b_w / (2.0 * math.pi * c) * gap12 / ref.HBAR
            for name, expected in (("t_bound_K", t_bound), ("e2_minus_e1_J", gap12), ("t_max_K", t_max)):
                if abs(float(row[col[name]]) / expected - 1.0) > max(1e-9, cell):
                    problems.append(f"{name} off the reference")
        elif kind == "density":
            det = [float(r[col["abs_det"]]) for r in rows]
            kinds = [r[col["classification"]] for r in rows]
            purity = [float(r[col["purity"]]) for r in rows]
            expected = [0.0, 0.0, 0.0, 0.5, 0.5, 1.0 / 3.0]
            if kinds != ["pure"] * 3 + ["mixed"] * 3 or \
                    max(abs(x - y) for x, y in zip(det, expected)) > max(1e-12, cell) or \
                    max(abs(p - (1.0 - 2.0 * x * x)) for p, x in zip(purity, det)) > max(1e-12, cell):
                problems.append("density rows off the reference states")
        return {"problems": problems, "levels": levels, "splittings": splittings, "checks": checks}

    def trace_extras(self, tracer, calls):
        """Median subprocess wall per argv kind, and dwell.cli.main run
        in-process after imports are warm."""
        import dwell.cli
        extras = {}
        for kind in CLI_KINDS:
            walls = [dt for k, dt in calls if k == kind]
            extras[f"cli.{kind}.wall_p50_s"] = statistics.median(walls) if walls else 0.0
            times = []
            for _ in range(3):
                with tracer.operation("op.cli_main"), tracer.span(f"cli.{kind}.main"), \
                        contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    t0 = time.perf_counter()
                    attempt(lambda: dwell.cli.main(self.argvs[kind]))
                    times.append(time.perf_counter() - t0)
            extras[f"cli.{kind}.compute_s"] = statistics.median(times)
        return extras


WORKLOADS = {"cli-mix": CliMix, "spectrum-deep": SpectrumDeep, "sweep": Sweep, "oracle": Oracle}


def make(name: str, seed: int, tiny: bool, root: str) -> Workload:
    if name == "cli-mix":
        return CliMix(seed, tiny, root)
    return WORKLOADS[name](seed, tiny)


def import_times(root: str, reps: int = 3) -> dict[str, float]:
    """Median cumulative import time (s) of the outermost dwell, scipy and
    numpy entries of `python -X importtime -c "import dwell, dwell.cli"`."""
    samples: dict[str, list[float]] = {"dwell": [], "scipy": [], "numpy": []}
    for _ in range(reps):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import dwell, dwell.cli"],
                             capture_output=True, text=True, cwd=root, timeout=150).stderr
        entries = []
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            depth = (len(name) - len(name.lstrip())) // 2
            entries.append((depth, name.strip(), int(cumulative) * 1e-6))
        totals = dict.fromkeys(samples, 0.0)
        stack: list[tuple[int, str]] = []
        for depth, name, seconds in reversed(entries):  # parents precede children
            while stack and stack[-1][0] >= depth:
                stack.pop()
            top = name.split(".")[0]
            if top in totals and all(n.split(".")[0] != top for _, n in stack):
                totals[top] += seconds
            stack.append((depth, name))
        for key in samples:
            samples[key].append(totals[key])
    return {f"import.{key}_s": statistics.median(v) for key, v in samples.items()}


def environment() -> dict:
    import platform

    import scipy
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    return {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                        "MKL_NUM_THREADS")}}

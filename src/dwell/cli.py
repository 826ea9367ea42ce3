"""Command-line surface: spectra, the splitting-vs-width reference table,
dynamics traces, thermal limits, gap sweeps, and density-matrix examples,
emitted as CSV or JSON.

Output contract: CSV uses comma separators, '.' decimals, an LF-terminated
header row, and 9-significant-digit numbers; JSON carries full binary64
round-trip precision.  Identical configuration produces byte-identical
output.  Non-fatal findings travel as structured records (warning /
discrepancy / info).

Options come from their defaults, then the --config file, then the
flags, so a flag beats a config-file value, a list of widths included.
A command accepts only the options it reads (its `_COMMANDS` row, plus
format and out), and a single --b is one width: a comma list of widths
is read only by gap-sweep without --delta.  The traces of dynamics and
rabi stop with a ValueError where a phase (omega t, R0 t) reaches 2**52
rad, from where adjacent doubles are 1 rad apart.

Exit codes, one per channel:
  0  output written, no error record;
  1  output written with an error record (a solver failure, a failed sweep
     row or oracle check), or nothing written and an 'error: ValueError: ...'
     line on stderr (invalid well, grid, sample or drive parameters, or a
     trace whose phase reaches 2**52 rad).  A solver failure reaches main
     as a DwellError, which main alone turns into the error record; rows
     the command wrote before it stand, such as thermal's T_B row;
  2  nothing written and a 'config error: ...' line on stderr (bad flag
     value or config file, a flag or config key its command does not read,
     a width list where one width is read, unreadable config file or
     unwritable output path), or an argparse usage error.

Each command imports what it computes with: the module loads only the
pure-`math` spectrum, thermal and unit code, and `json` only for JSON
output.  `spectrum`, `table1`, `thermal`, `gap-sweep`, `dynamics`, `rabi`
and `density` never load numpy (`dynamics` and `rabi` take the lowest
pair, its dipole check and one closed-form call per time sample on
`math`; `density` does its 2x2 algebra on Python complex).  Only the grid
oracle of `spectrum --oracle` and `oracle-check` imports numpy, the only
third-party package any command loads; the grid checks reject a level
count the grid cannot check before they solve.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import thermal as thermal_mod
from .errors import AmbiguousPurity, ConfigError, DwellError
from .spectrum import (SpectrumResult, find_b_for_gap, gap_sweep, level_count,
                       solve_below_barrier)
from .units import (CODATA_CONSTANTS, PAPER_CONSTANTS, TABLE1_B_VALUES, TABLE1_K, TABLE1_WELL,
                    WellSpec, to_dimensionless)

__all__ = ["main", "table1_rows"]

_UNIT_TABLES = {
    "length": {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6,
               "nm": 1e-9, "pm": 1e-12},
    "energy": {"J": 1.0, "mJ": 1e-3, "uJ": 1e-6, "µJ": 1e-6, "nJ": 1e-9,
               "pJ": 1e-12, "fJ": 1e-15, "aJ": 1e-18, "zJ": 1e-21, "yJ": 1e-24},
    "mass": {"kg": 1.0, "g": 1e-3, "mg": 1e-6, "ug": 1e-9, "µg": 1e-9},
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9, "ps": 1e-12},
    "frequency": {"rad/s": 1.0, "Hz": 2.0 * math.pi, "kHz": 2.0e3 * math.pi,
                  "MHz": 2.0e6 * math.pi, "GHz": 2.0e9 * math.pi},
}

# a float literal (digits with at most one '.', at least one digit), then a unit
_QUANTITY_RE = re.compile(
    r"^\s*([-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)\s*([a-zA-Zµ/]*)\s*$")


def parse_quantity(text: str, kind: str, where: str = "") -> float:
    """Parse '<number>[unit]' with SI suffixes appropriate for the kind."""
    match = _QUANTITY_RE.match(text)
    if not match:
        raise ConfigError(f"cannot parse quantity {text!r}{where}")
    value = float(match.group(1))
    unit = match.group(2)
    if unit:
        table = _UNIT_TABLES[kind]
        if unit not in table:
            raise ConfigError(f"unknown {kind} unit {unit!r} in {text!r}{where}")
        value *= table[unit]
    if not math.isfinite(value):
        raise ConfigError(f"quantity {text!r}{where} is not finite")
    return value


# The run options: config key -> (kind, default, flag help).  The kind is a
# unit table name, "int", "bool", "text" or a tuple of allowed values; "b"
# holds a tuple of widths, read from a comma list.  A None default leaves
# the value to the command: b is 100 nm, or the table-1 widths in
# gap-sweep.  Each key is a config-file key and the flag --key
# (underscores as dashes), added to the parser in this order.
_OPTIONS = {
    "format": (("csv", "json"), "csv", None),
    "out": ("text", None, "output path (default stdout)"),
    "oracle": ("bool", False, "cross-check spectra against the grid solver"),
    "grid_n": ("int", 20_000, "grid cells"),
    "a": ("length", 1e-6, "valley width, e.g. 1um"),
    "b": ("length", None, "barrier half-width, e.g. 100nm; comma list for gap-sweep"),
    "k": ("energy", 2e-24, "barrier height, e.g. 2e-24J"),
    "m": ("mass", PAPER_CONSTANTS.m_e, "mass, e.g. 9.1e-31kg"),
    "t_max": ("time", None, "trace length, e.g. 2us"),
    "t_steps": ("int", 100, "trace samples"),
    "delta": ("energy", None, "gap target for gap-sweep"),
    "drive_amp": ("energy", None, "drive amplitude (J)"),
    "drive_omega": ("frequency", None, "drive angular frequency (rad/s)"),
}


def load_config_file(path: str) -> dict[str, str]:
    """Flat 'key = value' file; '#' starts a comment; unknown keys are
    rejected with their line number."""
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = value.strip()
    return raw


def _coerce(key: str, value: str, where: str):
    """The value of option key, parsed from its text."""
    kind = _OPTIONS[key][0]
    if key == "b":
        return tuple(parse_quantity(v, kind, where) for v in value.split(","))
    if kind in _UNIT_TABLES:
        return parse_quantity(value, kind, where)
    if isinstance(kind, tuple) and value not in kind:
        raise ConfigError(f"{key} must be {' or '.join(kind)}, got {value!r}{where}")
    if kind == "bool":
        if value.lower() not in ("true", "false", "1", "0", "yes", "no"):
            raise ConfigError(f"{key} must be boolean, got {value!r}{where}")
        return value.lower() in ("true", "1", "yes")
    if kind == "int":
        try:
            number = int(value)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}{where}") from None
        if number < 1:
            raise ConfigError(f"{key} must be a positive integer, got {value!r}{where}")
        return number
    return value


def build_config(args: argparse.Namespace) -> argparse.Namespace:
    """The run options: the defaults, overridden by the config file's
    values, overridden by the flags given.  Each must be an option the
    command reads, and only gap-sweep without delta reads a width list."""
    cfg = argparse.Namespace(**{key: option[1] for key, option in _OPTIONS.items()})
    given = [(load_config_file(args.config) if args.config else {}, f" (in {args.config})"),
             ({key: str(getattr(args, key)) for key in _OPTIONS  # not given: None or False
               if getattr(args, key) not in (None, False)}, " (flag)")]
    for values, where in given:
        for key, value in values.items():
            setattr(cfg, key, _coerce(key, value, where))
    reads = ["format", "out", *_COMMANDS[args.command][1].split()]
    mode = " without oracle" if "oracle" in reads and not cfg.oracle else ""
    for values, where in given:
        for key in _OPTIONS:
            if key in values and (key not in reads or mode and key == "grid_n"):
                raise ConfigError(f"{args.command}{mode} does not read {key}{where}")
    if len(cfg.b or ()) > 1 and (args.command != "gap-sweep" or cfg.delta is not None):
        mode = " with delta" if cfg.delta is not None else ""
        raise ConfigError(f"b lists {len(cfg.b)} widths, but {args.command}{mode} reads one")
    return cfg


def _well(cfg: argparse.Namespace) -> WellSpec:
    """The run's well; its barrier half-width is the one width of b, or 100 nm."""
    return WellSpec(cfg.a, cfg.b[0] if cfg.b is not None else 1e-7, cfg.k, cfg.m)


# ---------------------------------------------------------------------------
# output assembly


@dataclass
class Report:
    """What one command emits: its columns, then data rows and records."""

    command: str
    columns: list[str] = field(default_factory=list)
    rows: list[list] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "nan" if math.isnan(value) else f"{value:.9g}"
    return str(value)


def emit(report: Report, cfg: argparse.Namespace) -> int:
    if cfg.format == "json":
        import json  # only here: a csv run does not pay for its import

        payload = {"command": report.command, "columns": report.columns,
                   "rows": [[(None if isinstance(v, float) and math.isnan(v) else v)
                             for v in row] for row in report.rows],
                   "records": report.records}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(report.columns)]
        lines += [",".join(_fmt_cell(v) for v in row) for row in report.rows]
        lines += [f"# {r['type']}: {r['message']}" for r in report.records]
        text = "\n".join(lines) + "\n"
    if cfg.out:
        try:
            Path(cfg.out).write_text(text, encoding="utf-8", newline="\n")
        except OSError as exc:
            raise ConfigError(f"cannot write output {cfg.out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
    return 1 if any(r["type"] == "error" for r in report.records) else 0


# ---------------------------------------------------------------------------
# commands: each sets report.columns first, then fills rows and records; a
# DwellError it raises becomes main's error record, after the rows it has
# already written


def _every_level(spec: WellSpec, report: Report, grid_n: int | None = None
                 ) -> SpectrumResult | None:
    """Every level of the well, or None after a "no level below the barrier"
    warning.  With grid_n, the levels are for a check on an n-cell grid,
    whose parameters and level count are checked before the solve."""
    well = to_dimensionless(spec)
    count = level_count(well)
    if count == 0:
        report.records.append({"type": "warning",
                               "message": f"k = {spec.k:.9g} J <= B/4 = {well.b_scale / 4:.9g} J: "
                                          "no level below the barrier"})
        return None
    if grid_n is not None:
        from .grid_oracle import check_request

        check_request(spec, grid_n, count)
    return solve_below_barrier(well)


def cmd_spectrum(cfg: argparse.Namespace, report: Report) -> None:
    spec = _well(cfg)
    report.columns = ["index", "parity", "energy_J", "eps", "residual"]
    result = _every_level(spec, report, cfg.grid_n if cfg.oracle else None)
    if result is None:
        return
    diag = {d.index: d for d in result.solver_report}
    rows = [[level.index, level.parity, level.energy, level.eps,
             diag[level.index].residual] for level in result.levels]
    if cfg.oracle:
        report.columns += ["grid_energy_J", "grid_rel_diff"]
        for row, check in zip(rows, _grid_check(spec, result.levels, cfg.grid_n)):
            row.extend(check)
    report.rows = rows


def _grid_check(spec: WellSpec, levels, n: int) -> list[tuple[float, float]]:
    """(grid energy, relative difference) of each level on an n-cell grid."""
    from .grid_oracle import build_grid_hamiltonian, lowest_eigenvalues

    grid = lowest_eigenvalues(build_grid_hamiltonian(spec, n), len(levels))
    return [(float(e), abs(float(e) / level.energy - 1.0)) for level, e in zip(levels, grid)]


def table1_rows():
    """The seven-row splitting table at the reference geometry."""
    return gap_sweep(TABLE1_WELL, list(TABLE1_B_VALUES))


def _line_fit(x: list[float], y: list[float]) -> tuple[float, float]:
    """Least-squares line y = slope*x + intercept, about the means."""
    x_mean = math.fsum(x) / len(x)
    y_mean = math.fsum(y) / len(y)
    dx = [xi - x_mean for xi in x]
    slope = math.fsum(d * (yi - y_mean) for d, yi in zip(dx, y)) / math.fsum(d * d for d in dx)
    return slope, y_mean - slope * x_mean


def cmd_table1(cfg: argparse.Namespace, report: Report) -> None:
    report.columns = ["b_nm", "e0_J", "e1_J", "delta_e_J", "tau_s"]
    rows_data = table1_rows()
    report.rows = [[r.b * 1e9, r.e0, r.e1, r.delta_e, r.tau] for r in rows_data]
    # log-linear fit of the splitting decay
    slope, intercept = _line_fit([r.b for r in rows_data],
                                 [math.log(r.delta_e) for r in rows_data])
    report.records = [
        {"type": "info",
         "message": f"ln(delta_e) vs b fit: slope = {slope:.9g} 1/m, "
                    f"intercept = {intercept:.9g}"},
        {"type": "discrepancy",
         "message": "reference table caption states k = 2e-20 J, but the tabulated "
                    "splittings decay at a rate implying k ~= 2e-24 J; this table uses "
                    f"k = {TABLE1_K:.9g} J"},
        {"type": "discrepancy",
         "message": "reference rows 1 and 2 print tau = 1.0e-06 s and 2.9e-06 s, "
                    "inconsistent with their own splittings (2*pi*hbar/dE = "
                    "1.05e-06 s and 1.89e-06 s); computed values are emitted"},
        {"type": "info",
         "message": "reference energies reproduce only with the full-precision "
                    f"electron mass {CODATA_CONSTANTS.m_e:.9g} kg, not the 2-digit "
                    "9.1e-31 kg its text prints"},
    ]


def _time_samples(t_max: float, t_steps: int) -> list[float]:
    """t_steps equally spaced times on [0, t_max], bit-equal to
    numpy.linspace(0.0, t_max, t_steps): i * step, the last one t_max.  A
    count too large to allocate is an invalid parameter, not a crash."""
    try:
        times = [0.0] * t_steps
    except MemoryError:
        raise ValueError(f"cannot allocate {t_steps} time samples") from None
    div = max(t_steps - 1, 1)
    step = t_max / div
    for i in range(t_steps):
        # linspace scales i/div by t_max where the step underflows to 0, and
        # adds the start 0.0, which turns a -0.0 into 0.0
        times[i] = (i * step if step else i / div * t_max) + 0.0
    if t_steps > 1:
        times[-1] = t_max
    return times


def cmd_dynamics(cfg: argparse.Namespace, report: Report) -> None:
    from .dynamics import TwoLevelSystem, flip_flop, x_expectation

    report.columns = ["t_s", "p_l", "p_r", "x_expect_m"]
    sys_ = TwoLevelSystem.from_well(_well(cfg))
    period = 2.0 * math.pi / sys_.omega
    t_max = cfg.t_max if cfg.t_max is not None else period
    for t in _time_samples(t_max, cfg.t_steps):
        p_l, p_r = flip_flop(sys_, math.pi / 2.0, t)  # prepared on the L side
        report.rows.append([t, p_l, p_r, x_expectation(sys_, "L", t)])


def cmd_rabi(cfg: argparse.Namespace, report: Report) -> None:
    from .dynamics import (HarmonicDrive, TwoLevelSystem, _rabi_rates, rabi_localized,
                           rabi_off_resonance)

    report.columns = ["t_s", "p0", "p1", "p_l", "p_r"]
    sys_ = TwoLevelSystem.from_well(_well(cfg))
    amp = cfg.drive_amp if cfg.drive_amp is not None else 0.1 * sys_.hbar * sys_.omega
    omega_prime = cfg.drive_omega if cfg.drive_omega is not None else sys_.omega
    drive = HarmonicDrive(amp, omega_prime)
    r0 = _rabi_rates(sys_, drive, omega_prime - sys_.omega)[1]
    t_max = cfg.t_max if cfg.t_max is not None else (2.0 * math.pi / r0 if r0 > 0 else 1.0)
    for t in _time_samples(t_max, cfg.t_steps):
        report.rows.append([t, *rabi_off_resonance(sys_, drive, t),
                            *rabi_localized(sys_, drive, t)])


def cmd_thermal(cfg: argparse.Namespace, report: Report) -> None:
    spec = _well(cfg)
    report.columns = ["t_bound_K", "e2_minus_e1_J", "t_max_K", "t_max_over_t_bound"]
    t_bound = thermal_mod.global_temperature_bound(spec.a, spec.m, spec.constants)
    # T_B is defined without the spectrum: its row stands even when the solve fails
    report.rows = [[t_bound, math.nan, math.nan, math.nan]]
    levels = {lv.index: lv for lv in solve_below_barrier(to_dimensionless(spec), 2).levels}
    if 1 in levels and 2 in levels:
        gap12 = levels[2].energy - levels[1].energy
        t_max = thermal_mod.temperature_limit(gap12, spec.constants)
        report.rows = [[t_bound, gap12, t_max, t_max / t_bound]]
    else:
        report.records.append({"type": "warning",
                               "message": "fewer than three levels below the barrier; "
                                          "only the geometric bound T_B is defined"})


def cmd_gap_sweep(cfg: argparse.Namespace, report: Report) -> None:
    spec = _well(cfg)
    if cfg.delta is not None:
        report.columns = ["delta_J", "b_m", "gap_J", "eps0", "cot2", "cot2_bound",
                          "certified", "steps"]
        found = find_b_for_gap(cfg.delta, spec)
        report.rows = [[cfg.delta, found.b, found.gap, found.eps0, found.cot2,
                        found.cot2_bound, found.certified, found.steps]]
        return
    report.columns = ["b_m", "e0_J", "e1_J", "delta_e_J", "tau_s", "error"]
    rows_data = gap_sweep(spec, list(cfg.b if cfg.b is not None else TABLE1_B_VALUES))
    report.rows = [[r.b, r.e0, r.e1, r.delta_e, r.tau, r.error or ""] for r in rows_data]
    report.records = [{"type": "error", "message": f"b = {r.b:.9g} m: {r.error}"}
                      for r in rows_data if r.error]


def cmd_density(cfg: argparse.Namespace, report: Report) -> None:
    from . import density as density_mod

    report.columns = ["label", "abs_det", "classification", "purity"]
    for label, state in density_mod.reference_states():
        det = density_mod.abs_det(state)
        try:
            kind = "pure" if density_mod.is_pure(state) else "mixed"
        except AmbiguousPurity:
            kind = "ambiguous"
        purity = density_mod.reduce_state(state).purity
        report.rows.append([label, det, kind, purity])


def cmd_oracle_check(cfg: argparse.Namespace, report: Report) -> None:
    spec = _well(cfg)
    report.columns = ["index", "parity", "energy_solver_J", "energy_grid_J", "rel_diff",
                      "within_tol"]
    result = _every_level(spec, report, cfg.grid_n)
    if result is None:
        return
    tol = 1e-4
    for level, (grid_e, rel) in zip(result.levels,
                                    _grid_check(spec, result.levels, cfg.grid_n)):
        report.rows.append([level.index, level.parity, level.energy, grid_e, rel, rel <= tol])
        if rel > tol:
            report.records.append({"type": "error",
                                   "message": f"level {level.index}: grid disagreement "
                                              f"{rel:.3e} exceeds {tol:.0e}"})


# command -> (its function, the options it reads besides format and out)
_COMMANDS = {
    "spectrum": (cmd_spectrum, "a b k m oracle grid_n"),
    "table1": (cmd_table1, ""),
    "dynamics": (cmd_dynamics, "a b k m t_max t_steps"),
    "rabi": (cmd_rabi, "a b k m t_max t_steps drive_amp drive_omega"),
    "thermal": (cmd_thermal, "a b k m"),
    "gap-sweep": (cmd_gap_sweep, "a b k m delta"),
    "density": (cmd_density, ""),
    "oracle-check": (cmd_oracle_check, "a b k m grid_n"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwell",
        description="Double square well spectra, tunneling dynamics, and coherence.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="flat key = value file; flags override")
    for key, (kind, _, help_) in _OPTIONS.items():
        flag = "--" + key.replace("_", "-")
        if kind == "bool":
            parser.add_argument(flag, dest=key, action="store_true", help=help_)
        else:
            parser.add_argument(flag, dest=key, help=help_,
                                choices=kind if isinstance(kind, tuple) else None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    report = Report(args.command)
    try:
        cfg = build_config(args)
        try:
            _COMMANDS[args.command][0](cfg, report)
        except DwellError as exc:
            report.records.append({"type": "error", "error_class": type(exc).__name__,
                                   "message": str(exc)})
        return emit(report, cfg)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

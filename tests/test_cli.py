import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dwell.cli
import dwell.grid_oracle
import dwell.spectrum
from dwell import (CODATA_CONSTANTS, PAPER_CONSTANTS, TABLE1_B_VALUES, WellSpec,
                   solve_below_barrier, to_dimensionless)
from dwell.cli import (
    _line_fit,
    _time_samples,
    _well,
    build_config,
    build_parser,
    main,
    parse_quantity,
    table1_rows,
)
from dwell.errors import ConfigError, ConvergenceFailure
from dwell.spectrum import level_count


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_parse_quantity_units():
    assert parse_quantity("100nm", "length") == pytest.approx(1e-7)
    assert parse_quantity("1um", "length") == pytest.approx(1e-6)
    assert parse_quantity("2e-24J", "energy") == pytest.approx(2e-24)
    assert parse_quantity("9.1e-31kg", "mass") == pytest.approx(9.1e-31)
    assert parse_quantity("2us", "time") == pytest.approx(2e-6)
    assert parse_quantity("3.5e-7", "length") == pytest.approx(3.5e-7)
    for text in ("5.", ".5", "1.e3", "+.5e-1", "-7", "007.25E+2"):  # any float literal
        assert parse_quantity(text, "length") == float(text)
        assert parse_quantity(f" {text} nm ", "length") == float(text) * 1e-9
    with pytest.raises(ConfigError):
        parse_quantity("10 parsec", "length")
    with pytest.raises(ConfigError):
        parse_quantity("abc", "energy")
    for text, kind in (("1e400", "energy"), ("-1e400", "length"), ("1.7e308GHz", "frequency")):
        with pytest.raises(ConfigError, match="is not finite"):
            parse_quantity(text, kind)


@pytest.mark.parametrize("flag", ["--drive-amp", "--drive-omega", "--t-max", "--delta"])
def test_an_overflowing_flag_is_a_config_error(flag, capsys):
    command = "gap-sweep" if flag == "--delta" else "rabi"
    code = main([command, flag, "1e400"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"config error: quantity '1e400' (flag) is not finite\n"


@pytest.mark.parametrize("text", ["1.2.3um", ".um", "1..5nm", "."])
def test_a_quantity_that_is_no_float_literal_is_a_config_error(text, capsys):
    # digits and dots that form no float literal: the flag's value is malformed
    code = main(["spectrum", "--a", text])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"config error: cannot parse quantity {text!r} (flag)\n"


def test_rabi_rejects_a_drive_rate_that_overflows(capsys):
    # A/hbar overflows to inf, so (R1/R0)^2 would be NaN in every row
    code = main(["rabi", "--drive-amp", "1e300", "--t-steps", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ValueError: Rabi rate overflows")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, phase", [
    (["rabi", "--t-max", "1e300", "--t-steps", "3"], "R0*t"),
    (["dynamics", "--t-max", "1e308", "--t-steps", "3"], "omega*t/2 + phi")])
def test_a_trace_whose_phase_reaches_2_52_rad_is_a_value_error(argv, phase, capsys):
    # rabi's phase is finite but rounding noise; dynamics' overflows to inf
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: ValueError: phase |{phase}| = ")
    assert captured.err.count("\n") == 1


def test_table1_shape_and_values(capsys):
    code, out = run_cli(["table1"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "b_nm,e0_J,e1_J,delta_e_J,tau_s"
    data = [l for l in lines[1:] if not l.startswith("#")]
    records = [l for l in lines[1:] if l.startswith("#")]
    assert len(data) == 7
    assert data[0].startswith("100,")
    assert any("discrepancy" in r for r in records)
    # nine significant digits in CSV cells
    first_e0 = data[0].split(",")[1]
    assert first_e0 == "5.37566083e-26"


def test_table1_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["table1", "--out", str(out1)]) == 0
    assert main(["table1", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_json_and_csv_agree(capsys, tmp_path):
    code, csv_text = run_cli(["table1"], capsys)
    assert code == 0
    out = tmp_path / "t.json"
    assert main(["table1", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "table1"
    csv_rows = [l.split(",") for l in csv_text.strip().split("\n")[1:]
                if not l.startswith("#")]
    for csv_row, json_row in zip(csv_rows, payload["rows"]):
        for cell, value in zip(csv_row, json_row):
            # CSV carries 9 significant digits of the same number
            assert float(cell) == pytest.approx(value, rel=1e-8)


def test_spectrum_no_bound_levels_warns(capsys):
    code, out = run_cli(["spectrum", "--k", "1e-27"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("index,")
    assert len([l for l in lines[1:] if not l.startswith("#")]) == 0
    assert any("warning" in l for l in lines)


def test_spectrum_oracle_column(capsys):
    code, out = run_cli(["spectrum", "--oracle", "--grid-n", "20000"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header[-2:] == ["grid_energy_J", "grid_rel_diff"]
    for line in lines[1:]:
        if line.startswith("#"):
            continue
        assert float(line.split(",")[-1]) <= 1e-4


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("b = 150nm  # sets the half-width\nformat = csv\n")
    code1, out1 = run_cli(["spectrum", "--config", str(cfg)], capsys)
    code2, out2 = run_cli(["spectrum", "--b", "150nm"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    # a flag overrides the file
    code3, out3 = run_cli(["spectrum", "--config", str(cfg), "--b", "100nm"], capsys)
    code4, out4 = run_cli(["spectrum", "--b", "100nm"], capsys)
    assert code3 == code4 == 0
    assert out3 == out4
    assert out3 != out1


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("a = 1um\nbarrier = 2\n")
    code = main(["spectrum", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad.cfg:2" in err and "barrier" in err


def test_unreadable_config_file_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    code = main(["spectrum", "--config", str(missing)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot read config file ")
    assert str(missing) in captured.err and captured.err.count("\n") == 1


def test_config_file_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"a = 1\xffum\n")
    code = main(["spectrum", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot read config file {str(cfg)!r}: ")
    assert "can't decode byte 0xff" in captured.err and captured.err.count("\n") == 1


def test_unwritable_output_path_is_a_config_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "x.csv"
    code = main(["spectrum", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot write output ")
    assert str(target) in captured.err and captured.err.count("\n") == 1
    assert not target.exists()


def test_import_loads_no_scipy():
    # no runtime path imports scipy: neither the import nor any command, in
    # either format, nor grid_oracle.eigenvector load any of it.  numpy is
    # imported only by the grid checks, so neither the import nor the other
    # commands (dynamics and rabi among them, which build the dipole element
    # and its Gauss-Legendre check, and density), in either format, load any
    # of it.  json is imported only for JSON output
    src = Path(__file__).resolve().parents[1] / "src"
    loaded = "sorted(m for m in sys.modules if m.partition('.')[0] == {!r})".format
    code = ("import sys, dwell, dwell.cli; "
            f"print({loaded('scipy')}, {loaded('numpy')}, {loaded('json')})")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stdout == "[] [] []\n"
    code = ("import sys; from dwell.cli import main; "
            "light = [main([cmd, '--format', fmt, '--out', sys.argv[1]]) "
            "for cmd in ('spectrum', 'table1', 'thermal', 'gap-sweep', 'dynamics', 'rabi', "
            "'density') for fmt in ('csv', 'json')]; "
            f"print(light, {loaded('numpy')}); "
            "grid = [main([*cmd, '--format', fmt, '--out', sys.argv[1]]) "
            "for cmd in (['spectrum', '--oracle'], ['oracle-check']) "
            "for fmt in ('csv', 'json')]; "
            f"print(grid, {loaded('scipy')}); "
            "from dwell import PAPER_CONSTANTS, WellSpec, build_grid_hamiltonian, eigenvector, "
            "lowest_eigenvalues; "
            "h = build_grid_hamiltonian(WellSpec(1e-6, 1e-7, 2e-24, PAPER_CONSTANTS.m_e), 2002); "
            "v = eigenvector(h, float(lowest_eigenvalues(h, 1)[0])); "
            f"print(len(v), {loaded('scipy')})")
    result = subprocess.run([sys.executable, "-c", code, os.devnull], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stdout == (f"{[0] * 14} []\n[0, 0, 0, 0] []\n2002 []\n")


_BASE_MODULES = ["dwell", "dwell.cli", "dwell.errors", "dwell.spectrum", "dwell.thermal",
                 "dwell.units"]


@pytest.mark.parametrize("argv, extra", [
    (["spectrum"], []), (["table1"], []), (["thermal"], []), (["gap-sweep"], []),
    (["dynamics"], ["dwell.dynamics", "dwell.wavefunction"]),
    (["rabi"], ["dwell.dynamics", "dwell.wavefunction"]),
    (["density"], ["dwell.density", "dwell.dynamics"]),
    (["spectrum", "--oracle"], ["dwell.grid_oracle"]),
    (["oracle-check"], ["dwell.grid_oracle"])])
def test_each_command_loads_only_the_dwell_modules_it_computes_with(argv, extra):
    # density reads no eigenfunction, so no dwell.wavefunction; the spectral
    # commands load no dwell.dynamics
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import os, sys; from dwell.cli import main; "
            "main(sys.argv[1:] + ['--out', os.devnull]); "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'dwell'))")
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stdout == f"{sorted(_BASE_MODULES + extra)}\n"


@pytest.mark.parametrize("t_max", [1.0, 2.3e-6, -7e-7, 0.0, 5e-324])
def test_time_samples_are_bit_equal_to_linspace(t_max):
    for t_steps in (1, 2, 7, 50, 101, 200):
        times = _time_samples(t_max, t_steps)
        assert all(type(t) is float for t in times)
        assert [t.hex() for t in times] == \
            [t.hex() for t in np.linspace(0.0, t_max, t_steps).tolist()]


def test_dynamics_probabilities_and_periodicity(capsys):
    # JSON carries full precision; CSV rounds to 9 significant digits
    code, out = run_cli(["dynamics", "--t-steps", "101", "--format", "json"], capsys)
    assert code == 0
    values = np.array(json.loads(out)["rows"])
    assert np.max(np.abs(values[:, 1] + values[:, 2] - 1.0)) <= 1e-12
    # one full period: the trace closes on itself
    assert values[0, 3] == pytest.approx(values[-1, 3], abs=1e-10 * abs(values[0, 3]))
    # <x> crosses zero a quarter period in
    quarter = len(values) // 4
    assert values[quarter - 1, 3] * values[quarter + 1, 3] <= 0


def test_rabi_probabilities(capsys):
    code, out = run_cli(["rabi", "--t-steps", "50", "--format", "json"], capsys)
    assert code == 0
    values = np.array(json.loads(out)["rows"])
    assert np.max(np.abs(values[:, 1] + values[:, 2] - 1.0)) <= 1e-12
    assert np.max(np.abs(values[:, 3] + values[:, 4] - 1.0)) <= 1e-12


def test_thermal_defaults(capsys):
    code, out = run_cli(["thermal"], capsys)
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    t_bound = float(row[0])
    assert t_bound == pytest.approx(1.1e-3, rel=0.05)
    assert 1.0 < float(row[3]) < 3.0


def test_gap_sweep_matches_table1(capsys):
    code, out = run_cli(
        ["gap-sweep", "--a", "1um", "--k", "2e-24J",
         "--m", "9.1093837015e-31"], capsys)
    assert code == 0
    rows = [l.split(",") for l in out.strip().split("\n")[1:] if not l.startswith("#")]
    assert len(rows) == 7
    for row, ref in zip(rows, table1_rows()):
        assert float(row[0]) == pytest.approx(ref.b, rel=1e-8)
        assert float(row[3]) == pytest.approx(ref.delta_e, rel=1e-8)


def test_gap_sweep_explicit_b_list(capsys):
    code, out = run_cli(["gap-sweep", "--b", "100nm,150nm,200nm"], capsys)
    assert code == 0
    rows = [l for l in out.strip().split("\n")[1:] if not l.startswith("#")]
    assert len(rows) == 3


@pytest.mark.parametrize("argv, width", [
    (["gap-sweep", "--b", "150nm"], 1.5e-7),
    (["gap-sweep", "--config", "sweep.cfg", "--b", "120nm"], 1.2e-7)])
def test_a_single_b_sweeps_its_one_width(argv, width, tmp_path, monkeypatch, capsys):
    # a flag beats the config file's list, as it beats any config value
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.cfg").write_text("b = 100nm, 150nm\n")
    code, out = run_cli(argv, capsys)
    assert code == 0
    rows = [l.split(",") for l in out.strip().split("\n")[1:] if not l.startswith("#")]
    assert [float(row[0]) for row in rows] == [width]


@pytest.mark.parametrize("argv", [*([cmd] for cmd in sorted(dwell.cli._COMMANDS)
                                    if cmd not in ("gap-sweep", "table1", "density")),
                                  ["gap-sweep", "--delta", "1e-29J"]], ids=" ".join)
def test_a_width_list_is_a_config_error_where_one_width_is_read(argv, tmp_path, capsys):
    # table1 and density read no width at all: see the unread-option test
    cfg = tmp_path / "widths.cfg"
    cfg.write_text("b = 100nm, 3um\n")
    mode = " with delta" if "--delta" in argv else ""
    for given in (["--b", "100nm,3um"], ["--config", str(cfg)]):
        code = main([*argv, *given])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"config error: b lists 2 widths, but {argv[0]}{mode} reads one\n"


def _reads(command: str) -> list[str]:
    return ["format", "out", *dwell.cli._COMMANDS[command][1].split()]


_UNREAD = [
    (["dynamics", "--t-steps", "3", "--oracle", "--grid-n", "5", "--delta", "1J",
      "--drive-amp", "3J"], "dynamics does not read oracle (flag)"),
    (["table1", "--a", "3um", "--b", "7nm", "--k", "1J", "--oracle"],
     "table1 does not read oracle (flag)"),
    (["density", "--a", "1e-200m", "--k", "1e300"], "density does not read a (flag)"),
    (["table1", "--b", "100nm,3um"], "table1 does not read b (flag)"),
    (["density", "--b", "100nm,3um"], "density does not read b (flag)"),
    (["table1", "--config", "widths.cfg"], "table1 does not read b (in widths.cfg)"),
    (["density", "--config", "widths.cfg"], "density does not read b (in widths.cfg)"),
    # the first unread key in option order, config keys before flags
    (["dynamics", "--config", "oracle.cfg"], "dynamics does not read oracle (in oracle.cfg)"),
    (["thermal", "--delta", "1J", "--config", "oracle.cfg"],
     "thermal does not read oracle (in oracle.cfg)"),
    (["thermal", "--drive-omega", "1MHz", "--t-max", "2us"], "thermal does not read t_max (flag)"),
    (["gap-sweep", "--config", "widths.cfg", "--grid-n", "5"],
     "gap-sweep does not read grid_n (flag)"),
    (["spectrum", "--grid-n", "5"], "spectrum without oracle does not read grid_n (flag)"),
    (["spectrum", "--config", "oracle.cfg", "--t-steps", "5"],
     "spectrum does not read t_steps (flag)"),
    # every value is parsed first: a bad line is an error though the key is unread
    (["density", "--config", "bad-n.cfg", "--grid-n", "5"],
     "grid_n must be an integer, got 'x' (in bad-n.cfg)"),
]


@pytest.mark.parametrize("argv, message", _UNREAD, ids=[" ".join(argv) for argv, _ in _UNREAD])
def test_a_command_rejects_an_option_it_does_not_read(argv, message, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "widths.cfg").write_text("b = 100nm, 3um\n")
    (tmp_path / "oracle.cfg").write_text("oracle = yes\ngrid_n = 20000\nb = 150nm\n")
    (tmp_path / "bad-n.cfg").write_text("grid_n = x\n")
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


@pytest.mark.parametrize("command", sorted(dwell.cli._COMMANDS))
def test_each_command_accepts_only_its_row_of_options(command, capsys):
    # each command accepts --config, format, out and its row: 58 of the
    # 8 x 14 (command, option) pairs
    assert sum(len(_reads(cmd)) + 1 for cmd in dwell.cli._COMMANDS) == 58
    mode = " without oracle" if command == "spectrum" else ""
    for key, (kind, _, _) in dwell.cli._OPTIONS.items():
        if key in _reads(command):
            continue
        flag = "--" + key.replace("_", "-")
        code = main([command, *([flag] if kind == "bool" else [flag, "1"])])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"config error: {command}{mode} does not read {key} (flag)\n"


_A_1E_200 = ["--a", "1e-200m", "--k", "1e-20"]  # 2 m a^2 and 16 m c a^2 underflow to 0


@pytest.mark.parametrize("argv", [
    *([cmd, *_A_1E_200] for cmd in ("spectrum", "thermal", "gap-sweep", "dynamics", "rabi",
                                    "oracle-check")),
    ["thermal", "--a", "7.84407459481502e-257", "--b", "1.4019182046075838e+34",
     "--k", "3.0202062922289437e-204", "--m", "2.5524492553354014e-260"]], ids=" ".join)
def test_a_scale_that_is_no_positive_finite_float_is_an_error_record(argv, capsys):
    # B = pi^2 hbar^2/(2 m a^2) and T_B = 5 pi hbar b_W/(16 m c a^2) are inf
    code = main([*argv, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    payload = json.loads(captured.out)
    scale = "T_B" if argv[0] == "thermal" else "B"
    # gap-sweep writes a failed row and an error record for each table-1 width
    widths = 7 if argv[0] == "gap-sweep" else 0
    assert len(payload["rows"]) == widths
    assert len(payload["records"]) == max(widths, 1)
    for record in payload["records"]:
        assert record["type"] == "error"
        assert record["message"].endswith(f"{scale} must be finite and > 0, got inf")


def test_gap_sweep_delta_mode(capsys):
    code, out = run_cli(["gap-sweep", "--delta", "1e-29J",
                         "--m", "9.1093837015e-31"], capsys)
    assert code == 0
    header, row = out.strip().split("\n")[:2]
    cells = dict(zip(header.split(","), row.split(",")))
    assert 216.01195e-9 < float(cells["b_m"]) < 251.98421e-9
    assert float(cells["gap_J"]) < 1e-29
    assert cells["certified"] == "true"


def test_density_reference_rows(capsys):
    code, out = run_cli(["density"], capsys)
    assert code == 0
    rows = [l.split(",") for l in out.strip().split("\n")[1:] if not l.startswith("#")]
    assert [r[2] for r in rows] == ["pure"] * 3 + ["mixed"] * 3


def test_oracle_check(capsys):
    code, out = run_cli(["oracle-check"], capsys)
    assert code == 0
    rows = [l.split(",") for l in out.strip().split("\n")[1:] if not l.startswith("#")]
    assert all(r[-1] == "true" for r in rows)


def _no_grid(*_):
    raise AssertionError("a grid was built")


def test_oracle_check_without_a_level_warns_and_builds_no_grid(capsys, monkeypatch):
    monkeypatch.setattr(dwell.grid_oracle, "build_grid_hamiltonian", _no_grid)
    code, out = run_cli(["oracle-check", "--k", "1e-27", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == []
    (warning,) = payload["records"]
    for argv in (["spectrum"], ["spectrum", "--oracle"]):
        assert main([*argv, "--k", "1e-27", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["records"] == [warning]


def test_degenerate_well_reports_cleanly(capsys):
    # an opaque barrier leaves no resolvable splitting: error record, exit 1
    code = main(["dynamics", "--b", "3um"])
    out = capsys.readouterr().out
    assert code == 1
    assert "# error:" in out and "resolution" in out


def test_degenerate_well_error_record_in_json(capsys):
    code = main(["dynamics", "--b", "3um", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    payload = json.loads(out)
    assert payload["rows"] == []
    assert any(r["type"] == "error" for r in payload["records"])


def _raise_convergence_failure(*_):
    raise ConvergenceFailure("injected failure")


def test_spectrum_oracle_failure_is_an_error_record(capsys, monkeypatch):
    # a solver error in any command becomes one error record: columns, no rows
    monkeypatch.setattr(dwell.grid_oracle, "lowest_eigenvalues", _raise_convergence_failure)
    code, out = run_cli(["spectrum", "--oracle"], capsys)
    assert code == 1
    assert out == ("index,parity,energy_J,eps,residual,grid_energy_J,grid_rel_diff\n"
                   "# error: injected failure\n")


@pytest.mark.parametrize("argv", [["dynamics", "--t-steps", "0"], ["rabi", "--t-steps", "-3"],
                                  ["spectrum", "--oracle", "--grid-n", "0"]])
def test_non_positive_count_is_a_config_error(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    key, value = argv[-2][2:].replace("-", "_"), argv[-1]
    assert captured.err == f"config error: {key} must be a positive integer, got {value!r} (flag)\n"


def test_unallocatable_grid_is_a_value_error(capsys, monkeypatch):
    # the allocation is made to fail; a grid that large is never requested
    def _raise_memory_error(*_args, **_kwargs):
        raise MemoryError
    monkeypatch.setattr(dwell.grid_oracle.np, "arange", _raise_memory_error)
    code = main(["spectrum", "--oracle", "--grid-n", "99999999999999"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == \
        "error: ValueError: cannot allocate a grid of n = 99999999999999 cells\n"


@pytest.mark.parametrize("command", ["dynamics", "rabi"])
def test_unallocatable_time_samples_are_a_value_error(command, capsys):
    # 8e14 bytes of list exceed the address space, so the allocation fails
    # at once; a count that could be allocated is never requested
    code = main([command, "--t-steps", "99999999999999"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: ValueError: cannot allocate 99999999999999 time samples\n"


def test_table1_fit_matches_polyfit():
    rows = table1_rows()
    b = [r.b for r in rows]
    ln_gap = [math.log(r.delta_e) for r in rows]
    slope, intercept = _line_fit(b, ln_gap)
    ref_slope, ref_intercept = np.polyfit(b, ln_gap, 1)
    assert slope == pytest.approx(ref_slope, rel=1e-12)
    assert intercept == pytest.approx(ref_intercept, rel=1e-12)


def test_thermal_keeps_t_bound_when_the_solver_fails(capsys, monkeypatch):
    monkeypatch.setattr(dwell.cli, "solve_below_barrier", _raise_convergence_failure)
    code, out = run_cli(["thermal"], capsys)
    assert code == 1
    assert out == ("t_bound_K,e2_minus_e1_J,t_max_K,t_max_over_t_bound\n"
                   "0.00109970998,nan,nan,nan\n"
                   "# error: injected failure\n")


def test_thermal_reads_pairs_0_and_1_of_a_well_whose_pair_438_fails(capsys):
    # the spectrum-deep seed-22 well, whose pair 438 the solver inverts
    a, b, k = 1e-6, 1.4441382492667404e-08, 1.5004548177875203e-20
    well = to_dimensionless(WellSpec(a, b, k, PAPER_CONSTANTS.m_e))
    assert (well.kappa, well.lam) == (248795.34095324992, 0.014441382492667404)
    code, out = run_cli(["thermal", "--a", repr(a), "--b", repr(b), "--k", f"{k!r}J",
                         "--format", "json"], capsys)
    assert code == 0
    levels = solve_below_barrier(well, 2).levels
    (row,) = json.loads(out)["rows"]
    assert row[1] == levels[2].energy - levels[1].energy


def test_thermal_on_a_very_deep_well_solves_only_pairs_0_and_1(capsys, monkeypatch):
    # kappa = 9.1e15: about 9.5e7 pairs lie below the barrier
    solve = dwell.spectrum._solve_pair_diagnosed
    solved = []

    def counting(n, well):
        solved.append(n)
        if n > 1:
            raise ConvergenceFailure(f"thermal solved pair {n}")
        return solve(n, well)

    monkeypatch.setattr(dwell.spectrum, "_solve_pair_diagnosed", counting)
    code, _ = run_cli(["thermal", "--k", "5.49e-10J"], capsys)
    assert code == 0
    assert solved == [0, 1]


@pytest.mark.parametrize("command", [["oracle-check"], ["spectrum", "--oracle"]])
def test_grid_check_rejects_the_level_count_before_solving(command, capsys, monkeypatch):
    # kappa = 6.8e11: about 8.2e5 pairs lie below the barrier, far past the
    # 86 levels a grid of 861 cells can check
    solve = dwell.spectrum._solve_pair_diagnosed
    solved = []

    def counting(n, well):
        solved.append(n)
        if n > 1:
            raise ConvergenceFailure(f"the grid check solved pair {n}")
        return solve(n, well)

    monkeypatch.setattr(dwell.spectrum, "_solve_pair_diagnosed", counting)
    argv = [*command, "--k", "4.1e-14J", "--grid-n", "861"]
    code = main(argv)
    captured = capsys.readouterr()
    count = level_count(to_dimensionless(_well(build_config(build_parser().parse_args(argv)))))
    assert count > 1_600_000
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: ValueError: count must be in [1, n/10], got {count}\n"
    assert solved == []


def test_invalid_well_parameter_reports_cleanly(capsys):
    code = main(["spectrum", "--a=-1um"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error" in err


def test_m_flag_selects_the_codata_mass(capsys):
    _, paper = run_cli(["spectrum", "--format", "json"], capsys)
    _, codata = run_cli(["spectrum", "--m", "9.1093837015e-31kg", "--format", "json"], capsys)
    assert codata != paper
    for out, constants in ((paper, PAPER_CONSTANTS), (codata, CODATA_CONSTANTS)):
        levels = solve_below_barrier(to_dimensionless(
            WellSpec(1e-6, 1e-7, 2e-24, constants.m_e))).levels
        assert [row[2] for row in json.loads(out)["rows"]] == [lv.energy for lv in levels]


class _RecordingEnviron(dict):
    """A copy of os.environ that records every key read from it."""

    def __init__(self, base):
        super().__init__(base)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("command", sorted(dwell.cli._COMMANDS))
def test_no_command_reads_an_environment_variable_of_its_own(command, capsys, monkeypatch):
    # --m is the one input of the mass: no DWELL_* variable is read, so
    # setting one changes no output
    environ = _RecordingEnviron(os.environ)
    monkeypatch.setattr(os, "environ", environ)
    run_cli([command, "--format", "json"], capsys)
    assert sorted(key for key in environ.read if key.upper().startswith("DWELL")) == []


def _readme_cli_examples():
    """The argv of each `dwell ...` line in README's CLI code block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("dwell ")]


README_EXAMPLES = _readme_cli_examples()


def test_readme_examples_cover_every_command():
    assert sorted(argv[0] for argv in README_EXAMPLES) == sorted(dwell.cli._COMMANDS)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", README_EXAMPLES, ids=" ".join)
def test_readme_example_emits_plain_cells(argv, fmt, capsys, monkeypatch):
    # every row cell is a plain Python value, so emit needs no numpy fallback
    reports = []
    emit = dwell.cli.emit
    monkeypatch.setattr(dwell.cli, "emit",
                        lambda report, cfg: reports.append(report) or emit(report, cfg))
    code, out = run_cli([*argv, "--format", fmt], capsys)
    assert code == 0
    plain = (bool, int, float, str)
    assert all(type(cell) in plain for row in reports[0].rows for cell in row)
    if fmt == "json":
        rows = json.loads(out)["rows"]
        assert rows and all(cell is None or type(cell) in plain for row in rows for cell in row)


def test_thermal_golden_bytes(capsys):
    # bit-stable CSV contract: frozen from a verified run
    code, out = run_cli(["thermal"], capsys)
    assert code == 0
    assert out == ("t_bound_K,e2_minus_e1_J,t_max_K,t_max_over_t_bound\n"
                   "0.00109970998,1.60330011e-25,0.0023388496,2.12678766\n")


def test_table1_first_row_golden_bytes(capsys):
    code, out = run_cli(["table1"], capsys)
    assert code == 0
    assert out.split("\n")[1] == \
        "100,5.37566083e-26,5.43849166e-26,6.28308304e-28,1.05458898e-06"


def test_reference_b_values():
    assert len(TABLE1_B_VALUES) == 7
    assert TABLE1_B_VALUES[0] == pytest.approx(1e-7)
    assert TABLE1_B_VALUES[-1] == pytest.approx(251.98421e-9)

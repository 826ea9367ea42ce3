"""Byte-for-byte CLI goldens: stdout, stderr and exit code for each argv.

Covers every command in CSV and JSON, the warning and error records, the
stderr channels (exit 1 for a ValueError, exit 2 for a configuration error),
config files against flags, and argparse usage text.  Each argv runs
in-process through `main` inside a scratch directory holding CONFIG_FILES.

The data file is the contract.  Re-record it only for an intended output
change:

    PYTHONPATH=$PWD/src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from dwell.cli import main

GOLDEN = Path(__file__).resolve().with_name("data") / "cli_golden.json"

CONFIG_FILES = {
    "run.cfg": "b = 150nm  # sets the half-width\nformat = csv\n",
    "rabi.cfg": ("a = 1um\nk = 2e-24J\nm = 9.1093837015e-31kg\nt_max = 2us\n"
                 "t_steps = 7\ndrive_amp = 5e-29J\ndrive_omega = 1MHz\nformat = json\n"),
    "oracle.cfg": "# grid cross-check\noracle = yes\ngrid_n = 20000\nb = 150nm\n",
    "delta.cfg": "delta = 1e-29J\nm = 9.1093837015e-31\n",
    "sweep.cfg": "b = 100nm, 150nm\n",
    "bad-key.cfg": "a = 1um\nbarrier = 2\n",
    "bad-format.cfg": "format = xml\n",
    "bad-oracle.cfg": "oracle = maybe\n",
    "bad-line.cfg": "just words\n",
}

_COMMANDS = ("spectrum", "table1", "dynamics", "rabi", "thermal", "gap-sweep",
             "density", "oracle-check")

ARGVS = [
    *([cmd, "--format", fmt] for cmd in _COMMANDS for fmt in ("csv", "json")),
    ["spectrum", "--oracle"],
    # warning records
    ["spectrum", "--k", "1e-27"],
    ["spectrum", "--k", "1e-27", "--format", "json"],
    ["thermal", "--k", "6e-26J"],
    # DwellError -> error record, exit 1
    *([cmd, *args, "--format", fmt]
      for cmd, args in (("dynamics", ["--b", "3um"]), ("rabi", ["--b", "3um"]),
                        ("gap-sweep", ["--delta", "1e-60J"]))
      for fmt in ("csv", "json")),
    # per-row sweep errors
    ["gap-sweep", "--b", "100nm,1um,3um"],
    ["gap-sweep", "--b", "100nm,1um,3um", "--format", "json"],
    # ValueError -> stderr, exit 1
    ["spectrum", "--a=-1um"],
    ["spectrum", "--oracle", "--grid-n", "50"],
    ["gap-sweep", "--delta", "1e-29J", "--k", "1e-25J"],
    # configuration errors -> stderr, exit 2
    ["spectrum", "--b", "10parsec"],
    ["spectrum", "--grid-n", "abc"],
    ["dynamics", "--t-max", "3parsec"],
    ["spectrum", "--config", "bad-key.cfg"],
    ["spectrum", "--config", "bad-format.cfg"],
    ["spectrum", "--config", "bad-oracle.cfg"],
    ["spectrum", "--config", "bad-line.cfg"],
    # config files versus flags
    ["spectrum", "--config", "run.cfg"],
    ["spectrum", "--config", "run.cfg", "--b", "100nm"],
    ["rabi", "--config", "rabi.cfg"],
    ["rabi", "--config", "rabi.cfg", "--format", "csv", "--t-steps", "5"],
    ["rabi", "--a", "1um", "--k", "2e-24J", "--m", "9.1093837015e-31kg",
     "--t-max", "2us", "--t-steps", "7", "--drive-amp", "5e-29J",
     "--drive-omega", "1MHz", "--format", "json"],
    ["spectrum", "--config", "oracle.cfg"],
    ["gap-sweep", "--config", "delta.cfg"],
    ["gap-sweep", "--config", "sweep.cfg"],
    # argparse usage text
    ["bogus"],
    ["--help"],
    # a single --b sweeps one width, and a flag beats the config file's list
    ["gap-sweep", "--b", "150nm"],
    ["gap-sweep", "--config", "sweep.cfg", "--b", "120nm"],
]


def _case_id(argv: list[str]) -> str:
    return " ".join(argv)


def _write_config_files(directory: Path) -> None:
    for name, text in CONFIG_FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


def _exit_code(argv: list[str]):
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse usage errors and --help
        return exc.code


@pytest.fixture(scope="module")
def goldens() -> dict[str, dict]:
    return {_case_id(case["argv"]): case
            for case in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_golden_matrix_matches_argvs(goldens):
    assert list(goldens) == [_case_id(argv) for argv in ARGVS]


@pytest.mark.parametrize("argv", ARGVS, ids=_case_id)
def test_cli_output_is_byte_identical(argv, goldens, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    _write_config_files(tmp_path)
    code = _exit_code(argv)
    out, err = capsys.readouterr()
    expected = goldens[_case_id(argv)]
    assert out == expected["stdout"]
    assert err == expected["stderr"]
    assert code == expected["code"]


def _record() -> None:
    os.environ["COLUMNS"] = "80"
    cases = []
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        _write_config_files(Path(scratch))
        for argv in ARGVS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = _exit_code(argv)
            cases.append({"argv": argv, "stdout": out.getvalue(),
                          "stderr": err.getvalue(), "code": code})
    GOLDEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    sys.stdout.write(f"recorded {len(cases)} cases in {GOLDEN}\n")


if __name__ == "__main__":
    _record()

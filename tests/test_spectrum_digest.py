"""Bit-level digests of deep-well and threshold-well spectra.

The CLI goldens reach only shallow wells, so they cannot see a change in
the last bit of a deep level.  For each well below, the data file holds a
sha256 over every level's eps (as float.hex), its iterations, its residual
(as float.hex) and its degenerate flag, or the error a failing solve
raises with its pair index.

The data file is the contract.  Re-record it only for an intended change
of level bits:

    PYTHONPATH=$PWD/src python tests/test_spectrum_digest.py
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

from dwell import ScaledWell, solve_below_barrier
from dwell.errors import DwellError

DIGESTS = Path(__file__).resolve().with_name("data") / "spectrum_digest.json"


def _above(kappa: float, ulps: int) -> float:
    for _ in range(ulps):
        kappa = math.nextafter(kappa, math.inf)
    return kappa


# 16 deep wells, kappa log-spaced over [1e3, 1e6] with lambda over [1e-2, 1],
# and 8 wells 1 or 8 ulp above the level-count threshold (n + 1/2)^2
WELLS = [
    *((1e3 * 10 ** (i / 5), 10 ** (-2 + (7 * i % 16) / 7.5)) for i in range(16)),
    *((_above((n + 0.5) ** 2, ulps), 0.05 * (1 + n % 7))
      for n in (0, 2, 7, 30) for ulps in (1, 8)),
]


def _case_id(well: tuple[float, float]) -> str:
    return f"kappa={well[0]!r} lam={well[1]!r}"


def spectrum_digest(kappa: float, lam: float) -> str:
    try:
        result = solve_below_barrier(ScaledWell(kappa, lam))
    except DwellError as exc:
        return f"{type(exc).__name__}: {exc} (pair {exc.pair_index})"
    report = {d.index: d for d in result.solver_report}
    parts = []
    for level in result.levels:
        d = report[level.index]
        parts.append(f"{level.index} {level.parity} {level.eps.hex()} "
                     f"{d.iterations} {d.residual.hex()} {d.degenerate_pair}")
    return f"{len(parts)} levels " + hashlib.sha256("\n".join(parts).encode()).hexdigest()


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_digest_matrix_matches_wells(digests):
    assert list(digests) == [_case_id(well) for well in WELLS]


@pytest.mark.parametrize("well", WELLS, ids=_case_id)
def test_spectrum_bits_are_unchanged(well, digests):
    assert spectrum_digest(*well) == digests[_case_id(well)]


def _record() -> None:
    digests = {_case_id(well): spectrum_digest(*well) for well in WELLS}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"recorded {len(digests)} wells in {DIGESTS}\n")


if __name__ == "__main__":
    _record()

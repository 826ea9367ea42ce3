import math

import pytest

from dwell import (
    CODATA_CONSTANTS,
    PAPER_CONSTANTS,
    PhysicalConstants,
    WellSpec,
    to_dimensionless,
)
from dwell.errors import NonFiniteScaling
from dwell.spectrum import level_count

# frozen from an independent 50-digit evaluation
B_REFERENCE_GEOMETRY = 6.03087988721e-26  # a = 1e-6 m, m = 9.1e-31 kg
KAPPA_REFERENCE = 33.1626568163  # k = 2e-24 J over the same B


def test_default_constants():
    c = PAPER_CONSTANTS
    assert c.hbar == 1.054571817e-34
    assert c.m_e == 9.1e-31
    assert c.c == 2.99792458e8
    assert c.b_w == 2.897771955e-3
    assert CODATA_CONSTANTS.m_e == 9.1093837015e-31


def test_barrier_bound_reference_value():
    spec = WellSpec(1e-6, 1e-7, 2e-24, 9.1e-31)
    assert spec.barrier_bound == pytest.approx(B_REFERENCE_GEOMETRY, rel=1e-10)
    # the published one-digit estimate 0.6e-25 J holds to 1%
    assert spec.barrier_bound == pytest.approx(0.6e-25, rel=0.01)


def test_barrier_bound_scaling_in_a():
    spec = WellSpec(1e-6, 1e-7, 2e-24, 9.1e-31)
    doubled = WellSpec(2e-6, 1e-7, 2e-24, 9.1e-31)
    assert spec.barrier_bound / doubled.barrier_bound == 4.0


@pytest.mark.parametrize("field", ["a", "m"])
def test_barrier_bound_monotone_decreasing(field):
    values = [0.5e-6, 1e-6, 2e-6, 5e-6] if field == "a" else [5e-31, 9.1e-31, 2e-30]
    bounds = []
    for v in values:
        kwargs = {"a": 1e-6, "b": 1e-7, "k": 2e-24, "m": 9.1e-31}
        kwargs[field] = v
        bounds.append(WellSpec(**kwargs).barrier_bound)
    assert all(x > y for x, y in zip(bounds, bounds[1:]))


def test_to_dimensionless_reference_geometry():
    spec = WellSpec(1e-6, 1e-7, 2e-24, 9.1e-31)
    scaled = to_dimensionless(spec)
    assert scaled.lam == pytest.approx(0.1, abs=1e-16)
    assert scaled.kappa == pytest.approx(KAPPA_REFERENCE, rel=1e-10)


def test_to_dimensionless_forty_b():
    spec = WellSpec(1e-6, 8e-7, 1.0, 9.1e-31)
    k40 = 40.0 * spec.barrier_bound
    scaled = to_dimensionless(WellSpec(1e-6, 8e-7, k40, 9.1e-31))
    assert scaled.kappa == pytest.approx(40.0, rel=1e-15)
    assert scaled.lam == pytest.approx(0.8, rel=1e-15)


def test_overflowing_scale_is_reported():
    spec = WellSpec(1e170, 1e-7, 2e-24, 9.1e-31)  # B underflows to 0
    with pytest.raises(NonFiniteScaling):
        to_dimensionless(spec)


@pytest.mark.parametrize("bad", [
    {"a": -1e-6}, {"b": 0.0}, {"k": -1.0}, {"m": float("nan")},
])
def test_invalid_well_parameters(bad):
    kwargs = {"a": 1e-6, "b": 1e-7, "k": 2e-24, "m": 9.1e-31}
    kwargs.update(bad)
    with pytest.raises(ValueError):
        WellSpec(**kwargs)


def test_regime_flags():
    shallow = WellSpec(1e-6, 1e-7, 1e-27, 9.1e-31)
    assert level_count(to_dimensionless(shallow)) == 0 and not shallow.big_enough
    deep = WellSpec(1e-6, 1e-7, 2e-24, 9.1e-31)
    assert level_count(to_dimensionless(deep)) > 0 and deep.big_enough


def test_constants_validation():
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=-1.0)
    with pytest.raises(ValueError):
        PhysicalConstants(b_w=math.inf)

import pytest

from dwell import (
    PAPER_CONSTANTS,
    global_temperature_bound,
    solve_below_barrier,
    temperature_limit,
    thermal_report,
    to_dimensionless,
    wien_peak_frequency,
)

# frozen from an independent 50-digit evaluation
T_BOUND_REFERENCE = 1.0997099763e-3  # K, a = 1e-6 m, m = 9.1e-31 kg
WIEN_AT_1P1_MK = 715037882.97  # rad/s
RATIO_TABLE = 2.12697  # T_max / T_B at the reference table geometry


def test_global_bound_reference_value():
    t_b = global_temperature_bound(1e-6, 9.1e-31)
    assert t_b == pytest.approx(T_BOUND_REFERENCE, rel=1e-9)
    # the published estimate is ~1.1 mK
    assert t_b == pytest.approx(1.1e-3, rel=0.05)


def test_global_bound_scaling():
    t1 = global_temperature_bound(1e-6, 9.1e-31)
    t2 = global_temperature_bound(2e-6, 9.1e-31)
    assert t1 / t2 == 4.0


def test_limit_at_five_quarters_b_is_the_global_bound():
    # E2 - E1 = (5/4) B is exactly the T_B configuration
    from dwell import WellSpec

    spec = WellSpec(1e-6, 1e-7, 2e-24, 9.1e-31)
    gap = 1.25 * spec.barrier_bound
    assert temperature_limit(gap) == pytest.approx(
        global_temperature_bound(1e-6, 9.1e-31), rel=1e-12)


def test_limit_linear_in_gap():
    assert temperature_limit(2e-25) == pytest.approx(2.0 * temperature_limit(1e-25),
                                                     rel=1e-15)


def test_wien_zero_and_round_trip():
    assert wien_peak_frequency(0.0) == 0.0
    hbar = PAPER_CONSTANTS.hbar
    for t in (1.1e-3, 0.3, 77.0):
        gap = hbar * wien_peak_frequency(t)
        assert temperature_limit(gap) == pytest.approx(t, rel=1e-12)


def test_wien_reference_value():
    assert wien_peak_frequency(1.1e-3) == pytest.approx(WIEN_AT_1P1_MK, rel=1e-9)


def test_table_geometry_within_band(table_well, table_spectrum):
    levels = {lv.index: lv for lv in table_spectrum.levels}
    gap12 = levels[2].energy - levels[1].energy
    report = thermal_report(gap12, table_well.a, table_well.m, table_well.constants)
    assert report.within_universal_band
    assert report.t_max / report.t_bound == pytest.approx(RATIO_TABLE, rel=1e-5)


def test_band_across_deep_wells():
    # every deep well with a third bound level obeys T_B < T_max < 3 T_B
    from dwell import WellSpec

    a, m = 1e-6, 9.1e-31
    probe = WellSpec(a, a, 1.0, m)
    for kappa in (12.0, 25.0, 60.0):
        for lam in (0.08, 0.3, 1.0):
            spec = WellSpec(a, lam * a, kappa * probe.barrier_bound, m)
            result = solve_below_barrier(to_dimensionless(spec))
            levels = {lv.index: lv for lv in result.levels}
            if 2 not in levels:
                continue
            gap12 = levels[2].energy - levels[1].energy
            report = thermal_report(gap12, a, m)
            assert report.within_universal_band


def test_input_validation():
    with pytest.raises(ValueError):
        temperature_limit(-1e-26)
    with pytest.raises(ValueError):
        global_temperature_bound(-1e-6, 9.1e-31)
    with pytest.raises(ValueError):
        wien_peak_frequency(-0.1)

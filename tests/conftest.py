import pytest

from dwell import (
    PAPER_CONSTANTS,
    TABLE1_WELL,
    TwoLevelSystem,
    WellSpec,
    build_eigenfunction,
    solve_below_barrier,
    to_dimensionless,
)


@pytest.fixture(scope="session")
def table_well() -> WellSpec:
    """Reference geometry: a = 1 um, b = 100 nm, k = 2e-24 J, electron mass."""
    return TABLE1_WELL


@pytest.fixture(scope="session")
def table_spectrum(table_well):
    return solve_below_barrier(to_dimensionless(table_well))


@pytest.fixture(scope="session")
def table_pair(table_well, table_spectrum):
    levels = {lv.index: lv for lv in table_spectrum.levels}
    psi0 = build_eigenfunction(table_well, levels[0])
    psi1 = build_eigenfunction(table_well, levels[1])
    return psi0, psi1


@pytest.fixture(scope="session")
def two_level(table_well) -> TwoLevelSystem:
    return TwoLevelSystem.from_well(table_well)


@pytest.fixture(scope="session")
def deep_well() -> WellSpec:
    """k = 40 B, b = 0.8 a: many levels below the barrier, near-coalesced pairs."""
    a, m = 1e-6, PAPER_CONSTANTS.m_e
    probe = WellSpec(a, 0.8 * a, 1e-24, m, PAPER_CONSTANTS)
    return WellSpec(a, 0.8 * a, 40.0 * probe.barrier_bound, m, PAPER_CONSTANTS)

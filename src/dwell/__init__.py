"""Spectra, eigenfunctions, two-level dynamics, and coherence measures of
symmetric double square wells, with an independent finite-difference
cross-check for every spectral result."""

from .density import (
    CompositeState,
    DensityMatrix,
    change_basis,
    coherence_magnitude,
    expectation,
    is_pure,
    reduce_state,
    reference_states,
)
from .dynamics import (
    BASIS_CHANGE,
    Basis,
    HarmonicDrive,
    TwoByTwoOperator,
    TwoLevelSystem,
    flip_flop,
    perturbation_matrices,
    rabi_localized,
    rabi_off_resonance,
    transition_amplitude,
    x_expectation,
)
from .grid_oracle import (
    GridHamiltonian,
    aligned_size,
    build_grid_hamiltonian,
    eigenvector,
    lowest_eigenvalues,
)
from .spectrum import (
    BoundReport,
    EnergyLevel,
    Gap01,
    GapSearchResult,
    SpectrumResult,
    SweepRow,
    condition_functions,
    find_b_for_gap,
    gap01,
    gap_sweep,
    lowest_pair,
    solve_below_barrier,
    solve_pair,
    verify_bounds,
)
from .thermal import (
    ThermalLimit,
    global_temperature_bound,
    temperature_limit,
    thermal_report,
    wien_peak_frequency,
)
from .units import (
    CODATA_CONSTANTS,
    PAPER_CONSTANTS,
    PhysicalConstants,
    ScaledWell,
    WellSpec,
    barrier_bound,
    constants_from_env,
    from_dimensionless,
    to_dimensionless,
)
from .wavefunction import (
    LocalizedState,
    PiecewiseEigenfunction,
    build_eigenfunction,
    count_nodes,
    dipole_matrix_element,
    localized_state_value,
    position_matrix_element,
)

__version__ = "0.1.0"

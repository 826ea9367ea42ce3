"""Spectra, eigenfunctions, two-level dynamics, and coherence measures of
symmetric double square wells, with an independent finite-difference
cross-check for every spectral result.

The names below are exported lazily (PEP 562): `import dwell` loads no
submodule, and `dwell.X` or `from dwell import X` imports X's submodule
on first use.  The spectrum, the eigenfunctions and their dipole
element, TwoLevelSystem.from_well, the closed-form traces at a Python
number, the 2x2 operators and the density matrices run on `math` and
Python complex, so code that needs only those never pays for numpy."""

import importlib

_EXPORTS = {name: module for module, names in {
    "density": ("CompositeState", "DensityMatrix", "abs_det", "change_basis",
                "coherence_magnitude", "expectation", "is_pure", "reduce_state",
                "reference_states"),
    "dynamics": ("Basis", "HarmonicDrive", "TwoByTwoOperator", "TwoLevelSystem", "flip_flop",
                 "perturbation_matrices", "rabi_localized", "rabi_off_resonance",
                 "transition_amplitude", "x_expectation"),
    "grid_oracle": ("GridHamiltonian", "aligned_size", "build_grid_hamiltonian",
                    "eigenvector", "lowest_eigenvalues"),
    "spectrum": ("BoundReport", "EnergyLevel", "Gap01", "GapSearchResult", "SpectrumResult",
                 "SweepRow", "find_b_for_gap", "gap01", "gap_sweep",
                 "solve_below_barrier", "verify_bounds"),
    "thermal": ("ThermalLimit", "global_temperature_bound", "temperature_limit",
                "thermal_report", "wien_peak_frequency"),
    "units": ("CODATA_CONSTANTS", "PAPER_CONSTANTS", "PhysicalConstants", "ScaledWell",
              "TABLE1_B_VALUES", "TABLE1_WELL", "WellSpec", "to_dimensionless"),
    "wavefunction": ("LocalizedState", "PiecewiseEigenfunction", "build_eigenfunction",
                     "dipole_matrix_element", "position_matrix_element"),
}.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

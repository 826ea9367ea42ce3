import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dwell import (
    Basis,
    CompositeState,
    DensityMatrix,
    TwoByTwoOperator,
    abs_det,
    change_basis,
    coherence_magnitude,
    expectation,
    is_pure,
    reduce_state,
    reference_states,
)
from dwell.density import _min_eigenvalue
from dwell.errors import AmbiguousPurity, BasisMismatch

RNG = np.random.default_rng(20240817)


def _random_state() -> CompositeState:
    c = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
    return CompositeState(c / np.linalg.norm(c))


def _random_product_state() -> CompositeState:
    u = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
    w = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
    c = np.outer(u / np.linalg.norm(u), w / np.linalg.norm(w))
    return CompositeState(c)


def test_reference_states_classification():
    labels = []
    for label, state in reference_states():
        labels.append((label, is_pure(state)))
    kinds = [pure for _, pure in labels]
    assert kinds == [True, True, True, False, False, False]


def test_reference_states_determinants():
    dets = [abs(np.linalg.det(state.coeffs)) for _, state in reference_states()]
    assert dets[0] < 1e-15 and dets[1] < 1e-15 and dets[2] < 1e-12
    assert dets[3] == pytest.approx(0.5, abs=1e-15)
    assert dets[4] == pytest.approx(0.5, abs=1e-15)
    assert dets[5] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_abs_det_and_purity_are_numpys_bits_on_the_reference_states():
    # the density command prints both; on floats they round as numpy does
    for _, state in reference_states():
        c = np.asarray(state.coeffs)
        rho = c.conj() @ c.T
        assert abs_det(state).hex() == float(abs(np.linalg.det(c))).hex()
        assert reduce_state(state).purity.hex() == float(np.real(np.trace(rho @ rho))).hex()


def test_2x2_algebra_agrees_with_numpy():
    rng = np.random.default_rng(31)
    o = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)  # the basis change
    for _ in range(2000):
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        state = CompositeState(c / np.linalg.norm(c))
        c = np.asarray(state.coeffs)
        rho = reduce_state(state)
        m = np.asarray(rho.matrix)
        assert abs(abs_det(state) - abs(np.linalg.det(c))) <= 1e-15
        assert abs(rho.purity - np.trace(m @ m).real) <= 1e-15
        assert abs(_min_eigenvalue(rho.matrix) - np.linalg.eigvalsh(m).min()) <= 1e-15
        f = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        f = f + f.conj().T
        value = expectation(rho, TwoByTwoOperator(f, Basis.ENERGY))
        assert abs(value - np.trace(f @ m).real) <= 1e-15
        assert np.max(np.abs(np.asarray(rho.rotated().matrix)
                             - o @ m @ o)) <= 1e-15


def test_abs_det_of_a_subnormal_pivot():
    # 1/pivot overflows, so the pivot divides instead, as in reference LAPACK
    for c, det in (([[1e-320, 1.0], [0.0, 0.0]], 0.0),
                   ([[5e-324, 1.0], [5e-324, 0.0]], 5e-324),
                   ([[1e-320, 0.6], [1e-321, 0.8]], 7.4e-321)):
        assert abs_det(CompositeState(c)) == pytest.approx(det, abs=2e-323)
    assert is_pure(CompositeState([[1e-320, 1.0], [0.0, 0.0]]))


def test_purity_criteria_agree():
    # |det c| = 0 iff Tr(rho^2) = 1, on the six references and random draws
    for _, state in reference_states():
        assert is_pure(state) == (abs(reduce_state(state).purity - 1.0) < 1e-10)
    for _ in range(200):
        state = _random_product_state()
        assert is_pure(state)
        assert reduce_state(state).purity == pytest.approx(1.0, abs=1e-10)


def test_ambiguous_band_is_reported():
    s = 1e-10
    c = np.array([[math.sqrt(1.0 - s * s), 0.0], [0.0, s]])
    with pytest.raises(AmbiguousPurity):
        is_pure(CompositeState(c))


def test_reduce_projector():
    state = CompositeState(np.array([[1.0, 0.0], [0.0, 0.0]]))
    rho = reduce_state(state)
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))
    assert rho.purity == pytest.approx(1.0)


def test_reduce_maximally_mixed():
    s2 = 1.0 / math.sqrt(2.0)
    state = CompositeState(np.array([[0.0, s2], [s2, 0.0]]))  # psi+ phi_b + psi- phi_a
    rho = reduce_state(state)
    assert np.allclose(rho.matrix, 0.5 * np.eye(2), atol=1e-15)
    assert rho.purity == pytest.approx(0.5, abs=1e-12)


def test_reduce_preserves_trace_randomized():
    for _ in range(1000):
        rho = reduce_state(_random_state())
        assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-12


def _localized_mixture(c_l: complex, c_r: complex) -> CompositeState:
    """c_L psi_L phi_a + c_R psi_R phi_b expressed over {psi+-} x {phi_a, phi_b}."""
    s2 = 1.0 / math.sqrt(2.0)
    coeffs = np.array([[c_l * s2, c_r * s2], [c_l * s2, -c_r * s2]])
    return CompositeState(coeffs)


def test_localized_mixture_reduces_to_diagonal():
    for _ in range(200):
        amp = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
        c_l, c_r = amp / np.linalg.norm(amp)
        rho = change_basis(reduce_state(_localized_mixture(c_l, c_r)), Basis.LOCALIZED)
        expected = np.diag([abs(c_l) ** 2, abs(c_r) ** 2])
        assert np.max(np.abs(rho.matrix - expected)) <= 1e-12


def test_localized_mixture_expectation_pipeline():
    # reduce -> rotate -> Tr(f rho) equals the classical weighted average
    for _ in range(1000):
        amp = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
        c_l, c_r = amp / np.linalg.norm(amp)
        f = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        f = f + f.conj().T
        rho = change_basis(reduce_state(_localized_mixture(c_l, c_r)), Basis.LOCALIZED)
        observable = TwoByTwoOperator(f, Basis.LOCALIZED)
        value = expectation(rho, observable)
        classical = (abs(c_l) ** 2 * f[0, 0].real + abs(c_r) ** 2 * f[1, 1].real)
        assert value == pytest.approx(classical, abs=1e-10)


def test_expectation_identity_and_linearity():
    rho = reduce_state(_random_state())
    eye = TwoByTwoOperator(np.eye(2), Basis.ENERGY)
    assert expectation(rho, eye) == pytest.approx(1.0, abs=1e-12)
    for _ in range(100):
        f = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        f = f + f.conj().T
        g = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        g = g + g.conj().T
        lhs = expectation(rho, TwoByTwoOperator(f + 2.0 * g, Basis.ENERGY))
        rhs = (expectation(rho, TwoByTwoOperator(f, Basis.ENERGY))
               + 2.0 * expectation(rho, TwoByTwoOperator(g, Basis.ENERGY)))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_expectation_brute_force_sum():
    for _ in range(100):
        rho = reduce_state(_random_state())
        f = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        f = f + f.conj().T
        value = expectation(rho, TwoByTwoOperator(f, Basis.ENERGY))
        brute = sum(f[jp, j] * rho.matrix[j][jp] for j in range(2) for jp in range(2))
        assert value == pytest.approx(brute.real, abs=1e-12)
        assert abs(brute.imag) <= 1e-12


def test_expectation_basis_mismatch():
    rho = reduce_state(_random_state())
    with pytest.raises(BasisMismatch):
        expectation(rho, TwoByTwoOperator(np.eye(2), Basis.LOCALIZED))


def test_expectation_rejects_non_hermitian():
    rho = reduce_state(_random_state())
    with pytest.raises(ValueError):
        expectation(rho, TwoByTwoOperator(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                          Basis.ENERGY))


def test_change_basis_identity_commutes():
    rho = DensityMatrix(0.5 * np.eye(2), Basis.ENERGY)
    rotated = change_basis(rho, Basis.LOCALIZED)
    assert np.allclose(rotated.matrix, 0.5 * np.eye(2), atol=1e-16)
    assert rotated.basis is Basis.LOCALIZED


def test_change_basis_projector_has_maximal_coherences():
    rho = DensityMatrix(np.diag([1.0, 0.0]), Basis.ENERGY)
    rotated = change_basis(rho, Basis.LOCALIZED)
    assert np.allclose(rotated.matrix, 0.5 * np.ones((2, 2)), atol=1e-15)
    assert coherence_magnitude(rotated) == pytest.approx(0.5, abs=1e-15)


def test_change_basis_round_trip_and_purity():
    for _ in range(200):
        rho = reduce_state(_random_state())
        rotated = change_basis(rho, Basis.LOCALIZED)
        assert abs(rotated.purity - rho.purity) <= 1e-12
        back = change_basis(rotated, Basis.ENERGY)
        assert np.max(np.abs(np.asarray(back.matrix) - np.asarray(rho.matrix))) <= 1e-14


def test_change_basis_noop():
    rho = reduce_state(_random_state())
    assert change_basis(rho, Basis.ENERGY) is rho


def test_coherence_zero_for_diagonal():
    rho = DensityMatrix(np.diag([0.3, 0.7]), Basis.LOCALIZED)
    assert coherence_magnitude(rho) == 0.0


def test_coherence_positivity_bound():
    for _ in range(500):
        rho = reduce_state(_random_state())
        p0, p1 = rho.populations
        assert coherence_magnitude(rho) <= math.sqrt(p0 * p1) + 1e-12


def test_composite_state_validation():
    with pytest.raises(ValueError):
        CompositeState(np.eye(2))  # norm 2, not 1
    with pytest.raises(ValueError):
        CompositeState(np.ones((2, 3)) / math.sqrt(6.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_composite_state_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError):
        CompositeState(np.array([[bad, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        CompositeState.from_terms({("+", "alpha"): bad})
    with pytest.raises(ValueError):
        CompositeState.from_terms({("+", "alpha"): 1.0, ("-", "beta"): bad})


def test_from_terms_normalizes_an_amplitude_whose_square_overflows_or_underflows():
    for amp in (1e200, 1e-200, 1e200j):
        assert CompositeState.from_terms({("+", "alpha"): amp}).coeffs == (
            (amp / abs(amp), 0j), (0j, 0j))
    with pytest.raises(ValueError, match="zero state"):
        CompositeState.from_terms({("+", "alpha"): 0.0})


# entries in steps of 1e-3, so that no product at a scale 10^k, k in
# [-300, 300], is subnormal
_PARTS = st.lists(st.integers(-1000, 1000).map(lambda i: i / 1000.0), min_size=8, max_size=8)


@settings(derandomize=True, deadline=None, database=None)
@given(k=st.integers(-300, 300), parts=_PARTS)
@example(k=-300, parts=[0.0] * 8)  # the zero state raises at both scales
def test_from_terms_normalizes_at_any_amplitude_scale(k, parts):
    keys = [(j, e) for j in ("+", "-") for e in ("alpha", "beta")]
    terms = {key: complex(re, im) for key, re, im in zip(keys, parts[::2], parts[1::2])}
    scaled = {key: v * 10.0**k for key, v in terms.items()}
    try:
        unit = CompositeState.from_terms(terms).coeffs
    except ValueError:  # the zero state, at either scale
        with pytest.raises(ValueError, match="zero state"):
            CompositeState.from_terms(scaled)
        return
    got = CompositeState.from_terms(scaled).coeffs
    assert max(abs(a - b) for ra, rb in zip(unit, got) for a, b in zip(ra, rb)) <= 1e-15


@settings(derandomize=True, deadline=None, database=None)
@given(k=st.integers(-300, 300), parts=_PARTS)
@example(k=300, parts=[0.0] * 8)  # a zero observable is valid, and gives exactly 0.0
def test_expectation_checks_the_observable_at_its_own_scale(k, parts):
    rho = DensityMatrix([[0.5, 0.5j], [-0.5j, 0.5]], Basis.ENERGY)
    f = (np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(2, 2)
    f = f + f.conj().T
    scale = 10.0**k
    unit = expectation(rho, TwoByTwoOperator(f, Basis.ENERGY))
    value = expectation(rho, TwoByTwoOperator(f * scale, Basis.ENERGY))
    assert abs(value - unit * scale) <= 1e-15 * scale * np.max(np.abs(f))
    with pytest.raises(ValueError, match="must be Hermitian"):
        expectation(rho, TwoByTwoOperator([[0, scale], [0, 0]], Basis.ENERGY))
    skew = np.array([[1.0, 1.0 + 1e-11], [1.0, 1.0]])  # stray imaginary part 5e-12
    with pytest.raises(ValueError, match="stray imaginary part"):
        expectation(rho, TwoByTwoOperator(skew * scale, Basis.ENERGY))


def test_from_terms_names_an_unknown_label():
    with pytest.raises(ValueError, match=r"\('\+', 'x'\).*\['alpha', 'beta'\]"):
        CompositeState.from_terms({("+", "x"): 1.0})
    with pytest.raises(ValueError, match=r"\('0', 'alpha'\).*\['\+', '-'\]"):
        CompositeState.from_terms({("0", "alpha"): 1.0})


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.1], [0.4, 0.5]]), Basis.ENERGY)
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.7]), Basis.ENERGY)
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.2, 0.0], [0.0, -0.2]]), Basis.ENERGY)

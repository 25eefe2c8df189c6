"""Property tests of the beamforming solvers on well-conditioned arrays.

No excitation beats the optimum, and the optimum keeps its directivity under
any complex scale. The compensated excitation realizes the optimum under a
random well-conditioned coupling matrix. Gain stays below the coupled
directivity whenever there is loss, and the gain-optimal excitation has at
least the compensated excitation's gain. Every tolerance is a multiple of
machine epsilon times the reported cond(Z) (and cond(C) where C enters).

The stacked substitution that every steering solve goes through solves each
system of a stack bit for bit as it would alone, with residuals at the
backward-error bound of triangular substitution, and a zero pivot in one
system flags that system only.
"""

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from superdir import (  # noqa: E402
    ArrayGeometry,
    CouplingMatrix,
    ElementPattern,
    coupled_beamforming,
    coupled_directivity,
    gain,
    gain_optimal_beamforming,
    impedance_matrix,
    optimal_beamforming,
    steering_vector,
)
from superdir.arraymodel import ANALYTIC_KINDS  # noqa: E402
from superdir.beamform import _substitute  # noqa: E402

# same examples on every run, no example database, and a bounded run time;
# each example builds one impedance matrix on the default quadrature
BOUNDED = settings(derandomize=True, database=None, max_examples=60, deadline=5000)

EPS = np.finfo(float).eps
UNIT = st.floats(min_value=-1.0, max_value=1.0)
ANGLE = st.floats(min_value=0.0, max_value=2.0 * np.pi)
# a complex scale of modulus 1e-3 to 1e3 at any phase
SCALES = st.builds(lambda r, p: r * np.exp(1j * p), st.floats(min_value=1e-3, max_value=1e3), ANGLE)
LOSSY = st.floats(min_value=0.05, max_value=0.99)


@st.composite
def arrays(draw):
    """(Z, e, M): 1-5 elements 0.1-0.5 wavelengths apart, steered off any element null."""
    count = draw(st.integers(1, 5))
    geometry = ArrayGeometry(count, draw(st.floats(min_value=0.1, max_value=0.5)))
    pattern = ElementPattern.from_kind(draw(st.sampled_from(ANALYTIC_KINDS)))
    theta0 = draw(st.floats(min_value=0.0, max_value=np.pi))
    phi0 = draw(ANGLE)
    assume(abs(pattern.evaluate(theta0, phi0)) > 1e-2)
    impedance = impedance_matrix(geometry, pattern)
    return impedance, steering_vector(geometry, pattern, theta0, phi0), count


@st.composite
def excitations(draw, count):
    values = draw(st.lists(st.builds(complex, UNIT, UNIT), min_size=count, max_size=count))
    vector = np.array(values)
    assume(np.linalg.norm(vector) > 1e-3)
    return vector


@st.composite
def couplings(draw, count):
    """C = I + E with ||E||_2 <= spread < 1, so cond(C) <= (1 + spread) / (1 - spread) <= 19."""
    entries = draw(st.lists(st.builds(complex, UNIT, UNIT), min_size=count * count, max_size=count * count))
    spread = draw(st.floats(min_value=0.0, max_value=0.9))
    # every entry has modulus <= sqrt(2), so ||E||_F <= sqrt(2) * count before scaling
    perturbation = spread * np.array(entries).reshape(count, count) / (np.sqrt(2.0) * count)
    return CouplingMatrix.prescribed(np.eye(count) + perturbation)


def _tolerance(solution, coupling=None):
    """Relative tolerance: 100 eps times the reported cond(Z), times cond(C) if given."""
    scale = solution.condition_number
    if coupling is not None:
        scale *= np.linalg.cond(coupling.values)
    return 100.0 * EPS * scale


@BOUNDED
@given(st.data())
def test_no_excitation_beats_the_optimum(data):
    impedance, steering, count = data.draw(arrays())
    excitation = data.draw(excitations(count))
    optimum = optimal_beamforming(impedance, steering)
    identity = CouplingMatrix.identity(count)
    realized = coupled_directivity(impedance, identity, steering, excitation)
    assert realized <= optimum.directivity * (1.0 + _tolerance(optimum))


@BOUNDED
@given(arrays(), SCALES)
def test_the_optimum_keeps_its_directivity_under_any_complex_scale(case, scale):
    impedance, steering, count = case
    optimum = optimal_beamforming(impedance, steering)
    identity = CouplingMatrix.identity(count)
    realized = coupled_directivity(impedance, identity, steering, scale * optimum.excitation)
    assert realized == pytest.approx(optimum.directivity, rel=_tolerance(optimum))


@BOUNDED
@given(st.data())
def test_compensation_realizes_the_optimum_under_a_random_coupling(data):
    impedance, steering, count = data.draw(arrays())
    coupling = data.draw(couplings(count))
    optimum = optimal_beamforming(impedance, steering)
    compensated = coupled_beamforming(impedance, coupling, steering)
    realized = coupled_directivity(impedance, coupling, steering, compensated.excitation)
    tolerance = _tolerance(optimum, coupling)
    assert realized == pytest.approx(optimum.directivity, rel=tolerance)
    assert compensated.directivity == pytest.approx(optimum.directivity, rel=tolerance)


@BOUNDED
@given(st.data())
def test_gain_is_below_the_coupled_directivity_whenever_there_is_loss(data):
    impedance, steering, count = data.draw(arrays())
    coupling = data.draw(couplings(count))
    excitation = data.draw(excitations(count))
    efficiency = data.draw(LOSSY)
    directivity = coupled_directivity(impedance, coupling, steering, excitation)
    assert gain(impedance, coupling, steering, excitation, efficiency) < directivity
    assert gain(impedance, coupling, steering, excitation, 1.0) == directivity


@BOUNDED
@given(st.data())
def test_the_gain_optimum_has_at_least_the_compensated_gain(data):
    impedance, steering, count = data.draw(arrays())
    coupling = data.draw(couplings(count))
    efficiency = data.draw(LOSSY)
    best = gain_optimal_beamforming(impedance, coupling, steering, efficiency)
    compensated = coupled_beamforming(impedance, coupling, steering)
    best_gain = gain(impedance, coupling, steering, best.excitation, efficiency)
    compensated_gain = gain(impedance, coupling, steering, compensated.excitation, efficiency)
    assert best_gain >= compensated_gain * (1.0 - _tolerance(best, coupling))


# ---- the stacked substitution ---------------------------------------------------


@st.composite
def triangular_stacks(draw):
    """(R, b): S = 1-6 upper-triangular R of size M = 1-12 and complex right-hand sides b (S, M).

    R = D (I + N) with |D_kk| in [1, 2] and N strictly upper with entries in
    [-1, 1] / M, so ||N||_2 < 1 / sqrt(2) and cond(R) < 12.
    """
    count = draw(st.integers(1, 6))
    size = draw(st.integers(1, 12))
    shape = (count, size, size)
    entries = draw(st.lists(UNIT, min_size=count * size * size, max_size=count * size * size))
    upper = np.triu(np.reshape(entries, shape), 1) / size
    moduli = draw(st.lists(st.floats(min_value=1.0, max_value=2.0), min_size=count * size,
                           max_size=count * size))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=count * size, max_size=count * size))
    scale = (np.array(moduli) * np.array(signs)).reshape(count, size, 1)
    factors = scale * (np.eye(size) + upper)
    rhs = draw(st.lists(st.builds(complex, UNIT, UNIT), min_size=count * size, max_size=count * size))
    return factors, np.reshape(rhs, (count, size))


def _bytes(solve):
    return [np.asarray(part).tobytes() for part in solve]


@BOUNDED
@given(triangular_stacks())
def test_each_stacked_system_is_its_single_solve_bit_for_bit(stack):
    factors, rhs = stack
    stacked = _substitute(factors, rhs)
    for s in range(rhs.shape[0]):
        alone = _substitute(factors[s:s + 1], rhs[s:s + 1])
        assert _bytes(part[s:s + 1] for part in stacked) == _bytes(alone)


@BOUNDED
@given(triangular_stacks())
def test_substitution_residuals_are_within_the_backward_error_bound(stack):
    factors, rhs = stack
    x, y, dmax, pivots = _substitute(factors, rhs)
    assert not pivots.any()
    size = rhs.shape[1]
    for r, b, xs, ys, d in zip(factors, rhs, x, y, dmax):
        bound = 10.0 * size * EPS * np.linalg.norm(r, 2)
        assert np.linalg.norm(r.T @ ys - b) <= bound * np.linalg.norm(ys)
        assert np.linalg.norm(r @ xs - ys) <= bound * np.linalg.norm(xs)
        assert d == pytest.approx(np.vdot(ys, ys).real, rel=size * EPS)


@BOUNDED
@given(triangular_stacks(), st.data())
def test_a_zero_pivot_flags_only_its_own_system(stack, data):
    factors, rhs = stack
    count, size = rhs.shape
    singular = data.draw(st.integers(0, count - 1))
    pivot = data.draw(st.integers(0, size - 1))
    clean = _substitute(factors, rhs)
    factors = factors.copy()
    factors[singular, pivot, pivot] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a zero pivot raises no NumPy warning
        flagged = _substitute(factors, rhs)
    expected = np.zeros(count, dtype=int)
    expected[singular] = pivot + 1
    assert flagged[3].tolist() == expected.tolist()
    assert not np.isfinite(flagged[0][singular]).all()
    others = np.arange(count) != singular
    assert _bytes(part[others] for part in flagged) == _bytes(part[others] for part in clean)

"""Property tests of fields on one shared grid: synthesis, estimation, fitting.

Synthetic active fields are the element field times the array factor of a
coupling column, and the library estimate recovers that coupling. A field
built from known mode coefficients fits back to them on both fit paths. A
sample set rejects a repeated direction and accepts directions 1 ulp apart.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from superdir import (  # noqa: E402
    ArrayGeometry,
    CouplingMatrix,
    DomainError,
    ElementFieldLibrary,
    ElementPattern,
    FieldSampleSet,
    basis_matrix,
    build_coefficient_set,
    default_fit_grid,
    default_truncation,
    evaluate_array_pattern,
    isolated_fields_synthetic,
    mode_count,
    synthesize_coupled_fields,
)
from superdir import swe  # noqa: E402

# same examples on every run, no example database, and a bounded run time;
# fewer examples than the reader tests, since each one fits a field set
BOUNDED = settings(derandomize=True, database=None, max_examples=40, deadline=5000)

EPS = np.finfo(float).eps
UNIT = st.floats(min_value=-1.0, max_value=1.0)
PATTERNS = st.sampled_from(("hertzian-dipole", "half-wave-dipole"))


@st.composite
def coupled_arrays(draw):
    """(geometry, pattern, C): 1-4 elements 0.1-0.5 wavelengths apart, C = I + E.

    ||E||_2 <= spread < 1, so cond(C) <= (1 + spread) / (1 - spread) <= 19.
    """
    count = draw(st.integers(1, 4))
    geometry = ArrayGeometry(count, draw(st.floats(min_value=0.1, max_value=0.5)))
    entries = draw(st.lists(st.builds(complex, UNIT, UNIT), min_size=count * count, max_size=count * count))
    spread = draw(st.floats(min_value=0.0, max_value=0.9))
    # every entry has modulus <= sqrt(2), so ||E||_F <= sqrt(2) * count before scaling
    perturbation = spread * np.array(entries).reshape(count, count) / (np.sqrt(2.0) * count)
    coupling = CouplingMatrix.prescribed(np.eye(count) + perturbation)
    return geometry, ElementPattern.from_kind(draw(PATTERNS)), coupling


@BOUNDED
@given(coupled_arrays())
def test_active_fields_are_the_element_field_times_a_coupling_column(case):
    geometry, pattern, coupling = case
    grid = default_fit_grid(3)
    theta, phi = grid[:, 0], grid[:, 1]
    active = synthesize_coupled_fields(isolated_fields_synthetic(geometry, pattern, grid), coupling)
    e_th, e_ph = pattern.polarized(theta, phi)
    isotropic = ElementPattern.isotropic()
    for n, field in enumerate(active):
        # the isotropic array pattern of column n is sum_m c_mn exp(j k z_m cos theta)
        factor = evaluate_array_pattern(geometry, isotropic, coupling.values[:, n], theta, phi)
        scale = np.sum(np.abs(coupling.values[:, n]))
        np.testing.assert_allclose(field.etheta, e_th * factor, rtol=0.0, atol=64 * EPS * scale)
        np.testing.assert_allclose(field.ephi, e_ph * factor, rtol=0.0, atol=64 * EPS * scale)


@BOUNDED
@given(coupled_arrays())
def test_library_estimate_recovers_the_coupling(case):
    geometry, pattern, coupling = case
    truncation = default_truncation(geometry)
    isolated = isolated_fields_synthetic(geometry, pattern, default_fit_grid(truncation))
    active = synthesize_coupled_fields(isolated, coupling)
    estimate = ElementFieldLibrary(isolated, active).estimate(truncation)
    # least-squares perturbation bound: the fit's rounding, amplified by both conditions
    condition = np.linalg.cond(build_coefficient_set(isolated, truncation)) * np.linalg.cond(coupling.values)
    error = np.linalg.norm(estimate.values - coupling.values) / np.linalg.norm(coupling.values)
    assert error <= 100 * EPS * condition


@st.composite
def band_limited_fields(draw):
    """(N, q, order): coefficients of order 1-6 and a permutation of the fit grid's rows."""
    truncation = draw(st.integers(1, 6))
    modes = mode_count(truncation)
    q = np.array(draw(st.lists(st.builds(complex, UNIT, UNIT), min_size=modes, max_size=modes)))
    rows = default_fit_grid(truncation).shape[0]
    order = np.array(draw(st.permutations(range(rows))))
    return truncation, q, order


@BOUNDED
@given(band_limited_fields())
def test_band_limited_field_fits_back_to_its_coefficients_on_both_paths(case):
    truncation, q, order = case
    assume(np.any(order != np.arange(order.size)))  # any other order leaves the equiangular layout
    grid = default_fit_grid(truncation)
    values = basis_matrix(grid, truncation) @ q
    shuffled = values.reshape(-1, 2)[order].reshape(-1)
    # the basis is orthonormal on the sphere and the grid oversamples it, so cond(K) is small
    tolerance = 1e3 * EPS * max(1.0, np.linalg.norm(q))
    for directions, samples, equiangular in ((grid, values, True), (grid[order], shuffled, False)):
        assert (swe._equiangular_rows(directions, truncation) is not None) == equiangular
        coefficients, residuals = swe.solve_wave_coefficients(directions, samples, truncation)
        assert np.linalg.norm(coefficients[:, 0] - q) <= tolerance
        assert residuals[0] <= tolerance


@st.composite
def distinct_directions(draw):
    """1-12 distinct (theta, phi) rows, theta in [0, pi], phi finite and bounded."""
    rows = draw(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=np.pi), st.floats(min_value=-10.0, max_value=10.0)),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    return np.array(rows, dtype=float)


def _samples(directions):
    return FieldSampleSet(directions=directions, values=np.ones(2 * directions.shape[0], dtype=complex))


@BOUNDED
@given(distinct_directions(), st.data())
def test_a_repeated_direction_is_rejected_whatever_the_sign_of_zero(directions, data):
    index = data.draw(st.integers(0, directions.shape[0] - 1))
    repeated = directions[index].copy()
    if data.draw(st.booleans()):
        # -0.0 == 0.0, so a zero phi of either sign is the same direction
        directions[index, 1] = 0.0
        repeated[1] = -0.0
    grid = np.vstack((directions, repeated))
    order = np.array(data.draw(st.permutations(range(grid.shape[0]))))
    with pytest.raises(DomainError, match="directions contain duplicates"):
        _samples(grid[order])


@BOUNDED
@given(distinct_directions(), st.data())
def test_directions_one_ulp_apart_are_accepted(directions, data):
    row = directions[data.draw(st.integers(0, directions.shape[0] - 1))]
    neighbor = row.copy()
    if data.draw(st.booleans()):
        neighbor[0] = np.nextafter(row[0], np.pi if row[0] < np.pi / 2 else 0.0)  # stays in [0, pi]
    else:
        neighbor[1] = np.nextafter(row[1], data.draw(st.sampled_from((-np.inf, np.inf))))
    grid = np.vstack((directions, neighbor))
    assume(np.unique(grid, axis=0).shape[0] == grid.shape[0])  # the neighbor is not another drawn row
    order = np.array(data.draw(st.permutations(range(grid.shape[0]))))
    assert _samples(grid[order]).point_count == grid.shape[0]

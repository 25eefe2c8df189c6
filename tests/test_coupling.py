"""Isolated/active field synthesis and coupling-matrix estimation."""

import numpy as np
import pytest

from superdir import (
    ArrayGeometry,
    CouplingMatrix,
    DegenerateGeometryError,
    DimensionError,
    DomainError,
    ElementFieldLibrary,
    ElementPattern,
    FieldSampleSet,
    active_element_pattern,
    build_coefficient_set,
    coupling_fixture,
    default_truncation,
    estimate_coupling,
    estimate_fixture_coupling,
    evaluate_array_pattern,
    fit_wave_coefficients,
    isolated_fields_synthetic,
    synthesize_coupled_fields,
)
from superdir.arraymodel import WAVE_NUMBER
from superdir.coupling import fixture_testbed
from superdir.swe import default_fit_grid

HERTZIAN = ElementPattern.hertzian_dipole()


def _random_invertible(rng, m, spread=0.4):
    perturbation = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return CouplingMatrix.prescribed(np.eye(m) + spread * perturbation / np.sqrt(m))


def _testbed(m, spacing, truncation, pattern=HERTZIAN):
    geometry = ArrayGeometry(m, spacing)
    grid = default_fit_grid(truncation)
    return geometry, isolated_fields_synthetic(geometry, pattern, grid)


# ---- coupling matrix type ----------------------------------------------------


def test_identity_coupling_is_exact():
    c = CouplingMatrix.identity(3)
    np.testing.assert_array_equal(c.values, np.eye(3))
    assert c.source == "identity"
    assert c.estimation_residual is None


def test_coupling_matrix_must_be_square():
    with pytest.raises(DimensionError):
        CouplingMatrix.prescribed(np.ones((2, 3)))


def test_fixture_matrix_decays_geometrically_with_phase():
    c = coupling_fixture(4, gamma=0.3, beta=1.1)
    assert c.values[0, 0] == 1.0
    assert c.values[0, 1] == pytest.approx(0.3 * np.exp(-1.1j))
    assert c.values[0, 3] == pytest.approx(0.3**3 * np.exp(-3.3j))
    # this fixture is symmetric by construction; asymmetric cases are
    # exercised with prescribed matrices below
    np.testing.assert_allclose(c.values, c.values.T)
    with pytest.raises(DomainError):
        coupling_fixture(3, gamma=1.5, beta=0.0)


@pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
def test_fixture_rejects_a_non_finite_beta(beta):
    with pytest.raises(DomainError, match="beta must be finite"):
        coupling_fixture(3, gamma=0.3, beta=beta)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_coupling_matrix_values_must_be_finite(bad):
    with pytest.raises(DomainError, match="must be finite"):
        CouplingMatrix.prescribed([[1.0, bad], [0.0, 1.0]])


# ---- synthetic fields ---------------------------------------------------------


def test_first_element_field_is_the_bare_element_field():
    geometry = ArrayGeometry(3, 0.25)
    grid = default_fit_grid(3)
    fields = isolated_fields_synthetic(geometry, HERTZIAN, grid)
    e_th, e_ph = HERTZIAN.polarized(grid[:, 0], grid[:, 1])
    np.testing.assert_allclose(fields[0].etheta, e_th, atol=1e-14)
    np.testing.assert_allclose(fields[0].ephi, e_ph, atol=1e-14)


@pytest.mark.parametrize("kind", ["isotropic", "hertzian-dipole", "half-wave-dipole"])
def test_isolated_fields_match_the_per_element_loop_bit_for_bit(kind):
    geometry = ArrayGeometry(4, 0.37)
    pattern = ElementPattern.from_kind(kind)
    grid = default_fit_grid(9)
    e_th, e_ph = pattern.polarized(grid[:, 0], grid[:, 1])
    fields = isolated_fields_synthetic(geometry, pattern, grid)
    for z_m, field in zip(geometry.z_positions, fields):
        # the phase in this order is what the one-broadcast synthesis must reproduce
        shift = np.exp(1j * WAVE_NUMBER * np.cos(grid[:, 0]) * z_m)
        looped = FieldSampleSet.from_components(grid, e_th * shift, e_ph * shift)
        assert field.values.tobytes() == looped.values.tobytes()


def test_broadside_ring_carries_no_translation_phase():
    geometry = ArrayGeometry(3, 0.3)
    phi = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    ring = np.column_stack((np.full(8, np.pi / 2), phi))
    fields = isolated_fields_synthetic(geometry, HERTZIAN, ring)
    for field in fields[1:]:
        np.testing.assert_allclose(field.values, fields[0].values, atol=1e-13)


def test_axial_translation_phase_is_quarter_turn_at_quarter_wavelength():
    geometry = ArrayGeometry(2, 0.25)
    grid = np.array([[0.0, 0.0], [np.pi / 4, 0.5]])
    fields = isolated_fields_synthetic(geometry, HERTZIAN, grid)
    # element 2 at z = 0.25 toward theta = 0: phase 2 pi 0.25 cos 0 = pi/2
    ratio = fields[1].etheta[0] / fields[0].etheta[0]
    assert ratio == pytest.approx(np.exp(0.5j * np.pi), abs=1e-13)


def test_identity_coupling_leaves_fields_unchanged():
    geometry, isolated = _testbed(3, 0.2, 4)
    active = synthesize_coupled_fields(isolated, CouplingMatrix.identity(3))
    for a, s in zip(active, isolated):
        np.testing.assert_array_equal(a.values, s.values)


def test_single_off_diagonal_coupling_mixes_one_neighbor():
    geometry, isolated = _testbed(2, 0.2, 4)
    values = np.eye(2, dtype=complex)
    values[0, 1] = 0.5  # port 2 picks up half of element 1
    active = synthesize_coupled_fields(isolated, CouplingMatrix.prescribed(values))
    np.testing.assert_allclose(active[0].values, isolated[0].values, atol=1e-15)
    np.testing.assert_allclose(
        active[1].values, isolated[1].values + 0.5 * isolated[0].values, atol=1e-15
    )


def test_coupled_field_synthesis_checks_sizes():
    geometry, isolated = _testbed(3, 0.2, 3)
    with pytest.raises(DimensionError):
        synthesize_coupled_fields(isolated[:2], CouplingMatrix.identity(3))


def test_field_library_requires_one_shared_grid():
    geometry, isolated = _testbed(2, 0.2, 3)
    other_grid = default_fit_grid(4)
    moved = isolated_fields_synthetic(geometry, HERTZIAN, other_grid)
    with pytest.raises(DimensionError):
        ElementFieldLibrary(isolated=isolated, active=moved)


# ---- coefficient sets ----------------------------------------------------------


def test_single_element_coefficients_match_the_direct_fit():
    geometry, isolated = _testbed(1, 0.1, 3)
    stacked = build_coefficient_set(isolated, 3)
    direct = fit_wave_coefficients(isolated[0], 3)
    assert stacked.shape == (30, 1)
    np.testing.assert_allclose(stacked[:, 0], direct.coefficients, atol=1e-12)


def test_translated_element_coefficients_are_independent():
    geometry, isolated = _testbed(3, 0.15, default_truncation(ArrayGeometry(3, 0.15)))
    qs = build_coefficient_set(isolated, default_truncation(geometry))
    assert np.linalg.matrix_rank(qs) == 3


def test_coupled_coefficients_satisfy_the_construction_identity():
    truncation = default_truncation(ArrayGeometry(3, 0.2))
    geometry, isolated = _testbed(3, 0.2, truncation)
    rng = np.random.default_rng(60)
    c_true = _random_invertible(rng, 3)
    active = synthesize_coupled_fields(isolated, c_true)
    qs = build_coefficient_set(isolated, truncation)
    qc = build_coefficient_set(active, truncation)
    misfit = np.linalg.norm(qs @ c_true.values - qc) / np.linalg.norm(qc)
    assert misfit < 1e-9


# ---- estimation ------------------------------------------------------------------


def test_identical_fields_estimate_the_identity():
    truncation = default_truncation(ArrayGeometry(2, 0.25))
    geometry, isolated = _testbed(2, 0.25, truncation)
    qs = build_coefficient_set(isolated, truncation)
    estimate = estimate_coupling(qs, qs)
    np.testing.assert_allclose(estimate.values, np.eye(2), atol=1e-10)
    assert estimate.source == "estimated"
    assert estimate.estimation_residual < 1e-12


@pytest.mark.parametrize("m", [2, 3, 4])
def test_estimation_round_trip_recovers_random_coupling(m):
    geometry = ArrayGeometry(m, 0.12)
    truncation = default_truncation(geometry)
    grid = default_fit_grid(truncation)
    isolated = isolated_fields_synthetic(geometry, HERTZIAN, grid)
    rng = np.random.default_rng(70 + m)
    c_true = _random_invertible(rng, m)
    active = synthesize_coupled_fields(isolated, c_true)
    estimate = estimate_coupling(
        build_coefficient_set(isolated, truncation),
        build_coefficient_set(active, truncation),
    )
    error = np.linalg.norm(estimate.values - c_true.values) / np.linalg.norm(c_true.values)
    assert error < 1e-8


def test_estimation_with_noise_degrades_gracefully():
    geometry = ArrayGeometry(3, 0.15)
    truncation = default_truncation(geometry)
    grid = default_fit_grid(truncation)
    isolated = isolated_fields_synthetic(geometry, HERTZIAN, grid)
    rng = np.random.default_rng(61)
    c_true = _random_invertible(rng, 3)
    active = synthesize_coupled_fields(isolated, c_true)
    noisy = []
    for field in active:
        scale = 1e-6 * np.linalg.norm(field.values) / np.sqrt(field.values.size)
        noise = scale * (
            rng.standard_normal(field.values.size)
            + 1j * rng.standard_normal(field.values.size)
        )
        noisy.append(type(field)(directions=field.directions, values=field.values + noise))
    estimate = estimate_coupling(
        build_coefficient_set(isolated, truncation),
        build_coefficient_set(noisy, truncation),
    )
    error = np.linalg.norm(estimate.values - c_true.values) / np.linalg.norm(c_true.values)
    assert error < 1e-4
    assert estimate.estimation_residual > 0.0


def test_estimate_preserves_asymmetry():
    geometry = ArrayGeometry(2, 0.2)
    truncation = default_truncation(geometry)
    grid = default_fit_grid(truncation)
    isolated = isolated_fields_synthetic(geometry, HERTZIAN, grid)
    values = np.array([[1.0, 0.4 - 0.1j], [0.1 + 0.2j, 1.0]])
    active = synthesize_coupled_fields(isolated, CouplingMatrix.prescribed(values))
    estimate = estimate_coupling(
        build_coefficient_set(isolated, truncation),
        build_coefficient_set(active, truncation),
    )
    assert abs(estimate.values[0, 1] - estimate.values[1, 0]) > 0.1
    np.testing.assert_allclose(estimate.values, values, atol=1e-9)


def test_estimate_is_invariant_under_global_field_rescaling():
    geometry = ArrayGeometry(3, 0.18)
    truncation = default_truncation(geometry)
    grid = default_fit_grid(truncation)
    isolated = isolated_fields_synthetic(geometry, HERTZIAN, grid)
    rng = np.random.default_rng(62)
    c_true = _random_invertible(rng, 3)
    active = synthesize_coupled_fields(isolated, c_true)

    def estimate_with_scale(scale):
        iso = [type(f)(directions=f.directions, values=scale * f.values) for f in isolated]
        act = [type(f)(directions=f.directions, values=scale * f.values) for f in active]
        return estimate_coupling(
            build_coefficient_set(iso, truncation), build_coefficient_set(act, truncation)
        ).values

    base = estimate_with_scale(1.0)
    for scale in (3.7, 0.001 - 2.4j):
        np.testing.assert_allclose(estimate_with_scale(scale), base, atol=1e-9)


def test_degenerate_isolated_fields_are_rejected_with_rank():
    geometry, isolated = _testbed(2, 0.2, 12)
    duplicated = [isolated[0], isolated[0]]
    qs = build_coefficient_set(duplicated, 12)
    with pytest.raises(DegenerateGeometryError) as info:
        estimate_coupling(qs, qs)
    assert info.value.effective_rank == 1


def test_fixture_estimation_pipeline_recovers_the_fixture():
    geometry = ArrayGeometry(3, 0.1)
    estimate = estimate_fixture_coupling(geometry, HERTZIAN, gamma=0.3, beta=1.2)
    fixture = coupling_fixture(3, 0.3, 1.2)
    np.testing.assert_allclose(estimate.values, fixture.values, atol=1e-8)
    assert estimate.source == "estimated"
    assert estimate.estimation_residual < 1e-9


def test_fixture_testbed_feeds_the_library_estimate():
    geometry = ArrayGeometry(3, 0.1)
    trunc, fixture, isolated, active = fixture_testbed(geometry, HERTZIAN, 0.3, 1.2)
    assert trunc == default_truncation(geometry)
    np.testing.assert_array_equal(fixture.values, coupling_fixture(3, 0.3, 1.2).values)
    np.testing.assert_array_equal(isolated[0].directions, default_fit_grid(trunc))
    estimate = ElementFieldLibrary(isolated, active).estimate(trunc)
    # 0 and None both mean the automatic order in the pipeline
    for automatic in (None, 0):
        again = estimate_fixture_coupling(geometry, HERTZIAN, 0.3, 1.2, truncation=automatic)
        assert again.values.tobytes() == estimate.values.tobytes()
        assert again.estimation_residual == estimate.estimation_residual


def test_fixture_testbed_rejects_an_explicit_zero_order():
    with pytest.raises(DomainError, match="truncation order"):
        fixture_testbed(ArrayGeometry(2, 0.2), HERTZIAN, 0.3, 1.2, truncation=0)


def test_synthetic_fields_reject_non_finite_phi():
    grid = default_fit_grid(2)
    grid[3, 1] = np.nan
    with pytest.raises(DomainError, match="phi must be finite"):
        isolated_fields_synthetic(ArrayGeometry(2, 0.2), HERTZIAN, grid)


def test_default_truncation_follows_the_enclosing_sphere():
    # radius = length/2 + 0.25, then the ceil(2 pi r) + 10 rule
    assert default_truncation(ArrayGeometry(2, 0.5)) == 14  # r = 0.5
    assert default_truncation(ArrayGeometry(4, 0.5)) == 17  # r = 1.0
    assert default_truncation(ArrayGeometry(1, 0.3)) == 12  # r = 0.25


# ---- active element patterns -------------------------------------------------


def test_identity_coupling_active_pattern_is_the_isolated_pattern():
    geometry = ArrayGeometry(3, 0.25)
    c = CouplingMatrix.identity(3)
    theta, phi = 0.7, 1.1
    for element in (1, 2, 3):
        value = active_element_pattern(geometry, HERTZIAN, c, element, theta, phi)
        phase = np.exp(
            2j * np.pi * np.cos(theta) * geometry.z_positions[element - 1]
        )
        assert value == pytest.approx(HERTZIAN.evaluate(theta, phi) * phase, rel=1e-12)


def test_opposed_coupling_cancels_broadside():
    geometry = ArrayGeometry(2, 0.3)
    values = np.array([[1.0, 0.0], [-1.0, 0.0]])  # port 1 drives both, anti-phase
    c = CouplingMatrix.prescribed(values)
    value = active_element_pattern(
        geometry, ElementPattern.isotropic(), c, 1, np.pi / 2, 0.4
    )
    assert abs(value) < 1e-14


def test_active_pattern_matches_the_array_pattern_of_a_coupling_column():
    geometry = ArrayGeometry(3, 0.2)
    rng = np.random.default_rng(63)
    c = _random_invertible(rng, 3)
    theta = rng.uniform(0.1, np.pi - 0.1, 6)
    phi = rng.uniform(0.0, 2.0 * np.pi, 6)
    for element in (1, 2, 3):
        via_active = active_element_pattern(geometry, HERTZIAN, c, element, theta, phi)
        via_array = evaluate_array_pattern(
            geometry, HERTZIAN, c.values[:, element - 1], theta, phi
        )
        np.testing.assert_allclose(via_active, via_array, atol=1e-14)


def test_coupled_pattern_is_the_sum_of_active_patterns():
    geometry = ArrayGeometry(3, 0.17)
    rng = np.random.default_rng(64)
    c = _random_invertible(rng, 3)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    theta = rng.uniform(0.1, np.pi - 0.1, 5)
    phi = rng.uniform(0.0, 2.0 * np.pi, 5)
    summed = sum(
        b[n] * active_element_pattern(geometry, HERTZIAN, c, n + 1, theta, phi)
        for n in range(3)
    )
    direct = evaluate_array_pattern(geometry, HERTZIAN, c.values @ b, theta, phi)
    np.testing.assert_allclose(summed, direct, atol=1e-12)


def test_active_pattern_index_bounds():
    geometry = ArrayGeometry(2, 0.2)
    c = CouplingMatrix.identity(2)
    with pytest.raises(DomainError):
        active_element_pattern(geometry, HERTZIAN, c, 0, 0.5, 0.5)
    with pytest.raises(DomainError):
        active_element_pattern(geometry, HERTZIAN, c, 3, 0.5, 0.5)

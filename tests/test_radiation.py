"""Sphere quadrature, the normalized impedance matrix, and directivity."""

import itertools

import mpmath
import numpy as np
import pytest

from oracles import brute_force_directivity, dipole_lag
from superdir import radiation
from superdir import (
    AccuracyError,
    ArrayGeometry,
    ConditioningError,
    DegenerateInputError,
    DomainError,
    ElementPattern,
    ImpedanceMatrix,
    SphereQuadrature,
    default_quadrature,
    directivity,
    impedance_matrix,
)
from superdir.arraymodel import ANALYTIC_KINDS, WAVE_NUMBER


def _sinc_matrix(geometry):
    """Closed-form isotropic impedance matrix z_mn = sinc(2 pi d_mn).

    Analytic evaluation of the radiated-power integral for unit patterns;
    completely independent of the library quadrature.
    """
    z = geometry.z_positions
    arg = 2.0 * np.pi * np.abs(z[:, None] - z[None, :])
    out = np.ones_like(arg)
    off = arg > 0
    out[off] = np.sin(arg[off]) / arg[off]
    return out


# ---- quadrature -------------------------------------------------------------


def test_quadrature_weights_positive_and_integrate_constants():
    quad = SphereQuadrature.gauss_legendre(32, 64)
    assert np.all(quad.theta_weights > 0)
    assert abs(quad.weights().sum() / (4.0 * np.pi) - 1.0) < 1e-14
    assert quad.directions().shape == (32 * 64, 2)


def test_quadrature_rejects_bad_inputs():
    with pytest.raises(DomainError):
        SphereQuadrature.gauss_legendre(0, 16)
    with pytest.raises(DomainError):
        SphereQuadrature.gauss_legendre(16, 0)
    with pytest.raises(DomainError):
        SphereQuadrature(theta=np.array([1.0]), theta_weights=np.array([-2.0]), phi_count=4)


def test_default_quadrature_is_cached_and_sized():
    quad = default_quadrature()
    assert quad is default_quadrature()
    assert quad.theta.size == 64 and quad.phi_count == 128


def test_gauss_legendre_shares_one_rule_per_pair_of_counts():
    default = default_quadrature()
    assert SphereQuadrature.gauss_legendre(64, 128) is default
    assert SphereQuadrature.gauss_legendre() is default
    assert SphereQuadrature.gauss_legendre(theta_count=64.0, phi_count=np.int64(128)) is default
    assert SphereQuadrature.gauss_legendre(64, 64) is not default
    assert default.double_density() is SphereQuadrature.gauss_legendre(128, 256)


def test_every_caller_of_a_kind_shares_its_ring_weights():
    radiation._ring_weights.cache_clear()
    for spacing in (0.1, 0.2):
        impedance_matrix(ArrayGeometry(3, spacing), ElementPattern.from_kind("half-wave-dipole"))
    info = radiation._ring_weights.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_cached_inputs_hold_private_read_only_arrays():
    # ring weights are cached by pattern and quadrature identity, so the
    # arrays behind them must not change after construction
    theta, phi = np.linspace(0.0, np.pi, 5), np.linspace(0.0, 1.5 * np.pi, 4)
    samples = np.ones((5, 4), dtype=complex)
    x, w = np.polynomial.legendre.leggauss(6)
    nodes, weights = np.arccos(x[::-1]), w[::-1].copy()
    axis = np.array([1.0, 0.0, 0.0])
    pattern = ElementPattern.sampled(theta, phi, samples)
    quad = SphereQuadrature(theta=nodes, theta_weights=weights, phi_count=8)
    dipole = ElementPattern.half_wave_dipole(axis)
    held = (pattern.theta_grid, pattern.phi_grid, pattern.samples,
            quad.theta, quad.theta_weights, dipole.axis)
    for array in held:
        with pytest.raises(ValueError):
            array[0] = array[0]
    for array in (theta, phi, samples, nodes, weights, axis):
        array[0] = array[0]  # the caller's own arrays stay writable
    theta[1] = 0.1
    assert pattern.theta_grid[1] == np.pi / 4.0


# ---- impedance matrix -------------------------------------------------------


@pytest.mark.parametrize("values, message", [
    ([[1.0, np.nan], [np.nan, 1.0]], "impedance matrix values must be finite"),
    ([[1.0, 0.0], [0.0, np.inf]], "impedance matrix values must be finite"),
    # a Cholesky factor reads one triangle, so [[1, 0.2], [0.3, 1]] would pass as its lower half
    ([[1.0, 0.2], [0.3, 1.0]], "impedance matrix must be symmetric"),
])
def test_impedance_matrix_rejects_non_finite_and_asymmetric_values(values, message):
    with pytest.raises(DomainError) as info:
        ImpedanceMatrix(values=values, condition_number=1.0)
    assert str(info.value) == message


def test_isotropic_diagonal_is_unity():
    for m, d in [(1, 0.3), (3, 0.11), (5, 0.48)]:
        z = impedance_matrix(ArrayGeometry(m, d), ElementPattern.isotropic())
        np.testing.assert_allclose(np.diag(z.values), 1.0, rtol=0, atol=1e-14)


def test_half_wavelength_pair_is_identity():
    z = impedance_matrix(ArrayGeometry(2, 0.5), ElementPattern.isotropic())
    np.testing.assert_allclose(z.values, np.eye(2), atol=1e-14)


def test_quarter_wavelength_off_diagonal_is_two_over_pi():
    z = impedance_matrix(ArrayGeometry(2, 0.25), ElementPattern.isotropic())
    assert z.values[0, 1] == pytest.approx(2.0 / np.pi, abs=1e-12)


@pytest.mark.parametrize("spacing", [0.05, 0.1, 0.25, 0.5])
def test_quadrature_matches_the_sinc_closed_form(spacing):
    geometry = ArrayGeometry(4, spacing)
    z = impedance_matrix(geometry, ElementPattern.isotropic())
    np.testing.assert_allclose(z.values, _sinc_matrix(geometry), rtol=0, atol=1e-10)


def test_impedance_is_symmetric_psd_for_dipole_patterns():
    for pattern in (ElementPattern.hertzian_dipole(), ElementPattern.half_wave_dipole()):
        z = impedance_matrix(ArrayGeometry(4, 0.15), pattern)
        np.testing.assert_array_equal(z.values, z.values.T)
        eigenvalues = np.linalg.eigvalsh(z.values)
        assert np.all(eigenvalues >= -1e-12)


def test_doubling_quadrature_density_changes_nothing_measurable():
    geometry = ArrayGeometry(4, 0.4)
    pattern = ElementPattern.half_wave_dipole()
    base = impedance_matrix(geometry, pattern)
    dense = impedance_matrix(geometry, pattern, default_quadrature().double_density())
    assert np.max(np.abs(base.values - dense.values)) < 1e-10


def test_certified_mode_accepts_the_default_rule():
    z = impedance_matrix(
        ArrayGeometry(3, 0.2), ElementPattern.isotropic(), certified=True
    )
    np.testing.assert_allclose(z.values, _sinc_matrix(ArrayGeometry(3, 0.2)), atol=1e-10)


def test_certified_builds_evaluate_the_pattern_once_per_grid(monkeypatch):
    shapes = []
    evaluate = ElementPattern.evaluate

    def counting(self, theta, phi):
        shapes.append(np.shape(theta))
        return evaluate(self, theta, phi)

    monkeypatch.setattr(ElementPattern, "evaluate", counting)
    pattern = ElementPattern.half_wave_dipole()
    for spacing in (0.2, 0.3):
        impedance_matrix(ArrayGeometry(3, spacing), pattern, certified=True)
    assert sorted(shapes) == [(64, 128), (128, 256)]


def test_certified_mode_rejects_a_rule_too_coarse_for_the_array():
    coarse = SphereQuadrature.gauss_legendre(3, 4)
    with pytest.raises(AccuracyError):
        impedance_matrix(
            ArrayGeometry(4, 0.5), ElementPattern.isotropic(), coarse, certified=True
        )


def test_diagonal_loading_adds_delta_to_the_diagonal():
    geometry = ArrayGeometry(3, 0.1)
    plain = impedance_matrix(geometry, ElementPattern.isotropic())
    loaded = impedance_matrix(geometry, ElementPattern.isotropic(), loading=0.01)
    np.testing.assert_allclose(loaded.values, plain.values + 0.01 * np.eye(3), atol=1e-15)
    assert loaded.condition_number < plain.condition_number
    for bad, message in ((-1e-3, ">= 0"), (np.nan, ">= 0"), (np.inf, "finite")):
        with pytest.raises(DomainError, match=f"diagonal loading must be {message}"):
            impedance_matrix(geometry, ElementPattern.isotropic(), loading=bad)


def _one_spacing_reference(geometry, pattern, quadrature, loading):
    """One Z as a two-dimensional build: Z, loaded Z, cond, factor and residue."""
    g = radiation._ring_weights(pattern, quadrature)
    phases = np.exp(1j * WAVE_NUMBER * np.outer(np.cos(quadrature.theta), geometry.z_positions))
    raw = (phases.T * g) @ phases.conj() / (4.0 * np.pi)
    values = 0.5 * (raw.real + raw.real.T)
    scaled = phases * np.sqrt(g / (4.0 * np.pi))[:, None]
    identity = np.eye(geometry.element_count)
    loaded = values + loading * identity if loading > 0.0 else values
    rows = np.vstack((scaled.real, scaled.imag, np.sqrt(loading) * identity))
    factor = np.linalg.qr(rows, mode="r")
    return values, loaded, np.linalg.cond(loaded), factor, np.max(np.abs(raw.imag))


@pytest.mark.parametrize("kind", ANALYTIC_KINDS)
def test_stacked_build_is_the_one_spacing_build_bit_for_bit(kind):
    # 3 node counts x 7 element counts x 2 loadings x (1 + 23 spacings); the
    # 3-node rule has fewer nodes than most of the element counts
    pattern = ElementPattern.from_kind(kind)
    grid = itertools.product(((64, 128), (16, 32), (3, 8)), (1, 2, 3, 5, 8, 12, 16), (0.0, 1e-3))
    for nodes, count, loading in grid:
        quadrature = SphereQuadrature.gauss_legendre(*nodes)
        for spacings in (np.array([0.137]), np.linspace(0.02, 0.7, 23)):
            stack = radiation._impedance_stack(spacings, count, pattern, quadrature, loading)
            assert [len(part) for part in stack] == [spacings.size] * 4
            for spacing, built, unloaded, factor, residue in zip(spacings, *stack):
                assert factor.tobytes() == built.factor.tobytes()
                geometry = ArrayGeometry(count, float(spacing))
                expected = _one_spacing_reference(geometry, pattern, quadrature, loading)
                got = (unloaded, built.values, built.condition_number, built.factor, residue)
                for value, reference in zip(got, expected):
                    assert np.asarray(value).tobytes() == np.asarray(reference).tobytes()
                if residue > radiation._IMAG_RESIDUE_TOL:
                    with pytest.raises(AccuracyError, match="imaginary residue"):
                        impedance_matrix(geometry, pattern, quadrature, loading=loading)
                    continue
                single = impedance_matrix(geometry, pattern, quadrature, loading=loading)
                assert single.values.tobytes() == built.values.tobytes()
                assert single.factor.tobytes() == built.factor.tobytes()
                assert single.condition_number == built.condition_number


def test_condition_number_grows_as_spacing_shrinks():
    pattern = ElementPattern.isotropic()
    conds = [
        impedance_matrix(ArrayGeometry(3, d), pattern).condition_number
        for d in (0.5, 0.2, 0.05)
    ]
    assert conds[0] < conds[1] < conds[2]


# ---- directivity ------------------------------------------------------------


def test_single_isotropic_element_has_unit_directivity_everywhere():
    geometry = ArrayGeometry(1, 0.1)
    pattern = ElementPattern.isotropic()
    z = impedance_matrix(geometry, pattern)
    rng = np.random.default_rng(21)
    for theta, phi in zip(rng.uniform(0, np.pi, 5), rng.uniform(0, 2 * np.pi, 5)):
        assert directivity(geometry, pattern, z, [1.0], theta, phi) == pytest.approx(1.0, abs=1e-12)


def test_broadside_pair_at_half_wavelength_gives_two():
    geometry = ArrayGeometry(2, 0.5)
    pattern = ElementPattern.isotropic()
    z = impedance_matrix(geometry, pattern)
    value = directivity(geometry, pattern, z, [1.0, 1.0], np.pi / 2, 0.0)
    assert value == pytest.approx(2.0, abs=1e-12)


def test_close_pair_directivity_matches_direct_integration():
    geometry = ArrayGeometry(2, 0.05)
    pattern = ElementPattern.isotropic()
    z = impedance_matrix(geometry, pattern)
    quad_form = directivity(geometry, pattern, z, [1.0, 1.0], np.pi / 2, 0.0)
    brute = brute_force_directivity(geometry, pattern, [1.0, 1.0], np.pi / 2, 0.0)
    assert quad_form == pytest.approx(brute, rel=1e-8)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_quadratic_form_equals_brute_force_for_random_excitations(m):
    rng = np.random.default_rng(100 + m)
    geometry = ArrayGeometry(m, float(rng.uniform(0.08, 0.5)))
    for pattern in (ElementPattern.isotropic(), ElementPattern.hertzian_dipole()):
        z = impedance_matrix(geometry, pattern)
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        theta0 = float(rng.uniform(0.2, np.pi - 0.2))
        phi0 = float(rng.uniform(0.3, 1.0))
        quad_form = directivity(geometry, pattern, z, a, theta0, phi0)
        brute = brute_force_directivity(geometry, pattern, a, theta0, phi0)
        assert quad_form == pytest.approx(brute, rel=1e-8)


def test_directivity_is_invariant_under_excitation_scaling():
    geometry = ArrayGeometry(3, 0.2)
    pattern = ElementPattern.isotropic()
    z = impedance_matrix(geometry, pattern)
    rng = np.random.default_rng(22)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    base = directivity(geometry, pattern, z, a, 0.4, 1.2)
    for _ in range(5):
        scale = complex(rng.standard_normal(), rng.standard_normal())
        scaled = directivity(geometry, pattern, z, scale * a, 0.4, 1.2)
        assert scaled == pytest.approx(base, rel=1e-12)


def test_zero_excitation_is_rejected():
    geometry = ArrayGeometry(2, 0.3)
    pattern = ElementPattern.isotropic()
    z = impedance_matrix(geometry, pattern)
    with pytest.raises(DegenerateInputError):
        directivity(geometry, pattern, z, [0.0, 0.0], 0.5, 0.5)


def test_nonpositive_radiated_power_is_flagged():
    geometry = ArrayGeometry(2, 0.3)
    pattern = ElementPattern.isotropic()
    z = impedance_matrix(geometry, pattern)
    broken = type(z)(values=-z.values, condition_number=z.condition_number)
    with pytest.raises(ConditioningError):
        directivity(geometry, pattern, broken, [1.0, 0.5], 0.5, 0.5)


@pytest.mark.parametrize("kind", ["hertzian-dipole", "half-wave-dipole"])
@pytest.mark.parametrize("spacing", [0.01, 0.05, 0.1, 0.3, 0.7])
def test_dipole_impedance_lags_match_their_closed_forms(kind, spacing):
    # x-directed dipoles side by side along z; the worst deviation today is 8.9e-16
    z = impedance_matrix(ArrayGeometry(2, spacing), ElementPattern.from_kind(kind)).values
    lag = float(dipole_lag(kind, 2 * mpmath.pi * mpmath.mpf(spacing)))
    diagonal = float(dipole_lag(kind, 0))
    np.testing.assert_allclose(z, [[diagonal, lag], [lag, diagonal]], rtol=0.0, atol=1e-14)

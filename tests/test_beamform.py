"""Optimal excitations, coupled compensation, and gain under ohmic loss."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from oracles import (
    brute_force_directivity,
    dipole_endfire_dmax,
    endfire_pair_dmax,
    isotropic_endfire_dmax,
)
from superdir import (
    ArrayGeometry,
    CouplingMatrix,
    DegenerateInputError,
    DomainError,
    ElementPattern,
    ImpedanceMatrix,
    SingularMatrixError,
    SphereQuadrature,
    coupled_beamforming,
    coupled_directivity,
    directivity,
    gain,
    gain_optimal_beamforming,
    impedance_matrix,
    loss_resistance,
    optimal_beamforming,
    steering_vector,
)

ISO = ElementPattern.isotropic()


def _setup(m, spacing, theta0=0.0, phi0=0.0, pattern=ISO):
    geometry = ArrayGeometry(m, spacing)
    z = impedance_matrix(geometry, pattern)
    e = steering_vector(geometry, pattern, theta0, phi0)
    return geometry, z, e


def _random_coupling(rng, m, spread=0.35):
    """Well-conditioned random coupling: identity plus a moderate perturbation."""
    perturbation = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return CouplingMatrix.prescribed(np.eye(m) + spread * perturbation / np.sqrt(m))


# ---- uncoupled optimum ------------------------------------------------------


def test_single_element_solution_is_trivial():
    geometry, z, e = _setup(1, 0.2, theta0=1.0)
    solution = optimal_beamforming(z, e)
    np.testing.assert_allclose(solution.excitation, [1.0], atol=1e-12)
    assert solution.directivity == pytest.approx(1.0, abs=1e-12)


def test_half_wavelength_broadside_pair_reaches_two():
    geometry, z, e = _setup(2, 0.5, theta0=np.pi / 2)
    solution = optimal_beamforming(z, e)
    assert solution.directivity == pytest.approx(2.0, abs=1e-9)
    # uniform in-phase excitation at unit power
    np.testing.assert_allclose(solution.excitation, [1 / np.sqrt(2)] * 2, atol=1e-9)


def test_close_endfire_pair_matches_the_closed_form():
    geometry, z, e = _setup(2, 0.05, theta0=0.0)
    solution = optimal_beamforming(z, e)
    assert solution.directivity == pytest.approx(endfire_pair_dmax(0.05), rel=1e-10)
    assert solution.directivity == pytest.approx(3.9735, abs=1e-3)


def test_optimum_agrees_with_the_rayleigh_quotient_evaluation():
    geometry, z, e = _setup(3, 0.12, theta0=0.0)
    solution = optimal_beamforming(z, e)
    direct = directivity(geometry, ISO, z, solution.excitation, 0.0, 0.0)
    assert direct == pytest.approx(solution.directivity, rel=1e-8)


def test_optimum_equals_the_generalized_eigenvalue():
    # the directivity quotient is a generalized eigenproblem with a rank-one
    # numerator; an off-the-shelf dense eigensolver provides the oracle
    geometry, z, e = _setup(4, 0.1, theta0=0.0)
    solution = optimal_beamforming(z, e)
    numerator = np.outer(e.values.conj(), e.values)
    eigenvalues = scipy.linalg.eigvals(numerator, z.values)
    finite = np.real(eigenvalues[np.isfinite(eigenvalues)])
    assert solution.directivity == pytest.approx(np.max(finite), rel=1e-9)
    # rank-one numerator: every other eigenvalue is numerically zero
    rest = np.sort(np.abs(finite))[:-1]
    assert np.all(rest < 1e-6 * solution.directivity)


def test_solution_is_normalized_to_unit_radiated_power():
    for m, d, th in [(2, 0.5, np.pi / 2), (3, 0.1, 0.0), (4, 0.07, 0.0)]:
        geometry, z, e = _setup(m, d, theta0=th)
        a = optimal_beamforming(z, e).excitation
        power = float(np.real(a @ z.values @ a.conj()))
        assert power == pytest.approx(1.0, abs=1e-10)


def test_no_random_excitation_beats_the_optimum():
    geometry, z, e = _setup(3, 0.15, theta0=0.0)
    best = optimal_beamforming(z, e)
    rng = np.random.default_rng(31)
    for _ in range(200):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        value = directivity(geometry, ISO, z, a, 0.0, 0.0)
        assert value <= best.directivity * (1.0 + 1e-9)


def test_perturbing_the_optimum_never_helps():
    geometry, z, e = _setup(4, 0.1, theta0=0.0)
    best = optimal_beamforming(z, e)
    rng = np.random.default_rng(32)
    for _ in range(1000):
        noise = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        perturbed = best.excitation + 1e-3 * noise
        value = directivity(geometry, ISO, z, perturbed, 0.0, 0.0)
        assert value <= best.directivity * (1.0 + 1e-9)


def test_directivity_approaches_the_squared_element_count_at_small_spacing():
    for m in (2, 3):
        geometry, z, e = _setup(m, 0.01, theta0=0.0)
        solution = optimal_beamforming(z, e)
        assert solution.directivity >= 0.99 * m * m


def test_half_wavelength_broadside_reaches_element_count_exactly():
    for m in (2, 4):
        geometry, z, e = _setup(m, 0.5, theta0=np.pi / 2)
        assert optimal_beamforming(z, e).directivity == pytest.approx(m, abs=1e-9)


@pytest.mark.parametrize("m", [8, 10, 12])
@pytest.mark.parametrize("spacing", [0.05, 0.1])
def test_ill_conditioned_optimum_matches_the_50_digit_oracle(m, spacing):
    # cond(Z) runs from 1e11 to 1e17 here; the factor solve loses sqrt(cond(Z))
    geometry, z, e = _setup(m, spacing, theta0=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        dmax = optimal_beamforming(z, e).directivity
    tolerance = 1e-4 if (m, spacing) == (12, 0.05) else 1e-6
    assert dmax == pytest.approx(isotropic_endfire_dmax(m, spacing), rel=tolerance)


# Relative error of today's endfire optimum against dipole_endfire_dmax at
# d = 0.05, 0.1, 0.2 and 0.3 wavelengths. Each case is held to 10x its figure,
# and never below 1e-13. The loose cases (over 1e-10) lose digits to cond(Z)
# in the phase-table factor of Z; the spherical-mode factor of Z on the
# ROADMAP is to tighten them to 1e-10.
DIPOLE_ENDFIRE_ERRORS = {
    ("hertzian-dipole", 4): (2.8e-14, 1.4e-14, 9.0e-15, 7.9e-15),
    ("hertzian-dipole", 8): (2.9e-10, 6.0e-12, 9.6e-14, 2.7e-14),
    ("hertzian-dipole", 12): (2.3e-6, 4.3e-10, 9.4e-13, 1.8e-14),
    ("half-wave-dipole", 4): (3.7e-14, 1.0e-14, 8.6e-15, 8.4e-15),
    ("half-wave-dipole", 8): (1.7e-10, 1.7e-12, 9.9e-14, 2.7e-14),
    ("half-wave-dipole", 12): (7.1e-6, 3.2e-9, 5.2e-12, 4.0e-14),
}
DIPOLE_ENDFIRE_CASES = [
    pytest.param(kind, m, spacing, max(10.0 * error, 1e-13),
                 id=f"{kind}-{m}-{spacing}" + ("-loose" if 10.0 * error > 1e-10 else ""))
    for (kind, m), errors in DIPOLE_ENDFIRE_ERRORS.items()
    for spacing, error in zip((0.05, 0.1, 0.2, 0.3), errors)
]


@pytest.mark.parametrize("kind, m, spacing, tolerance", DIPOLE_ENDFIRE_CASES)
def test_dipole_endfire_optimum_matches_the_closed_form_oracle(kind, m, spacing, tolerance):
    pattern = ElementPattern.from_kind(kind)
    geometry, z, e = _setup(m, spacing, theta0=0.0, pattern=pattern)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        dmax = optimal_beamforming(z, e).directivity
    assert dmax == pytest.approx(dipole_endfire_dmax(kind, m, spacing), rel=tolerance)


# Relative error of today's optimum toward theta0 = pi/3, phi0 = pi/2 against the
# same oracles at d = 0.05, 0.1, 0.2 and 0.3 wavelengths, held as the endfire
# cases are. Off endfire the steering phase carries cos(theta0), and at
# phi0 = pi/2 both x-directed dipole patterns are 1, so the lags still hold.
STEERED_ERRORS = {
    ("isotropic", 4): (3.5e-14, 9.3e-15, 1.1e-15, 6.9e-16),
    ("isotropic", 8): (3.5e-10, 3.0e-12, 1.7e-14, 1.6e-15),
    ("isotropic", 12): (4.1e-6, 3.6e-10, 2.9e-13, 2.3e-14),
    ("hertzian-dipole", 4): (2.0e-14, 1.7e-16, 7.0e-16, 8.7e-16),
    ("hertzian-dipole", 8): (1.0e-10, 3.3e-12, 3.3e-14, 2.7e-15),
    ("hertzian-dipole", 12): (3.1e-6, 8.9e-10, 1.6e-13, 1.3e-14),
    ("half-wave-dipole", 4): (6.9e-15, 7.8e-15, 1.6e-16, 4.7e-16),
    ("half-wave-dipole", 8): (2.3e-10, 3.5e-12, 2.1e-14, 1.1e-15),
    ("half-wave-dipole", 12): (1.7e-7, 7.2e-11, 1.2e-14, 1.3e-14),
}
STEERED_CASES = [
    pytest.param(kind, m, spacing, max(10.0 * error, 1e-13),
                 id=f"{kind}-{m}-{spacing}" + ("-loose" if 10.0 * error > 1e-10 else ""))
    for (kind, m), errors in STEERED_ERRORS.items()
    for spacing, error in zip((0.05, 0.1, 0.2, 0.3), errors)
]


@pytest.mark.parametrize("kind, m, spacing, tolerance", STEERED_CASES)
def test_steered_optimum_matches_the_closed_form_oracle(kind, m, spacing, tolerance):
    pattern = ElementPattern.from_kind(kind)
    geometry, z, e = _setup(m, spacing, theta0=np.pi / 3, phi0=np.pi / 2, pattern=pattern)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        dmax = optimal_beamforming(z, e).directivity
    if kind == "isotropic":
        expected = isotropic_endfire_dmax(m, spacing, theta0=np.pi / 3)
    else:
        expected = dipole_endfire_dmax(kind, m, spacing, theta0=np.pi / 3)
    assert dmax == pytest.approx(expected, rel=tolerance)


def test_half_wave_dipole_oracle_agrees_with_the_benchmark_oracle():
    # perfbench/oracle.py reaches 68.06987796659328518... by a Taylor series of the same lags
    assert dipole_endfire_dmax("half-wave-dipole", 8, 0.1) == pytest.approx(68.06987796659328, rel=1e-15)


@pytest.mark.parametrize("kind", ["hertzian-dipole", "half-wave-dipole"])
def test_dipole_oracle_carries_enough_digits_at_twelve_elements(kind):
    assert dipole_endfire_dmax(kind, 12, 0.05) == pytest.approx(
        dipole_endfire_dmax(kind, 12, 0.05, digits=150), rel=1e-14
    )


@pytest.mark.parametrize("spacing", [0.01, 0.02, 0.05])
def test_endfire_oracle_carries_enough_digits_at_sixteen_elements(spacing):
    # at a fixed 50 digits the oracle returned 228.045 for 255.916 at 0.01 wavelengths
    assert isotropic_endfire_dmax(16, spacing) == pytest.approx(
        isotropic_endfire_dmax(16, spacing, digits=150), rel=1e-12
    )


def test_optimum_rises_as_the_spacing_shrinks_and_survives_identity_coupling():
    # superdirectivity: D_max grows monotonically toward M^2 as d -> 0
    identity = CouplingMatrix.identity(8)
    dmax = []
    for spacing in np.linspace(0.02, 0.3, 29):
        geometry, z, e = _setup(8, spacing, theta0=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            best = optimal_beamforming(z, e).directivity
            compensated = coupled_beamforming(z, identity, e)
        assert compensated.directivity == pytest.approx(best, rel=1e-6)
        assert gain(z, identity, e, compensated.excitation, 1.0) == pytest.approx(best, rel=1e-6)
        dmax.append(best)
    assert np.all(np.diff(dmax) < 0.0)
    assert dmax[0] < 64.0


def test_singular_impedance_is_reported():
    rank_one = ImpedanceMatrix(values=np.ones((2, 2)), condition_number=np.inf)
    e = steering_vector(ArrayGeometry(2, 0.1), ISO, 0.0, 0.0)
    with pytest.raises(SingularMatrixError) as info:
        optimal_beamforming(rank_one, e)
    assert info.value.condition_number == np.inf


def test_fewer_quadrature_nodes_than_elements_is_singular():
    # 2 theta nodes give the factor 4 rows for 5 elements: an exact zero pivot
    geometry = ArrayGeometry(5, 0.3)
    z = impedance_matrix(geometry, ISO, SphereQuadrature.gauss_legendre(2, 4))
    e = steering_vector(geometry, ISO, 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SingularMatrixError, match="zero pivot"):
            optimal_beamforming(z, e)


def test_ill_conditioned_impedance_warns():
    geometry, z, e = _setup(2, 0.1, theta0=0.0)
    shifted = ImpedanceMatrix(values=z.values, condition_number=1e13)
    with pytest.warns(RuntimeWarning, match="condition number"):
        optimal_beamforming(shifted, e)


@pytest.mark.parametrize(
    "solve",
    [
        lambda z, c, e: optimal_beamforming(z, e),
        lambda z, c, e: coupled_beamforming(z, c, e),
        lambda z, c, e: gain_optimal_beamforming(z, c, e, 1.0),
    ],
    ids=["optimal", "coupled", "gain-optimal"],
)
def test_ill_conditioning_warning_points_at_the_caller(solve):
    geometry, z, e = _setup(12, 0.05, theta0=0.0)
    assert z.condition_number > 1e12
    with pytest.warns(RuntimeWarning, match="condition number") as record:
        solve(z, CouplingMatrix.identity(12), e)
    assert record[0].filename == __file__


def test_steering_null_is_a_degenerate_input():
    # the half-wave dipole has a null along its own axis
    pattern = ElementPattern.half_wave_dipole()
    geometry = ArrayGeometry(2, 0.2)
    z = impedance_matrix(geometry, pattern)
    e = steering_vector(geometry, pattern, np.pi / 2, 0.0)
    with pytest.raises(DegenerateInputError):
        optimal_beamforming(z, e)


# ---- coupled optimum --------------------------------------------------------


def test_identity_coupling_reproduces_the_uncoupled_solution():
    geometry, z, e = _setup(3, 0.1, theta0=0.0)
    uncoupled = optimal_beamforming(z, e)
    coupled = coupled_beamforming(z, CouplingMatrix.identity(3), e)
    np.testing.assert_allclose(coupled.excitation, uncoupled.excitation, atol=1e-10)
    assert coupled.directivity == pytest.approx(uncoupled.directivity, rel=1e-12)


def test_scalar_coupling_leaves_the_directivity_unchanged():
    geometry, z, e = _setup(3, 0.1, theta0=0.0)
    base = coupled_beamforming(z, CouplingMatrix.identity(3), e).directivity
    for alpha in (2.0, -0.5, 1.3 - 0.4j):
        scaled = CouplingMatrix.prescribed(alpha * np.eye(3))
        assert coupled_beamforming(z, scaled, e).directivity == pytest.approx(base, rel=1e-12)


def test_compensated_excitation_beats_the_naive_one_under_coupling():
    geometry, z, e = _setup(4, 0.1, theta0=0.0)
    naive = optimal_beamforming(z, e).excitation
    rng = np.random.default_rng(33)
    strictly_better = 0
    for _ in range(100):
        coupling = _random_coupling(rng, 4)
        d_naive = coupled_directivity(z, coupling, e, naive)
        d_comp = coupled_beamforming(z, coupling, e).directivity
        assert d_comp >= d_naive - 1e-9
        if d_comp > d_naive + 1e-6:
            strictly_better += 1
    # equality requires C proportional to the identity, which random draws
    # essentially never produce
    assert strictly_better == 100


def test_compensated_directivity_restores_the_uncoupled_optimum():
    geometry, z, e = _setup(4, 0.1, theta0=0.0)
    dmax = optimal_beamforming(z, e).directivity
    rng = np.random.default_rng(34)
    for _ in range(10):
        coupling = _random_coupling(rng, 4)
        assert coupled_beamforming(z, coupling, e).directivity == pytest.approx(dmax, rel=1e-8)


def test_coupled_solution_is_normalized_to_unit_radiated_power():
    geometry, z, e = _setup(3, 0.12, theta0=0.0)
    rng = np.random.default_rng(35)
    coupling = _random_coupling(rng, 3)
    b = coupled_beamforming(z, coupling, e).excitation
    w = coupling.values @ b
    assert float(np.real(w @ z.values @ w.conj())) == pytest.approx(1.0, abs=1e-10)


def test_coupled_directivity_consistency_and_scale_invariance():
    geometry, z, e = _setup(3, 0.15, theta0=0.0)
    rng = np.random.default_rng(36)
    coupling = _random_coupling(rng, 3)
    solution = coupled_beamforming(z, coupling, e)
    value = coupled_directivity(z, coupling, e, solution.excitation)
    assert value == pytest.approx(solution.directivity, rel=1e-12)
    for _ in range(5):
        scale = complex(rng.standard_normal(), rng.standard_normal())
        scaled = coupled_directivity(z, coupling, e, scale * solution.excitation)
        assert scaled == pytest.approx(value, rel=1e-12)


def test_coupled_directivity_matches_direct_pattern_integration():
    # the field radiated by port excitation b is the ordinary array pattern
    # of the effective excitation C b, so the dense-grid integration oracle
    # applies to the product
    geometry, z, e = _setup(2, 0.2, theta0=np.pi / 3, phi0=0.7)
    rng = np.random.default_rng(37)
    coupling = _random_coupling(rng, 2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    quotient = coupled_directivity(z, coupling, e, b)
    brute = brute_force_directivity(
        geometry, ISO, coupling.values @ b, np.pi / 3, 0.7
    )
    assert quotient == pytest.approx(brute, rel=1e-8)


def test_random_coupled_perturbations_never_beat_the_compensated_optimum():
    geometry, z, e = _setup(4, 0.1, theta0=0.0)
    rng = np.random.default_rng(38)
    coupling = _random_coupling(rng, 4)
    best = coupled_beamforming(z, coupling, e)
    for _ in range(1000):
        noise = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        value = coupled_directivity(z, coupling, e, best.excitation + 1e-3 * noise)
        assert value <= best.directivity * (1.0 + 1e-9)


def test_singular_coupling_is_reported():
    geometry, z, e = _setup(2, 0.2, theta0=0.0)
    singular = CouplingMatrix.prescribed(np.ones((2, 2)))
    with pytest.raises(SingularMatrixError):
        coupled_beamforming(z, singular, e)


# ---- gain -------------------------------------------------------------------


def test_loss_resistance_values():
    assert loss_resistance(1.0) == 0.0
    assert loss_resistance(0.5) == pytest.approx(1.0)
    assert loss_resistance(0.96) == pytest.approx(1.0 / 24.0, rel=1e-12)
    with pytest.raises(DomainError):
        loss_resistance(0.0)
    with pytest.raises(DomainError):
        loss_resistance(1.2)
    with pytest.raises(DomainError):
        loss_resistance(-0.3)


def test_lossless_gain_equals_the_coupled_directivity():
    geometry, z, e = _setup(3, 0.15, theta0=0.0)
    rng = np.random.default_rng(39)
    coupling = _random_coupling(rng, 3)
    solution = coupled_beamforming(z, coupling, e)
    g = gain(z, coupling, e, solution.excitation, efficiency=1.0)
    assert g == pytest.approx(solution.directivity, rel=1e-12)


def test_gain_never_exceeds_directivity_and_decreases_with_loss():
    geometry, z, e = _setup(4, 0.2, theta0=0.0)
    rng = np.random.default_rng(40)
    coupling = _random_coupling(rng, 4)
    solution = coupled_beamforming(z, coupling, e)
    gains = [
        gain(z, coupling, e, solution.excitation, efficiency=eta)
        for eta in (1.0, 0.99, 0.9, 0.7, 0.5)
    ]
    assert gains[0] == pytest.approx(solution.directivity, rel=1e-12)
    for lossier, better in zip(gains[1:], gains[:-1]):
        assert lossier < better
    for g in gains[1:]:
        assert g < solution.directivity


def test_gain_optimal_excitation_dominates_in_gain():
    geometry, z, e = _setup(4, 0.1, theta0=0.0)
    rng = np.random.default_rng(41)
    coupling = _random_coupling(rng, 4)
    eta = 0.9
    directivity_optimal = coupled_beamforming(z, coupling, e)
    gain_optimal = gain_optimal_beamforming(z, coupling, e, eta)
    g_directivity = gain(z, coupling, e, directivity_optimal.excitation, eta)
    g_gain = gain(z, coupling, e, gain_optimal.excitation, eta)
    assert g_gain >= g_directivity - 1e-12
    # but it gives up some directivity in exchange
    assert gain_optimal.directivity <= directivity_optimal.directivity + 1e-9
    assert gain_optimal.loss_resistance == pytest.approx(loss_resistance(eta))


def test_gain_optimal_reduces_to_directivity_optimal_when_lossless():
    geometry, z, e = _setup(3, 0.12, theta0=0.0)
    coupling = CouplingMatrix.identity(3)
    a = coupled_beamforming(z, coupling, e)
    b = gain_optimal_beamforming(z, coupling, e, efficiency=1.0)
    np.testing.assert_allclose(b.excitation, a.excitation, atol=1e-10)

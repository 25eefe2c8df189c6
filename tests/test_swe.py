"""Spherical wave functions, mode bookkeeping, fitting, and reconstruction."""

import numpy as np
import pytest

from oracles import legendre_tables
from superdir import (
    ArrayGeometry,
    ConditioningError,
    DimensionError,
    DomainError,
    ElementPattern,
    FieldSampleSet,
    InsufficientSamplingError,
    SphereQuadrature,
    SweIndex,
    WaveCoefficientSet,
    basis_matrix,
    default_fit_grid,
    eval_spherical_wave_function,
    fit_wave_coefficients,
    index_list,
    isolated_fields_synthetic,
    mode_count,
    reconstruct_field,
    total_power,
    truncation_degree,
)
from superdir import swe
from superdir.swe import _angular_tables, solve_wave_coefficients


def _random_coefficients(rng, truncation):
    count = mode_count(truncation)
    values = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return WaveCoefficientSet(coefficients=values, truncation=truncation, residual=0.0)


# ---- truncation rule and indexing --------------------------------------------


def test_truncation_rule():
    assert truncation_degree(0.0) == 10
    assert truncation_degree(0.5) == 14
    assert truncation_degree(1.0) == 17
    with pytest.raises(DomainError):
        truncation_degree(-0.1)


def test_mode_count_and_flattened_order():
    assert mode_count(1) == 6
    assert mode_count(3) == 30
    indices = index_list(2)
    assert len(indices) == mode_count(2) == 16
    head = [(i.s, i.m, i.n) for i in indices[:6]]
    assert head == [
        (1, -1, 1),
        (2, -1, 1),
        (1, 0, 1),
        (2, 0, 1),
        (1, 1, 1),
        (2, 1, 1),
    ]
    assert (indices[6].s, indices[6].m, indices[6].n) == (1, -2, 2)
    assert (indices[-1].s, indices[-1].m, indices[-1].n) == (2, 2, 2)


def _flat_position(s, m, n):
    """Closed-form position of mode (s, m, n) in the flattened order."""
    return 2 * (n * n - 1) + 2 * (m + n) + s - 1


@pytest.mark.parametrize("truncation", range(1, 20))
def test_flattened_order_matches_its_closed_form(truncation):
    positions = [_flat_position(i.s, i.m, i.n) for i in index_list(truncation)]
    assert positions == list(range(mode_count(truncation)))
    ratio, tau = _angular_tables(truncation, np.array([0.4, 1.3]))
    for m in range(-truncation, truncation + 1):
        _, columns = swe._order_block(m, truncation, ratio, tau)
        degrees = range(max(1, abs(m)), truncation + 1)
        assert columns.tolist() == [_flat_position(s, m, n) for n in degrees for s in (1, 2)]


@pytest.mark.parametrize("bad", [2.5, 2.7, np.float64(1.5), np.nan, np.inf, "2"])
def test_non_integral_truncation_orders_are_rejected(bad):
    grid = default_fit_grid(2)
    samples = FieldSampleSet(grid, np.zeros(2 * grid.shape[0], dtype=complex))
    for taker in (
        mode_count,
        index_list,
        default_fit_grid,
        lambda n: basis_matrix(grid, n),
        lambda n: fit_wave_coefficients(samples, n),
        lambda n: WaveCoefficientSet(np.zeros(16), n, 0.0),
    ):
        with pytest.raises(DomainError, match="truncation order must be an integer"):
            taker(bad)


def test_integral_float_truncation_orders_act_as_integers():
    grid = default_fit_grid(2)
    samples = FieldSampleSet(grid, basis_matrix(grid, 2)[:, 5])
    for whole in (2.0, np.float64(2.0), np.int64(2)):
        assert mode_count(whole) == 16
        assert index_list(whole) == index_list(2)
        assert np.array_equal(default_fit_grid(whole), grid)
        assert np.array_equal(basis_matrix(grid, whole), basis_matrix(grid, 2))
        fitted = fit_wave_coefficients(samples, whole)
        stored = WaveCoefficientSet(np.zeros(16), whole, 0.0)
        for truncation in (fitted.truncation, stored.truncation):
            assert type(truncation) is int and truncation == 2


def test_index_validation():
    with pytest.raises(DomainError):
        SweIndex(s=3, m=0, n=1)
    with pytest.raises(DomainError):
        SweIndex(s=1, m=2, n=1)
    with pytest.raises(DomainError):
        SweIndex(s=1, m=0, n=0)


# ---- angular factors against the high-precision oracle -----------------------


def test_legendre_recurrences_match_the_rational_oracle():
    thetas = [0.31, np.pi / 3, 1.3, 2.1, 2.9]
    ratio, tau = _angular_tables(30, thetas)
    for n in range(1, 31):
        for m in range(0, n + 1):
            for k, theta in enumerate(thetas):
                want_ratio, want_tau = legendre_tables(n, m, theta)
                scale = max(abs(want_tau), abs(want_ratio), 1.0)
                assert abs(tau[n, m, k] - want_tau) < 1e-12 * scale
                if m >= 1:
                    assert abs(ratio[n, m, k] - want_ratio) < 1e-12 * scale


def test_wave_function_value_against_the_oracle():
    theta, phi = np.pi / 3, np.pi / 4
    want_ratio, want_tau = legendre_tables(2, 1, theta)
    scale = np.sqrt(2.0 / (2 * 3))
    common = scale * (-1.0) * np.exp(1j * phi)  # (-1)^m for m = 1
    k_th, k_ph = eval_spherical_wave_function(SweIndex(s=2, m=1, n=2), theta, phi)
    expected_th = (-1j) ** 2 * common * want_tau
    expected_ph = (-1j) ** 2 * common * 1j * want_ratio
    assert abs(k_th - expected_th) < 1e-12
    assert abs(k_ph - expected_ph) < 1e-12


def test_lowest_tm_mode_has_the_dipole_shape():
    # s=2, m=0, n=1: theta component proportional to sin(theta), no phi component
    theta = np.linspace(0.0, np.pi, 41)
    k_th, k_ph = eval_spherical_wave_function(SweIndex(s=2, m=0, n=1), theta, 0.0)
    np.testing.assert_allclose(np.abs(k_ph), 0.0, atol=1e-15)
    anchor = np.argmax(np.sin(theta))
    shape = k_th / k_th[anchor]
    np.testing.assert_allclose(shape.real, np.sin(theta), atol=1e-13)
    np.testing.assert_allclose(shape.imag, 0.0, atol=1e-13)


def test_lowest_te_mode_vanishes_in_theta_at_zero_order():
    k_th, _ = eval_spherical_wave_function(SweIndex(s=1, m=0, n=1), np.pi / 2, 1.0)
    assert k_th == 0.0


def test_pole_limits_are_finite_for_unit_order_and_zero_otherwise():
    for theta_pole in (0.0, np.pi):
        for n in (1, 2, 5):
            for m in range(-n, n + 1):
                for s in (1, 2):
                    k_th, k_ph = eval_spherical_wave_function(
                        SweIndex(s=s, m=m, n=n), theta_pole, 0.7
                    )
                    assert np.isfinite(k_th) and np.isfinite(k_ph)
                    if abs(m) == 1:
                        assert abs(k_th) > 1e-3
                    else:
                        assert abs(k_th) < 1e-13 and abs(k_ph) < 1e-13


def test_pole_values_continue_the_off_pole_limit():
    for index in (SweIndex(1, 1, 3), SweIndex(2, -1, 4), SweIndex(2, 1, 1)):
        at_pole = eval_spherical_wave_function(index, 0.0, 0.3)
        near_pole = eval_spherical_wave_function(index, 1e-7, 0.3)
        assert abs(at_pole[0] - near_pole[0]) < 1e-6
        assert abs(at_pole[1] - near_pole[1]) < 1e-6


# ---- basis matrix -------------------------------------------------------------


def test_basis_matrix_shapes():
    assert basis_matrix([(0.5, 0.5)], 1).shape == (2, 6)
    rng = np.random.default_rng(50)
    dirs = np.column_stack((rng.uniform(0.1, 3.0, 10), rng.uniform(0, 6.2, 10)))
    assert basis_matrix(dirs, 3).shape == (20, 30)


def test_te_and_tm_columns_are_orthogonal_under_quadrature():
    quad = SphereQuadrature.gauss_legendre(32, 64)
    basis = basis_matrix(quad.directions(), 1)
    w = np.repeat(quad.weights(), 2) / (4.0 * np.pi)
    indices = [(i.s, i.m, i.n) for i in index_list(1)]
    col_te = basis[:, indices.index((1, 0, 1))]
    col_tm = basis[:, indices.index((2, 0, 1))]
    inner = np.sum(w * col_te.conj() * col_tm)
    assert abs(inner) < 1e-12


def test_basis_is_orthonormal_on_a_quadrature_exact_grid():
    truncation = 5
    quad = SphereQuadrature.gauss_legendre(32, 64)
    basis = basis_matrix(quad.directions(), truncation)
    w = np.repeat(quad.weights(), 2) / (4.0 * np.pi)
    gram = (basis.conj() * w[:, None]).T @ basis
    np.testing.assert_allclose(gram, np.eye(mode_count(truncation)), atol=1e-10)


def test_basis_row_interleaving_matches_the_sample_layout():
    dirs = np.array([[0.8, 0.2], [1.9, 4.0]])
    basis = basis_matrix(dirs, 2)
    for col, index in enumerate(index_list(2)):
        k_th, k_ph = eval_spherical_wave_function(index, dirs[:, 0], dirs[:, 1])
        np.testing.assert_allclose(basis[0::2, col], k_th, atol=1e-14)
        np.testing.assert_allclose(basis[1::2, col], k_ph, atol=1e-14)


# ---- sample sets ---------------------------------------------------------------


def test_field_sample_set_interleaves_components():
    dirs = np.array([[0.5, 0.0], [1.0, 1.0]])
    samples = FieldSampleSet.from_components(dirs, [1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j])
    np.testing.assert_array_equal(samples.values, [1 + 2j, 5 + 6j, 3 + 4j, 7 + 8j])
    np.testing.assert_array_equal(samples.etheta, [1 + 2j, 3 + 4j])
    np.testing.assert_array_equal(samples.ephi, [5 + 6j, 7 + 8j])
    assert samples.point_count == 2


@pytest.mark.parametrize("directions, values, message", [
    ([[np.nan, 0.0]], [1.0, 0.0], "theta must lie"),
    ([[0.5, np.nan]], [1.0, 0.0], "phi must be finite"),
    ([[0.5, 0.0]], [np.inf, 0.0], "field values must be finite"),
    ([[0.5, 0.0]], [1.0, complex(0.0, np.nan)], "field values must be finite"),
])
def test_field_sample_set_rejects_non_finite_input(directions, values, message):
    with pytest.raises(DomainError, match=message):
        FieldSampleSet(directions=np.array(directions), values=np.array(values))


def test_basis_and_mode_functions_reject_non_finite_angles():
    with pytest.raises(DomainError, match="phi must be finite"):
        basis_matrix(np.array([[0.5, 0.0], [1.0, np.nan]]), 2)
    with pytest.raises(DomainError, match="theta must lie"):
        eval_spherical_wave_function(SweIndex(s=1, m=1, n=1), np.array([0.2, np.nan]), 0.0)


def test_field_sample_set_rejects_duplicates_and_bad_shapes():
    dirs = np.array([[0.5, 0.0], [0.5, 0.0]])
    with pytest.raises(DomainError):
        FieldSampleSet.from_components(dirs, [1.0, 2.0], [0.0, 0.0])
    with pytest.raises(DimensionError):
        FieldSampleSet(directions=np.array([[0.5, 0.0]]), values=np.array([1.0]))


# ---- fitting and reconstruction -------------------------------------------------


def test_fit_recovers_a_single_basis_mode():
    truncation = 3
    grid = default_fit_grid(truncation)
    target = [(i.s, i.m, i.n) for i in index_list(truncation)].index((2, 0, 1))
    coefficients = np.zeros(mode_count(truncation), dtype=complex)
    coefficients[target] = 1.0
    pure = WaveCoefficientSet(coefficients=coefficients, truncation=truncation, residual=0.0)
    samples = reconstruct_field(pure, grid)
    fit = fit_wave_coefficients(samples, truncation)
    assert abs(fit.coefficients[target] - 1.0) < 1e-10
    others = np.delete(fit.coefficients, target)
    assert np.max(np.abs(others)) < 1e-10
    assert fit.residual < 1e-10


def test_fit_concentrates_dipole_energy_in_the_lowest_tm_modes():
    truncation = 3
    grid = default_fit_grid(truncation)
    [field] = isolated_fields_synthetic(
        ArrayGeometry(1, 0.1), ElementPattern.hertzian_dipole(), grid
    )
    fit = fit_wave_coefficients(field, truncation)
    assert fit.residual < 1e-8
    dipole_slots = [
        i for i, idx in enumerate(index_list(truncation)) if idx.n == 1 and idx.s == 2
    ]
    energy = np.abs(fit.coefficients) ** 2
    assert energy[dipole_slots].sum() / energy.sum() > 1.0 - 1e-12


def test_fit_reconstruct_round_trip_on_coefficients():
    rng = np.random.default_rng(51)
    truncation = 4
    original = _random_coefficients(rng, truncation)
    grid = default_fit_grid(truncation)
    samples = reconstruct_field(original, grid)
    fitted = fit_wave_coefficients(samples, truncation)
    np.testing.assert_allclose(fitted.coefficients, original.coefficients, atol=1e-9)


def test_reconstruct_fit_round_trip_on_band_limited_fields():
    rng = np.random.default_rng(52)
    truncation = 4
    original = _random_coefficients(rng, truncation)
    dense = default_fit_grid(truncation + 2)
    field = reconstruct_field(original, dense)
    refit = fit_wave_coefficients(field, truncation)
    rebuilt = reconstruct_field(refit, dense)
    assert np.max(np.abs(rebuilt.values - field.values)) < 1e-9


def test_zero_and_single_coefficient_reconstructions():
    truncation = 2
    dirs = default_fit_grid(truncation)[:7]
    zero = WaveCoefficientSet(
        coefficients=np.zeros(mode_count(truncation)), truncation=truncation, residual=0.0
    )
    np.testing.assert_array_equal(reconstruct_field(zero, dirs).values, 0.0)
    coefficients = np.zeros(mode_count(truncation), dtype=complex)
    slot = 5
    coefficients[slot] = 1.0
    single = WaveCoefficientSet(coefficients=coefficients, truncation=truncation, residual=0.0)
    out = reconstruct_field(single, dirs)
    index = index_list(truncation)[slot]
    k_th, k_ph = eval_spherical_wave_function(index, dirs[:, 0], dirs[:, 1])
    np.testing.assert_allclose(out.etheta, k_th, atol=1e-14)
    np.testing.assert_allclose(out.ephi, k_ph, atol=1e-14)


def test_reconstruction_is_linear_in_the_coefficients():
    rng = np.random.default_rng(53)
    truncation = 2
    a = _random_coefficients(rng, truncation)
    b = _random_coefficients(rng, truncation)
    dirs = default_fit_grid(truncation)[:11]
    summed = WaveCoefficientSet(
        coefficients=a.coefficients + 2j * b.coefficients,
        truncation=truncation,
        residual=0.0,
    )
    lhs = reconstruct_field(summed, dirs).values
    rhs = reconstruct_field(a, dirs).values + 2j * reconstruct_field(b, dirs).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_total_power_matches_the_sphere_integral():
    rng = np.random.default_rng(54)
    truncation = 3
    coefficients = _random_coefficients(rng, truncation)
    quad = SphereQuadrature.gauss_legendre(32, 64)
    field = reconstruct_field(coefficients, quad.directions())
    intensity = np.abs(field.etheta) ** 2 + np.abs(field.ephi) ** 2
    integral = float(np.sum(intensity * quad.weights())) / (4.0 * np.pi)
    assert integral == pytest.approx(total_power(coefficients), rel=1e-8)


def test_underdetermined_fit_is_rejected():
    truncation = 3  # needs 30 equations
    dirs = default_fit_grid(truncation)[:10]  # 20 equations
    values = np.zeros(2 * dirs.shape[0], dtype=complex)
    samples = FieldSampleSet(directions=dirs, values=values)
    with pytest.raises(InsufficientSamplingError):
        fit_wave_coefficients(samples, truncation)


def test_degenerate_sampling_geometry_is_reported_with_rank():
    # all samples on a single meridian cannot separate azimuthal orders
    theta = np.linspace(0.05, np.pi - 0.05, 40)
    dirs = np.column_stack((theta, np.zeros_like(theta)))
    samples = FieldSampleSet(directions=dirs, values=np.zeros(80, dtype=complex))
    with pytest.raises(ConditioningError) as info:
        fit_wave_coefficients(samples, 2)
    assert info.value.effective_rank is not None
    assert info.value.effective_rank < mode_count(2)


def test_default_fit_grid_excludes_poles_and_oversamples():
    for truncation in (1, 4, 9):
        grid = default_fit_grid(truncation)
        assert grid.shape == ((2 * truncation + 2) * (4 * truncation + 4), 2)
        assert np.all(grid[:, 0] > 0.0) and np.all(grid[:, 0] < np.pi)
        assert 2 * grid.shape[0] >= 4 * mode_count(truncation)


# ---- order-split path on equiangular grids --------------------------------------


def _product_grid(theta, phi):
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    return np.column_stack((th.ravel(), ph.ravel()))


def _noisy_fields(rng, grid, truncation, count=2):
    modes = mode_count(truncation)
    coefficients = rng.standard_normal((modes, count)) + 1j * rng.standard_normal((modes, count))
    values = basis_matrix(grid, truncation) @ coefficients
    noise = rng.standard_normal(values.shape) + 1j * rng.standard_normal(values.shape)
    return values + 1e-3 * noise


def _shuffled(rng, grid, values):
    """The same samples in a random order, which no equiangular layout matches."""
    order = rng.permutation(grid.shape[0])
    return grid[order], values.reshape(grid.shape[0], 2, -1)[order].reshape(values.shape)


def _count_dense_builds(monkeypatch):
    calls = []
    dense = swe._real_basis_matrix

    def counting(*args, **kwargs):
        calls.append(1)
        return dense(*args, **kwargs)

    monkeypatch.setattr(swe, "_real_basis_matrix", counting)
    return calls


@pytest.mark.parametrize("truncation", [1, 4, 9])
def test_order_split_fit_matches_the_dense_fit(truncation, monkeypatch):
    rng = np.random.default_rng(60 + truncation)
    grid = default_fit_grid(truncation)
    values = _noisy_fields(rng, grid, truncation)
    shuffled_grid, shuffled_values = _shuffled(rng, grid, values)
    calls = _count_dense_builds(monkeypatch)
    dense, dense_res = solve_wave_coefficients(shuffled_grid, shuffled_values, truncation)
    assert len(calls) == 1
    split, split_res = solve_wave_coefficients(grid, values, truncation)
    assert len(calls) == 1
    assert np.max(np.abs(split - dense)) < 1e-12 * np.max(np.abs(dense))
    np.testing.assert_allclose(split_res, dense_res, rtol=0.0, atol=1e-12)
    assert np.all(split_res > 1e-6)  # the noise is really there to fit
    one = fit_wave_coefficients(FieldSampleSet(grid, values[:, 0]), truncation)
    other = fit_wave_coefficients(FieldSampleSet(shuffled_grid, shuffled_values[:, 0]), truncation)
    assert abs(one.residual - other.residual) < 1e-12
    assert abs(one.residual - split_res[0]) < 1e-12


def _polar_caps(truncation, cap):
    rows = np.linspace(cap / 4.0, cap, truncation + 1)
    columns = 2 * truncation + 2
    return _product_grid(
        np.concatenate((rows, np.pi - rows)), 2.0 * np.pi * np.arange(columns) / columns
    )


@pytest.mark.parametrize(
    "truncation, grid",
    [
        # 48 modes; 2 rows x 20 columns give 80 equations but too few theta rows
        (4, _product_grid([0.7, 2.0], 2.0 * np.pi * np.arange(20) / 20)),
        # high orders fade near the poles: their blocks fall below the global
        # cutoff (rank 148) although each clears a cutoff set by its own block
        (8, _polar_caps(8, 0.04)),
    ],
)
def test_rank_deficient_equiangular_grids_report_the_dense_rank(truncation, grid):
    values = np.random.default_rng(61).standard_normal(2 * grid.shape[0]) + 0j
    shuffled_grid, shuffled_values = _shuffled(np.random.default_rng(62), grid, values)
    swe._order_factors.cache_clear()
    ranks = []
    # the equiangular grid twice: on a cold and then a warm factor cache
    for dirs, vals in ((grid, values), (grid, values), (shuffled_grid, shuffled_values)):
        with pytest.raises(ConditioningError) as info:
            fit_wave_coefficients(FieldSampleSet(dirs, vals), truncation)
        ranks.append(info.value.effective_rank)
    assert swe._order_factors.cache_info().hits == 1
    assert ranks[0] == ranks[1] == ranks[2] < mode_count(truncation)


def test_cached_order_factors_give_the_cold_fit_bit_for_bit():
    truncation = 6
    grid = default_fit_grid(truncation)
    values = _noisy_fields(np.random.default_rng(64), grid, truncation)
    solve_wave_coefficients(grid, values, truncation)
    warm = solve_wave_coefficients(grid, values, truncation)
    swe._order_factors.cache_clear()
    cold = solve_wave_coefficients(grid, values, truncation)
    for a, b in zip(warm, cold):
        assert a.tobytes() == b.tobytes()


def test_grids_with_other_theta_rows_get_their_own_order_factors():
    truncation = 4
    columns = 2.0 * np.pi * np.arange(10) / 10
    rng = np.random.default_rng(65)
    grids = [_product_grid((np.arange(10) + shift) * np.pi / 10.5, columns)
             for shift in (0.5, 0.75)]
    fields = [_noisy_fields(rng, grid, truncation) for grid in grids]
    swe._order_factors.cache_clear()
    cold = solve_wave_coefficients(grids[1], fields[1], truncation)[0]
    swe._order_factors.cache_clear()
    solve_wave_coefficients(grids[0], fields[0], truncation)
    after_other = solve_wave_coefficients(grids[1], fields[1], truncation)[0]
    assert swe._order_factors.cache_info().misses == 2
    assert after_other.tobytes() == cold.tobytes()


@pytest.mark.parametrize(
    "phi",
    [
        2.0 * np.pi * np.arange(8) / 8,  # C = 8 < 2N + 1 aliases order 4 onto -4
        0.1 + 2.0 * np.pi * np.arange(10) / 10,  # azimuth offset
    ],
)
def test_grids_off_the_equiangular_layout_take_the_dense_path(phi, monkeypatch):
    truncation = 4
    rng = np.random.default_rng(63)
    grid = _product_grid((np.arange(10) + 0.5) * np.pi / 10, phi)
    values = _noisy_fields(rng, grid, truncation)
    shuffled_grid, shuffled_values = _shuffled(rng, grid, values)
    calls = _count_dense_builds(monkeypatch)
    coefficients, residuals = solve_wave_coefficients(grid, values, truncation)
    assert len(calls) == 1
    reference, reference_res = solve_wave_coefficients(shuffled_grid, shuffled_values, truncation)
    assert np.max(np.abs(coefficients - reference)) < 1e-12 * np.max(np.abs(reference))
    np.testing.assert_allclose(residuals, reference_res, rtol=0.0, atol=1e-12)


# ---- dense fit in real arithmetic ------------------------------------------------


def _random_directions(rng, count):
    return np.column_stack((np.arccos(rng.uniform(-1.0, 1.0, count)), rng.uniform(0.0, 2.0 * np.pi, count)))


def _complex_reference(directions, values, truncation):
    """The complex dense fit: lstsq on basis_matrix under the module's cutoff rule."""
    basis = basis_matrix(directions, truncation)
    rcond = max(basis.shape) * np.finfo(float).eps
    coefficients, _, rank, _ = np.linalg.lstsq(basis, values, rcond=rcond)
    misfit = np.linalg.norm(basis @ coefficients - values, axis=0)
    return coefficients, misfit / np.linalg.norm(values, axis=0), rank


@pytest.mark.parametrize("truncation", [1, 4, 9])
def test_modes_come_in_exact_conjugate_pairs(truncation):
    directions = _random_directions(np.random.default_rng(70 + truncation), 300)
    basis = basis_matrix(directions, truncation)
    indices = index_list(truncation)
    column = {(i.s, i.m, i.n): k for k, i in enumerate(indices)}
    for k, i in enumerate(indices):
        partner = basis[:, column[(i.s, -i.m, i.n)]]
        assert np.array_equal(np.conj(basis[:, k]), (-1.0) ** (i.s + i.m + i.n) * partner)


def _forbid_lstsq(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the dense fit reached lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)


def _real_basis_condition(directions, truncation):
    singular = np.linalg.svd(swe._real_basis_matrix(directions, truncation), compute_uv=False)
    return singular[0] / singular[-1]


@pytest.mark.parametrize("truncation", [1, 4, 9])
def test_dense_fit_matches_the_complex_least_squares(truncation, monkeypatch):
    rng = np.random.default_rng(80 + truncation)
    directions = _random_directions(rng, 3 * mode_count(truncation))
    values = _noisy_fields(rng, directions, truncation, count=4)
    values[:, 1] = values[:, 1].real  # a purely real field
    values[:, 2] = 1j * values[:, 2].imag  # and a purely imaginary one
    reference, reference_res, _ = _complex_reference(directions, values, truncation)
    _forbid_lstsq(monkeypatch)  # a well-sampled grid is solved through its Gram matrix
    coefficients, residuals = solve_wave_coefficients(directions, values, truncation)
    assert np.max(np.abs(coefficients - reference)) <= 1e-12 * np.max(np.abs(reference))
    np.testing.assert_allclose(residuals, reference_res, rtol=1e-12, atol=0.0)


def _cap_directions(rng, count, cap):
    """Uniform random directions within ``cap`` radians of the +z axis."""
    theta = np.arccos(rng.uniform(np.cos(cap), 1.0, count))
    return np.column_stack((theta, rng.uniform(0.0, 2.0 * np.pi, count)))


def test_gram_solve_needs_its_refinement_step_near_the_certified_limit(monkeypatch):
    # cond 2.5e3..4e3: the plain normal equations miss the reference by ~1e-9
    truncation = 2
    rng = np.random.default_rng(94)
    directions = _cap_directions(rng, 3 * mode_count(truncation), 0.5)
    assert 1e3 <= _real_basis_condition(directions, truncation) < 1e4
    values = _noisy_fields(rng, directions, truncation, count=4)
    reference, reference_res, _ = _complex_reference(directions, values, truncation)
    _forbid_lstsq(monkeypatch)
    coefficients, residuals = solve_wave_coefficients(directions, values, truncation)
    assert np.max(np.abs(coefficients - reference)) <= 1e-12 * np.max(np.abs(reference))
    np.testing.assert_allclose(residuals, reference_res, rtol=1e-12, atol=0.0)


def test_full_rank_grid_beyond_the_certified_limit_falls_back_to_lstsq_bit_for_bit(monkeypatch):
    truncation = 4
    rng = np.random.default_rng(95)
    directions = _cap_directions(rng, 3 * mode_count(truncation), 0.7)
    assert 1e4 < _real_basis_condition(directions, truncation) < 1e8
    values = _noisy_fields(rng, directions, truncation, count=3)
    # the SVD solve as it stood before the Gram route, on the same real basis
    basis = swe._real_basis_matrix(directions, truncation)
    parts = np.concatenate((values.real, values.imag), axis=1)
    rcond = max(basis.shape) * np.finfo(float).eps
    solution, squares, rank, _ = np.linalg.lstsq(basis, parts, rcond=rcond)
    assert rank == mode_count(truncation)
    reference = swe._complex_coefficients(solution[:, :3] + 1j * solution[:, 3:], truncation)
    reference_res = np.sqrt(squares[:3] + squares[3:]) / np.linalg.norm(values, axis=0)
    calls = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    coefficients, residuals = solve_wave_coefficients(directions, values, truncation)
    assert len(calls) == 1
    assert coefficients.tobytes() == reference.tobytes()
    assert residuals.tobytes() == reference_res.tobytes()


def test_rank_deficient_random_directions_report_the_complex_rank():
    truncation = 4
    rng = np.random.default_rng(90)
    theta = np.repeat([0.6, 2.1], 40)
    directions = np.column_stack((theta, rng.uniform(0.0, 2.0 * np.pi, theta.size)))
    values = rng.standard_normal((2 * theta.size, 2)) + 1j * rng.standard_normal((2 * theta.size, 2))
    _, _, rank = _complex_reference(directions, values, truncation)
    assert rank < mode_count(truncation)
    with pytest.raises(ConditioningError) as info:
        solve_wave_coefficients(directions, values, truncation)
    assert info.value.effective_rank == rank


def test_square_dense_fit_reports_its_residual():
    truncation = 2
    rng = np.random.default_rng(91)
    directions = _random_directions(rng, mode_count(truncation) // 2)  # 2P = 2N(N+2)
    values = rng.standard_normal((2 * directions.shape[0], 2)) + 1j * rng.standard_normal(
        (2 * directions.shape[0], 2)
    )
    coefficients, residuals = solve_wave_coefficients(directions, values, truncation)
    reference, reference_res, _ = _complex_reference(directions, values, truncation)
    assert residuals.shape == (2,)
    np.testing.assert_allclose(residuals, reference_res, rtol=0.0, atol=1e-12)
    assert np.all(residuals < 1e-10)
    assert np.max(np.abs(coefficients - reference)) <= 1e-10 * np.max(np.abs(reference))


@pytest.mark.parametrize("grid_kind", ["equiangular", "random"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_fit_rejects_non_finite_values_on_both_paths(grid_kind, bad):
    truncation = 3
    rng = np.random.default_rng(92)
    grid = default_fit_grid(truncation)
    if grid_kind == "random":
        grid = _random_directions(rng, grid.shape[0])
    values = _noisy_fields(rng, grid, truncation)
    values[5, 0] = bad
    with pytest.raises(DomainError, match="field values must be finite"):
        solve_wave_coefficients(grid, values, truncation)


@pytest.mark.parametrize("grid_kind", ["equiangular", "random"])
def test_fit_rejects_values_that_do_not_interleave_two_components(grid_kind):
    truncation = 3
    rng = np.random.default_rng(93)
    grid = default_fit_grid(truncation)
    if grid_kind == "random":
        grid = _random_directions(rng, grid.shape[0])
    values = _noisy_fields(rng, grid, truncation)
    for wrong in (values[:-1], values[:-2, 0]):
        with pytest.raises(DimensionError, match="values must interleave 2 components"):
            solve_wave_coefficients(grid, wrong, truncation)

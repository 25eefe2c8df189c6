"""Geometry, count and index checks, element patterns, steering vectors, and the array pattern sum."""

import numpy as np
import pytest

from superdir import (
    ArrayGeometry,
    CouplingMatrix,
    DimensionError,
    DomainError,
    ElementPattern,
    SphereQuadrature,
    SweepSpec,
    SweIndex,
    active_element_pattern,
    basis_matrix,
    coupling_fixture,
    eval_spherical_wave_function,
    evaluate_array_pattern,
    mode_count,
    steering_vector,
)
from superdir import arraymodel


# ---- geometry ---------------------------------------------------------------


def test_positions_start_at_origin_with_constant_step():
    # dyadic spacing: every coordinate and difference is exact in binary
    geometry = ArrayGeometry(element_count=4, spacing=0.25)
    positions = geometry.positions
    assert positions.shape == (4, 3)
    np.testing.assert_array_equal(positions[0], [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(np.diff(positions, axis=0), [[0.0, 0.0, 0.25]] * 3)
    assert np.unique(positions, axis=0).shape[0] == 4
    # generic spacing: differences equal the spacing to within rounding
    generic = ArrayGeometry(element_count=4, spacing=0.3)
    np.testing.assert_allclose(
        np.diff(generic.positions, axis=0), [[0.0, 0.0, 0.3]] * 3, rtol=0, atol=1e-15
    )
    assert np.unique(generic.positions, axis=0).shape[0] == 4


def test_geometry_length_and_validation():
    assert ArrayGeometry(3, 0.25).length == pytest.approx(0.5)
    assert ArrayGeometry(1, 0.1).length == 0.0
    with pytest.raises(DomainError):
        ArrayGeometry(0, 0.1)
    with pytest.raises(DomainError):
        ArrayGeometry(2, 0.0)
    with pytest.raises(DomainError):
        ArrayGeometry(2, -0.5)


# ---- counts and indices -----------------------------------------------------


def _sweep_field(name):
    return lambda v: getattr(SweepSpec(**{"antennas": 2, name: v}), name)


_FOUR_ELEMENTS = ArrayGeometry(4, 0.2)
# every count or index a public call takes, as (name in its message, minimum, call(value));
# each call returns what the input became, so 4.0 can be compared with 4
COUNT_SITES = {
    "ArrayGeometry": ("element_count", 1, lambda v: ArrayGeometry(v, 0.2).element_count),
    "CouplingMatrix.identity": ("element_count", 1, lambda v: CouplingMatrix.identity(v).size),
    "coupling_fixture": ("element_count", 1, lambda v: coupling_fixture(v, 0.3, 1.0).size),
    "SphereQuadrature": ("phi_count", 1, lambda v: SphereQuadrature(
        theta=[np.pi / 2], theta_weights=[2.0], phi_count=v).phi_count),
    "SphereQuadrature.gauss_legendre theta": (
        "theta_count", 1, lambda v: SphereQuadrature.gauss_legendre(v, 8).theta.size),
    "SphereQuadrature.gauss_legendre phi": (
        "phi_count", 1, lambda v: SphereQuadrature.gauss_legendre(4, v).phi_count),
    **{f"SweepSpec.{name}": (name, minimum, _sweep_field(name)) for name, minimum in (
        ("antennas", 1), ("spacing_steps", 1), ("quadrature_theta", 1), ("quadrature_phi", 1),
        ("truncation", 0))},
    "mode_count": ("truncation order", 1, mode_count),
    "SweIndex.n": ("degree n", 1, lambda v: SweIndex(1, 0, v).n),
    "SweIndex.m": ("order m", -4, lambda v: SweIndex(1, v, 4).m),
    "active_element_pattern": ("element index", 1, lambda v: active_element_pattern(
        _FOUR_ELEMENTS, ElementPattern.isotropic(), coupling_fixture(4, 0.3, 1.0), v, 0.5, 0.3)),
}


@pytest.mark.parametrize("bad", [2.5, 8.5, np.nan, np.inf, "3", "below"])
@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_every_count_and_index_is_checked_by_name(site, bad):
    name, minimum, call = COUNT_SITES[site]
    if bad == "below":
        bad, message = minimum - 1, f"{name} must be >= {minimum}"
    else:
        message = f"{name} must be an integer"
    with pytest.raises(DomainError) as info:
        call(bad)
    assert str(info.value) == message


@pytest.mark.parametrize("integral", [4.0, np.float32(4.0), np.int64(4)], ids=repr)
@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_an_integral_value_is_taken_as_its_int(site, integral):
    call = COUNT_SITES[site][2]
    taken, expected = call(integral), call(4)
    assert taken == expected and type(taken) is type(expected)


def test_a_mode_index_is_stored_as_ints():
    index = SweIndex(2.0, -3.0, 4.0)
    assert (index.s, index.m, index.n) == (2, -3, 4)
    assert all(type(value) is int for value in (index.s, index.m, index.n))


def test_an_element_index_past_the_array_is_out_of_range():
    with pytest.raises(DomainError, match=r"^element index 5 out of range 1\.\.4$"):
        COUNT_SITES["active_element_pattern"][2](5)


# ---- element patterns -------------------------------------------------------


def test_isotropic_pattern_is_one_everywhere():
    pattern = ElementPattern.isotropic()
    rng = np.random.default_rng(7)
    theta = rng.uniform(0.0, np.pi, 20)
    phi = rng.uniform(0.0, 2.0 * np.pi, 20)
    np.testing.assert_array_equal(pattern.evaluate(theta, phi), np.ones(20))


def test_hertzian_dipole_matches_its_formula():
    pattern = ElementPattern.hertzian_dipole()
    rng = np.random.default_rng(8)
    theta = rng.uniform(0.0, np.pi, 50)
    phi = rng.uniform(0.0, 2.0 * np.pi, 50)
    expected = np.sqrt(1.0 - np.sin(theta) ** 2 * np.cos(phi) ** 2)
    np.testing.assert_allclose(pattern.evaluate(theta, phi), expected, atol=1e-14)


def test_half_wave_dipole_null_on_axis_and_peak_broadside():
    pattern = ElementPattern.half_wave_dipole()
    # along the dipole axis (x): theta = pi/2, phi = 0 -> limit value 0
    assert pattern.evaluate(np.pi / 2, 0.0) == 0.0
    assert pattern.evaluate(np.pi / 2, np.pi) == 0.0
    # perpendicular to the axis the value is cos(0)/1 = 1
    assert pattern.evaluate(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert pattern.evaluate(np.pi / 2, np.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_half_wave_dipole_formula_off_axis():
    pattern = ElementPattern.half_wave_dipole()
    rng = np.random.default_rng(9)
    theta = rng.uniform(0.2, np.pi - 0.2, 40)
    phi = rng.uniform(0.3, np.pi - 0.3, 40)
    cospsi = np.sin(theta) * np.cos(phi)
    expected = np.cos(0.5 * np.pi * cospsi) / np.sqrt(1.0 - cospsi**2)
    np.testing.assert_allclose(pattern.evaluate(theta, phi), expected, rtol=1e-13)


def test_sampled_pattern_reproduces_nodes_and_interpolates():
    theta_grid = np.linspace(0.0, np.pi, 19)
    phi_grid = np.linspace(0.0, 2.0 * np.pi, 36, endpoint=False)
    analytic = ElementPattern.hertzian_dipole()
    samples = analytic.evaluate(theta_grid[:, None], phi_grid[None, :])
    pattern = ElementPattern.sampled(theta_grid, phi_grid, samples)
    # exact at the nodes
    np.testing.assert_allclose(
        pattern.evaluate(theta_grid[:, None], phi_grid[None, :]), samples, atol=1e-15
    )
    # close in between (bilinear error ~ grid spacing squared)
    rng = np.random.default_rng(10)
    theta = rng.uniform(0.1, np.pi - 0.1, 30)
    phi = rng.uniform(0.0, 2.0 * np.pi, 30)
    np.testing.assert_allclose(
        pattern.evaluate(theta, phi), analytic.evaluate(theta, phi), atol=5e-3
    )


def test_sampled_pattern_phi_wraps_periodically():
    theta_grid = np.linspace(0.0, np.pi, 9)
    phi_grid = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    values = np.cos(phi_grid)[None, :] * np.ones((9, 1))
    pattern = ElementPattern.sampled(theta_grid, phi_grid, values)
    # a point beyond the last phi node interpolates toward phi = 0, not garbage
    just_before_wrap = pattern.evaluate(np.pi / 2, 2.0 * np.pi - 1e-9)
    assert just_before_wrap == pytest.approx(1.0, abs=1e-6)


def test_sampled_pattern_grid_validation():
    with pytest.raises(DomainError):
        ElementPattern.sampled(
            np.linspace(0.1, np.pi, 5),  # does not reach theta = 0
            np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False),
            np.ones((5, 8)),
        )
    with pytest.raises(DimensionError):
        ElementPattern.sampled(
            np.linspace(0.0, np.pi, 5),
            np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False),
            np.ones((5, 7)),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_sampled_pattern_values_must_be_finite(bad):
    samples = np.ones((5, 8), dtype=complex)
    samples[2, 3] = bad
    with pytest.raises(DomainError, match="^sampled pattern values must be finite$"):
        ElementPattern.sampled(
            np.linspace(0.0, np.pi, 5), np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False), samples
        )


def test_polarized_components_carry_the_pattern_magnitude():
    for pattern in (
        ElementPattern.isotropic(),
        ElementPattern.hertzian_dipole(),
        ElementPattern.half_wave_dipole(),
    ):
        rng = np.random.default_rng(11)
        theta = rng.uniform(0.1, np.pi - 0.1, 25)
        phi = rng.uniform(0.0, 2.0 * np.pi, 25)
        e_th, e_ph = pattern.polarized(theta, phi)
        magnitude = np.sqrt(np.abs(e_th) ** 2 + np.abs(e_ph) ** 2)
        np.testing.assert_allclose(
            magnitude, np.abs(pattern.evaluate(theta, phi)), atol=1e-13
        )


@pytest.mark.parametrize("kind, constructor", [
    ("isotropic", ElementPattern.isotropic),
    ("hertzian-dipole", ElementPattern.hertzian_dipole),
    ("half-wave-dipole", ElementPattern.half_wave_dipole),
])
def test_from_kind_is_the_named_constructor_bit_for_bit(kind, constructor):
    # the constructors return the from_kind pattern, so compare it with a fresh build
    built, named = constructor(), ElementPattern(kind=kind)
    assert built is ElementPattern.from_kind(kind)
    assert built.kind == named.kind == kind
    if named.axis is None:
        assert built.axis is None
    else:
        np.testing.assert_array_equal(built.axis, named.axis)
    # 64 x 128 equiangular grid, poles included
    theta, phi = np.meshgrid(
        np.linspace(0.0, np.pi, 64), np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False),
        indexing="ij",
    )
    np.testing.assert_array_equal(built.evaluate(theta, phi), named.evaluate(theta, phi))
    for got, want in zip(built.polarized(theta, phi), named.polarized(theta, phi)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kind", arraymodel.ANALYTIC_KINDS)
def test_from_kind_shares_one_pattern_per_kind(kind):
    assert ElementPattern.from_kind(kind) is ElementPattern.from_kind(kind)


def test_a_dipole_along_another_axis_is_a_pattern_of_its_own():
    shared = ElementPattern.from_kind("half-wave-dipole")
    assert ElementPattern.half_wave_dipole(np.array([1, 0, 0])) is shared
    tilted = ElementPattern.half_wave_dipole((0.0, 2.0, 0.0))
    assert tilted is not shared
    assert tilted.axis.tolist() == [0.0, 1.0, 0.0]


def test_from_kind_rejects_the_sampled_kind():
    with pytest.raises(DomainError) as info:
        ElementPattern.from_kind("sampled")
    assert str(info.value) == "unknown analytic pattern kind 'sampled'"


# ---- steering vectors -------------------------------------------------------


def test_broadside_pair_steering_is_all_ones():
    geometry = ArrayGeometry(2, 0.5)
    sv = steering_vector(geometry, ElementPattern.isotropic(), np.pi / 2, 0.0)
    np.testing.assert_allclose(sv.values, [1.0, 1.0], atol=1e-15)


def test_endfire_pair_steering_alternates_sign():
    geometry = ArrayGeometry(2, 0.5)
    sv = steering_vector(geometry, ElementPattern.isotropic(), 0.0, 0.0)
    np.testing.assert_allclose(sv.values, [1.0, -1.0], atol=1e-15)


def test_three_element_endfire_phases():
    # phase of entry m is 2 pi d (m-1) cos(theta); cross-check the same
    # evaluation through a sampled unit pattern to make sure the phase term
    # comes from the geometry, not the pattern path
    geometry = ArrayGeometry(3, 0.1)
    expected = np.exp(1j * np.array([0.0, 0.2 * np.pi, 0.4 * np.pi]))
    sv = steering_vector(geometry, ElementPattern.isotropic(), 0.0, 0.0)
    np.testing.assert_allclose(sv.values, expected, atol=1e-15)

    unit_grid = ElementPattern.sampled(
        np.linspace(0.0, np.pi, 5),
        np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False),
        np.ones((5, 8)),
    )
    sv2 = steering_vector(geometry, unit_grid, 0.0, 0.0)
    np.testing.assert_allclose(sv2.values, expected, atol=1e-12)


def test_steering_entries_have_unit_magnitude_for_isotropic():
    geometry = ArrayGeometry(5, 0.23)
    rng = np.random.default_rng(12)
    for theta, phi in zip(rng.uniform(0, np.pi, 10), rng.uniform(0, 2 * np.pi, 10)):
        sv = steering_vector(geometry, ElementPattern.isotropic(), theta, phi)
        np.testing.assert_allclose(np.abs(sv.values), 1.0, atol=1e-14)


def test_steering_magnitude_equals_pattern_value():
    geometry = ArrayGeometry(4, 0.4)
    pattern = ElementPattern.half_wave_dipole()
    rng = np.random.default_rng(13)
    for theta, phi in zip(rng.uniform(0.1, np.pi - 0.1, 10), rng.uniform(0, 2 * np.pi, 10)):
        sv = steering_vector(geometry, pattern, theta, phi)
        np.testing.assert_allclose(
            np.abs(sv.values), abs(pattern.evaluate(theta, phi)), atol=1e-13
        )


def test_steering_depends_on_theta_only_through_its_cosine():
    geometry = ArrayGeometry(4, 0.17)
    rng = np.random.default_rng(14)
    for theta in rng.uniform(0, np.pi, 12):
        sv = steering_vector(geometry, ElementPattern.isotropic(), theta, rng.uniform(0, 2 * np.pi))
        explicit = np.exp(2j * np.pi * np.cos(theta) * 0.17 * np.arange(4))
        np.testing.assert_allclose(sv.values, explicit, atol=1e-14)


def test_steering_rejects_theta_outside_range():
    geometry = ArrayGeometry(2, 0.3)
    with pytest.raises(DomainError):
        steering_vector(geometry, ElementPattern.isotropic(), -0.1, 0.0)
    with pytest.raises(DomainError):
        steering_vector(geometry, ElementPattern.isotropic(), np.pi + 0.1, 0.0)


def _unit_sampled_pattern():
    return ElementPattern.sampled(
        np.linspace(0.0, np.pi, 5), np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False),
        np.ones((5, 8)),
    )


def _pattern_method(make, method):
    return lambda t, p: getattr(make(), method)(t, p)


_PAIR = ArrayGeometry(2, 0.3)
# every public function that takes a direction, called as f(theta, phi)
_ANGLE_TAKERS = {
    **{
        f"{kind}.{method}": _pattern_method(make, method)
        for kind, make in (
            ("isotropic", ElementPattern.isotropic),
            ("hertzian-dipole", ElementPattern.hertzian_dipole),
            ("half-wave-dipole", ElementPattern.half_wave_dipole),
            ("sampled", _unit_sampled_pattern),
        )
        for method in ("evaluate", "polarized")
    },
    "evaluate_array_pattern": lambda t, p: evaluate_array_pattern(
        _PAIR, ElementPattern.isotropic(), [1.0, 0.5], t, p
    ),
    "active_element_pattern": lambda t, p: active_element_pattern(
        _PAIR, ElementPattern.half_wave_dipole(), CouplingMatrix.identity(2), 1, t, p
    ),
    "eval_spherical_wave_function": lambda t, p: eval_spherical_wave_function(
        SweIndex(s=1, m=1, n=1), t, p
    ),
    "steering_vector": lambda t, p: steering_vector(_PAIR, ElementPattern.isotropic(), t, p),
    "basis_matrix": lambda t, p: basis_matrix(np.array([[0.5, 0.0], [t, p]]), 2),
}


@pytest.mark.parametrize("theta, phi, message", [
    pytest.param(np.nan, 0.0, "theta must lie in [0, pi]", id="nan theta"),
    pytest.param(-0.1, 0.0, "theta must lie in [0, pi]", id="negative theta"),
    pytest.param(0.5, np.nan, "phi must be finite", id="nan phi"),
    pytest.param(0.5, np.inf, "phi must be finite", id="inf phi"),
    pytest.param(0.5, -np.inf, "phi must be finite", id="-inf phi"),
])
@pytest.mark.parametrize("function", sorted(_ANGLE_TAKERS))
def test_every_angle_taking_function_rejects_bad_angles(function, theta, phi, message):
    with pytest.raises(DomainError) as info:
        _ANGLE_TAKERS[function](theta, phi)
    assert str(info.value) == message


def test_pattern_evaluation_rejects_nan_theta():
    with pytest.raises(DomainError, match="theta must lie"):
        ElementPattern.isotropic().evaluate(np.array([0.1, np.nan]), 0.0)


_PATTERN_MAKERS = {
    "isotropic": ElementPattern.isotropic,
    "hertzian-dipole": ElementPattern.hertzian_dipole,
    "half-wave-dipole": ElementPattern.half_wave_dipole,
    "sampled": _unit_sampled_pattern,
}
_DIRECTIONS = (np.array([0.0, 0.7, np.pi]), np.array([0.2, 1.9, 4.0]))


@pytest.mark.parametrize("kind", sorted(_PATTERN_MAKERS))
@pytest.mark.parametrize("call", [
    pytest.param(lambda pattern: steering_vector(_PAIR, pattern, 0.7, 1.9), id="steering_vector"),
    pytest.param(lambda pattern: evaluate_array_pattern(_PAIR, pattern, [1.0, 0.5], *_DIRECTIONS),
                 id="evaluate_array_pattern"),
    pytest.param(lambda pattern: pattern.polarized(*_DIRECTIONS), id="polarized"),
])
def test_each_public_angle_call_checks_its_angles_once(kind, call, monkeypatch):
    calls = []
    original = arraymodel._check_angles
    monkeypatch.setattr(arraymodel, "_check_angles", lambda t, p: calls.append(1) or original(t, p))
    call(_PATTERN_MAKERS[kind]())
    assert len(calls) == 1


# ---- array pattern ----------------------------------------------------------


def test_single_excited_element_radiates_the_bare_pattern():
    geometry = ArrayGeometry(2, 0.37)
    pattern = ElementPattern.hertzian_dipole()
    rng = np.random.default_rng(15)
    theta = rng.uniform(0.0, np.pi, 8)
    phi = rng.uniform(0.0, 2.0 * np.pi, 8)
    out = evaluate_array_pattern(geometry, pattern, [1.0, 0.0], theta, phi)
    np.testing.assert_allclose(out, pattern.evaluate(theta, phi), atol=1e-14)


def test_broadside_pair_sums_in_phase_and_cancels_anti_phase():
    geometry = ArrayGeometry(2, 0.5)
    pattern = ElementPattern.isotropic()
    assert evaluate_array_pattern(geometry, pattern, [1, 1], np.pi / 2, 0.3) == pytest.approx(2.0)
    assert abs(evaluate_array_pattern(geometry, pattern, [1, -1], np.pi / 2, 0.3)) < 1e-15


def test_array_pattern_is_linear_in_the_excitation():
    geometry = ArrayGeometry(3, 0.21)
    pattern = ElementPattern.isotropic()
    rng = np.random.default_rng(16)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    scale = complex(rng.standard_normal(), rng.standard_normal())
    theta, phi = 1.1, 2.2
    fa = evaluate_array_pattern(geometry, pattern, a, theta, phi)
    fb = evaluate_array_pattern(geometry, pattern, b, theta, phi)
    fsum = evaluate_array_pattern(geometry, pattern, a + b, theta, phi)
    fscaled = evaluate_array_pattern(geometry, pattern, scale * a, theta, phi)
    assert fsum == pytest.approx(fa + fb, rel=1e-12)
    assert fscaled == pytest.approx(scale * fa, rel=1e-12)


def test_array_pattern_respects_triangle_inequality_for_isotropic():
    geometry = ArrayGeometry(4, 0.13)
    pattern = ElementPattern.isotropic()
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        value = evaluate_array_pattern(geometry, pattern, a, theta, phi)
        assert abs(value) <= np.sum(np.abs(a)) + 1e-12


def test_array_pattern_rejects_wrong_excitation_length():
    geometry = ArrayGeometry(3, 0.2)
    with pytest.raises(DimensionError):
        evaluate_array_pattern(geometry, ElementPattern.isotropic(), [1.0, 2.0], 0.5, 0.5)

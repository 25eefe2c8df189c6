"""Spacing sweeps: spec validation, coupling sources, ordering, determinism."""

import dataclasses

import numpy as np
import pytest

from superdir import (
    AccuracyError,
    CouplingMatrix,
    DataError,
    DomainError,
    SweepSpec,
    coupling_fixture,
    parse_coupling_source,
    run_sweep,
    sweep_rows_to_csv,
    write_coupling,
)
from superdir import coupling, radiation, swe, sweep
from superdir.arraymodel import ArrayGeometry, ElementPattern
from superdir.coupling import default_truncation
from superdir.errors import NUMERICAL_FAILURES
from superdir.radiation import SphereQuadrature
from superdir.sweep import evaluate_point

from oracles import endfire_pair_dmax


def _small_sweep(**overrides):
    base = dict(
        antennas=2,
        pattern_kind="isotropic",
        spacing_start=0.1,
        spacing_stop=0.4,
        spacing_steps=4,
        theta0_deg=0.0,
    )
    base.update(overrides)
    return SweepSpec(**base)


# ---- spec validation -----------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {"antennas": 0},
        {"pattern_kind": "sampled"},
        {"pattern_kind": "parabolic"},
        {"spacing_start": 0.0},
        {"spacing_start": 0.3, "spacing_stop": 0.2},
        {"spacing_steps": 0},
        {"theta0_deg": 181.0},
        {"phi0_deg": np.inf},
        {"phi0_deg": np.nan},
        {"efficiency": 0.0},
        {"efficiency": 1.2},
        {"quadrature_theta": 0},
        {"truncation": -1},
        {"spacing_stop": np.inf},
        {"spacing_stop": np.nan},
        {"spacing_start": np.inf, "spacing_stop": np.inf},
    ],
)
def test_invalid_sweep_specs_are_rejected(overrides):
    with pytest.raises(DomainError):
        _small_sweep(**overrides)


def test_integral_float_counts_become_integers():
    spec = _small_sweep(spacing_steps=3.0, quadrature_theta=np.float64(16), truncation=np.int64(4))
    assert (spec.spacing_steps, spec.quadrature_theta, spec.truncation) == (3, 16, 4)
    assert all(type(n) is int for n in (spec.spacing_steps, spec.quadrature_theta, spec.truncation))
    assert len(run_sweep(spec)) == 3


def test_identical_sweeps_share_their_quadrature_and_pattern():
    spec = _small_sweep(antennas=8, pattern_kind="half-wave-dipole", theta0_deg=30.0)
    SphereQuadrature._gauss_legendre.cache_clear()
    radiation._ring_weights.cache_clear()
    cold = sweep_rows_to_csv(run_sweep(spec))
    radiation._ring_weights.cache_clear()
    warm = [sweep_rows_to_csv(run_sweep(spec)) for _ in range(3)]
    info = radiation._ring_weights.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert warm == [cold] * 3


def test_identical_synthetic_sweeps_evaluate_each_element_field_once(monkeypatch):
    spec = _small_sweep(antennas=4, pattern_kind="half-wave-dipole", spacing_start=0.05,
                        spacing_stop=0.5, spacing_steps=10,
                        coupling_source="synthetic:gamma=0.3,beta=1.1")
    orders = sorted({default_truncation(ArrayGeometry(4, s)) for s in spec.spacings})
    caches = (swe._fit_grid, coupling._element_field, swe._grid, swe._order_factors)

    def clear():
        for cache in caches:
            cache.cache_clear()

    clear()
    cold = sweep_rows_to_csv(run_sweep(spec))
    clear()
    directions = []
    polarized = ElementPattern.polarized

    def counted(self, theta, phi):
        directions.append(np.size(theta))
        return polarized(self, theta, phi)

    monkeypatch.setattr(ElementPattern, "polarized", counted)
    warm = [sweep_rows_to_csv(run_sweep(spec)) for _ in range(3)]
    assert len(orders) < spec.spacing_steps  # the orders repeat within one sweep
    assert directions == [swe.default_fit_grid(n).shape[0] for n in orders]
    assert warm == [cold] * 3
    pattern = ElementPattern.from_kind(spec.pattern_kind)
    for n in orders:
        grid = swe._fit_grid(n)
        assert swe.default_fit_grid(n).flags.writeable and not grid.flags.writeable
        key = grid.shape, grid.tobytes()
        directions, (rows, _) = swe._grid(*key)
        cached = [*coupling._element_field(pattern, *key), directions, rows,
                  *swe._order_factors(n, rows.tobytes())]
        assert not any(array.flags.writeable for array in cached)
    assert [cache.cache_info().misses for cache in caches] == [len(orders)] * len(caches)


def test_a_synthetic_sweep_parses_its_coupling_text_once(monkeypatch):
    parsed, estimated = [], []
    parse, estimate = sweep._parse_fixture_params, sweep.estimate_fixture_coupling
    monkeypatch.setattr(sweep, "_parse_fixture_params", lambda body: parsed.append(body) or parse(body))
    monkeypatch.setattr(sweep, "estimate_fixture_coupling",
                        lambda *args, **kwargs: estimated.append(args[0]) or estimate(*args, **kwargs))
    spec = _small_sweep(antennas=4, pattern_kind="half-wave-dipole", spacing_start=0.05,
                        spacing_stop=0.5, spacing_steps=10,
                        coupling_source="synthetic:gamma=0.3,beta=1.1")
    rows = run_sweep(spec)
    assert [row.note for row in rows] == [""] * 10
    assert parsed == ["gamma=0.3,beta=1.1"]
    assert [geometry.spacing for geometry in estimated] == [row.spacing for row in rows]


def test_a_one_step_sweep_needs_no_stop():
    # the default stop, 0.5, lies below the start; a single step never uses it
    spec = SweepSpec(antennas=4, spacing_start=0.6, spacing_steps=1)
    np.testing.assert_array_equal(spec.spacings, [0.6])
    assert [row.spacing for row in run_sweep(spec)] == [0.6]


def test_spacing_grid_is_evenly_spaced():
    spec = _small_sweep(spacing_start=0.05, spacing_stop=0.5, spacing_steps=10)
    np.testing.assert_allclose(spec.spacings, np.linspace(0.05, 0.5, 10))


def test_single_step_sweep_uses_the_start_spacing():
    spec = _small_sweep(spacing_start=0.07, spacing_stop=0.5, spacing_steps=1)
    np.testing.assert_array_equal(spec.spacings, [0.07])


# ---- coupling sources ----------------------------------------------------------


def test_identity_source():
    matrix = parse_coupling_source("identity", 3)
    np.testing.assert_array_equal(matrix.values, np.eye(3))


def test_file_source_uses_the_injected_reader(monkeypatch):
    stored = CouplingMatrix.prescribed(np.array([[1.0, 0.2], [0.1, 1.0]]))
    seen = []

    def fake_read(path):
        seen.append(path)
        return stored

    monkeypatch.setattr("superdir.fileio.read_coupling", fake_read)
    matrix = parse_coupling_source("file:some/where.csv", 2)
    assert seen == ["some/where.csv"]
    assert matrix is stored


def test_file_source_size_mismatch_is_a_data_error(monkeypatch):
    stored = CouplingMatrix.identity(3)
    monkeypatch.setattr("superdir.fileio.read_coupling", lambda path: stored)
    with pytest.raises(DataError, match="3x3.*2 elements"):
        parse_coupling_source("file:x.csv", 2)


def test_file_source_requires_a_path():
    with pytest.raises(DomainError):
        parse_coupling_source("file:", 2)


@pytest.mark.parametrize("geometry, pattern", [
    (None, None),
    (ArrayGeometry(3, 0.2), None),
    (None, ElementPattern.hertzian_dipole()),
])
def test_synthetic_source_without_geometry_or_pattern_is_rejected(geometry, pattern):
    with pytest.raises(DomainError) as info:
        parse_coupling_source("synthetic:gamma=0.3,beta=1.2", 3, geometry=geometry, pattern=pattern)
    assert str(info.value) == "synthetic coupling source needs a geometry and a pattern"


def test_synthetic_source_with_geometry_runs_the_estimator():
    geometry = ArrayGeometry(2, 0.2)
    matrix = parse_coupling_source(
        "synthetic:gamma=0.25,beta=0.9",
        2,
        geometry=geometry,
        pattern=ElementPattern.hertzian_dipole(),
        truncation=10,
    )
    assert matrix.source == "estimated"
    assert matrix.estimation_residual < 1e-9
    np.testing.assert_allclose(
        matrix.values, coupling_fixture(2, 0.25, 0.9).values, atol=1e-8
    )


@pytest.mark.parametrize(
    "text",
    [
        "synthetic:gamma=0.3",
        "synthetic:gamma=0.3,beta=0.5,extra=1",
        "synthetic:gamma=abc,beta=0.5",
        "synthetic:gamma",
        "measured:foo",
        "",
    ],
)
def test_malformed_sources_are_rejected(text):
    with pytest.raises(DomainError):
        parse_coupling_source(text, 2)


# ---- sweep results --------------------------------------------------------------


def test_half_wavelength_broadside_pair_point():
    spec = SweepSpec(
        antennas=2,
        pattern_kind="isotropic",
        spacing_start=0.5,
        spacing_stop=0.5,
        spacing_steps=1,
        theta0_deg=90.0,
    )
    (row,) = run_sweep(spec)
    assert row.spacing == 0.5
    assert row.dmax == pytest.approx(2.0, abs=1e-9)
    assert row.d_traditional == pytest.approx(2.0, abs=1e-9)
    assert row.d_coupled == pytest.approx(2.0, abs=1e-9)
    assert row.gain == pytest.approx(2.0, abs=1e-9)
    assert row.condition_number == pytest.approx(1.0, abs=1e-9)
    assert row.note == ""


def test_close_spacing_endfire_pair_approaches_the_square_law():
    spec = SweepSpec(
        antennas=2,
        pattern_kind="isotropic",
        spacing_start=0.01,
        spacing_stop=0.01,
        spacing_steps=1,
        theta0_deg=0.0,
    )
    (row,) = run_sweep(spec)
    assert row.dmax == pytest.approx(endfire_pair_dmax(0.01), rel=1e-8)
    assert row.dmax > 3.96  # within one percent of the M^2 = 4 limit
    assert row.condition_number > 1e3  # superdirectivity is ill-conditioned


def test_rows_come_back_in_spacing_order():
    spec = _small_sweep(spacing_steps=5)
    rows = run_sweep(spec, threads=3)
    assert [row.spacing for row in rows] == [float(s) for s in spec.spacings]


def test_a_sweep_evaluates_the_pattern_on_the_quadrature_grid_once(monkeypatch):
    shapes = []
    evaluate = ElementPattern.evaluate

    def counting(self, theta, phi):
        shapes.append(np.shape(theta))
        return evaluate(self, theta, phi)

    monkeypatch.setattr(ElementPattern, "evaluate", counting)
    spec = _small_sweep(pattern_kind="half-wave-dipole", spacing_steps=5)
    radiation._ring_weights.cache_clear()  # sweeps share ring weights, so start cold
    rows = run_sweep(spec)
    assert [row.note for row in rows] == [""] * 5
    assert shapes.count((spec.quadrature_theta, spec.quadrature_phi)) == 1


def test_singular_coupling_file_flags_rows_instead_of_aborting(tmp_path):
    path = tmp_path / "bad.csv"
    write_coupling(path, CouplingMatrix.prescribed(np.ones((2, 2))))
    spec = _small_sweep(coupling_source=f"file:{path}", spacing_steps=2)
    rows = run_sweep(spec)
    assert len(rows) == 2
    for row, spacing in zip(rows, spec.spacings):
        assert row.spacing == float(spacing)
        assert np.isnan(row.d_coupled) and np.isnan(row.gain)
        assert row.note != ""


@pytest.mark.parametrize("failure", NUMERICAL_FAILURES, ids=lambda cls: cls.__name__)
def test_each_numerical_failure_becomes_a_flagged_nan_row(failure, monkeypatch):
    beamform_point = sweep._beamform_point

    def fail_past_a_quarter_wavelength(coupling_of, geometry, *rest):
        if geometry.spacing > 0.25:
            raise failure("forced failure")
        return beamform_point(coupling_of, geometry, *rest)

    monkeypatch.setattr(sweep, "_beamform_point", fail_past_a_quarter_wavelength)
    rows = run_sweep(_small_sweep())
    assert [row.note for row in rows] == ["", "", "forced failure", "forced failure"]
    assert not np.isnan(rows[1].dmax)
    for row in rows[2:]:
        assert np.isnan([row.dmax, row.d_traditional, row.d_coupled, row.gain, row.condition_number]).all()


def test_an_imaginary_residue_flags_only_its_own_spacing(monkeypatch):
    # default-quadrature residues of these spacings run from about 4e-17 to 1.1e-16
    monkeypatch.setattr(radiation, "_IMAG_RESIDUE_TOL", 7e-17)
    spec = _small_sweep(antennas=3, spacing_steps=12, pattern_kind="hertzian-dipole")
    expected = []
    for spacing in spec.spacings:
        try:
            evaluate_point(dataclasses.replace(spec, spacing_start=float(spacing), spacing_steps=1))
            expected.append("")
        except AccuracyError as exc:
            expected.append(str(exc))
    assert "" in expected and any(note.startswith("impedance integrand left") for note in expected)
    assert [row.note for row in run_sweep(spec)] == expected


def test_a_sweep_in_any_number_of_blocks_writes_the_same_csv(monkeypatch):
    spec = _small_sweep(antennas=5, pattern_kind="half-wave-dipole", spacing_start=0.02,
                        spacing_stop=0.6, spacing_steps=300, efficiency=0.9)
    default = sweep_rows_to_csv(run_sweep(spec))
    sizes = []
    stack = radiation._impedance_stack

    def recording(spacings, *args):
        sizes.append(spacings.size)
        return stack(spacings, *args)

    monkeypatch.setattr(radiation, "_impedance_stack", recording)
    per_spacing = 16 * spec.quadrature_theta * spec.antennas  # phase-table bytes
    for budget, expected in ((300 * per_spacing, [300]), (7 * per_spacing + 100, [7] * 42 + [6]),
                             (1, [1] * 300)):
        sizes.clear()
        monkeypatch.setattr(radiation, "_STACK_BYTES", budget)
        assert sweep_rows_to_csv(run_sweep(spec)) == default
        assert sizes == expected


@pytest.mark.parametrize("source", ["identity", "file", "synthetic:gamma=0.3,beta=1.1"])
def test_sweep_rows_are_evaluate_point_bit_for_bit(source, tmp_path):
    if source == "file":
        path = tmp_path / "c.csv"
        write_coupling(path, coupling_fixture(3, 0.4, -0.6))
        source = f"file:{path}"
    spec = _small_sweep(antennas=3, pattern_kind="hertzian-dipole", theta0_deg=35.0,
                        phi0_deg=70.0, efficiency=0.85, coupling_source=source, truncation=9)
    rows = run_sweep(spec)
    assert len(rows) == spec.spacing_steps
    for row, spacing in zip(rows, spec.spacings):
        one_step = dataclasses.replace(spec, spacing_start=float(spacing), spacing_steps=1)
        expected, excitation = evaluate_point(one_step)
        assert row.note == ""
        assert np.array(dataclasses.astuple(row)[:6]).tobytes() == np.array(
            dataclasses.astuple(expected)[:6]).tobytes()
        assert excitation.shape == (3,)


def test_compensation_restores_the_optimum_across_a_synthetic_sweep():
    spec = SweepSpec(
        antennas=3,
        pattern_kind="half-wave-dipole",
        spacing_start=0.1,
        spacing_stop=0.4,
        spacing_steps=4,
        theta0_deg=0.0,
        efficiency=0.9,
        coupling_source="synthetic:gamma=0.25,beta=0.9",
        truncation=10,
    )
    rows = run_sweep(spec)
    for row in rows:
        assert row.note == ""
        # compensated beamforming recovers the coupling-free optimum
        assert row.d_coupled == pytest.approx(row.dmax, rel=1e-6)
        # naive excitation through real coupling never does better
        assert row.d_traditional <= row.d_coupled + 1e-9
        # ohmic loss only ever reduces the figure of merit
        assert row.gain < row.d_coupled
        assert np.isfinite(row.condition_number)


def test_sweep_csv_is_identical_for_any_worker_count():
    spec = _small_sweep(
        coupling_source="synthetic:gamma=0.2,beta=0.7", truncation=8, efficiency=0.96
    )
    serial = sweep_rows_to_csv(run_sweep(spec, threads=1))
    pooled = sweep_rows_to_csv(run_sweep(spec, threads=4))
    assert serial == pooled
    assert sweep_rows_to_csv(run_sweep(spec)) == serial

"""Coupling-matrix estimation from isolated and coupled far fields.

The coupling matrix C maps port excitations to the effective excitations
that actually radiate: driving port n alone produces the active field
sum_m c_mn * (isolated field of element m). Estimation inverts that relation
in the spherical-wave domain: with Qs the mode coefficients of the isolated
element fields (columns) and Qc those of the active fields, C is the least
squares solution of Qs C = Qc, solved column by column. C is generally not
symmetric and is not symmetrized.

Modeling note: the isolated/active field decomposition assumes the feed
network presents each port with a fixed termination while the others are
driven (matched loads in the usual measurement setup). Whether that matches
a given measurement campaign is a property of the data, not of this code;
fields measured under a different termination convention yield the coupling
matrix of that convention.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .arraymodel import WAVE_NUMBER, ArrayGeometry, ElementPattern, _check_integer, evaluate_array_pattern
from .errors import DegenerateGeometryError, DimensionError, DomainError
from .swe import (
    FieldSampleSet,
    _fit,
    _fit_grid,
    _grid,
    _require_distinct,
    _truncation_order,
    truncation_degree,
)

COUPLING_SOURCES = ("identity", "estimated", "prescribed")


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Square complex coupling matrix with its provenance.

    ``estimation_residual`` is the relative Frobenius misfit of the least
    squares estimate and is None for identity/prescribed matrices.
    """

    values: np.ndarray
    source: str
    estimation_residual: float | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise DimensionError("coupling matrix must be square")
        if not np.all(np.isfinite(vals)):
            raise DomainError("coupling matrix values must be finite")
        if self.source not in COUPLING_SOURCES:
            raise DomainError(f"unknown coupling source {self.source!r}")
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @classmethod
    def identity(cls, element_count: int) -> "CouplingMatrix":
        """The uncoupled (ideal) matrix C = I."""
        count = _check_integer(element_count, "element_count", 1)
        return cls(values=np.eye(count, dtype=complex), source="identity")

    @classmethod
    def prescribed(cls, values) -> "CouplingMatrix":
        """Wrap an externally supplied coupling matrix."""
        return cls(values=values, source="prescribed")


def coupling_fixture(element_count: int, gamma: float, beta: float) -> CouplingMatrix:
    """Parametric test fixture c_mn = gamma^|m-n| exp(-j beta |m-n|).

    Synthetic plumbing for exercising the estimation pipeline: gamma in
    (0, 1) sets how fast coupling decays with element separation and beta
    its phase progression. Not a physical coupling model.
    """
    if not 0.0 < gamma < 1.0:
        raise DomainError("gamma must lie in (0, 1)")
    if not np.isfinite(beta):
        raise DomainError("beta must be finite")
    idx = np.arange(_check_integer(element_count, "element_count", 1))
    sep = np.abs(idx[:, None] - idx[None, :])
    values = gamma**sep * np.exp(-1j * beta * sep)
    return CouplingMatrix(values=values, source="prescribed")


def isolated_fields_synthetic(
    geometry: ArrayGeometry, pattern: ElementPattern, directions
) -> list:
    """Synthetic isolated element fields on a common direction grid.

    Element m radiates the origin element field shifted by its position
    phase: E_m(theta, phi) = E_0(theta, phi) * exp(j k r_hat . r_m). The
    polarization of E_0 follows the element model (see
    ElementPattern.polarized). The M sets share one read-only copy of the
    grid. The grid checks, E_0 and the phase slope k cos(theta) depend only
    on the pattern and the grid, so they are cached by the pattern and the
    values of the grid: repeated calls on one grid (a synthetic sweep at
    each spacing of one truncation order) do that work once.
    """
    dirs = np.asarray(directions, dtype=float)
    grid, element, slope = _element_field(pattern, dirs.shape, dirs.tobytes())
    phase = np.exp(slope[:, None] * geometry.z_positions)
    table = element * np.repeat(phase, 2, axis=0)  # (2P, M)
    return [FieldSampleSet._on_checked_grid(grid, column) for column in table.T]


@functools.lru_cache(maxsize=8)
def _element_field(pattern, shape, data):
    """(grid, E_0 as (2P, 1), j k cos theta) of ``pattern`` on these direction bytes; read-only.

    The grid has passed the direction and distinctness checks; a grid that
    fails them raises on every call.
    """
    grid = _require_distinct(_grid(shape, data)[0])
    theta = grid[:, 0]
    element = np.stack(pattern.polarized(theta, grid[:, 1]), axis=1).reshape(-1, 1)
    slope = 1j * WAVE_NUMBER * np.cos(theta)
    element.flags.writeable = slope.flags.writeable = False
    return grid, element, slope


def synthesize_coupled_fields(isolated: list, coupling: CouplingMatrix) -> list:
    """Active element fields under a known coupling matrix.

    Driving port n yields sum_m c_mn * isolated_m; returns one FieldSampleSet
    per port, on the shared grid of the isolated fields, which their own
    construction checked.
    """
    if len(isolated) != coupling.size:
        raise DimensionError("need one isolated field per array element")
    dirs, table = _field_table(isolated)
    return [FieldSampleSet._on_checked_grid(dirs, column) for column in (table @ coupling.values).T]


def _field_table(fields, stack=True):
    """(shared directions, (2P, K) value table) of a non-empty field list; ``stack`` False skips the table."""
    if not fields:
        raise DimensionError("field list must not be empty")
    dirs = fields[0].directions
    for f in fields[1:]:
        # synthesized fields share one directions array, which needs no compare
        if f.directions is not dirs and not np.array_equal(f.directions, dirs):
            raise DimensionError("all fields must share one direction grid")
    return dirs, np.stack([f.values for f in fields], axis=1) if stack else None


@dataclass(frozen=True, eq=False)
class ElementFieldLibrary:
    """Matched isolated/active far-field sets of one array on a shared grid."""

    isolated: list
    active: list

    def __post_init__(self):
        if len(self.isolated) != len(self.active) or not self.isolated:
            raise DimensionError("need equally many isolated and active fields")
        _field_table(list(self.isolated) + list(self.active), stack=False)
        object.__setattr__(self, "isolated", list(self.isolated))
        object.__setattr__(self, "active", list(self.active))

    @property
    def element_count(self) -> int:
        return len(self.isolated)

    def estimate(self, truncation: int) -> CouplingMatrix:
        """Coupling matrix of these fields at expansion order ``truncation``.

        All 2M fields are fitted in one build_coefficient_set solve on the
        shared grid, then estimate_coupling solves Qs C = Qc.
        """
        m = self.element_count
        coeffs = build_coefficient_set(self.isolated + self.active, truncation)
        return estimate_coupling(coeffs[:, :m], coeffs[:, m:])


def build_coefficient_set(fields: list, truncation: int) -> np.ndarray:
    """Spherical mode coefficients of several fields on one shared grid.

    Returns a (2N(N+2), M) matrix whose column m expands fields[m]; the grid
    is validated once and all columns are solved together, as
    solve_wave_coefficients solves them, with no fit misfit formed.
    """
    return _fit(*_field_table(fields), truncation)[0]


def estimate_coupling(isolated_coeffs: np.ndarray, active_coeffs: np.ndarray) -> CouplingMatrix:
    """Least-squares coupling matrix from modal coefficient sets.

    Solves Qs C = Qc column by column, where column m of Qs expands the
    isolated field of element m and column n of Qc the active field of
    port n. Requires finite coefficients and Qs of full column rank; the
    result is NOT symmetrized.
    """
    qs = np.asarray(isolated_coeffs, dtype=complex)
    qc = np.asarray(active_coeffs, dtype=complex)
    if qs.ndim != 2 or qc.ndim != 2 or qs.shape != qc.shape:
        raise DimensionError("coefficient sets must be matrices of equal shape")
    if not (np.all(np.isfinite(qs)) and np.all(np.isfinite(qc))):
        raise DomainError("coefficients must be finite")
    m_elems = qs.shape[1]
    if qs.shape[0] < m_elems:
        raise DimensionError("fewer modes than elements; expansion order too low")
    rcond = max(qs.shape) * np.finfo(float).eps
    values, _, rank, _ = np.linalg.lstsq(qs, qc, rcond=rcond)
    if rank < m_elems:
        raise DegenerateGeometryError(
            f"isolated fields span only rank {rank} of {m_elems}; "
            "element translations are degenerate on this grid",
            effective_rank=int(rank),
        )
    misfit = float(np.linalg.norm(qs @ values - qc))
    scale = float(np.linalg.norm(qc))
    residual = misfit / scale if scale > 0.0 else 0.0
    return CouplingMatrix(values=values, source="estimated", estimation_residual=residual)


def default_truncation(geometry: ArrayGeometry) -> int:
    """Expansion order for coupling estimation on this array.

    Applies the truncation rule to the sphere enclosing the whole array:
    half the end-to-end length plus a 0.25-wavelength element radius.
    """
    return truncation_degree(geometry.length / 2.0 + 0.25)


def fixture_testbed(
    geometry: ArrayGeometry,
    pattern: ElementPattern,
    gamma: float,
    beta: float,
    truncation: int | None = None,
) -> tuple:
    """Testbed fields of the parametric fixture: (N, fixture, isolated, active).

    The isolated and active fields of every element sit on the default fit
    grid of order N; ``truncation`` None selects N by default_truncation.
    """
    fixture = coupling_fixture(geometry.element_count, gamma, beta)
    trunc = default_truncation(geometry) if truncation is None else truncation
    isolated = isolated_fields_synthetic(geometry, pattern, _fit_grid(_truncation_order(trunc)))
    active = synthesize_coupled_fields(isolated, fixture)
    return trunc, fixture, isolated, active


def estimate_fixture_coupling(
    geometry: ArrayGeometry,
    pattern: ElementPattern,
    gamma: float,
    beta: float,
    truncation: int | None = None,
) -> CouplingMatrix:
    """Estimate the parametric fixture back through the full pipeline.

    Synthesizes the fixture's testbed fields (fixture_testbed; a falsy
    ``truncation`` is automatic) and runs the spherical-wave estimation, so
    the returned matrix is ``estimated`` (it reproduces the fixture up to the
    numerical noise of the fit).
    """
    trunc, _, isolated, active = fixture_testbed(geometry, pattern, gamma, beta, truncation or None)
    return ElementFieldLibrary(isolated, active).estimate(trunc)


def active_element_pattern(
    geometry: ArrayGeometry,
    pattern: ElementPattern,
    coupling: CouplingMatrix,
    element: int,
    theta,
    phi,
):
    """Scalar active pattern of one driven port under coupling.

    ``element`` is 1-based (antenna convention): port n radiates
    k(theta, phi) * sum_m c_mn exp(j k r_hat . r_m). Accepts scalar or array
    angles.
    """
    if coupling.size != geometry.element_count:
        raise DimensionError("coupling matrix size does not match the array")
    element = _check_integer(element, "element index", 1)
    if element > geometry.element_count:
        raise DomainError(
            f"element index {element} out of range 1..{geometry.element_count}"
        )
    excitation = coupling.values[:, element - 1]
    return evaluate_array_pattern(geometry, pattern, excitation, theta, phi)

"""Spacing sweeps over the beamforming pipeline.

Points run one after another in spacing order. Each input that does not
depend on the spacing has one owner, which builds it once and shares it:
ElementPattern.from_kind (one pattern per kind) and
SphereQuadrature.gauss_legendre (one rule per pair of node counts), whose
identity keys the impedance ring weights; the coupling source, parsed once
into a function of the geometry; and, per truncation order N of a synthetic
source, the fit grid, its checks and equiangular layout (swe._grid), the
element field on it and the order factors of its fit, each cached by the
grid's values. The pattern toward (theta0, phi0) is evaluated once per sweep.
The impedance matrices of all spacings are built as one stack (one
phase table, one batched matmul, one stacked cond and QR), a block of
spacings at a time so that memory does not grow with the number of steps,
and the steering systems of a block are solved together by one stacked
substitution on its factors. Each point then checks its own solve and
derives both the optimum and the compensated excitation from it.

Coupling sources: ``identity`` and ``file:<path>`` supply the matrix
directly; ``synthetic:gamma=<g>,beta=<b>`` synthesizes the parametric
fixture's testbed fields for each geometry and estimates the matrix back
through the spherical-wave pipeline, which is what a measurement-driven run
would do (the truncation override applies there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fileio
from .arraymodel import (
    ANALYTIC_KINDS,
    ArrayGeometry,
    ElementPattern,
    _check_integer,
    _steering,
    steering_vector,
)
from .beamform import (
    _compensated,
    _optimum,
    _solve_steering,
    _substitute,
    coupled_directivity,
    gain,
)
from .coupling import CouplingMatrix, estimate_fixture_coupling
from .errors import NUMERICAL_FAILURES, DataError, DomainError
from .radiation import (
    DEFAULT_NODES,
    SphereQuadrature,
    _check_residue,
    _impedance_blocks,
    impedance_matrix,
)


@dataclass(frozen=True)
class SweepSpec:
    """Parameters of one spacing sweep.

    Angles are in degrees (the CLI boundary convention); spacings in
    wavelengths. ``truncation`` overrides the expansion order used when the
    coupling source requires spherical-wave estimation; 0 selects the
    automatic rule from the array extent.
    """

    antennas: int
    pattern_kind: str = "isotropic"
    spacing_start: float = 0.05
    spacing_stop: float = 0.5
    spacing_steps: int = 10
    theta0_deg: float = 0.0
    phi0_deg: float = 0.0
    efficiency: float = 1.0
    coupling_source: str = "identity"
    quadrature_theta: int = DEFAULT_NODES[0]
    quadrature_phi: int = DEFAULT_NODES[1]
    truncation: int = 0

    def __post_init__(self):
        for name, minimum in (("antennas", 1), ("spacing_steps", 1), ("quadrature_theta", 1),
                              ("quadrature_phi", 1), ("truncation", 0)):
            object.__setattr__(self, name, _check_integer(getattr(self, name), name, minimum))
        if self.pattern_kind not in ANALYTIC_KINDS:
            raise DomainError(
                f"sweep pattern must be one of the analytic kinds, not {self.pattern_kind!r}"
            )
        if not self.spacing_start > 0.0:
            raise DomainError("spacing_start must be positive")
        if self.spacing_steps > 1:  # one step never uses the stop; its geometry checks the start
            if not np.isfinite(self.spacing_start):
                raise DomainError("spacing_start must be finite")
            if self.spacing_stop < self.spacing_start:
                raise DomainError("spacing_stop must be >= spacing_start")
            if not np.isfinite(self.spacing_stop):
                raise DomainError("spacing_stop must be finite")
        if not 0.0 <= self.theta0_deg <= 180.0:
            raise DomainError("theta0_deg must lie in [0, 180]")
        if not np.isfinite(self.phi0_deg):
            raise DomainError("phi0_deg must be finite")
        if not 0.0 < self.efficiency <= 1.0:
            raise DomainError("efficiency must lie in (0, 1]")

    @property
    def spacings(self) -> np.ndarray:
        if self.spacing_steps == 1:
            return np.asarray([self.spacing_start])
        return np.linspace(self.spacing_start, self.spacing_stop, self.spacing_steps)


@dataclass(frozen=True)
class SweepRow:
    """One sweep point; flagged rows carry NaNs and a note."""

    spacing: float
    dmax: float
    d_traditional: float
    d_coupled: float
    gain: float
    condition_number: float
    note: str = ""


def _parse_fixture_params(body: str) -> tuple:
    params = {}
    for item in body.split(","):
        if "=" not in item:
            raise DomainError(f"bad synthetic coupling parameter {item!r}")
        key, value = item.split("=", 1)
        try:
            params[key.strip()] = float(value)
        except ValueError as exc:
            raise DomainError(f"bad synthetic coupling value {value!r}") from exc
    if set(params) != {"gamma", "beta"}:
        raise DomainError("synthetic coupling needs exactly gamma=<g>,beta=<b>")
    return params["gamma"], params["beta"]


def parse_coupling_source(
    text: str,
    element_count: int,
    geometry: ArrayGeometry | None = None,
    pattern: ElementPattern | None = None,
    truncation: int = 0,
) -> CouplingMatrix:
    """Resolve a coupling-source string to a matrix.

    ``synthetic:`` sources run the estimation pipeline and so need a
    geometry and a pattern. ``file:`` sources are read by
    ``fileio.read_coupling``.
    """
    return _coupling_source(text, element_count, pattern, truncation)(geometry)


def _coupling_source(text, element_count, pattern, truncation):
    """The coupling matrix of a source string as a function of the geometry.

    The string is parsed, and an ``identity`` or ``file:`` matrix built,
    once; a ``synthetic:`` source estimates the matrix of each geometry.
    """
    if text == "identity":
        matrix = CouplingMatrix.identity(element_count)
    elif text.startswith("file:"):
        path = text[len("file:"):]
        if not path:
            raise DomainError("file: coupling source needs a path")
        matrix = fileio.read_coupling(path)
        if matrix.size != element_count:
            raise DataError(
                f"coupling file is {matrix.size}x{matrix.size} "
                f"but the array has {element_count} elements"
            )
    elif text.startswith("synthetic:"):
        gamma, beta = _parse_fixture_params(text[len("synthetic:"):])

        def estimate(geometry):
            if geometry is None or pattern is None:
                raise DomainError("synthetic coupling source needs a geometry and a pattern")
            return estimate_fixture_coupling(geometry, pattern, gamma, beta, truncation=truncation)

        return estimate
    else:
        raise DomainError(f"unknown coupling source {text!r}")
    return lambda geometry: matrix


def evaluate_point(
    geometry: ArrayGeometry,
    pattern: ElementPattern,
    quadrature: SphereQuadrature,
    coupling: CouplingMatrix,
    theta0: float,
    phi0: float,
    efficiency: float,
    loading: float = 0.0,
) -> tuple:
    """One beamforming point: its unflagged SweepRow and the compensated excitation.

    Builds Z (with diagonal ``loading``) and the steering vector toward
    (theta0, phi0) in radians, then the optimum, the directivity the
    uncoupled-optimal excitation achieves under ``coupling``, the
    coupling-compensated excitation and its gain at ``efficiency``. Errors
    propagate; run_sweep turns the numerical ones into flagged rows.
    """
    impedance = impedance_matrix(geometry, pattern, quadrature, loading=loading)
    steering = steering_vector(geometry, pattern, theta0, phi0)
    return _beamform_point(impedance, steering, coupling, efficiency, None, geometry.spacing)


def _beamform_point(impedance, steering, coupling, efficiency, solved, spacing) -> tuple:
    """The beamforming of one point from one steering solve: its row and excitation.

    The unnormalized x = Z^-1 e* gives both the optimum and the compensated
    excitation. evaluate_point and run_sweep share this step; ``solved`` is
    the point's (x, y, D, pivot) from run_sweep's stacked solve, or None to
    solve it here.
    """
    x, dmax = _solve_steering(impedance, steering, solved=solved)
    uncoupled = _optimum(impedance, x, dmax)
    d_trad = coupled_directivity(impedance, coupling, steering, uncoupled.excitation)
    compensated = _compensated(impedance, coupling, steering, x)
    g = gain(impedance, coupling, steering, compensated.excitation, efficiency)
    row = SweepRow(
        spacing=spacing,
        dmax=uncoupled.directivity,
        d_traditional=d_trad,
        d_coupled=compensated.directivity,
        gain=g,
        condition_number=impedance.condition_number,
    )
    return row, compensated.excitation


def run_sweep(spec: SweepSpec, threads: int | None = None) -> list:
    """Evaluate every sweep point, in spacing order.

    Builds the impedance matrices of all spacings as one stack, evaluates
    the pattern toward (theta0, phi0) once and solves the steering systems
    of each block of spacings in one _substitute call; each point is then
    one _beamform_point step. Singular or untrustworthy points are flagged with
    NaNs and the sweep continues. ``threads`` is accepted for compatibility
    and ignored: points run serially.
    """
    pattern = ElementPattern.from_kind(spec.pattern_kind)
    quadrature = SphereQuadrature.gauss_legendre(spec.quadrature_theta, spec.quadrature_phi)
    spacings = spec.spacings
    geometries = [ArrayGeometry(spec.antennas, float(s)) for s in spacings]
    coupling_of = _coupling_source(spec.coupling_source, spec.antennas, pattern, spec.truncation)
    theta0 = math.radians(spec.theta0_deg)
    pattern_value = pattern.evaluate(theta0, math.radians(spec.phi0_deg))
    steerings = [_steering(pattern_value, theta0, g.z_positions) for g in geometries]

    def one_point(geometry: ArrayGeometry, steering, impedance, residue, solved) -> SweepRow:
        try:
            matrix = coupling_of(geometry)
            _check_residue(residue)
            return _beamform_point(impedance, steering, matrix, spec.efficiency, solved,
                                   geometry.spacing)[0]
        except NUMERICAL_FAILURES as exc:
            cond = getattr(exc, "condition_number", None)
            return SweepRow(
                spacing=geometry.spacing,
                dmax=float("nan"),
                d_traditional=float("nan"),
                d_coupled=float("nan"),
                gain=float("nan"),
                condition_number=float("nan") if cond is None else float(cond),
                note=str(exc),
            )

    rows = []
    blocks = _impedance_blocks(spacings, spec.antennas, pattern, quadrature)
    for matrices, factors, residues in blocks:
        block = slice(len(rows), len(rows) + len(matrices))
        rhs = np.array([steering.values for steering in steerings[block]]).conj()
        solves = zip(*_substitute(factors, rhs))
        rows += map(one_point, geometries[block], steerings[block], matrices, residues, solves)
    return rows

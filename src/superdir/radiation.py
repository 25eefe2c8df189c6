"""Radiated-power quadrature, normalized impedance matrix, and directivity.

The impedance matrix here is the dimensionless radiation coupling matrix

    z_mn = (1/4pi) * integral |k(theta, phi)|^2
           * exp(+j k r_hat . r_m) * exp(-j k r_hat . r_n) dOmega

so that a^T Z a* is the total radiated power of excitation ``a`` and the
isotropic diagonal is exactly 1. Integration uses Gauss-Legendre nodes in
cos(theta) crossed with a uniform phi grid, which integrates the smooth,
phi-periodic integrands here to machine precision at modest sizes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .arraymodel import WAVE_NUMBER, ArrayGeometry, ElementPattern, _check_integer, steering_vector
from .errors import (
    AccuracyError,
    ConditioningError,
    DegenerateInputError,
    DimensionError,
    DomainError,
)

_IMAG_RESIDUE_TOL = 1e-10
_REFINEMENT_TOL = 1e-10

DEFAULT_NODES = (64, 128)  # (theta, phi) node counts of default_quadrature
# phase-table bytes of one block of a sweep's spacings; building a block peaks near 3.5x this
_STACK_BYTES = 2**19


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Product quadrature over the unit sphere.

    Gauss-Legendre nodes/weights in cos(theta) crossed with ``phi_count``
    uniformly spaced azimuth nodes of equal weight. The combined solid-angle
    weights sum to 4*pi.
    """

    theta: np.ndarray
    theta_weights: np.ndarray
    phi_count: int

    def __post_init__(self):
        # private read-only copies: _ring_weights caches results by identity
        th = np.array(self.theta, dtype=float).reshape(-1)
        w = np.array(self.theta_weights, dtype=float).reshape(-1)
        th.flags.writeable = w.flags.writeable = False
        if th.size != w.size or th.size < 1:
            raise DimensionError("theta and theta_weights must have equal nonzero length")
        if np.any(w <= 0.0):
            raise DomainError("quadrature weights must be positive")
        object.__setattr__(self, "phi_count", _check_integer(self.phi_count, "phi_count", 1))
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "theta_weights", w)
        # exactness on constants: (1/4pi) * sum of weights == 1
        if abs(w.sum() / 2.0 - 1.0) > 1e-14:
            raise AccuracyError("quadrature does not integrate a constant to 1")

    @classmethod
    def gauss_legendre(
        cls, theta_count: int = DEFAULT_NODES[0], phi_count: int = DEFAULT_NODES[1]
    ) -> "SphereQuadrature":
        """Standard quadrature with ``theta_count`` polar nodes; one shared instance per count pair."""
        theta_count = _check_integer(theta_count, "theta_count", 1)
        return cls._gauss_legendre(theta_count, _check_integer(phi_count, "phi_count", 1))

    @classmethod
    @functools.lru_cache(maxsize=8)
    def _gauss_legendre(cls, theta_count, phi_count):
        x, w = np.polynomial.legendre.leggauss(theta_count)
        return cls(theta=np.arccos(x[::-1]), theta_weights=w[::-1], phi_count=phi_count)

    @property
    def phi(self) -> np.ndarray:
        """Azimuth nodes, uniformly spaced on [0, 2*pi)."""
        return 2.0 * np.pi * np.arange(self.phi_count) / self.phi_count

    def directions(self) -> np.ndarray:
        """All (theta, phi) node pairs as an (N_theta * N_phi, 2) array."""
        th, ph = np.meshgrid(self.theta, self.phi, indexing="ij")
        return np.column_stack((th.ravel(), ph.ravel()))

    def weights(self) -> np.ndarray:
        """Solid-angle weight per direction node; sums to 4*pi."""
        per_phi = 2.0 * np.pi / self.phi_count
        return np.repeat(self.theta_weights * per_phi, self.phi_count)

    def double_density(self) -> "SphereQuadrature":
        """Same scheme at twice the node count on both axes.

        The shared rule of those counts, so repeated certified builds reuse
        one refined rule and its cached ring weights.
        """
        return SphereQuadrature.gauss_legendre(2 * self.theta.size, 2 * self.phi_count)


def default_quadrature() -> SphereQuadrature:
    """The shared Gauss-Legendre/uniform product rule of DEFAULT_NODES."""
    return SphereQuadrature.gauss_legendre(*DEFAULT_NODES)


@dataclass(frozen=True, eq=False)
class ImpedanceMatrix:
    """Normalized radiation impedance matrix of an array.

    ``values`` is real symmetric positive semidefinite and
    ``condition_number`` is the 2-norm condition estimate of ``values``
    (after any diagonal loading). ``factor`` is an upper-triangular R with
    R^T R = ``values``: ``impedance_matrix`` stores the one it gets from the
    quadrature, and a matrix built from its values alone factors them by
    Cholesky when first asked, so the two never disagree.
    """

    values: np.ndarray
    condition_number: float
    factor: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise DimensionError("impedance matrix must be square")
        if not np.isfinite(vals).all():
            raise DomainError("impedance matrix values must be finite")
        # exact: _impedance_stack symmetrizes what it builds, and a Cholesky factor reads one triangle
        if (vals != vals.T).any():
            raise DomainError("impedance matrix must be symmetric")
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def square_root(self) -> np.ndarray:
        """The triangular factor R with R^T R = Z."""
        if self.factor is None:
            try:
                object.__setattr__(self, "factor", np.linalg.cholesky(self.values).T)
            except np.linalg.LinAlgError as exc:
                raise ConditioningError("impedance matrix is not positive definite") from exc
        return self.factor


@functools.lru_cache(maxsize=8)
def _ring_weights(pattern, quadrature):
    """Ring integral g(theta) of |k|^2 over phi, times the theta weights, read-only.

    Phases depend on theta only for a z-axis array, so phi folds into these
    weights. They depend on neither the spacing nor the element count, so a
    sweep evaluates its pattern on the grid once. Both arguments are
    immutable and compare by identity.
    """
    th_grid, ph_grid = np.meshgrid(quadrature.theta, quadrature.phi, indexing="ij")
    k_abs2 = np.abs(pattern.evaluate(th_grid, ph_grid)) ** 2
    g = (k_abs2.sum(axis=1) * (2.0 * np.pi / quadrature.phi_count)) * quadrature.theta_weights
    g.flags.writeable = False
    return g


def _impedance_stack(spacings, element_count, pattern, quadrature, loading=0.0):
    """Impedance matrices of one element count at each of ``spacings``, built together.

    One phase table P (S, T, M) and one batched matmul give every Z, since
    the spacings share the ring weights g. Returns one ImpedanceMatrix per
    spacing, with ``loading`` I added and its condition number and factor
    each from one stacked call; the unloaded Z stack (S, M, M); the stack
    of those factors (S, M, M); and the largest imaginary residue of each Z
    (S,), which the caller passes to _check_residue before using that
    matrix. The factor is the QR ``r`` of [B; sqrt(loading) I] with
    B = sqrt(g/4pi) [Re P; Im P], whose Gram matrix B^T B is Z since
    Re(P^T g P*) = Re^T g Re + Im^T g Im.
    """
    if not loading >= 0.0:
        raise DomainError("diagonal loading must be >= 0")
    if not np.isfinite(loading):
        raise DomainError("diagonal loading must be finite")
    g = _ring_weights(pattern, quadrature)
    nodes = quadrature.theta.size
    z = spacings[:, None] * np.arange(element_count, dtype=float)
    phases = np.exp(1j * WAVE_NUMBER * (np.cos(quadrature.theta)[None, :, None] * z[:, None, :]))
    raw = (np.swapaxes(phases, 1, 2) * g) @ phases.conj() / (4.0 * np.pi)
    residues = np.max(np.abs(raw.imag), axis=(1, 2))
    values = 0.5 * (raw.real + np.swapaxes(raw.real, 1, 2))
    identity = np.eye(element_count)
    loaded = values + loading * identity if loading > 0.0 else values
    conds = np.linalg.cond(loaded)
    # the loading rows also keep R square when there are fewer nodes than elements
    rows = np.empty((spacings.size, 2 * nodes + element_count, element_count))
    phases *= np.sqrt(g / (4.0 * np.pi))[:, None]
    rows[:, :nodes] = phases.real
    rows[:, nodes:2 * nodes] = phases.imag
    rows[:, 2 * nodes:] = np.sqrt(loading) * identity
    factors = np.linalg.qr(rows, mode="r")
    matrices = []
    for value, cond, factor in zip(loaded, conds, factors):
        impedance = ImpedanceMatrix(values=value, condition_number=float(cond))
        object.__setattr__(impedance, "factor", factor)
        matrices.append(impedance)
    return matrices, values, factors, residues


def _check_residue(residue):
    if residue > _IMAG_RESIDUE_TOL:
        raise AccuracyError(
            f"impedance integrand left an imaginary residue of {float(residue):.3e}"
        )


def _impedance_blocks(spacings, element_count, pattern, quadrature, loading=0.0):
    """(ImpedanceMatrix list, factor stack, imaginary residues) per block of spacings.

    Builds one stack, with ``loading`` I, per block of spacings whose phase table fits
    in _STACK_BYTES, so memory does not grow with the number of spacings.
    The blocks come in spacing order; the factor stack (S, M, M) holds the
    factors of the block's matrices, for one stacked steering solve.
    """
    block = max(1, _STACK_BYTES // (16 * quadrature.theta.size * element_count))
    for start in range(0, len(spacings), block):
        matrices, _, factors, residues = _impedance_stack(
            spacings[start:start + block], element_count, pattern, quadrature, loading
        )
        yield matrices, factors, residues


def impedance_matrix(
    geometry: ArrayGeometry,
    pattern: ElementPattern,
    quadrature: SphereQuadrature | None = None,
    *,
    loading: float = 0.0,
    certified: bool = False,
) -> ImpedanceMatrix:
    """Normalized impedance matrix of the array.

    Parameters
    ----------
    geometry, pattern : ArrayGeometry, ElementPattern
        Array layout and common element pattern.
    quadrature : SphereQuadrature, optional
        Integration rule; defaults to default_quadrature().
    loading : float, optional
        Diagonal loading delta >= 0 added as delta * I for near-singular
        small-spacing studies. Default 0 (no regularization).
    certified : bool, optional
        When true, recompute at double quadrature density and require the
        two results to agree within 1e-10, otherwise raise AccuracyError.

    Returns
    -------
    ImpedanceMatrix
        Real symmetric matrix with its condition number attached, factored as
        the QR ``r`` of [B; sqrt(loading) I] for B the weighted phases.
    """
    quadrature = quadrature or default_quadrature()
    spacing = np.array([geometry.spacing])
    count = geometry.element_count
    matrices, values, _, residues = _impedance_stack(spacing, count, pattern, quadrature, loading)
    _check_residue(residues[0])
    if certified:
        _, refined, _, refined_residues = _impedance_stack(
            spacing, count, pattern, quadrature.double_density()
        )
        _check_residue(refined_residues[0])
        drift = float(np.max(np.abs(values[0] - refined[0])))
        if drift > _REFINEMENT_TOL:
            raise AccuracyError(
                f"quadrature too coarse: refinement moved entries by {drift:.3e}"
            )
    return matrices[0]


def power_quotient(impedance: ImpedanceMatrix, e, w, r_loss: float = 0.0) -> float:
    """Directivity |e^T w|^2 / (w^T Z w*) of the radiating excitation ``w``.

    The radiated power w^T Z w* is evaluated as ||R w||^2 through the factor.
    With a loss resistance ``r_loss`` the denominator becomes the accepted
    power ||R w||^2 + r_loss ||w||^2, and the quotient is the gain.
    """
    radiating = impedance.square_root() @ w
    power = np.vdot(radiating, radiating).real + r_loss * np.vdot(w, w).real
    return float(abs(np.dot(e, w)) ** 2 / power)


def directivity(
    geometry: ArrayGeometry,
    pattern: ElementPattern,
    impedance: ImpedanceMatrix,
    excitation,
    theta0: float,
    phi0: float,
) -> float:
    """Directivity of excitation ``a`` toward (theta0, phi0).

    Evaluates |a^T e|^2 / (a^T Z a*) with e the steering vector toward the
    requested direction.
    """
    a = np.asarray(excitation, dtype=complex).reshape(-1)
    if a.size != geometry.element_count or impedance.size != geometry.element_count:
        raise DimensionError("excitation/impedance size does not match the array")
    if not np.any(a):
        raise DegenerateInputError("excitation must not be the zero vector")
    e = steering_vector(geometry, pattern, theta0, phi0).values
    return power_quotient(impedance, e, a)

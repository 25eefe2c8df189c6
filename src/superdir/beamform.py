"""Maximum-directivity excitations, with and without coupling compensation.

Directivity is a generalized Rayleigh quotient |a^T e|^2 / (a^T Z a*), so the
optimum is a closed-form solve against Z (the numerator matrix has rank one);
no iterative eigensolver is involved. Every solve and every power goes through
the triangular factor R^T R = Z, never through Z itself. With a coupling
matrix C the port excitation b is driven so that the radiating excitation C b
realizes the same optimum: b = C^-1 Z^-1 e*.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .arraymodel import SteeringVector
from .coupling import CouplingMatrix
from .errors import (
    DegenerateInputError,
    DimensionError,
    DomainError,
    SingularMatrixError,
)
from .radiation import ImpedanceMatrix, power_quotient

_CONDITION_WARN = 1e12


@dataclass(frozen=True, eq=False)
class BeamformingSolution:
    """An excitation together with the directivity it realizes.

    ``excitation`` is normalized to unit radiated power: a^T Z a* = 1 in
    uncoupled mode and (C b)^T Z (C b)* = 1 in coupled mode. The global phase
    is fixed by a real positive scale on Z^-1 e*.
    """

    excitation: np.ndarray
    directivity: float
    condition_number: float
    loss_resistance: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "excitation", np.asarray(self.excitation, dtype=complex).reshape(-1))


def _check_sizes(impedance: ImpedanceMatrix, steering: SteeringVector, coupling: CouplingMatrix | None = None):
    m = impedance.size
    if len(steering) != m:
        raise DimensionError("steering vector length does not match the impedance matrix")
    if coupling is not None and coupling.size != m:
        raise DimensionError("coupling matrix size does not match the impedance matrix")


def _substitute(factors: np.ndarray, rhs: np.ndarray) -> tuple:
    """Solve R^T y = rhs, then R x = y, for a stack of upper-triangular factors.

    ``factors`` is a real (S, M, M) stack and ``rhs`` a complex (S, M) one.
    Each substitution step finishes one row of all S systems and updates the
    rows after it (before it, going back), in real arithmetic on the real
    and imaginary parts. Every system thus gets the same operations in the
    same order whatever S is, so its results are bit for bit those of its
    S = 1 solve. Returns x (S, M), y (S, M), D = ||y||^2 (S,), and the
    1-based index of the first zero diagonal entry of each R (0 where there
    is none); the solve of such a system is non-finite, raises no NumPy
    warning and leaves the other systems unchanged.
    """
    count, size = rhs.shape
    diagonal = np.diagonal(factors, axis1=1, axis2=2)
    zero = diagonal == 0.0
    pivots = np.where(zero.any(axis=1), zero.argmax(axis=1) + 1, 0)
    y = np.array(rhs, dtype=complex).view(float).reshape(count, size, 2)  # real, imaginary
    dmax = np.zeros(count)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(size):  # forward: row k of R^T is column k of R
            y[:, k] /= diagonal[:, k, None]
            dmax += (y[:, k] * y[:, k]).sum(axis=1)
            y[:, k + 1:] -= factors[:, k, k + 1:, None] * y[:, k, None, :]
        x = y.copy()
        for k in reversed(range(size)):  # back
            x[:, k] /= diagonal[:, k, None]
            x[:, :k] -= factors[:, :k, k, None] * x[:, k, None, :]
    return x.view(complex)[..., 0], y.view(complex)[..., 0], dmax, pivots


def _solve_steering(
    impedance: ImpedanceMatrix, steering: SteeringVector, r_loss: float = 0.0, solved=None
) -> tuple:
    """x = (Z + r_loss I)^-1 e* and D = e^H x, the unnormalized optimum and its directivity.

    Solves through the triangular factor R^T R = Z + r_loss I, so y = R^-T e*
    loses digits like sqrt(cond(Z)) rather than cond(Z), and D = ||y||^2.
    ``solved`` is this system's (x, y, D, pivot) when a stacked _substitute
    call has already solved it, as run_sweep does for each block of spacings;
    otherwise it is solved here as a stack of one. Either way the checks
    run in the same order, so the same point raises and warns the same.
    """
    e = steering.values
    if not np.any(e):
        raise DegenerateInputError("steering vector is zero; element pattern has a null there")
    identity = np.eye(impedance.size)
    cond = impedance.condition_number
    if r_loss:
        cond = float(np.linalg.cond(impedance.values + r_loss * identity))
    if not np.isfinite(cond):
        raise SingularMatrixError(
            f"impedance matrix is singular (condition estimate {cond})",
            condition_number=cond,
        )
    if cond > _CONDITION_WARN:
        warnings.warn(
            f"impedance matrix condition number {cond:.3e} exceeds {_CONDITION_WARN:.0e}; "
            "results may lose precision",
            RuntimeWarning,
            stacklevel=3,  # public entry point -> here; report its caller
        )
    if solved is None:
        r = impedance.square_root()
        if r_loss:
            r = np.linalg.qr(np.vstack((r, np.sqrt(r_loss) * identity)), mode="r")
        solved = [column[0] for column in _substitute(r[None], e.conj()[None])]
    x, _, dmax, pivot = solved
    if pivot:  # R[pivot - 1, pivot - 1] == 0, e.g. fewer quadrature nodes than elements
        raise SingularMatrixError(
            f"impedance matrix is singular: zero pivot {pivot} (condition estimate {cond:.3e})",
            condition_number=cond,
        )
    return x, float(dmax)


def _port_excitation(impedance: ImpedanceMatrix, excitation) -> np.ndarray:
    b = np.asarray(excitation, dtype=complex).reshape(-1)
    if b.size != impedance.size:
        raise DimensionError("excitation length does not match the array")
    if not np.any(b):
        raise DegenerateInputError("excitation must not be the zero vector")
    return b


def _compensated(impedance, coupling, steering, x, r_loss=0.0) -> BeamformingSolution:
    """Port excitation b = zeta C^-1 x, scaled to unit radiated power ||R x||^2."""
    try:
        b = np.linalg.solve(coupling.values, x) / np.linalg.norm(impedance.square_root() @ x)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(coupling.values))
        raise SingularMatrixError(
            f"coupling matrix is singular: {exc}", condition_number=cond
        ) from exc
    return BeamformingSolution(
        excitation=b,
        directivity=power_quotient(impedance, steering.values, coupling.values @ b),
        condition_number=impedance.condition_number,
        loss_resistance=r_loss,
    )


def _optimum(impedance, x, dmax) -> BeamformingSolution:
    """The unit-power optimum x / sqrt(D_max) from _solve_steering's x and D_max."""
    return BeamformingSolution(
        excitation=x / np.sqrt(dmax),
        directivity=dmax,
        condition_number=impedance.condition_number,
    )


def loss_resistance(efficiency: float) -> float:
    """Normalized series loss resistance (1 - eta) / eta of one element."""
    if not 0.0 < efficiency <= 1.0:
        raise DomainError("antenna efficiency must lie in (0, 1]")
    return (1.0 - efficiency) / efficiency


def optimal_beamforming(impedance: ImpedanceMatrix, steering: SteeringVector) -> BeamformingSolution:
    """Maximum-directivity excitation a = mu Z^-1 e* toward the steering direction.

    Returns the unit-power excitation and the optimum D_max = e^H Z^-1 e,
    which upper-bounds the directivity of every other excitation.
    """
    _check_sizes(impedance, steering)
    return _optimum(impedance, *_solve_steering(impedance, steering))


def coupled_directivity(
    impedance: ImpedanceMatrix,
    coupling: CouplingMatrix,
    steering: SteeringVector,
    excitation,
) -> float:
    """Directivity realized by port excitation b when the array couples as C.

    Evaluates |e^T C b|^2 / ((C b)^T Z (C b)*): the radiating excitation is
    C b, not b itself.
    """
    _check_sizes(impedance, steering, coupling)
    b = _port_excitation(impedance, excitation)
    return power_quotient(impedance, steering.values, coupling.values @ b)


def coupled_beamforming(
    impedance: ImpedanceMatrix,
    coupling: CouplingMatrix,
    steering: SteeringVector,
) -> BeamformingSolution:
    """Port excitation b = zeta C^-1 Z^-1 e* that restores the optimum under coupling.

    The reported directivity is evaluated through the coupled quotient, so it
    equals D_max only insofar as the solve is numerically exact.
    """
    _check_sizes(impedance, steering, coupling)
    return _compensated(impedance, coupling, steering, _solve_steering(impedance, steering)[0])


def gain(
    impedance: ImpedanceMatrix,
    coupling: CouplingMatrix,
    steering: SteeringVector,
    excitation,
    efficiency: float,
) -> float:
    """Gain of port excitation b with per-element efficiency eta.

    Adds the normalized loss resistance r_loss = (1 - eta)/eta to the
    radiated-power form: |e^T C b|^2 / ((C b)^T (Z + r_loss I) (C b)*).
    Never exceeds the coupled directivity; equal only when eta = 1.
    """
    _check_sizes(impedance, steering, coupling)
    r_loss = loss_resistance(efficiency)
    b = _port_excitation(impedance, excitation)
    return power_quotient(impedance, steering.values, coupling.values @ b, r_loss)


def gain_optimal_beamforming(
    impedance: ImpedanceMatrix,
    coupling: CouplingMatrix,
    steering: SteeringVector,
    efficiency: float,
) -> BeamformingSolution:
    """Gain-optimal port excitation b = zeta C^-1 (Z + r_loss I)^-1 e*.

    Extension beyond the directivity-optimal solution: maximizes gain instead
    of directivity by loading the radiated-power matrix with the loss
    resistance. The ``directivity`` field still reports the coupled
    directivity that this excitation realizes.
    """
    _check_sizes(impedance, steering, coupling)
    r_loss = loss_resistance(efficiency)
    x, _ = _solve_steering(impedance, steering, r_loss)
    return _compensated(impedance, coupling, steering, x, r_loss)

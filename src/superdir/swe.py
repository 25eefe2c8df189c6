"""Spherical wave expansion of far fields sampled on the sphere.

A tangential far field (E_theta, E_phi) is expanded on the far-field
spherical wave functions

    K_1mn = sqrt(2/(n(n+1))) (-m/|m|)^m e^{jm phi} (-j)^{n+1}
            [ j m Pbar/sin(theta), -dPbar/dtheta ]          (TE)
    K_2mn = sqrt(2/(n(n+1))) (-m/|m|)^m e^{jm phi} (-j)^n
            [ dPbar/dtheta, j m Pbar/sin(theta) ]           (TM)

with Pbar the associated Legendre function of degree n and order |m|,
normalized to unit L2 norm on [-1, 1] and carrying no Condon-Shortley phase
(the (-m/|m|)^m factor, defined as 1 for m = 0, supplies the sign). Under
this convention the K functions are orthonormal for the sphere-averaged
inner product (1/4pi) * integral K . K* dOmega, and the sum of |Q|^2 over
all modes equals the radiated power in the same normalization.

Angular factors are evaluated through stable three-term recurrences on the
pole-regular ratio Pbar/sin(theta), so the m = +-1 limits at theta in
{0, pi} come out exactly and every other order vanishes there, as required.

Least-squares fits on theta-major equiangular grids (each theta row sampled
at phi_l = 2 pi l / C with C >= 2N+1, such as default_fit_grid) are solved
one azimuthal order at a time after a DFT over phi (Hansen, Spherical
Near-Field Antenna Measurements, 1988, ch. 4); samples on any other set of
directions solve the dense basis in real arithmetic, on the real form of its
conjugate mode pairs (ibid., ch. 2). Both paths share the sampling, cutoff
and rank rules.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .arraymodel import WAVE_NUMBER, _check_angles
from .errors import (
    ConditioningError,
    DimensionError,
    DomainError,
    InsufficientSamplingError,
)


def truncation_degree(enclosing_radius: float) -> int:
    """Expansion order for sources inside a sphere of the given radius.

    Uses N = ceil(k * r0) + 10 with the radius in wavelengths, which keeps
    the discarded modes evanescent with a safety margin of ten orders.
    """
    if not enclosing_radius >= 0.0:
        raise DomainError("enclosing radius must be >= 0")
    if not np.isfinite(enclosing_radius):
        raise DomainError("enclosing radius must be finite")
    return int(np.ceil(WAVE_NUMBER * float(enclosing_radius))) + 10


def mode_count(truncation: int) -> int:
    """Number of spherical modes 2 N (N + 2) at truncation order N."""
    n = int(truncation)
    if n < 1:
        raise DomainError("truncation order must be >= 1")
    return 2 * n * (n + 2)


@dataclass(frozen=True)
class SweIndex:
    """Single spherical mode (s, m, n): s = 1 TE / 2 TM, degree n, order m."""

    s: int
    m: int
    n: int

    def __post_init__(self):
        if self.s not in (1, 2):
            raise DomainError("s must be 1 (TE) or 2 (TM)")
        if self.n < 1:
            raise DomainError("degree n must be >= 1")
        if abs(self.m) > self.n:
            raise DomainError("order m must satisfy |m| <= n")


@functools.lru_cache(maxsize=16)
def _mode_table(truncation):
    """Read-only rows (s, m, n) in flattened order; every column index here is a row position."""
    mode_count(truncation)
    rows = [(s, m, n) for n in range(1, truncation + 1) for m in range(-n, n + 1) for s in (1, 2)]
    table = np.array(rows)
    table.flags.writeable = False
    return table


def index_list(truncation: int) -> list:
    """All modes up to order N in flattened order (s fastest, then m, then n)."""
    return [SweIndex(s=int(s), m=int(m), n=int(n)) for s, m, n in _mode_table(int(truncation))]


@dataclass(frozen=True, eq=False)
class FieldSampleSet:
    """Tangential far-field samples on a set of sphere directions.

    ``directions`` holds (theta, phi) pairs in radians, shape (P, 2), with
    no exact duplicates; ``values`` interleaves the finite components as
    [E_theta(1), E_phi(1), E_theta(2), ...], shape (2P,).
    """

    directions: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        dirs = _check_directions(self.directions)
        vals = _check_values(self.values, dirs.shape[0], 1).reshape(-1)
        # complex order is (theta, phi) order, so equal directions end up adjacent
        ordered = np.sort(dirs[:, 0] + 1j * dirs[:, 1])
        if np.any(ordered[1:] == ordered[:-1]):
            raise DomainError("directions contain duplicates")
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_components(cls, directions, etheta, ephi) -> "FieldSampleSet":
        """Assemble a sample set from separate component arrays."""
        etheta = np.asarray(etheta, dtype=complex).reshape(-1)
        ephi = np.asarray(ephi, dtype=complex).reshape(-1)
        if etheta.size != ephi.size:
            raise DimensionError("component arrays must have equal length")
        values = np.empty(2 * etheta.size, dtype=complex)
        values[0::2] = etheta
        values[1::2] = ephi
        return cls(directions=directions, values=values)

    @property
    def point_count(self) -> int:
        return self.directions.shape[0]

    @property
    def etheta(self) -> np.ndarray:
        return self.values[0::2]

    @property
    def ephi(self) -> np.ndarray:
        return self.values[1::2]


@dataclass(frozen=True, eq=False)
class WaveCoefficientSet:
    """Spherical mode coefficients in flattened index order."""

    coefficients: np.ndarray
    truncation: int
    residual: float

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex).reshape(-1)
        if coeffs.size != mode_count(self.truncation):
            raise DimensionError(
                f"{coeffs.size} coefficients for truncation {self.truncation}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise DomainError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "residual", float(self.residual))


def total_power(coefficients: WaveCoefficientSet) -> float:
    """Radiated power sum |Q|^2 in the sphere-averaged normalization."""
    return float(np.sum(np.abs(coefficients.coefficients) ** 2))


def _angular_tables(truncation, theta):
    """Pole-regular angular factor tables for all degrees and orders.

    Returns (ratio, tau) with ratio[n, m] = Pbar_n^m(cos theta) / sin(theta)
    for m >= 1 and tau[n, m] = dPbar_n^m/dtheta, each of shape
    (N+1, N+1, len(theta)). The ratio satisfies the same three-term
    recurrence as Pbar itself, with the sin(theta) factor divided out of the
    seed, so pole values are the analytic limits with no special-casing.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    x = np.cos(theta)
    s = np.sin(theta)
    n_pts = theta.size
    trunc = int(truncation)
    ratio = np.zeros((trunc + 1, trunc + 1, n_pts))
    tau = np.zeros((trunc + 1, trunc + 1, n_pts))
    c_seed = np.sqrt(0.5)
    sin_pow = np.ones(n_pts)  # sin^(m-1) theta
    for m in range(1, trunc + 1):
        c_seed *= np.sqrt((2.0 * m + 1.0) / (2.0 * m))
        if m >= 2:
            sin_pow = sin_pow * s
        ratio[m, m] = c_seed * sin_pow
        if m + 1 <= trunc:
            ratio[m + 1, m] = np.sqrt(2.0 * m + 3.0) * x * ratio[m, m]
        for n in range(m + 2, trunc + 1):
            alpha = np.sqrt((4.0 * n * n - 1.0) / ((n - m) * (n + m)))
            beta = np.sqrt(
                ((2.0 * n + 1.0) * (n + m - 1.0) * (n - m - 1.0))
                / ((2.0 * n - 3.0) * (n - m) * (n + m))
            )
            ratio[n, m] = alpha * x * ratio[n - 1, m] - beta * ratio[n - 2, m]
        for n in range(m, trunc + 1):
            coeff = np.sqrt(((2.0 * n + 1.0) * (n * n - m * m)) / (2.0 * n - 1.0))
            prev = ratio[n - 1, m] if n - 1 >= m else 0.0
            tau[n, m] = n * x * ratio[n, m] - coeff * prev
    # m = 0: dPbar_n^0/dtheta = -sqrt(n(n+1)) * Pbar_n^1 (order-raising identity)
    for n in range(1, trunc + 1):
        tau[n, 0] = -np.sqrt(n * (n + 1.0)) * s * ratio[n, 1]
    return ratio, tau


def _check_directions(directions):
    dirs = np.asarray(directions, dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != 2:
        raise DimensionError("directions must have shape (P, 2)")
    _check_angles(dirs[:, 0], dirs[:, 1])
    return dirs


def _check_values(values, point_count, fields=-1):
    """(2P, K) complex table of ``fields`` finite fields (-1: any number), one per column."""
    vals = np.asarray(values, dtype=complex)
    try:
        table = vals.reshape(2 * point_count, fields)
    except ValueError:
        raise DimensionError("values must interleave 2 components per direction") from None
    if not np.all(np.isfinite(table)):
        raise DomainError("field values must be finite")
    return table


def _mode_factors(n, m, ratio, tau):
    """Theta parts of K_1mn and K_2mn, the e^{jm phi} factor left out.

    Returns (TE theta, TE phi, TM theta, TM phi) over the theta samples of
    the (ratio, tau) tables; every mode value in this module comes from here.
    """
    scale = np.sqrt(2.0 / (n * (n + 1.0)))
    sign = (-1.0) ** m if m > 0 else 1.0
    te = (-1j) ** (n + 1) * scale * sign
    tm = (-1j) ** n * scale * sign
    pi_m = 1j * m * ratio[n, abs(m)]
    tau_m = tau[n, abs(m)]
    return te * pi_m, -te * tau_m, tm * tau_m, tm * pi_m


def _order_block(m, truncation, ratio, tau):
    """Theta-only basis of azimuthal order m and its flattened column indices.

    Rows interleave the theta and phi components per theta sample, as in
    basis_matrix; columns hold (TE, TM) for n = max(1, |m|)..N.
    """
    degrees = range(max(1, abs(m)), truncation + 1)
    # stored mode-major so basis_matrix copies whole contiguous rows
    block = np.empty((2 * len(degrees), 2 * ratio.shape[2]), dtype=complex)
    for k, n in enumerate(degrees):
        te_th, te_ph, tm_th, tm_ph = _mode_factors(n, m, ratio, tau)
        block[2 * k, 0::2] = te_th
        block[2 * k, 1::2] = te_ph
        block[2 * k + 1, 0::2] = tm_th
        block[2 * k + 1, 1::2] = tm_ph
    return block.T, np.flatnonzero(_mode_table(truncation)[:, 1] == m)


def _phased_orders(directions, truncation, orders):
    """Mode-major K values of each order m in ``orders`` with their flattened columns.

    Yields (m, columns, values), values[k] holding mode columns[k] on the
    interleaved sample rows; this is the one column layout of both basis
    builders.
    """
    ratio, tau = _angular_tables(truncation, directions[:, 0])
    for m in orders:
        block, columns = _order_block(m, truncation, ratio, tau)
        yield m, columns, block.T * np.repeat(np.exp(1j * m * directions[:, 1]), 2)


def basis_matrix(directions, truncation: int) -> np.ndarray:
    """Far-field basis sampled on the given directions.

    Row 2p holds the theta component and row 2p+1 the phi component of every
    mode at direction p; columns follow the flattened (s, m, n) order, so the
    shape is (2P, 2N(N+2)).
    """
    dirs = _check_directions(directions)
    trunc = int(truncation)
    out = np.empty((mode_count(trunc), 2 * dirs.shape[0]), dtype=complex)  # mode-major
    for _, columns, values in _phased_orders(dirs, trunc, range(-trunc, trunc + 1)):
        out[columns] = values
    return out.T


# j^k = 1 / (-j)^k for k mod 4: undoes the unit factor of an m = 0 mode exactly
_INVERSE_UNITS = np.array([1.0, 1j, -1.0, -1j])


def _conjugate_pairs(truncation):
    """Column bookkeeping of the real basis in flattened (s, m, n) order.

    Returns (plus, minus, parity, zero, inverse_unit): the columns of the
    modes with m > 0, the columns of their (s, -m, n) partners, the parity
    (-1)^(s+m+n) of each pair, the columns with m = 0, and 1/omega for those,
    omega being (-j)^(n+1) for TE and (-j)^n for TM.
    """
    s, m, n = _mode_table(truncation).T
    plus = np.flatnonzero(m > 0)
    zero = np.flatnonzero(m == 0)
    parity = (-1.0) ** (s + m + n)[plus]
    inverse_unit = _INVERSE_UNITS[(n[zero] + (s[zero] == 1)) % 4]
    return plus, plus - 4 * m[plus], parity, zero, inverse_unit


def _real_basis_matrix(directions, truncation):
    """Real form R = K U of the basis, U unitary, shape (2P, 2N(N+2)).

    The modes come in conjugate pairs, conj K_{s,m,n} = (-1)^(s+m+n)
    K_{s,-m,n}, so the columns sqrt(2) Re K_m and sqrt(2) Im K_m (m > 0, put
    in the columns of m and -m) and K_0 / omega (real) span the same space
    with the same singular values; only orders m = 0..N are evaluated.
    """
    *_, inverse_unit = _conjugate_pairs(truncation)
    out = np.empty((mode_count(truncation), 2 * directions.shape[0]))  # mode-major
    root2 = np.sqrt(2.0)
    for m, columns, values in _phased_orders(directions, truncation, range(truncation + 1)):
        if m == 0:
            out[columns] = (values * inverse_unit[:, None]).real
        else:
            out[columns] = root2 * values.real
            out[columns - 4 * m] = root2 * values.imag
    return out.T


def _complex_coefficients(x, truncation):
    """Coefficients q of K from the coefficients x of the real basis."""
    plus, minus, parity, zero, inverse_unit = _conjugate_pairs(truncation)
    q = np.empty_like(x)
    root2 = np.sqrt(2.0)
    q[plus] = (x[plus] - 1j * x[minus]) / root2
    q[minus] = parity[:, None] * (x[plus] + 1j * x[minus]) / root2
    q[zero] = x[zero] * inverse_unit[:, None]
    return q


def eval_spherical_wave_function(index: SweIndex, theta, phi):
    """Components (K_theta, K_phi) of one mode, broadcasting over inputs.

    Pole directions evaluate to the analytic limits: finite for |m| = 1 and
    zero for every other order.
    """
    theta_b, phi_b = _check_angles(theta, phi)
    ratio, tau = _angular_tables(index.n, theta_b.ravel())
    factors = _mode_factors(index.n, index.m, ratio, tau)[2 * index.s - 2 : 2 * index.s]
    phase = np.exp(1j * index.m * phi_b.ravel())
    k_th, k_ph = ((f * phase).reshape(theta_b.shape) for f in factors)
    if k_th.ndim == 0:
        return complex(k_th), complex(k_ph)
    return k_th, k_ph


def default_fit_grid(truncation: int) -> np.ndarray:
    """Equiangular (2N+2) x (4N+4) direction grid, poles excluded.

    Theta rows sit at cell midpoints so the poles never appear; the grid
    oversamples the 2N(N+2) modes roughly eightfold.
    """
    trunc = int(truncation)
    if trunc < 1:
        raise DomainError("truncation order must be >= 1")
    rows = 2 * trunc + 2
    cols = 4 * trunc + 4
    theta = (np.arange(rows) + 0.5) * np.pi / rows
    phi = 2.0 * np.pi * np.arange(cols) / cols
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    return np.column_stack((th.ravel(), ph.ravel()))


# Phi samples read back from 17-digit degree CSVs land within ~1e-15 rad of
# 2 pi l / C; anything further off is a different grid.
_GRID_TOLERANCE = 1e-12


def _equiangular_rows(directions, truncation):
    """(theta of each row, C) for a theta-major equiangular grid, else None.

    Qualifying grids run C consecutive directions per theta row at
    phi_l = 2 pi l / C with C >= 2N+1, so a DFT over phi puts every order
    |m| <= N in its own bin.
    """
    theta, phi = directions[:, 0], directions[:, 1]
    new_row = np.flatnonzero(np.abs(theta - theta[0]) > _GRID_TOLERANCE)
    columns = int(new_row[0]) if new_row.size else theta.size
    if columns < 2 * truncation + 1 or theta.size % columns:
        return None
    theta = theta.reshape(-1, columns)
    ring = 2.0 * np.pi * np.arange(columns) / columns
    if np.any(np.abs(theta - theta[:, :1]) > _GRID_TOLERANCE) or np.any(
        np.abs(phi.reshape(-1, columns) - ring) > _GRID_TOLERANCE
    ):
        return None
    return theta[:, 0], columns


def _require_rank(rank, modes):
    if rank < modes:
        raise ConditioningError(
            f"sampling grid supports only rank {rank} of {modes} modes",
            effective_rank=int(rank),
        )


@functools.lru_cache(maxsize=8)
def _order_factors(truncation, theta_bytes):
    """Theta block, column indices and SVD of every order m = -N..N, read-only.

    They depend only on N and the theta rows (passed as float64 bytes so the
    cache compares them by value), never on the sampled values, so repeated
    fits on one grid factor it once. An entry takes 0.78 MiB at N = 13 and
    7.7 MiB at N = 29.
    """
    ratio, tau = _angular_tables(truncation, np.frombuffer(theta_bytes))
    factors = []
    for m in range(-truncation, truncation + 1):
        block, columns = _order_block(m, truncation, ratio, tau)
        u, s, vh = np.linalg.svd(block, full_matrices=False)
        for array in (block, columns, u, s, vh):
            array.flags.writeable = False
        factors.append((block, columns, u, s, vh))
    return tuple(factors)


def _fit_by_order(theta_rows, columns, values, truncation, rcond):
    """Order-split least squares on an equiangular grid.

    The forward-normalized DFT over phi leaves in bin m mod C the theta
    profile of order m, so the dense problem splits into one theta-only block
    per m. The dense basis has singular values sqrt(C) * sigma(block), so the
    dense cutoff rcond * sigma_max becomes rcond times the largest block
    singular value. Returns the coefficients and the absolute misfit per
    column.
    """
    rows, fields = theta_rows.size, values.shape[1]
    spectrum = np.fft.fft(values.reshape(rows, columns, 2, fields), axis=1, norm="forward")
    factors = _order_factors(truncation, theta_rows.tobytes())
    cutoff = rcond * max(s[0] for _, _, _, s, _ in factors)
    _require_rank(
        sum(int(np.count_nonzero(s > cutoff)) for _, _, _, s, _ in factors),
        mode_count(truncation),
    )
    coeffs = np.empty((mode_count(truncation), fields), dtype=complex)
    for m, (block, cols, u, s, vh) in zip(range(-truncation, truncation + 1), factors):
        profile = spectrum[:, m % columns]  # view: the misfit is left behind in place
        q = vh.conj().T @ ((u.conj().T @ profile.reshape(2 * rows, fields)) / s[:, None])
        coeffs[cols] = q
        profile -= (block @ q).reshape(rows, 2, fields)
    misfit = np.sqrt(columns) * np.linalg.norm(spectrum.reshape(-1, fields), axis=0)
    return coeffs, misfit


def solve_wave_coefficients(directions, values, truncation: int):
    """Least-squares mode coefficients of fields sampled on shared directions.

    ``values`` is (2P, K) in the interleaved sample layout, one finite field
    per column, checked as FieldSampleSet checks its values. Singular values
    below max(2P, 2N(N+2)) * eps * sigma_max are treated as zero, and a fit
    whose effective rank falls below the mode count raises ConditioningError
    rather than silently truncating.

    Theta-major equiangular grids (C directions per theta row at
    phi_l = 2 pi l / C, C >= 2N+1) are solved one azimuthal order at a time;
    every other grid solves the dense (2P x 2N(N+2)) basis as one real
    least-squares problem with 2K right-hand sides, on its real form.

    Returns
    -------
    (coefficients, residuals)
        The (2N(N+2), K) coefficients and the relative fit residual of each
        column.
    """
    dirs = _check_directions(directions)
    rhs = _check_values(values, dirs.shape[0])
    trunc = int(truncation)
    modes = mode_count(trunc)
    n_rows = rhs.shape[0]
    if n_rows < modes:
        raise InsufficientSamplingError(
            f"{dirs.shape[0]} directions give {n_rows} equations for {modes} modes"
        )
    rcond = max(n_rows, modes) * np.finfo(float).eps
    grid = _equiangular_rows(dirs, trunc)
    if grid is not None:
        coeffs, misfit = _fit_by_order(*grid, rhs, trunc, rcond)
    else:
        # one real problem: R [x_re, x_im] = [Re V, Im V], then q = U x
        basis = _real_basis_matrix(dirs, trunc)
        parts = np.concatenate((rhs.real, rhs.imag), axis=1)
        solution, squares, rank, _ = np.linalg.lstsq(basis, parts, rcond=rcond)
        _require_rank(rank, modes)
        if not squares.size:  # square system: LAPACK reports no residual
            squares = np.linalg.norm(basis @ solution - parts, axis=0) ** 2
        fields = rhs.shape[1]
        misfit = np.sqrt(squares[:fields] + squares[fields:])
        coeffs = _complex_coefficients(solution[:, :fields] + 1j * solution[:, fields:], trunc)
    norms = np.linalg.norm(rhs, axis=0)
    residuals = np.divide(misfit, norms, out=np.zeros_like(misfit), where=norms > 0.0)
    return coeffs, residuals


def fit_wave_coefficients(samples: FieldSampleSet, truncation: int) -> WaveCoefficientSet:
    """Least-squares spherical mode coefficients of a sampled field.

    Solves min ||K q - values|| over the 2N(N+2) modes with the rules of
    solve_wave_coefficients.

    Returns
    -------
    WaveCoefficientSet
        Coefficients with the relative fit residual attached.
    """
    coeffs, residuals = solve_wave_coefficients(samples.directions, samples.values, truncation)
    return WaveCoefficientSet(
        coefficients=coeffs[:, 0], truncation=int(truncation), residual=residuals[0]
    )


def reconstruct_field(coefficients: WaveCoefficientSet, directions) -> FieldSampleSet:
    """Evaluate the modal sum on the given directions."""
    basis = basis_matrix(directions, coefficients.truncation)
    return FieldSampleSet(directions=directions, values=basis @ coefficients.coefficients)

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
at phi_l = 2 pi l / C with C >= 2N+1, such as default_fit_grid) split into
one theta-only problem per azimuthal order after a DFT over phi (Hansen,
Spherical Near-Field Antenna Measurements, 1988, ch. 4). Orders m and -m
share one real block up to signs and unit factors, so the N+1 real blocks,
zero-padded to one shape, solve all 2N+1 orders in one stacked product with
their cached pseudoinverses. Samples on any other set of directions solve
the dense basis in real arithmetic, on the real form of its conjugate mode
pairs (ibid., ch. 2). Both paths share the sampling, cutoff and rank rules.

The dense fit forms the Gram matrix G = R^T R of the real basis R. When the
eigenvalues of G all exceed 1e-8 times the largest, cond(R) < 1e4 and full
rank is certain, so it solves the normal equations with one step of
iterative refinement and takes the misfit from the explicit residual
(Bjorck, Numerical Methods for Least Squares Problems, 1996, sec. 2.9). Any
other basis (clustered or rank-deficient directions) falls back to an SVD
least-squares solve under the cutoff and rank rules.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .arraymodel import WAVE_NUMBER, _check_angles, _check_integer
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


def _truncation_order(truncation) -> int:
    """The checked truncation order N as an int.

    This is the one check of a truncation order: an integer (integral floats
    pass) of at least 1.
    """
    return _check_integer(truncation, "truncation order", 1)


def mode_count(truncation: int) -> int:
    """Number of spherical modes 2 N (N + 2) at truncation order N."""
    n = _truncation_order(truncation)
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
        n = _check_integer(self.n, "degree n", 1)
        m = _check_integer(self.m, "order m", -n)
        if m > n:
            raise DomainError("order m must satisfy |m| <= n")
        for name, value in (("s", int(self.s)), ("m", m), ("n", n)):
            object.__setattr__(self, name, value)


@functools.lru_cache(maxsize=16)
def _mode_table(truncation):
    """Read-only rows (s, m, n) in flattened order; every column index here is a row position."""
    degrees = range(1, _truncation_order(truncation) + 1)
    rows = [(s, m, n) for n in degrees for m in range(-n, n + 1) for s in (1, 2)]
    table = np.array(rows)
    table.flags.writeable = False
    return table


def index_list(truncation: int) -> list:
    """All modes up to order N in flattened order (s fastest, then m, then n)."""
    return [SweIndex(*row) for row in _mode_table(truncation).tolist()]


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
        object.__setattr__(self, "directions", _require_distinct(dirs))
        object.__setattr__(self, "values", vals)

    @classmethod
    def _on_checked_grid(cls, directions, values) -> "FieldSampleSet":
        """A set on directions that have already passed _check_directions and _require_distinct.

        Only the values are checked, so sets built on one grid check it once.
        """
        samples = object.__new__(cls)
        object.__setattr__(samples, "directions", directions)
        values = _check_values(values, directions.shape[0], 1).reshape(-1)
        object.__setattr__(samples, "values", values)
        return samples

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
        truncation = _truncation_order(self.truncation)
        if coeffs.size != mode_count(truncation):
            raise DimensionError(
                f"{coeffs.size} coefficients for truncation {self.truncation}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise DomainError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "truncation", truncation)
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


def _require_distinct(directions):
    """Checked directions, after a check that no direction appears twice."""
    # complex order is (theta, phi) order, so equal directions end up adjacent
    ordered = np.sort(directions[:, 0] + 1j * directions[:, 1])
    if np.any(ordered[1:] == ordered[:-1]):
        raise DomainError("directions contain duplicates")
    return directions


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
    trunc = _truncation_order(truncation)
    modes = mode_count(trunc)
    out = np.empty((modes, 2 * dirs.shape[0]), dtype=complex)  # mode-major
    for _, columns, values in _phased_orders(dirs, trunc, range(-trunc, trunc + 1)):
        out[columns] = values
    return out.T


# j^k = 1 / (-j)^k for k mod 4: undoes the unit factor of an m = 0 mode exactly
_INVERSE_UNITS = np.array([1.0, 1j, -1.0, -1j])
# D^-1 on the (theta, phi) rows of order m (column 0) and, times S, of order -m (column 1)
_ROW_UNITS = np.array([[1.0, -1.0], [-1j, -1j]])


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
    oversamples the 2N(N+2) modes roughly eightfold. Returns a fresh,
    writable copy of the shared grid of order N.
    """
    return _fit_grid(_truncation_order(truncation)).copy()


@functools.lru_cache(maxsize=8)
def _fit_grid(truncation):
    """default_fit_grid of a checked order N, built once and shared read-only."""
    rows = 2 * truncation + 2
    cols = 4 * truncation + 4
    theta = (np.arange(rows) + 0.5) * np.pi / rows
    phi = 2.0 * np.pi * np.arange(cols) / cols
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    grid = np.column_stack((th.ravel(), ph.ravel()))
    grid.flags.writeable = False
    return grid


# Phi samples read back from 17-digit degree CSVs land within ~1e-15 rad of
# 2 pi l / C; anything further off is a different grid.
_GRID_TOLERANCE = 1e-12


def _equiangular_rows(directions):
    """(theta of each row, C) for a theta-major equiangular grid, else None.

    Qualifying grids run C consecutive directions per theta row at
    phi_l = 2 pi l / C. A fit of order N splits by order when C >= 2N+1,
    since a DFT over phi then puts every order |m| <= N in its own bin.
    """
    theta, phi = directions[:, 0], directions[:, 1]
    new_row = np.flatnonzero(np.abs(theta - theta[:1]) > _GRID_TOLERANCE)
    columns = int(new_row[0]) if new_row.size else theta.size
    if not columns or theta.size % columns:
        return None
    theta = theta.reshape(-1, columns)
    ring = 2.0 * np.pi * np.arange(columns) / columns
    if np.any(np.abs(theta - theta[:, :1]) > _GRID_TOLERANCE) or np.any(
        np.abs(phi.reshape(-1, columns) - ring) > _GRID_TOLERANCE
    ):
        return None
    return theta[:, 0], columns


@functools.lru_cache(maxsize=8)
def _grid(shape, data):
    """(directions, _equiangular_rows layout) of these float64 bytes of this shape; read-only.

    The directions have passed _check_directions. Keyed by value, so an
    array that a caller changes after one call is checked and classified
    again on the next, and a failing check raises on every call.
    """
    directions = _check_directions(np.frombuffer(data).reshape(shape))
    return directions, _equiangular_rows(directions)


def _require_rank(rank, modes):
    if rank < modes:
        raise ConditioningError(
            f"sampling grid supports only rank {rank} of {modes} modes",
            effective_rank=int(rank),
        )


@functools.lru_cache(maxsize=8)
def _order_factors(truncation, theta_bytes):
    """Real stacks that fit all orders m = -N..N on these theta rows, read-only.

    The theta block of order m (_order_block) is D A_|m| W with D = diag(1, j)
    on the (theta, phi) rows, W = diag((-j)^n) on the columns and A_|m| real,
    and order -m has A_-m = (-1)^m S A_m T, S negating the theta rows and T
    the TM columns. So the real A_k of k = 0..N serve every order. Returns
    (pinv, basis, singular, source, units): A_k^+ (N+1, 2N, 2R) and A_k
    (N+1, 2R, 2N), zero-padded to 2N columns; the singular values of each
    A_k (N+1, 2N), zero-padded; and, per flattened mode, the row of the
    stacked solution that holds it and the unit that turns it into the
    coefficient. They depend only on N and the theta rows (passed as float64
    bytes so the cache compares them by value), never on the sampled values,
    so repeated fits on one grid factor it once. An entry takes 0.33 MiB at
    N = 13 and 3.2 MiB at N = 29 on default_fit_grid.
    """
    theta = np.frombuffer(theta_bytes)
    ratio, tau = _angular_tables(truncation, theta)
    rows, width = 2 * theta.size, 2 * truncation
    pinv = np.zeros((truncation + 1, width, rows))
    basis = np.zeros((truncation + 1, rows, width))
    singular = np.zeros((truncation + 1, width))
    s, m, n = _mode_table(truncation).T
    units = _INVERSE_UNITS[n % 4]  # j^n = 1 / (-j)^n undoes W
    row_units = np.tile(_ROW_UNITS[:, 0], theta.size)
    for k in range(truncation + 1):
        block, columns = _order_block(k, truncation, ratio, tau)
        real = (block * row_units[:, None] * units[columns]).real  # exact: units times reals
        u, sv, vh = np.linalg.svd(real, full_matrices=False)
        inverse = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > 0.0)
        pinv[k, :columns.size] = (vh.T * inverse) @ u.T
        basis[k, :, :columns.size] = real
        singular[k, :sv.size] = sv
    k = np.abs(m)
    # solution row (k, column of A_k, sign of m), read as the fit's (N+1, 2N, 2, K) complex view
    source = 2 * (k * width + 2 * (n - np.maximum(k, 1)) + s - 1) + (m < 0)
    units = units * np.where(m < 0, (-1.0) ** (k + s - 1), 1.0)  # (-1)^m T for order -m
    for array in (pinv, basis, singular, source, units):
        array.flags.writeable = False
    return pinv, basis, singular, source, units


def _fit_by_order(theta_rows, columns, values, truncation, rcond):
    """Order-split least squares on an equiangular grid.

    The forward-normalized DFT over phi leaves in bin m mod C the theta
    profile of order m, so the dense problem splits into one theta-only block
    per m; orders m and -m share the real A_|m| of _order_factors, so one
    stacked product solves all of them. The dense basis has singular values
    sqrt(C) * sigma(block), so the dense cutoff rcond * sigma_max becomes
    rcond times the largest block singular value. Returns the coefficients
    and a function that forms the absolute misfit of each column.
    """
    rows, fields = theta_rows.size, values.shape[1]
    pinv, basis, singular, source, units = _order_factors(truncation, theta_rows.tobytes())
    above = singular > rcond * singular.max()
    _require_rank(
        2 * int(np.count_nonzero(above)) - int(np.count_nonzero(above[0])),
        mode_count(truncation),
    )
    spectrum = np.fft.fft(values.reshape(rows, columns, 2, fields), axis=1, norm="forward")
    orders = np.arange(truncation + 1)
    bins = np.stack((orders, -orders), axis=1) % columns  # (k, sign): orders +k and -k
    # rhs[k, r, component, sign] = spectrum[r, bin, component], times D^-1 (and S)
    samples = np.arange(rows)[:, None, None] * columns + bins[:, None, None, :]
    picks = 2 * samples + np.arange(2)[:, None]
    rhs = np.take(spectrum.reshape(-1, fields), picks, axis=0)
    rhs *= _ROW_UNITS[:, :, None]
    rhs = rhs.reshape(truncation + 1, 2 * rows, 2 * fields).view(float)
    solution = pinv @ rhs
    coeffs = solution.view(complex).reshape(-1, fields)[source] * units[:, None]

    def misfit():
        residual = rhs - basis @ solution
        squares = np.einsum("kri,kri->ki", residual, residual)
        squares = squares.reshape(truncation + 1, 2, fields, 2).sum(axis=3)
        # order 0 sits in both halves; the bins past N hold only misfit
        rest = spectrum.view(float)[:, truncation + 1 : columns - truncation]
        total = squares[:, 0].sum(axis=0) + squares[1:, 1].sum(axis=0)
        total += np.einsum("ijkl,ijkl->l", rest, rest).reshape(fields, 2).sum(axis=1)
        return np.sqrt(columns * total)

    return coeffs, misfit


# Gram eigenvalues all above this share of the largest certify
# cond(basis) < 1e4. The rank cutoff (about 1e-12 sigma_max) cannot bite
# there, and normal equations with one refinement step are as accurate as an
# SVD solve (Bjorck, Numerical Methods for Least Squares Problems, 1996,
# sec. 2.9). Random directions with 2P >= 1.5 modes measured cond 2.1 to 135
# (N = 4..19); square random systems reach 3e2 to 5e5 and may fall back.
_GRAM_EIGENVALUE_FLOOR = 1e-8


def _dense_least_squares(basis, parts, rcond):
    """Solution of min ||basis x - parts|| and a function giving each column's squared misfit.

    A basis whose Gram matrix G = basis^T basis passes the eigenvalue floor
    has full rank for certain and is solved as x = G^-1 basis^T parts plus
    one refinement step, its misfit taken from the explicit residual. Any
    other basis goes to lstsq under the cutoff rcond and the rank rule.
    """
    gram = basis.T @ basis
    eigenvalues = np.linalg.eigvalsh(gram)
    if eigenvalues[0] > _GRAM_EIGENVALUE_FLOOR * eigenvalues[-1]:
        solution = np.linalg.solve(gram, basis.T @ parts)
        solution += np.linalg.solve(gram, basis.T @ (parts - basis @ solution))

        def squares():
            residual = parts - basis @ solution
            return np.einsum("ij,ij->j", residual, residual)

        return solution, squares
    solution, squares, rank, _ = np.linalg.lstsq(basis, parts, rcond=rcond)
    _require_rank(rank, basis.shape[1])
    if not squares.size:  # square system: LAPACK reports no residual
        squares = np.linalg.norm(basis @ solution - parts, axis=0) ** 2
    return solution, lambda: squares


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
    least-squares problem with 2K right-hand sides, on its real form. That
    problem goes through the Gram matrix of the basis: eigenvalues that all
    exceed 1e-8 times the largest certify cond < 1e4, hence full rank, and
    the normal equations are solved with one refinement step; a basis that
    fails the test is solved by SVD (numpy.linalg.lstsq) under the cutoff
    and rank rules above, with the same ConditioningError.

    Returns
    -------
    (coefficients, residuals)
        The (2N(N+2), K) coefficients and the relative fit residual of each
        column.
    """
    coeffs, rhs, misfit = _fit(directions, values, truncation)
    absolute = misfit()
    norms = np.linalg.norm(rhs, axis=0)
    residuals = np.divide(absolute, norms, out=np.zeros_like(absolute), where=norms > 0.0)
    return coeffs, residuals


def _fit(directions, values, truncation):
    """The checked fit of solve_wave_coefficients: (coefficients, value table, misfit).

    ``misfit`` forms the absolute misfit of each column when called, so a
    caller that needs only the coefficients never computes it. The checked
    directions and their equiangular layout are cached by the bytes of the
    directions (_grid), so repeated fits on one grid check and classify it once.
    """
    dirs = np.asarray(directions, dtype=float)
    dirs, layout = _grid(dirs.shape, dirs.tobytes())
    rhs = _check_values(values, dirs.shape[0])
    trunc = _truncation_order(truncation)
    modes = mode_count(trunc)
    n_rows = rhs.shape[0]
    if n_rows < modes:
        raise InsufficientSamplingError(
            f"{dirs.shape[0]} directions give {n_rows} equations for {modes} modes"
        )
    rcond = max(n_rows, modes) * np.finfo(float).eps
    if layout is not None and layout[1] >= 2 * trunc + 1:
        coeffs, misfit = _fit_by_order(*layout, rhs, trunc, rcond)
    else:
        # one real problem: R [x_re, x_im] = [Re V, Im V], then q = U x
        basis = _real_basis_matrix(dirs, trunc)
        parts = np.concatenate((rhs.real, rhs.imag), axis=1)
        solution, squares = _dense_least_squares(basis, parts, rcond)
        fields = rhs.shape[1]
        coeffs = _complex_coefficients(solution[:, :fields] + 1j * solution[:, fields:], trunc)

        def misfit():
            column_squares = squares()
            return np.sqrt(column_squares[:fields] + column_squares[fields:])

    return coeffs, rhs, misfit


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
        coefficients=coeffs[:, 0], truncation=truncation, residual=residuals[0]
    )


def reconstruct_field(coefficients: WaveCoefficientSet, directions) -> FieldSampleSet:
    """Evaluate the modal sum on the given directions."""
    basis = basis_matrix(directions, coefficients.truncation)
    return FieldSampleSet(directions=directions, values=basis @ coefficients.coefficients)

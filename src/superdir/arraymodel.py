"""Uniform linear array geometry, element patterns, and steering vectors.

All lengths are expressed in wavelengths, so the wave number is fixed at
2*pi. The array axis is the z axis with element 1 at the origin; angles
follow the physics convention (theta from +z, phi from +x in the xy plane,
radians everywhere inside the library).
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError

WAVE_NUMBER = 2.0 * np.pi
"""Free-space wave number for positions given in wavelengths."""

ANALYTIC_KINDS = ("isotropic", "hertzian-dipole", "half-wave-dipole")
PATTERN_KINDS = ANALYTIC_KINDS + ("sampled",)


def radial_unit_vector(theta, phi):
    """Unit vector(s) pointing at spherical direction (theta, phi)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return np.stack(
        (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)),
        axis=-1,
    )


def _check_angles(theta, phi):
    """Broadcast float arrays (theta, phi) with 0 <= theta <= pi and phi finite."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    if not np.all((theta >= 0.0) & (theta <= np.pi)):
        raise DomainError("theta must lie in [0, pi]")
    if not np.all(np.isfinite(phi)):
        raise DomainError("phi must be finite")
    return theta, phi


def _check_integer(value, name, minimum):
    """``value`` as an int >= ``minimum``: the one check of every count and index.

    Integral reals such as 4.0 pass; NaN, infinities, 2.5 and strings do not.
    """
    if not isinstance(value, numbers.Integral) and not (
        isinstance(value, numbers.Real) and float(value).is_integer()
    ):
        raise DomainError(f"{name} must be an integer")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}")
    return int(value)


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array along the z axis.

    Element m (1-based) sits at (0, 0, (m - 1) * spacing) with the spacing
    in wavelengths.
    """

    element_count: int
    spacing: float

    def __post_init__(self):
        object.__setattr__(self, "element_count", _check_integer(self.element_count, "element_count", 1))
        if not self.spacing > 0.0:
            raise DomainError("spacing must be positive")
        if not np.isfinite(self.spacing):
            raise DomainError("spacing must be finite")
        object.__setattr__(self, "spacing", float(self.spacing))

    @property
    def z_positions(self) -> np.ndarray:
        """Element z coordinates in wavelengths, shape (M,)."""
        return self.spacing * np.arange(self.element_count, dtype=float)

    @property
    def positions(self) -> np.ndarray:
        """Element positions in wavelengths, shape (M, 3)."""
        out = np.zeros((self.element_count, 3))
        out[:, 2] = self.z_positions
        return out

    @property
    def length(self) -> float:
        """End-to-end array length (M - 1) * spacing in wavelengths."""
        return (self.element_count - 1) * self.spacing


def _unit_axis(axis):
    axis = np.asarray(axis, dtype=float).reshape(3)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise DomainError("pattern axis must be a nonzero vector")
    unit = axis / norm
    unit.flags.writeable = False
    return unit


@dataclass(frozen=True, eq=False)
class ElementPattern:
    """Far-field magnitude pattern of a single array element.

    Analytic kinds evaluate to real values; sampled patterns interpolate a
    complex grid bilinearly (phi wraps periodically). The dipole kinds are
    oriented along ``axis`` (default x, perpendicular to the array axis).
    """

    kind: str
    axis: np.ndarray = field(default=None)
    theta_grid: np.ndarray = field(default=None)
    phi_grid: np.ndarray = field(default=None)
    samples: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.kind not in PATTERN_KINDS:
            raise DomainError(f"unknown pattern kind {self.kind!r}")
        if self.kind in ("hertzian-dipole", "half-wave-dipole"):
            object.__setattr__(self, "axis", _unit_axis(self.axis if self.axis is not None else (1.0, 0.0, 0.0)))
        if self.kind == "sampled":
            self._validate_grid()
        elif self.samples is not None:
            raise DomainError("samples are only allowed for kind='sampled'")

    def _validate_grid(self):
        if self.theta_grid is None or self.phi_grid is None or self.samples is None:
            raise DomainError("sampled pattern requires theta_grid, phi_grid and samples")
        # private read-only copies: radiation caches ring weights by pattern identity
        tg = np.array(self.theta_grid, dtype=float)
        pg = np.array(self.phi_grid, dtype=float)
        vals = np.array(self.samples, dtype=complex)
        tg.flags.writeable = pg.flags.writeable = vals.flags.writeable = False
        if tg.ndim != 1 or pg.ndim != 1 or vals.shape != (tg.size, pg.size):
            raise DimensionError("samples must have shape (len(theta_grid), len(phi_grid))")
        if not np.isfinite(vals).all():
            raise DomainError("sampled pattern values must be finite")
        if tg.size < 2 or pg.size < 2:
            raise DomainError("sampled grid needs at least two nodes per axis")
        if np.any(np.diff(tg) <= 0) or np.any(np.diff(pg) <= 0):
            raise DomainError("sampled grid axes must be strictly increasing")
        # full-sphere coverage: theta spans [0, pi], phi covers one period
        if abs(tg[0]) > 1e-12 or abs(tg[-1] - np.pi) > 1e-12:
            raise DomainError("sampled theta_grid must cover [0, pi] with no gaps")
        if pg[0] < 0.0 or pg[-1] >= 2.0 * np.pi:
            raise DomainError("sampled phi_grid must lie in [0, 2*pi)")
        object.__setattr__(self, "theta_grid", tg)
        object.__setattr__(self, "phi_grid", pg)
        object.__setattr__(self, "samples", vals)

    # ---- constructors -------------------------------------------------

    @classmethod
    def isotropic(cls) -> "ElementPattern":
        """Unit pattern in every direction: the shared from_kind pattern."""
        return cls.from_kind("isotropic")

    @classmethod
    def hertzian_dipole(cls, axis=(1.0, 0.0, 0.0)) -> "ElementPattern":
        """Infinitesimal dipole, pattern sin(psi) about its axis; along x, the shared from_kind one."""
        return cls._dipole("hertzian-dipole", axis)

    @classmethod
    def half_wave_dipole(cls, axis=(1.0, 0.0, 0.0)) -> "ElementPattern":
        """Half-wavelength dipole, pattern cos(pi/2 cos(psi)) / sin(psi); along x, the shared one."""
        return cls._dipole("half-wave-dipole", axis)

    @classmethod
    def _dipole(cls, kind, axis):
        axis = np.asarray(axis, dtype=float)
        if np.array_equal(axis, (1.0, 0.0, 0.0)):  # from_kind's axis
            return cls.from_kind(kind)
        return cls(kind=kind, axis=axis)

    @classmethod
    def sampled(cls, theta_grid, phi_grid, samples) -> "ElementPattern":
        """Pattern interpolated bilinearly from a measured/simulated grid."""
        return cls(kind="sampled", theta_grid=theta_grid, phi_grid=phi_grid, samples=samples)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def from_kind(cls, kind: str) -> "ElementPattern":
        """The one shared analytic pattern of a CLI name, so caches keyed on it serve every caller."""
        if kind not in ANALYTIC_KINDS:
            raise DomainError(f"unknown analytic pattern kind {kind!r}")
        return cls(kind=kind)

    # ---- evaluation ---------------------------------------------------

    def evaluate(self, theta, phi):
        """Pattern value k(theta, phi), broadcasting over array inputs.

        Returns float values for the analytic kinds and complex values for
        sampled grids.
        """
        theta, phi = _check_angles(theta, phi)
        if self.kind == "isotropic":
            out = np.ones(theta.shape)
        elif self.kind == "sampled":
            out = self._interpolate(theta, phi)
        else:  # dipole kinds, psi measured from the axis
            cospsi = radial_unit_vector(theta, phi) @ self.axis
            out = sinpsi = np.sqrt(np.maximum(1.0 - cospsi**2, 0.0))
            if self.kind == "half-wave-dipole":
                out = np.zeros(theta.shape)
                ok = sinpsi > 0.0
                out[ok] = np.cos(0.5 * np.pi * cospsi[ok]) / sinpsi[ok]
        if out.ndim == 0:
            return out[()]
        return out

    def _interpolate(self, theta, phi):
        """Bilinear interpolation on the sample grid with periodic phi."""
        tg, pg, vals = self.theta_grid, self.phi_grid, self.samples
        phi = np.mod(phi, 2.0 * np.pi)
        it = np.clip(np.searchsorted(tg, theta, side="right") - 1, 0, tg.size - 2)
        t0, t1 = tg[it], tg[it + 1]
        wt = np.where(t1 > t0, (theta - t0) / (t1 - t0), 0.0)
        # phi wraps: the cell after the last node closes onto pg[0] + 2*pi
        ip = np.searchsorted(pg, phi, side="right") - 1
        last = (ip == pg.size - 1) | (ip < 0)
        ip0 = np.where(ip < 0, pg.size - 1, ip)
        ip1 = np.where(last, 0, ip0 + 1)
        p0 = pg[ip0]
        span = np.where(last, pg[0] + 2.0 * np.pi - pg[-1], pg[np.minimum(ip0 + 1, pg.size - 1)] - p0)
        dist = np.mod(phi - p0, 2.0 * np.pi)
        wp = np.clip(dist / span, 0.0, 1.0)
        v00 = vals[it, ip0]
        v01 = vals[it, ip1]
        v10 = vals[it + 1, ip0]
        v11 = vals[it + 1, ip1]
        return (1 - wt) * ((1 - wp) * v00 + wp * v01) + wt * ((1 - wp) * v10 + wp * v11)

    def polarized(self, theta, phi):
        """Far-field components (E_theta, E_phi) of one isolated element.

        Dipole kinds are polarized along the projection of their axis onto
        the plane transverse to the radial direction; isotropic and sampled
        kinds are emitted theta-polarized by convention. The magnitude always
        equals ``evaluate(theta, phi)``.
        """
        if self.kind in ("isotropic", "sampled"):
            k = np.asarray(self.evaluate(theta, phi), dtype=complex)
            return k, np.zeros_like(k)
        theta, phi = _check_angles(theta, phi)
        # axis components along the local theta/phi unit vectors
        ax, ay, az = self.axis
        a_th = ax * np.cos(theta) * np.cos(phi) + ay * np.cos(theta) * np.sin(phi) - az * np.sin(theta)
        a_ph = -ax * np.sin(phi) + ay * np.cos(phi)
        sinpsi2 = a_th**2 + a_ph**2
        if self.kind == "hertzian-dipole":
            scale = np.ones(theta.shape)
        else:
            cospsi = radial_unit_vector(theta, phi) @ self.axis
            scale = np.zeros(theta.shape)
            ok = sinpsi2 > 0.0
            scale[ok] = np.cos(0.5 * np.pi * cospsi[ok]) / sinpsi2[ok]
        return (scale * a_th).astype(complex), (scale * a_ph).astype(complex)


@dataclass(frozen=True, eq=False)
class SteeringVector:
    """Per-element far-field response toward one direction.

    values[m] = k(theta, phi) * exp(j * 2*pi * (m) * d * cos(theta)) for the
    z-axis uniform linear array (m counted from zero here).
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex).reshape(-1)
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return self.values.size


def steering_vector(geometry: ArrayGeometry, pattern: ElementPattern, theta: float, phi: float) -> SteeringVector:
    """Steering vector of the array toward (theta, phi) in radians.

    Parameters
    ----------
    geometry : ArrayGeometry
        The uniform linear array.
    pattern : ElementPattern
        Common element pattern (identical elements).
    theta, phi : float
        Spherical direction in radians, 0 <= theta <= pi and phi finite.

    Returns
    -------
    SteeringVector
        Element responses including the element pattern value.
    """
    theta, phi = float(theta), float(phi)
    return _steering(pattern.evaluate(theta, phi), theta, geometry.z_positions)


def _steering(pattern_value, theta: float, z_positions) -> SteeringVector:
    """Steering vector toward theta from the pattern's value there, which a sweep evaluates once."""
    phase = np.exp(1j * WAVE_NUMBER * np.cos(theta) * z_positions)
    return SteeringVector(values=pattern_value * phase)


def evaluate_array_pattern(geometry: ArrayGeometry, pattern: ElementPattern, excitation, theta, phi):
    """Total array far field sum_m a_m e_m(theta, phi).

    ``theta``/``phi`` may be scalars or broadcastable arrays; the result has
    the broadcast shape.
    """
    a = np.asarray(excitation, dtype=complex).reshape(-1)
    if a.size != geometry.element_count:
        raise DimensionError(
            f"excitation has {a.size} entries for {geometry.element_count} elements"
        )
    k_val = pattern.evaluate(theta, phi)
    costh = np.cos(np.broadcast_to(np.asarray(theta, dtype=float), np.shape(k_val)))
    # sum over elements of a_m * exp(j k z_m cos(theta)), then one pattern factor
    phase = np.exp(1j * WAVE_NUMBER * np.multiply.outer(costh, geometry.z_positions))
    total = k_val * (phase @ a)
    if np.ndim(total) == 0:
        return complex(total)
    return total

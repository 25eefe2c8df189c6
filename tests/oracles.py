"""Independent numerical oracles used by the tests.

Everything here is implemented from first principles, deliberately NOT
through the library's own quadrature, recurrences, or closed forms, so that
agreement between the two is meaningful:

- brute_force_directivity integrates the radiated pattern on a dense grid
  (Simpson in theta, rectangle rule in the periodic phi direction).
- endfire_pair_dmax is the hand-derived 2x2 closed form for two isotropic
  elements steered along the array axis.
- isotropic_endfire_dmax solves e^H Z^-1 e for isotropic elements steered
  endfire on the sinc closed form of Z, with more digits than cond(Z) costs.
- dipole_lag is the closed-form impedance lag of two x-directed dipoles
  spaced along z, and dipole_endfire_dmax solves e^H Z^-1 e on it as
  isotropic_endfire_dmax does.
- legendre_tables evaluates normalized associated Legendre functions and
  their theta-derivatives from exact rational polynomial coefficients with
  50-digit arithmetic (slow but trustworthy to far below 1e-12).
"""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from scipy.integrate import simpson

from superdir import evaluate_array_pattern

mpmath.mp.dps = 50


def brute_force_directivity(geometry, pattern, excitation, theta0, phi0,
                            theta_nodes=4001, phi_nodes=256):
    """Directivity by direct integration of |f|^2 over the sphere.

    The phi integral uses the rectangle rule, exact for the trigonometric-
    polynomial azimuth dependence of every pattern used in the tests; the
    theta integral uses Simpson on a dense grid.
    """
    theta = np.linspace(0.0, np.pi, theta_nodes)
    phi = 2.0 * np.pi * np.arange(phi_nodes) / phi_nodes
    field = evaluate_array_pattern(
        geometry, pattern, excitation, theta[:, None], phi[None, :]
    )
    ring = (np.abs(field) ** 2).sum(axis=1) * (2.0 * np.pi / phi_nodes)
    power = simpson(ring * np.sin(theta), x=theta)
    peak = abs(evaluate_array_pattern(geometry, pattern, excitation, theta0, phi0)) ** 2
    return 4.0 * np.pi * peak / power


def endfire_pair_dmax(spacing):
    """Closed-form optimum for two isotropic elements steered endfire.

    With Z = [[1, s], [s, 1]], s = sinc(2 pi d), and e = [1, exp(j 2 pi d)],
    the optimum e^H Z^-1 e reduces by hand to 2 (1 - s cos(2 pi d)) / (1 - s^2).
    """
    kd = 2.0 * math.pi * spacing
    s = math.sin(kd) / kd
    return 2.0 * (1.0 - s * math.cos(kd)) / (1.0 - s * s)


def isotropic_endfire_dmax(count, spacing, digits=None):
    """Optimum e^H Z^-1 e of ``count`` isotropic elements steered endfire.

    Z is the sinc Toeplitz matrix z_mn = sinc(2 pi d |m - n|) and
    e_m = exp(j 2 pi d m). cond(Z) grows roughly like (2 pi d)^(-2M), far
    beyond double precision, so by default the solve carries
    25 + 2M (1 + log10 max(1, 1/(2 pi d))) digits. For M = 8..24 and
    d = 0.001..0.5 that is at least 19 digits more than it takes to agree
    with a 400-digit solve to 1e-15. ``digits`` sets the precision instead.
    """
    return _toeplitz_endfire_dmax(mpmath.sinc, count, spacing, digits)


def dipole_lag(kind, u):
    """Impedance z(u) of two x-directed dipoles u = kd apart along z, at the current precision.

    The Hertzian ring average of |k|^2 is 2/3 + P_2(cos theta)/3, so
    z = (2/3) j_0(u) - (1/3) j_2(u). The half-wave lag is the induced-EMF
    mutual resistance of side-by-side half-wave dipoles over 4:
    [Cin(u1) + Cin(u2) - 2 Cin(u)] / 4 with u1,2 = k(sqrt(d^2 + 1/4) +- 1/2),
    and Cin(2 pi) / 4 at u = 0 (Balanis, Antenna Theory, ch. 8).
    """
    u = mpmath.mpf(u)
    if kind == "hertzian-dipole":
        if u == 0:
            return mpmath.mpf(2) / 3
        bessel = [mpmath.sqrt(mpmath.pi / (2 * u)) * mpmath.besselj(n + 0.5, u) for n in (0, 2)]
        return (2 * bessel[0] - bessel[1]) / 3
    if kind != "half-wave-dipole":
        raise ValueError(f"no closed-form lag for {kind!r}")

    def cin(x):
        return mpmath.euler + mpmath.log(x) - mpmath.ci(x)

    if u == 0:
        return cin(2 * mpmath.pi) / 4
    root = mpmath.sqrt(u**2 + mpmath.pi**2)  # k sqrt(d^2 + 1/4), with k/2 = pi
    return (cin(root + mpmath.pi) + cin(root - mpmath.pi) - 2 * cin(u)) / 4


def dipole_endfire_dmax(kind, count, spacing, digits=None):
    """Optimum e^H Z^-1 e of ``count`` x-directed dipoles of ``kind`` steered endfire.

    Z is the Toeplitz matrix of dipole_lag and e_m = exp(j 2 pi d m), since
    both dipole patterns are 1 along the array axis; the precision follows
    isotropic_endfire_dmax.
    """
    return _toeplitz_endfire_dmax(lambda u: dipole_lag(kind, u), count, spacing, digits)


def _toeplitz_endfire_dmax(lag, count, spacing, digits):
    """e^H Z^-1 e for z_mn = lag(2 pi d |m - n|) and e_m = exp(j 2 pi d m)."""
    if digits is None:
        digits = 25 + 2 * count * (1 + max(0.0, -math.log10(2 * math.pi * spacing)))
    with mpmath.workdps(math.ceil(digits)):
        kd = 2 * mpmath.pi * mpmath.mpf(spacing)
        lags = [lag(kd * k) for k in range(count)]
        z = mpmath.matrix(count, count)
        for m in range(count):
            for n in range(count):
                z[m, n] = lags[abs(m - n)]
        x = mpmath.lu_solve(z, mpmath.matrix([mpmath.expj(-kd * m) for m in range(count)]))
        return float(mpmath.re(mpmath.fsum(mpmath.expj(kd * m) * x[m] for m in range(count))))


@lru_cache(maxsize=None)
def _legendre_coefficients(degree):
    """Coefficients of the Legendre polynomial P_n as exact fractions."""
    if degree == 0:
        return (Fraction(1),)
    if degree == 1:
        return (Fraction(0), Fraction(1))
    pm1 = _legendre_coefficients(degree - 1)
    pm2 = _legendre_coefficients(degree - 2)
    out = [Fraction(0)] * (degree + 1)
    for i, c in enumerate(pm1):
        out[i + 1] += Fraction(2 * degree - 1, degree) * c
    for i, c in enumerate(pm2):
        out[i] -= Fraction(degree - 1, degree) * c
    return tuple(out)


def _differentiate(coeffs, times):
    for _ in range(times):
        coeffs = tuple(c * i for i, c in enumerate(coeffs))[1:] or (Fraction(0),)
    return coeffs


def _horner(coeffs, x):
    acc = mpmath.mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
    return acc


def legendre_tables(n, m, theta):
    """(Pbar/sin(theta), dPbar/dtheta) for one (n, m >= 0) at one theta.

    Pbar is the associated Legendre function without Condon-Shortley phase,
    normalized to unit L2 norm on [-1, 1]. Requires 0 < theta < pi (the
    oracle does not take pole limits).
    """
    x = mpmath.cos(mpmath.mpf(theta))
    sin_t = mpmath.sin(mpmath.mpf(theta))
    norm = mpmath.sqrt(
        mpmath.mpf(2 * n + 1) / 2
        * mpmath.factorial(n - m) / mpmath.factorial(n + m)
    )
    q = _differentiate(_legendre_coefficients(n), m)
    q_val = _horner(q, x)
    qp_val = _horner(_differentiate(q, 1), x)
    ratio = norm * sin_t ** (m - 1) * q_val
    # d/dtheta of sin^m * q(cos theta) = m cos sin^(m-1) q - sin^(m+1) q'
    derivative = norm * (m * x * sin_t ** (m - 1) * q_val - sin_t ** (m + 1) * qp_val)
    return float(ratio), float(derivative)

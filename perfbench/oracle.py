"""Independent high-precision oracles for the benchmark's correctness checks.

Nothing here calls the superdir package or NumPy, so agreement with the
program is meaningful:

- Endfire maximum directivity D_max = e^H Z^-1 e of a z-axis array, solved
  with a Cholesky factorization at ORACLE_DIGITS significant digits. For
  endfire the steering phases are exp(j b m) with b = 2 pi d, and Z is real
  symmetric Toeplitz, so D_max = c^T Z^-1 c + s^T Z^-1 s with c, s the
  cosines and sines of those phases.
- Isotropic impedance lags come from the closed form Z(k d) = sinc(k b).
- Half-wave-dipole impedance lags are the 1-D theta integrals
  Z(D) = int_0^1 g(u) cos(2 pi D u) du   (u = cos theta),
  where g is the azimuth average of the dipole power pattern. The dipole
  lies along x, so |k|^2 = cos^2(pi x / 2) / (1 - x^2) with x = sin(theta)
  cos(phi); expanding that entire function in x^2 and averaging cos^2j(phi)
  gives g in closed form. The cosine is expanded in its Taylor series, so
  every lag is a combination of the moments int_0^1 g(u) u^2n du, which are
  integrated once by mpmath Gauss-Legendre quadrature (exact for these
  polynomial integrands).

mpmath supplies pi, the sines and cosines and the quadrature; the linear
algebra and series run in the decimal module at the same precision, which is
much faster than mpmath's pure-Python floats.
"""

from __future__ import annotations

import decimal
import math
from decimal import Decimal

import mpmath
from mpmath.calculus.quadrature import GaussLegendre

ORACLE_DIGITS = 60
_CONTEXT = decimal.Context(prec=ORACLE_DIGITS)
_MOMENTS = 120  # enough Taylor terms for 2 pi D <= 40, i.e. array lengths <= 6.3 wavelengths
_MAX_PHASE = 40.0


def _to_decimal(value) -> Decimal:
    with mpmath.workdps(ORACLE_DIGITS):
        return Decimal(mpmath.nstr(value, ORACLE_DIGITS, strip_zeros=False))


def _phase_tables(spacing: float, count: int):
    """cos(k b), sin(k b) for k < count, b = 2 pi d, by angle addition."""
    with mpmath.workdps(ORACLE_DIGITS + 5):
        b = 2 * mpmath.pi * mpmath.mpf(spacing)
        c1, s1 = _to_decimal(mpmath.cos(b)), _to_decimal(mpmath.sin(b))
        b_dec = _to_decimal(b)
    cos_k, sin_k = [Decimal(1)], [Decimal(0)]
    with decimal.localcontext(_CONTEXT):
        for _ in range(1, count):
            c, s = cos_k[-1], sin_k[-1]
            cos_k.append(c * c1 - s * s1)
            sin_k.append(s * c1 + c * s1)
    return b_dec, cos_k, sin_k


def _cholesky_prefix_quadratic(lags, vectors) -> list:
    """[sum over vectors of v[:m]^T Z[:m, :m]^-1 v[:m] for m = 1..M], Z Toeplitz from lags."""
    m = len(lags)
    with decimal.localcontext(_CONTEXT):
        low = [[Decimal(0)] * m for _ in range(m)]
        for i in range(m):
            row = low[i]
            for j in range(i + 1):
                other = low[j]
                acc = lags[i - j]
                for k in range(j):
                    acc -= row[k] * other[k]
                if i == j:
                    if acc <= 0:
                        raise ArithmeticError("oracle Cholesky lost positive definiteness")
                    row[i] = acc.sqrt()
                else:
                    row[j] = acc / other[j]
        # forward substitution: y[:m] depends only on the leading m x m block
        squares = [Decimal(0)] * m
        for vec in vectors:
            y = []
            for i in range(m):
                acc = vec[i]
                row = low[i]
                for k in range(i):
                    acc -= row[k] * y[k]
                y.append(acc / row[i])
                squares[i] += y[i] * y[i]
        prefixes = []
        total = Decimal(0)
        for value in squares:
            total += value
            prefixes.append(total)
        return prefixes


class DipoleLags:
    """Impedance lags of x-oriented half-wave dipoles on the z axis."""

    def __init__(self):
        with mpmath.workdps(ORACLE_DIGITS + 10):
            tol = mpmath.mpf(10) ** -(ORACLE_DIGITS + 10)
            # Taylor coefficients of cos^2(pi x/2) = sum h_i x^2i; dividing by
            # 1 - x^2 turns them into partial sums a_j.
            a_coeffs = []
            partial = mpmath.mpf(0)
            i = 0
            while True:
                h = mpmath.mpf(1) if i == 0 else (
                    (-1) ** i * mpmath.pi ** (2 * i) / (2 * mpmath.factorial(2 * i))
                )
                partial += h
                # azimuth average of cos^2j(phi) is binomial(2j, j) / 4^j
                a_coeffs.append(partial * mpmath.binomial(2 * i, i) / mpmath.mpf(4) ** i)
                i += 1
                if i > 4 and abs(partial) < tol:
                    break
            self._g_coeffs = a_coeffs
            # 192-node Gauss-Legendre: exact for polynomials of degree <= 383,
            # and g(u) u^2n has degree 2 len(a) + 2 n < 383 here.
            nodes = GaussLegendre(mpmath.mp).calc_nodes(7, mpmath.mp.prec)
            moments = [mpmath.mpf(0)] * _MOMENTS
            for x, w in nodes:
                u = (x + 1) / 2
                weight = self.g(u) * w / 2
                u2 = u * u
                power = mpmath.mpf(1)
                for n in range(_MOMENTS):
                    moments[n] += weight * power
                    power *= u2
        self._moments = [_to_decimal(mu) for mu in moments]

    def g(self, u):
        """Azimuth-averaged power pattern at u = cos(theta) (mpmath)."""
        s2 = 1 - u * u
        return mpmath.fsum(c * s2**j for j, c in enumerate(self._g_coeffs))

    def lag(self, phase: Decimal) -> Decimal:
        """Z at separation D, given phase = 2 pi D."""
        if phase > _MAX_PHASE:
            raise ValueError(f"lag phase {phase} outside the oracle's series range")
        with decimal.localcontext(_CONTEXT):
            x2 = phase * phase
            tiny = Decimal(10) ** -(ORACLE_DIGITS + 5)
            term = Decimal(1)
            total = Decimal(0)
            for n, mu in enumerate(self._moments):
                total += term * mu
                term = -term * x2 / ((2 * n + 1) * (2 * n + 2))
                if abs(term) < tiny and 2 * n > phase:
                    return total
        raise ArithmeticError("dipole lag series did not converge")

    def direct_lag(self, separation: float):
        """The same lag by adaptive mpmath quadrature over theta (self-check)."""
        with mpmath.workdps(30):
            b = 2 * mpmath.pi * mpmath.mpf(separation)
            return mpmath.quad(lambda th: self.g(mpmath.cos(th)) * mpmath.cos(b * mpmath.cos(th))
                               * mpmath.sin(th), [0, mpmath.pi / 4, mpmath.pi / 2])


class EndfireOracle:
    """Endfire D_max of a z-axis uniform linear array, to ORACLE_DIGITS digits."""

    def __init__(self):
        self._dipole = None

    @property
    def dipole(self) -> DipoleLags:
        if self._dipole is None:
            self._dipole = DipoleLags()
        return self._dipole

    def dmax(self, element_count: int, spacing: float, pattern: str) -> Decimal:
        return self.dmax_prefixes(element_count, spacing, pattern)[-1]

    def dmax_prefixes(self, element_count: int, spacing: float, pattern: str) -> list:
        """D_max of the first 1, 2, ..., element_count elements at one spacing.

        The smaller arrays' Z and steering vectors are leading blocks of the
        largest one's, so one factorization serves them all.
        """
        b, cos_k, sin_k = _phase_tables(spacing, element_count)
        if pattern == "isotropic":
            with decimal.localcontext(_CONTEXT):
                lags = [Decimal(1)] + [sin_k[k] / (k * b) for k in range(1, element_count)]
        elif pattern == "half-wave-dipole":
            with decimal.localcontext(_CONTEXT):
                lags = [self.dipole.lag(k * b) for k in range(element_count)]
        else:
            raise ValueError(f"no oracle for pattern {pattern!r}")
        # the endfire pattern value is 1 for both element kinds
        return _cholesky_prefix_quadratic(lags, (cos_k, sin_k))


def relative_error(value: float, exact: Decimal) -> float:
    """|value - exact| / |exact|; inf for a non-finite value."""
    if not math.isfinite(value):
        return math.inf
    with decimal.localcontext(_CONTEXT):
        return float(abs(Decimal(value) - exact) / abs(exact))


def self_check(oracle: EndfireOracle) -> list:
    """Problems found by checking the oracle against known values; [] if none."""
    problems = []
    slack = Decimal(10) ** -(ORACLE_DIGITS - 10)
    for d in (0.05, 0.1, 0.25, 0.4):
        with mpmath.workdps(ORACLE_DIGITS + 5):
            kd = 2 * mpmath.pi * mpmath.mpf(d)
            s = mpmath.sin(kd) / kd
            pair = _to_decimal(2 * (1 - s * mpmath.cos(kd)) / (1 - s * s))
        with decimal.localcontext(_CONTEXT):
            if abs(oracle.dmax(2, d, "isotropic") - pair) > slack * pair:
                problems.append(f"2-element endfire closed form at d={d} not reproduced")
    for m, d, figure in ((12, 0.1, "139.26"), (10, 0.05, "99.18")):
        got = oracle.dmax(m, d, "isotropic").quantize(Decimal("0.01"))
        if got != Decimal(figure):
            problems.append(f"isotropic endfire M={m}, d={d}: {got} instead of {figure}")
    dipole = oracle.dipole
    # half-wave dipole directivity 1 / Z(0) is 1.6409...
    if abs(float(dipole.lag(Decimal(0))) * 1.64092 - 1.0) > 1e-5:
        problems.append("dipole Z(0) does not match the half-wave dipole directivity 1.641")
    for sep in (0.3, 2.5):
        with decimal.localcontext(_CONTEXT):
            phase = 2 * _to_decimal(mpmath.pi) * Decimal(sep)
        series = dipole.lag(phase)
        direct = _to_decimal(dipole.direct_lag(sep))
        with decimal.localcontext(_CONTEXT):
            if abs(series - direct) > Decimal("1e-25"):
                problems.append(f"dipole lag at {sep}: series {series} vs quadrature {direct}")
    return problems

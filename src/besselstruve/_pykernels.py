"""Numeric inner loops: the package's one kernel module, in pure Python.

Three primitives carry every double-precision hot path: the coefficient
table, Horner evaluation at one point and the minimum of a ratio's real
part on a circle.  The numeric modules import this one as ``kernels``
(``from . import _pykernels as kernels``), so every call goes through that
one module-global name.
"""

import math
from functools import lru_cache

NAME = "python"

_TWO_PI = 6.283185307179586
_SQRT_PI = 1.7724538509055159

# Below this order c_1 comes from one lgamma pair; above it from the
# asymptotic series of the Gamma ratio, whose next term is below 4e-16 there.
_C1_SERIES_FROM = 12.0


def backend_name() -> str:
    """Name of the kernel implementation: "python"."""
    return NAME


def _first_coefficient(nu):
    """c_1(nu) = Gamma(nu+1) / (sqrt(pi) * Gamma(nu+3/2)), stable for nu > -1.

    For nu <= 12 the lgamma difference is small and its exp is accurate;
    the series below would need more terms there.
    Above, with z = nu + 3/4 (the midpoint of the two Gamma arguments), the
    even terms of the Bernoulli-polynomial expansion cancel (DLMF 5.11.13)
    and Gamma(nu+1)/Gamma(nu+3/2) = z^(-1/2) * (1 - 1/(64 z^2)
    + 21/(8192 z^4) - 671/(524288 z^6) + 180323/(134217728 z^8)
    - 20898423/(8589934592 z^10) + O(z^-12)); no lgamma difference cancels.
    Measured against 60-digit mpmath on 9 000 orders: relative error at
    most 8.9e-15 for -1 < nu <= 5, 9.4e-15 up to nu = 12 and 4.3e-16 above,
    up to nu = 1e300.
    """
    if nu <= _C1_SERIES_FROM:
        return math.exp(math.lgamma(nu + 1.0) - math.lgamma(nu + 1.5)) / _SQRT_PI
    z = nu + 0.75
    w = 1.0 / (z * z)
    return (1.0 + w * (-1 / 64 + w * (21 / 8192 + w * (-671 / 524288 + w * (
        180323 / 134217728 + w * (-20898423 / 8589934592)))))) / (_SQRT_PI * math.sqrt(z))


def coefficient_table(nu, n_max):
    """Kernel coefficients c_0..c_n_max for order nu.

    c_n = Gamma(nu+1) / (2^n * Gamma(n/2 + 1) * Gamma(n/2 + nu + 1)),
    built from c_0 = 1 and c_1 (`_first_coefficient`) by the exact two-term
    recurrence c_n = c_{n-2} / (n * (n + 2*nu)).  Each step rounds three
    times, so c_n's relative error is at most c_1's plus 1.5*n roundings of
    2^-53 each, for every nu > -1.  No entry depends on n_max, so a table is a
    prefix of every longer one.  Values that fall below the normal double
    range underflow gradually to 0.0.
    """
    vals = [0.0] * (n_max + 1)
    vals[0] = 1.0
    if n_max:
        vals[1] = _first_coefficient(nu)
    two_nu = 2.0 * nu
    for n in range(2, n_max + 1):
        vals[n] = vals[n - 2] / (n * (n + two_nu))
    return vals


def horner(coeffs, zr, zi):
    """Evaluate sum(coeffs[k] * z^k) at z = zr + i*zi; coeffs real, ascending."""
    acc_r = 0.0
    acc_i = 0.0
    for k in range(len(coeffs) - 1, -1, -1):
        t = acc_r * zr - acc_i * zi + coeffs[k]
        acc_i = acc_r * zi + acc_i * zr
        acc_r = t
    return acc_r, acc_i


@lru_cache(maxsize=16)
def _half_circle(radius, n_points):
    """z_j = radius*exp(2*pi*i*j/n_points) for j = 0..n_points//2."""
    pts = []
    for j in range(n_points // 2 + 1):
        theta = _TWO_PI * j / n_points
        pts.append(complex(radius * math.cos(theta), radius * math.sin(theta)))
    return tuple(pts)


def min_real_ratio_on_circle(num, den, radius, n_points, floor):
    """Minimum of Re(num(z)/den(z)) over z_j = radius*exp(2*pi*i*j/n_points).

    The coefficients must be real: then num and den take conjugate values at
    z_j and z_{n_points-j}, so the real part of the ratio and |den| repeat
    there and only j = 0..n_points//2 is evaluated.  Each point runs one
    complex Horner loop over both polynomials, which forms the same products
    in the same order as `horner`.

    Returns (min_re, argmin_index, violation_index, min_abs_den); each index
    is -1 or lies in [0, n_points//2].  The scan stops at the first point
    with |den(z_j)| < floor; violation_index is that j (or -1), and min_re
    then covers only the scanned prefix.
    """
    pad = len(den) - len(num)
    if pad > 0:
        num = list(num) + [0.0] * pad
    elif pad < 0:
        den = list(den) + [0.0] * -pad
    pairs = tuple(zip(reversed(num), reversed(den)))
    min_re = math.inf
    argmin = -1
    min_abs = math.inf
    for j, z in enumerate(_half_circle(radius, n_points)):
        n = d = 0j
        for a, b in pairs:
            n = n * z + a
            d = d * z + b
        dr = d.real
        di = d.imag
        d2 = dr * dr + di * di
        ad = math.sqrt(d2)
        if ad < min_abs:
            min_abs = ad
        if ad < floor:
            return min_re, argmin, j, min_abs
        re = (n.real * dr + n.imag * di) / d2
        if re < min_re:
            min_re = re
            argmin = j
    return min_re, argmin, -1, min_abs

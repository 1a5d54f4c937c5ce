"""Numeric inner loops: the package's one kernel module, in pure Python.

Three primitives carry every double-precision hot path: the coefficient
table, Horner evaluation at one point and the minimum of a ratio's real
part on a circle.  Callers reach them through ``_backend.kernels``.
"""

import math
from functools import lru_cache

NAME = "python"

# Direct log-gamma evaluation up to this index; the exact two-term recurrence
# beyond it.  Repeated lgamma calls drift past 1e-13 relative error once the
# lgamma arguments reach the hundreds, while the recurrence stays at a few ulp.
LGAMMA_CUTOFF = 32

_LN2 = 0.6931471805599453
_TWO_PI = 6.283185307179586

# lgamma(n/2 + 1) for n = 0..LGAMMA_CUTOFF: the part of c_n that does not
# depend on nu, evaluated once with the same expression the table used.
_LGAMMA_HALF = tuple(math.lgamma(0.5 * n + 1.0) for n in range(LGAMMA_CUTOFF + 1))


def coefficient_table(nu, n_max):
    """Kernel coefficients c_0..c_n_max for order nu.

    c_n = Gamma(nu+1) / (2^n * Gamma(n/2 + 1) * Gamma(n/2 + nu + 1)),
    evaluated through log-gamma differences for n <= LGAMMA_CUTOFF and via
    c_n = c_{n-2} / (n * (n + 2*nu)) above it.  Each entry depends on
    n_max only through that cutoff, so a table is a prefix of every longer
    one.  Values that fall below the normal double range underflow
    gradually to 0.0.
    """
    lg_nu1 = math.lgamma(nu + 1.0)
    top = min(n_max, LGAMMA_CUTOFF)
    vals = [0.0] * (n_max + 1)
    vals[0] = 1.0
    for n in range(1, top + 1):
        vals[n] = math.exp(lg_nu1 - n * _LN2 - _LGAMMA_HALF[n]
                           - math.lgamma(0.5 * n + nu + 1.0))
    for n in range(top + 1, n_max + 1):
        vals[n] = vals[n - 2] / (n * (n + 2.0 * nu))
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

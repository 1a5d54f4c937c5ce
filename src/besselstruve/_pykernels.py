"""Numeric inner loops: the package's one kernel module, in pure Python.

Four primitives carry every double-precision hot path: the coefficient
table, Horner evaluation at one point, the minimum of a ratio's real part
on a circle, and a proof that this real part exceeds a given alpha at every
sample of that circle from a few of them.  The last two evaluate each sample
by one shared routine.  The numeric modules import this one as ``kernels``
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


def _pairs(num, den):
    """(num_k, den_k) from the highest degree down; the shorter side is
    zero-padded."""
    pad = len(den) - len(num)
    if pad > 0:
        num = list(num) + [0.0] * pad
    elif pad < 0:
        den = list(den) + [0.0] * -pad
    return tuple(zip(reversed(num), reversed(den)))


def _ratio_point(pairs, z, floor):
    """(|den(z)|, Re(num(z)/den(z)), num(z)) from one complex Horner loop.

    The real part is None when |den(z)| < floor.  Both circle primitives
    evaluate their samples here, so they see the same values.  The loop
    forms the same products in the same order as `horner`.
    """
    n = d = 0j
    for a, b in pairs:
        n = n * z + a
        d = d * z + b
    dr = d.real
    di = d.imag
    d2 = dr * dr + di * di
    ad = math.sqrt(d2)
    if ad < floor:
        return ad, None, n
    return ad, (n.real * dr + n.imag * di) / d2, n


def min_real_ratio_on_circle(num, den, radius, n_points, floor):
    """Minimum of Re(num(z)/den(z)) over z_j = radius*exp(2*pi*i*j/n_points).

    The coefficients must be real: then num and den take conjugate values at
    z_j and z_{n_points-j}, so the real part of the ratio and |den| repeat
    there and only j = 0..n_points//2 is evaluated, each by `_ratio_point`.

    Returns (min_re, argmin_index, violation_index, min_abs_den); each index
    is -1 or lies in [0, n_points//2].  The scan stops at the first point
    with |den(z_j)| < floor; violation_index is that j (or -1), and min_re
    then covers only the scanned prefix.
    """
    pairs = _pairs(num, den)
    min_re = math.inf
    argmin = -1
    min_abs = math.inf
    for j, z in enumerate(_half_circle(radius, n_points)):
        ad, re, _ = _ratio_point(pairs, z, floor)
        if ad < min_abs:
            min_abs = ad
        if re is None:
            return min_re, argmin, j, min_abs
        if re < min_re:
            min_re = re
            argmin = j
    return min_re, argmin, -1, min_abs


_U = 2.0 ** -53
_STRIDE = 64
_MAX_TERMS = 2 ** 20
_MAX_SIZE = 2.0 ** 400
_MIN_DEN = 2.0 ** -400
_SLACK = 1.0 + 2.0 ** -30


def ratio_exceeds_on_circle(num, den, radius, n_points, floor, alpha):
    """True only if the scan of `min_real_ratio_on_circle` would find, at
    every sample z_j, a computed |den(z_j)| >= floor and a computed
    Re(num(z_j)/den(z_j)) > alpha.

    False when an evaluated sample fails the scan's test or a precondition
    of the proof below fails; the caller then runs the scan.  Samples are
    evaluated by the scan's own `_ratio_point`, so an evaluated sample
    passes exactly when the scan's test passes there.  Schedule: j =
    n_points//2 first (where such minima usually sit), then every 64th j.
    A gap between evaluated neighbours a < b is closed when the farthest
    skipped sample on each side, (b-a)//2 from a and (b-a-1)//2 from b, is
    bounded from that neighbour; the bound grows with the distance, so the
    nearer samples follow.  Otherwise (a+b)//2 is evaluated and both halves
    are tried again, so the stride sets the cost, not the result.

    Proof of the bound for a sample j skipped at distance d from the
    evaluated c.  u = 2^-53; P is the padded num or den with m
    coefficients p_k; v is the number of lowest-degree coefficients that
    vanish in both, and P~(w) = P(w)/w^v; hats are computed values.  The
    proof needs 0 < radius < 1, m <= 2^20, sum |num_k| + |den_k| <= 2^400
    (so no operation overflows) and (radius*(1 - 2^-40))^v >= 2^-400;
    otherwise the function returns False.

    1. Points.  The computed angle 2*pi*j/n_points (at most pi) is off by
       at most 3u*pi, cos and sin by an ulp each, and each product rounds
       once, so z_j lies within radius*2^-48 of radius*exp(2*pi*i*j/n).
       Hence r_lo <= |z_j| <= rho with r_lo, rho = radius*(1 -+ 2^-40),
       and |z_j - z_c| <= h_d = rho*(2*pi*d/n_points + 2^-40).
    2. Horner.  A step is one complex product, of relative error at most
       sqrt(2)*gamma_2 with or without fused multiply-add (Higham,
       Accuracy and Stability of Numerical Algorithms, 2002, Lemma 3.5),
       and one real addition, of relative error u.  Expanding as in
       Higham's Section 5.1 gives |P^(z) - P(z)| <= (2*sqrt(2) + 1)*m*u*S
       + O(u^2) for |z| <= rho, where S = sum |p_k|*rho^k.  The stated
       H = (8m + 16)*u*S + 2^-1000 over-estimates that by more than twice
       and adds the underflow of at most 2^-1074 per operation.
    3. Chord.  The segment [z_c, z_j] lies in |w| <= rho, so
       |P~(z_j) - P~(z_c)| <= h_d*S', S' = sum (k-v)*|p_k|*rho^(k-v-1).
       With step 2, |P^_j/z_j^v - P^_c/z_c^v| <= Delta(d) = h_d*S' +
       2*H/r_lo^v.
    4. Ratio.  num^_j/den^_j equals the quotient of those reduced values,
       so with R = |num^_c|/|den^_c| and L = |den^_c|/rho^v - Delta_den,
       a lower bound of |den^_j/z_j^v|,
       |num^_j/den^_j - num^_c/den^_c| <= E = (Delta_num + R*Delta_den)/L.
    5. Floor.  |den^_j| >= r_lo^v*L, and the computed modulus rounds by at
       most 3u, so r_lo^v*L >= max(floor, 2^-400)*slack gives the floor.
    6. Rounding of the real part.  With |den^| >= 2^-400 the two products,
       the sum of squares and the division leave the computed real part
       within 8u*|num^/den^| + 2^-200 of Re(num^/den^), at c as at j,
       where |num^_j/den^_j| <= R + E.

    So re_j > alpha whenever re_c - alpha > (E + 16u*R + 2^-199)*slack.
    slack = 1 + 2^-30 absorbs the 8u*E of step 6 and the rounding of this
    bound arithmetic, whose terms are all nonnegative except L; requiring
    Delta_den <= L keeps that one difference within a few ulp.
    """
    pairs = _pairs(num, den)
    m = len(pairs)
    top = m
    while top and pairs[top - 1] == (0.0, 0.0):
        top -= 1
    rho = radius * (1.0 + 2.0 ** -40)
    # S/rho^v and S' of each side, by Horner at rho over the reduced
    # coefficients; size bounds every intermediate
    s_num = s_den = ds_num = ds_den = size = 0.0
    for a, b in pairs[:top]:
        ds_num = ds_num * rho + s_num
        s_num = s_num * rho + abs(a)
        ds_den = ds_den * rho + s_den
        s_den = s_den * rho + abs(b)
        size += abs(a) + abs(b)
    grow = rho ** (m - top)
    shrink = (radius * (1.0 - 2.0 ** -40)) ** (m - top)
    if not (0.0 < radius < 1.0 and m <= _MAX_TERMS and size <= _MAX_SIZE
            and shrink >= _MIN_DEN):
        return False
    gamma = (8 * m + 16) * _U
    step = _TWO_PI * rho / n_points
    edge = rho * 2.0 ** -40
    # Delta(d) = d*per + fixed on each side: h_d*S' + 2*H/r_lo^v
    per_num = step * ds_num
    per_den = step * ds_den
    fixed_num = edge * ds_num + (gamma * s_num * grow + 2.0 ** -1000) * 2.0 / shrink
    fixed_den = edge * ds_den + (gamma * s_den * grow + 2.0 ** -1000) * 2.0 / shrink
    floor_lo = max(floor, _MIN_DEN) * _SLACK / shrink
    pts = _half_circle(radius, n_points)
    seen = {}

    def passes(j):
        """The scan's own test at sample j; keeps what `covered` needs."""
        ad, re, n = _ratio_point(pairs, pts[j], floor)
        if re is None or not re > alpha:
            return False
        ratio = abs(n) / ad
        seen[j] = (re - alpha, ad / grow, ratio, 16.0 * _U * ratio + 2.0 ** -199)
        return True

    def covered(c, d):
        """Whether the bound from sample c holds at distance d (steps 4-6)."""
        gap, base, ratio, rounding = seen[c]
        drift = d * per_den + fixed_den
        low = base - drift
        return (drift <= low and low >= floor_lo and gap > (
            (d * per_num + fixed_num + ratio * drift) / low + rounding) * _SLACK)

    last = n_points // 2
    marks = [*range(0, last, _STRIDE), last]
    if not (passes(last) and all(map(passes, marks[:-1]))):
        return False
    gaps = list(zip(marks, marks[1:]))
    while gaps:
        a, b = gaps.pop()
        if b - a < 2 or (covered(a, (b - a) // 2)
                         and (b - a == 2 or covered(b, (b - a - 1) // 2))):
            continue
        mid = (a + b) // 2
        if not passes(mid):
            return False
        gaps += ((a, mid), (mid, b))
    return True

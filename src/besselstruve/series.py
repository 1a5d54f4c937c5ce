"""Bessel-Struve kernel series: coefficients, disk evaluation, endpoint moments.

The kernel S_nu(z) = sum_{n>=0} c_n(nu) z^n is an entire function with
strictly positive, factorially decaying coefficients

    c_n(nu) = Gamma(nu+1) * Gamma((n+1)/2) / (sqrt(pi) * n! * Gamma(n/2+nu+1)),

defined for nu > -1.  Two normalized variants share the unit-disk
normalization f(0) = 0, f'(0) = 1:

    z*S_nu(z)            (positive coefficients), and
    z*(2 - S_nu(z))      (negative coefficients).

Every membership criterion downstream is a linear form in the values
S_nu(1), S'_nu(1), S''_nu(1), S'''_nu(1), or equivalently in the weighted
sums sum_{n>=2} n^k c_{n-1}(nu); ``moments`` sums the derivative values and
m_0 termwise and takes m_1..m_3 from them by exact identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from . import _pykernels as kernels
from .errors import DomainError, ParameterError

__all__ = [
    "KernelOrder",
    "CoefficientSequence",
    "MomentSet",
    "kernel_coefficient",
    "log_kernel_coefficient",
    "coefficient_sequence",
    "eval_kernel",
    "eval_normalized",
    "eval_phi",
    "moments",
]

_MAX_TERMS = 10_000
# Highest index of the first table a truncation search builds.  The search
# at tol 1e-12 and weight n^3 ends at N = 11..17 for nu in [-0.45, 40].
_FIRST_SIZE = 24
# Covers the rounding error of the closed-form tail bound (`_weighted_tail`).
_TAIL_ROUND_UP = 1.0 + 1e-14
# The radius-1 scan skips an index n with c_{n+1} >= _SKIP_FLOOR and
# c_{n+1} * (n+2)^power * _SKIP_SHRINK > tol; the shrink covers six roundings
# of 2^-53 (see `_truncated_table`).
_SKIP_FLOOR = 1e-280
_SKIP_SHRINK = 1.0 - 2.0 ** -50


@dataclass(frozen=True)
class KernelOrder:
    """Order parameter nu of the kernel family.

    The coefficient series is finite and positive for nu > -1.  The
    second-order criteria (and the convolution/integral operators built on
    them) additionally assume nu > -1/2; `operator_valid` reports that
    stricter range without deciding anything about the gap (-1, -1/2].
    """

    nu: float

    def __post_init__(self):
        nu = float(self.nu)
        if not math.isfinite(nu) or nu <= -1.0:
            raise DomainError(f"kernel order must satisfy nu > -1, got {self.nu!r}")
        object.__setattr__(self, "nu", nu)

    @property
    def operator_valid(self) -> bool:
        return self.nu > -0.5


def _as_order(nu) -> KernelOrder:
    if isinstance(nu, KernelOrder):
        return nu
    return KernelOrder(nu)


def _operator_order(nu) -> KernelOrder:
    """`_as_order`, restricted to the range nu > -1/2 of `operator_valid`."""
    order = _as_order(nu)
    if not order.operator_valid:
        raise DomainError(
            f"criteria and operators require nu > -1/2, got nu={order.nu}")
    return order


@dataclass(frozen=True)
class CoefficientSequence:
    """Truncated coefficient table c_0..c_N with a proven tail majorant.

    ``tail_bound`` bounds sum_{n>N} c_n and ``tail_ratio`` is a q with
    c_{n+1} <= q * c_n for every n >= N: the larger of c_{N+1}/c_N and
    c_{N+2}/c_{N+1}, a valid envelope because the consecutive ratio
    decreases along each parity for all nu > -1 (see `_truncated_table`).
    It is below 0.4245, or 0.0 where the table underflows.
    """

    order: KernelOrder
    values: tuple[float, ...]
    tail_bound: float
    tail_ratio: float

    @property
    def truncation_index(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class MomentSet:
    """Weighted coefficient sums and kernel derivative values at z = 1.

    m_k = sum_{n>=2} n^k c_{n-1}(nu) and s_k = d^k/dz^k S_nu(z) at z = 1.
    s_0..s_3 and m_0 = s_0 - 1 are summed termwise from one coefficient
    table; the other m_k follow from n^k in falling factorials:
    m_1 = s_1 + m_0, m_2 = s_2 + 3 s_1 + m_0, m_3 = s_3 + 6 s_2 + 7 s_1 + m_0.
    """

    m0: float
    m1: float
    m2: float
    m3: float
    s0: float
    s1: float
    s2: float
    s3: float
    tol: float


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (0.0 < tol < 1.0):
        raise ParameterError(f"tolerance must lie in (0, 1), got {tol!r}")
    return tol


def log_kernel_coefficient(nu, n: int) -> float:
    """log c_n(nu), finite where the value itself underflows a double.

    The logarithm of the recurrence that builds the table
    (`_pykernels.coefficient_table`), summed exactly by `math.fsum`:
    log c_n = log c_{n mod 2} - sum of log k + log(k + 2 nu) over
    2 <= k <= n with k of n's parity.  log c_0 = 0, and log c_1 follows
    c_1(x) = c_1(x + 1) * (x + 3/2) / (x + 1) up from nu, one log1p per
    step, until `_first_coefficient` takes no lgamma difference.  Against
    60-digit mpmath the error stays within 4 ulp of
    max(|log c_n|, |log(nu + 1)|, 1) from nu = -1 + 1e-16 to 1e300; near
    nu = -1, log c_n carries the summand log Gamma(nu + 1) ~ -log(nu + 1),
    which no double holds to better than its own ulp.  The cost is O(n):
    about 2.5 ms at n = 10 000.
    """
    order = _as_order(nu)
    n = _check_index(n)
    log, ks = math.log, range(2 + n % 2, n + 1, 2)
    parts = [-log(k) for k in ks] + [-log(k + 2.0 * order.nu) for k in ks]
    if n % 2:
        x = order.nu
        while x <= kernels._C1_SERIES_FROM:
            parts.append(math.log1p(0.5 / (x + 1.0)))
            x += 1.0
        parts.append(log(kernels._first_coefficient(x)))
    return math.fsum(parts)


def _check_index(n, name: str = "coefficient index", low: int = 0) -> int:
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParameterError(f"{name} must be an integer, got {n!r}")
    if n < low:
        raise ParameterError(f"{name} must be >= {low}, got {n}")
    return n


def kernel_coefficient(nu, n: int) -> float:
    """The n-th kernel coefficient c_n(nu), nu > -1.

    Relative error stays below 1e-13 on the whole domain nu > -1 down to
    the normal double range: c_1 comes from a stable Gamma ratio and the
    rest from the exact recurrence (see `_pykernels.coefficient_table`).
    Measured against 60-digit mpmath on 9 000 orders from -1 + 1e-16 to
    1e300: at most 9.4e-15 for c_1 and 1.4e-14 for c_0..c_200.  Values past
    the underflow horizon (around n = 170 for moderate nu) degrade
    gracefully through subnormals to 0.0 -- use `log_kernel_coefficient`
    when the magnitude of such a coefficient is needed.
    """
    order = _as_order(nu)
    n = _check_index(n)
    return kernels.coefficient_table(order.nu, n)[n]


def _power_weights(n: int, power: int):
    """Coefficients in powers of k of the moment weight (n+1+k)^power.

    The +1 covers the moment sums, whose index runs one ahead of the
    coefficient index (n^k * c_{n-1}).  The values are exact integers.
    """
    a = n + 1
    if power == 3:
        return a * a * a, 3 * a * a, 3 * a, 1
    if 0 <= power <= 2:
        return ((1,), (a, 1), (a * a, 2 * a, 1))[power]
    raise ValueError(f"tail weight power must be 0..3, got {power}")


def _weighted_tail(c: float, q: float, d0, d1=0.0, d2=0.0, d3=0.0) -> float:
    """Upper bound for c * sum_{k>=1} P(k) q^k, P(k) = d0 + d1 k + d2 k^2 + d3 k^3.

    The package's one geometric tail majorant: terms c q^k past an index N,
    weighted by P(k) at N+k with coefficients d_j >= 0.  It uses sum k^j q^k
    = q/(1-q), q/(1-q)^2, q(1+q)/(1-q)^3 and q(1+4q+q^2)/(1-q)^4, nested in
    u = 1/(1-q).  Every term is positive and passes through at most 22
    roundings of 2^-53 beyond those in c and the d_j, which callers keep
    below 8 (< 3.4e-15 in all), so _TAIL_ROUND_UP makes it a strict upper
    bound; the final 5e-324 covers a product that underflows.  q <= 0 means
    no tail.
    """
    if q <= 0.0:
        return 0.0
    u = 1.0 / (1.0 - q)
    s = d0 + u * (d1 + u * (d2 * (1.0 + q) + u * d3 * (1.0 + q * (4.0 + q))))
    return c * (q * u * s) * _TAIL_ROUND_UP + 5e-324


def _truncated_table(nu: float, tol: float, power: int, radius: float = 1.0):
    """Smallest table whose power-weighted tail at |z| = radius is below tol.

    Returns (values c_0..c_N as a list, tail bound, envelope ratio q).  The
    scan reads the terms t_n = c_n * radius^n: at radius 1 the table itself,
    past it their own recurrence t_{n+2} = t_n * radius^2 / ((n+2)(n+2+2nu))
    from t_0 = 1 and t_1 = c_1 * radius, which stays finite where c_n
    underflows.  q is the larger of the two consecutive term ratios at N.
    It bounds every later ratio, because the ratio decreases along each
    parity: the ratio of two-apart ratios is
    (n+2)(n+2+2nu)/((n+3)(n+3+2nu)) < 1 whenever nu > -1.  N is the first
    index with q < 1 and the `_weighted_tail` of the (n+1+k)^power weights
    below tol; an index whose first tail term t_N * q * (N+2)^power already
    exceeds tol is skipped without computing that bound, which can only be
    larger.  At radius 1, q < 0.4245 at every n >= 2 (its largest value is
    c_3/c_2, which tends to 4/(3 pi) ~ 0.42441 as nu -> -1), so the test
    q < 1 binds only past radius 1.

    At radius 1 the scan starts past the indices it can prove fail that
    prune.  Write x = c_{n+1}, K = (n+2)^power and u = 2^-53.  The prune
    forms c_n * q * K with q >= fl(x / c_n).  If x >= _SKIP_FLOOR, every
    value it rounds is a normal double (for n >= 2, c_n <= c_2 =
    1/(4(nu+1)) <= 2^51, so x / c_n > 2^-1000), each of its four roundings
    (quotient, product, power, product) costs at most u relative, and it
    reads at least x K (1 - u)^4.  The skip test
    fl(x * fl(K * _SKIP_SHRINK)) > tol gives x K (1 - 8u)(1 + u)^2 > tol,
    and the left side is below x K (1 - u)^4: the index fails the prune.
    For n >= 2, x K strictly decreases with n: c_{n+2} / c_{n+1} < 0.4245
    and ((n+3)/(n+2))^3 <= (5/4)^3 < 1.954, so each step multiplies it by
    less than 0.83 (tests check both on the table's own entries).  The
    bisection over [start, stop) moves its lower end only past an index
    that passes the skip test, so every index it passes over has a larger
    x K and a larger x, and fails the prune too.  Their c_n and c_{n+1}
    are normal, so none of them would have taken the underflow exit
    either: the scan returns what a scan from start would.

    The scan starts on a table of _FIRST_SIZE + 1 entries, which covers the
    usual truncation; when no index passes, the table doubles and the scan
    resumes where it stopped (a table is a prefix of any longer one).  Past
    radius 1 the table can run out first: once its next entry underflows to
    0.0 it holds no more terms, and ParameterError is raised, naming an
    overflow when a term or their sum overflows.  `eval_kernel` runs this
    search with half its tol and spends the other half on Horner's rounding.
    """
    size, start, terms = _FIRST_SIZE, 2, []
    while True:
        vals = kernels.coefficient_table(nu, min(size, _MAX_TERMS + 2))
        stop = len(vals) - 2
        if radius == 1.0:
            terms = vals
            hi = stop
            while start < hi:
                mid = (start + hi) // 2
                x = vals[mid + 1]
                if (x >= _SKIP_FLOOR
                        and x * ((mid + 2) ** power * _SKIP_SHRINK) > tol):
                    start = mid + 1
                else:
                    hi = mid
        else:
            r2, two_nu = radius * radius, 2.0 * nu
            terms = terms or [1.0, vals[1] * radius]
            for k in range(len(terms), len(vals)):
                terms.append(terms[k - 2] * r2 / (k * (k + two_nu)))
            if 0.0 in vals[start + 1:stop + 1]:
                stop = vals.index(0.0, start + 1)  # the table runs out here
        for n in range(start, stop):
            t = terms[n]
            t1 = terms[n + 1]
            if t <= 0.0 or t1 <= 0.0:
                # underflowed: the remaining tail is below resolution
                return vals[: n + 1], 0.0, 0.0
            r0 = t1 / t
            r1 = terms[n + 2] / t1
            q = r1 if r1 > r0 else r0
            if q < 1.0 and t * q * float(n + 2) ** power <= tol:
                tail = _weighted_tail(t, q, *_power_weights(n, power))
                if tail <= tol:
                    return vals[: n + 1], tail, q
        if vals[stop] <= 0.0:
            # Only past radius 1: n = stop - 1 failed and the table holds no
            # more terms.  The coefficients underflow within a few hundred
            # terms, and an overflowed term stays inf along its parity and
            # fails q < 1, so overflow needs testing here only.
            if sum(terms[: n + 3]) == math.inf:
                raise ParameterError(
                    f"S_nu at |z|={radius!r} (nu={nu!r}) overflows a double")
            raise ParameterError(
                f"S_nu at |z|={radius!r} (nu={nu!r}): the coefficients "
                f"underflow before the dropped tail falls below {tol!r}")
        if size >= _MAX_TERMS:
            raise RuntimeError(
                f"no geometric tail within {_MAX_TERMS} terms for nu={nu}; "
                "this cannot happen for nu > -1"
            )
        size, start = 2 * size, len(vals) - 2


@lru_cache(maxsize=512)
def _cached_table(nu: float, tol: float, power: int):
    vals, tail, q = _truncated_table(nu, tol, power)
    return tuple(vals), tail, q


def coefficient_sequence(nu, tol: float = 1e-12) -> CoefficientSequence:
    """Adaptively truncated coefficient table with tail bound <= tol.

    The truncation index N is the first one where the `_weighted_tail`
    majorant of sum_{n>N} c_n drops below ``tol`` (`_truncated_table` at
    radius 1 with weight power 0).
    """
    order = _as_order(nu)
    tol = _check_tol(tol)
    vals, tail, q = _cached_table(order.nu, tol, 0)
    return CoefficientSequence(order, vals, tail, q)


def eval_kernel(nu, z, tol: float = 1e-12) -> complex:
    """S_nu(z); past the unit disk within tol, or ParameterError.

    S_nu(0) = 1 exactly.  Horner's rounding over m table entries is at most
    gamma_{4m} * S_nu(|z|), with gamma_k = k u / (1 - k u), u = 2^-53
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    sections 3.6 and 5.1); the terms are positive, so S_nu(|z|) <=
    computed / (1 - 2 m u).

    For |z| <= 1 the cached radius-1 table holds the dropped tail below
    tol, so the value is within tol plus the rounding bound, and nothing
    refuses it when that bound exceeds tol.  It does near nu = -1, where
    S_nu(|z|) is large: ``eval_kernel(-0.9999999999999999, 1, 1e-14)`` is
    6433586881780766, the true value 6433586881780770.56.

    Past the unit disk half of tol goes to truncation (`_truncated_table`
    at radius |z|, uncached) and half to the rounding bound, which grows
    with S_nu(|z|), not |S_nu(z)|: at tol 1e-12 it holds up to |z| = 5.0
    at nu = 0.3 and 32 at nu = 100, on every ray.  Past that, and for a
    non-finite z, ParameterError is raised.  The coefficients' own
    error (`kernel_coefficient`: relative 1e-13 each, so at most
    1e-13 * S_nu(|z|) in all) is not part of either bound.
    """
    return _eval_kernel(nu, z, tol)[0]


def _eval_kernel(nu, z, tol: float):
    """`eval_kernel` with the truncation it summed: (S_nu(z), N, tail bound).

    For |z| <= 1 that is the radius-1 table at tol; past the unit disk the
    radius-|z| table at tol/2.
    """
    order = _as_order(nu)
    tol = _check_tol(tol)
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParameterError(f"z must be finite, got {z!r}")
    az = abs(z)
    if az <= 1.0:
        vals, tail, _ = _cached_table(order.nu, tol, 0)
    else:
        vals, tail, _ = _truncated_table(order.nu, 0.5 * tol, 0, az)
        mu = len(vals) * 2.0 ** -53
        bound = (4.0 * mu / (1.0 - 4.0 * mu) * kernels.horner(vals, az, 0.0)[0]
                 / (1.0 - 2.0 * mu))
        if not bound <= 0.5 * tol:
            raise ParameterError(
                f"S_nu at |z|={az!r} (nu={order.nu!r}) cannot be certified "
                f"to tol={tol!r}: Horner's rounding bound {bound:.3e} "
                f"exceeds tol/2")
    re, im = kernels.horner(vals, z.real, z.imag)
    return complex(re, im), len(vals) - 1, tail


def eval_normalized(nu, z, tol: float = 1e-12) -> complex:
    """z * S_nu(z): the positive-coefficient normalized variant."""
    z = complex(z)
    return z * eval_kernel(nu, z, tol)


def eval_phi(nu, z, tol: float = 1e-12) -> complex:
    """z * (2 - S_nu(z)): the negative-coefficient normalized variant."""
    z = complex(z)
    return z * (2.0 - eval_kernel(nu, z, tol))


@lru_cache(maxsize=None)
def _moment_weights(bits: int):
    """Weights of s1..s3 for table indices 0..2**bits - 1, as floats.

    Index m carries the falling factorial m(m-1)...(m-k+1) that s_k
    multiplies c_m by.  A table has fewer than 2**14 entries, so every
    weight is an integer below 2**42 and exact as a float; each float
    product is then the termwise int * float one bit for bit, and cheaper
    to form.  `map` stops at the table's end, and fsum is exact in any
    order, so the sums equal the termwise ones.
    """
    ms = range(1 << bits)
    return (
        tuple(float(m) for m in ms),
        tuple(float(m * (m - 1)) for m in ms),
        tuple(float(m * (m - 1) * (m - 2)) for m in ms),
    )


def _moment_sums(nu: float, tol: float):
    """(s_0, s_1, s_2, s_3): S_nu and its first three derivatives at z = 1.

    ``nu`` must be a float > -1 and ``tol`` a checked tolerance.  The sums
    read the `_cached_table` entry; its truncation is chosen so even the
    (n+1)^3-weighted tail, that of m_3, is below tol, and each sum is an
    exact sum of the table entries times integers, rounded once.  No double
    near the largest moment value, max(s0, m3), resolves a tol below its
    ulp: such a tol raises ParameterError.  m_0 = fsum(c_1..c_N), which
    m_3 needs, is summed only when a bound cannot settle the test.  Both
    fsums round correctly over nonnegative terms, so m_0 <= s_0, and
    rounding is monotone, so s3 + 6 s2 + 7 s1 + s0, formed in m_3's order,
    is at least max(s0, m3).  While the ulp of that bound is at most tol,
    so is the ulp of max(s0, m3), and nothing is refused.
    """
    vals = _cached_table(nu, tol, 3)[0]
    fsum = math.fsum
    w1, w2, w3 = _moment_weights(len(vals).bit_length())
    s0 = fsum(vals)
    s1 = fsum(map(mul, w1, vals))
    s2 = fsum(map(mul, w2, vals))
    s3 = fsum(map(mul, w3, vals))
    if math.ulp(s3 + 6.0 * s2 + 7.0 * s1 + s0) > tol:
        top = max(s0, s3 + 6.0 * s2 + 7.0 * s1 + fsum(vals[1:]))
        if math.ulp(top) > tol:
            raise ParameterError(
                f"moments at nu={nu!r} cannot reach tol={tol!r}: the largest "
                f"value {top:.6g} is resolved only to its ulp {math.ulp(top):.3e}")
    return s0, s1, s2, s3


def moments(nu, tol: float = 1e-12) -> MomentSet:
    """m_k and s_k values at z = 1, each with truncation error <= tol.

    s_0..s_3 come from `_moment_sums`, which also raises ParameterError for
    a tol below the ulp of max(s0, m3).  m_0 is the exact sum of the same
    table past c_0, rounded once, and m_1..m_3 add the s_k to it with
    positive integer weights (see `MomentSet`), so nothing cancels.
    """
    order = _as_order(nu)
    tol = _check_tol(tol)
    s0, s1, s2, s3 = _moment_sums(order.nu, tol)
    m0 = math.fsum(_cached_table(order.nu, tol, 3)[0][1:])
    m3 = s3 + 6.0 * s2 + 7.0 * s1 + m0
    return MomentSet(m0, s1 + m0, s2 + 3.0 * s1 + m0, m3, s0, s1, s2, s3, tol)

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
sums sum_{n>=2} n^k c_{n-1}(nu); ``moments`` computes both families
termwise so the linking identities stay checkable.
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

# A truncation index is accepted once the consecutive-term ratio sits below
# this cap; past that point the ratio decays like 1/n, so the geometric
# majorant is both valid and rapidly shrinking.
_RATIO_CAP = 0.875
_MAX_TERMS = 10_000
# Highest index of the first table a truncation search builds.  The search
# at tol 1e-12 and weight n^3 ends at N = 11..17 for nu in [-0.45, 40].
_FIRST_SIZE = 24
# Covers the rounding error of the closed-form tail bound (`_weighted_tail`).
_TAIL_ROUND_UP = 1.0 + 1e-14

_LN2 = 0.6931471805599453


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

    ``tail_bound`` bounds sum_{n>N} c_n and ``tail_ratio`` is a q < 1 with
    c_{n+1} <= q * c_n for every n >= N (the consecutive ratio decreases
    along each parity for all nu > -1, so q = max of the first two ratios
    past N is a valid envelope).
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

    m_k = sum_{n>=2} n^k c_{n-1}(nu) and s_k = d^k/dz^k S_nu(z) at z = 1,
    both computed termwise from one coefficient table.  The two families are
    linked by exact identities (e.g. m0 = s0 - 1); `identity_residuals`
    exposes the four residuals so callers and tests can audit them.
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

    def identity_residuals(self) -> tuple[float, float, float, float]:
        return (
            self.m0 - (self.s0 - 1.0),
            self.m1 - (self.s1 + self.s0 - 1.0),
            self.m2 - (self.s2 + 3.0 * self.s1 + self.s0 - 1.0),
            self.m3 - (self.s3 + 6.0 * self.s2 + 7.0 * self.s1 + self.s0 - 1.0),
        )


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (0.0 < tol < 1.0):
        raise ParameterError(f"tolerance must lie in (0, 1), got {tol!r}")
    return tol


def log_kernel_coefficient(nu, n: int) -> float:
    """log c_n(nu), finite where the value itself underflows a double.

    Uses the Legendre-duplication form
    log c_n = lgamma(nu+1) - n*log 2 - lgamma(n/2+1) - lgamma(n/2+nu+1).
    Its absolute error grows with the size of those lgamma terms: measured
    against 60-digit mpmath, at most 1.1e-11 for -1 < nu <= 1e3 and
    n <= 10 000, but 3.4e-9 at nu = 1e6 and 4.1e-6 at nu = 1e9, where the
    difference of two large lgamma values cancels.  It keeps this form,
    and so this caveat, although `kernel_coefficient` no longer uses
    lgamma differences; while c_n is a normal double,
    log(kernel_coefficient(nu, n)) is accurate for every nu.
    """
    order = _as_order(nu)
    n = _check_index(n)
    h = 0.5 * n
    return (math.lgamma(order.nu + 1.0) - n * _LN2 - math.lgamma(h + 1.0)
            - math.lgamma(h + order.nu + 1.0))


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


def _tail_envelope(vals, start):
    """(q, ok): q = max of the two consecutive ratios at ``start``.

    Valid as a geometric envelope for all n >= start because the ratio
    c_{n+1}/c_n decreases along each parity: with c_{n+2} = c_n/((n+2)(n+2+2nu))
    the two-apart ratio of ratios is (n+2)(n+2+2nu)/((n+3)(n+3+2nu)) < 1
    whenever nu > -1.  Requires vals to extend two places past ``start``.
    """
    c0 = vals[start]
    c1 = vals[start + 1]
    c2 = vals[start + 2]
    if c0 <= 0.0 or c1 <= 0.0:
        return 0.0, True  # underflowed: the remaining tail is below resolution
    q = max(c1 / c0, c2 / c1)
    return q, q < _RATIO_CAP


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


def _truncated_table(nu: float, tol: float, power: int):
    """Smallest table with the power-weighted tail below tol.

    Returns (values c_0..c_N as a list, tail bound, envelope ratio q).
    The scan starts on a table of _FIRST_SIZE + 1 entries, which covers the
    usual truncation; when no index passes, the table doubles and the scan
    resumes where it stopped (a table is a prefix of any longer one).  The
    envelope is `_tail_envelope`, inlined.  An index whose first tail term
    c_N * q * (N+2)^power already exceeds tol is skipped without computing
    `_weighted_tail`: that bound can only be larger, so the accepted index
    and bound are unchanged.
    """
    size, start = _FIRST_SIZE, 2
    while True:
        vals = kernels.coefficient_table(nu, min(size, _MAX_TERMS + 2))
        for n in range(start, len(vals) - 2):
            c0 = vals[n]
            c1 = vals[n + 1]
            if c0 <= 0.0 or c1 <= 0.0:
                q = 0.0  # underflowed: the remaining tail is below resolution
            else:
                r0 = c1 / c0
                r1 = vals[n + 2] / c1
                q = r1 if r1 > r0 else r0
                if q >= _RATIO_CAP or c0 * q * float(n + 2) ** power > tol:
                    continue
            tail = _weighted_tail(c0, q, *_power_weights(n, power))
            if tail <= tol:
                return vals[: n + 1], tail, q
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
    majorant of sum_{n>N} c_n (q from `_tail_envelope`) drops below ``tol``.
    """
    order = _as_order(nu)
    tol = _check_tol(tol)
    vals, tail, q = _cached_table(order.nu, tol, 0)
    return CoefficientSequence(order, vals, tail, q)


def eval_kernel(nu, z, tol: float = 1e-12) -> complex:
    """S_nu(z) with absolute error <= tol for |z| <= 1.

    S_nu(0) = 1 exactly.  Points outside the closed unit disk are evaluated
    with the truncation extended until the |z|-rescaled tail majorant meets
    the same tolerance (possible for any z since the series is entire).
    A non-finite z raises ParameterError.
    """
    order = _as_order(nu)
    tol = _check_tol(tol)
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParameterError(f"z must be finite, got {z!r}")
    az = abs(z)
    if az <= 1.0:
        vals, _, _ = _cached_table(order.nu, tol, 0)
    else:
        vals = _table_for_radius(order.nu, tol, az)
    re, im = kernels.horner(vals, z.real, z.imag)
    return complex(re, im)


def _table_for_radius(nu: float, tol: float, radius: float):
    """Smallest table whose |z|-rescaled tail majorant is below tol.

    Grows and resumes like `_truncated_table`; the running term
    c_n * radius^n carries over each doubling.
    """
    size, start = _FIRST_SIZE, 1
    term = 1.0  # c_0 * radius^0
    while True:
        vals = kernels.coefficient_table(nu, min(size, _MAX_TERMS + 2))
        for n in range(start, len(vals) - 2):
            if vals[n - 1] > 0.0:
                term *= radius * vals[n] / vals[n - 1]
            else:
                term = 0.0
            if n < 2:
                continue
            q, ok = _tail_envelope(vals, n)
            qr = q * radius
            if ok and qr < 1.0 and _weighted_tail(term, qr, 1.0) <= tol:
                return vals[: n + 1]
        if size >= _MAX_TERMS:
            raise RuntimeError(
                f"series truncation for |z|={radius} exceeded {_MAX_TERMS} terms")
        size, start = 2 * size, len(vals) - 2


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
    """Integer weights of m0..m3 and s1..s3 for table indices 0..2**bits - 1.

    Index m carries the integer factor each termwise sum multiplies c_m by
    (0 where that sum starts later), so each int * float product is the
    termwise one bit for bit.  `map` stops at the table's end, and fsum is
    exact in any order, so the sums equal the termwise ones.
    """
    ms = range(1, 1 << bits)
    return (
        (0, *(1 for m in ms)),
        (0, *(m + 1 for m in ms)),
        (0, *((m + 1) ** 2 for m in ms)),
        (0, *((m + 1) ** 3 for m in ms)),
        (0, *ms),
        (0, *(m * (m - 1) for m in ms)),
        (0, *(m * (m - 1) * (m - 2) for m in ms)),
    )


def moments(nu, tol: float = 1e-12) -> MomentSet:
    """Termwise m_k and s_k values at z = 1, each accurate to tol.

    The truncation is chosen so even the n^3-weighted tail is below tol.
    The four m/s linking identities are verified to 10*tol before returning;
    a tol below the accuracy that double rounding reaches at this nu (the
    identity residual) raises ParameterError.
    """
    order = _as_order(nu)
    tol = _check_tol(tol)
    vals, _, _ = _cached_table(order.nu, tol, 3)
    fsum = math.fsum
    w_m0, w_m1, w_m2, w_m3, w_s1, w_s2, w_s3 = _moment_weights(len(vals).bit_length())
    out = MomentSet(
        fsum(map(mul, w_m0, vals)), fsum(map(mul, w_m1, vals)),
        fsum(map(mul, w_m2, vals)), fsum(map(mul, w_m3, vals)),
        fsum(vals), fsum(map(mul, w_s1, vals)),
        fsum(map(mul, w_s2, vals)), fsum(map(mul, w_s3, vals)), tol)
    worst = max(abs(r) for r in out.identity_residuals())
    if worst > 10.0 * tol:
        raise ParameterError(
            f"moments at nu={order.nu!r} cannot reach tol={tol!r}: the reachable "
            f"accuracy is the identity residual {worst:.3e} (> 10*tol)"
        )
    return out

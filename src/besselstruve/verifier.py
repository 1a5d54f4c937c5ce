"""Independent oracles that adjudicate the closed-form criteria.

Three unrelated routes cross-check the `criteria` module:

* direct sampling of the defining ratio inequalities on circles inside the
  unit disk (sufficiency evidence) and on the real segment approaching 1
  (necessity evidence for negative-coefficient series);
* the termwise differential-equation residual of the kernel;
* a 50-digit summation oracle that recomputes every left-hand side from the
  literal Gamma-quotient coefficients, sharing no code with the double
  precision path.  Its sums run termwise on Python integers: each weight
  is exact, and each product and partial sum is rounded once, with the
  bits of the mpf operation.  Past nu = 1e30 it adds one digit per decade
  of nu.

`run_suites` packages these as seeded pass/fail checks for the CLI.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

from . import _pykernels as kernels
from .criteria import (ClassParams, ConditionForm, DixitPalParams, _evaluate,
                       _resolve, l_condition, qnu_condition, t_condition)
from .errors import DenominatorDegeneracyError, DomainError, ParameterError
from .operators import (NormalizedSeries, Outcome, bessel_struve_transform,
                        coefficient_sum_L, coefficient_sum_T, kernel_series,
                        phi_series, q_operator, rtab_extremal_sequence)
from .series import (_as_order, _cached_table, _check_index, _check_tol,
                     kernel_coefficient, moments)

__all__ = [
    "DiskSampling",
    "min_real_part_T",
    "min_real_part_L",
    "ratio_real_part",
    "ode_residual",
    "highprec_sum_oracle",
    "CheckResult",
    "run_suites",
    "SUITE_NAMES",
    "sample_sufficiency_tuples",
    "sample_necessity_tuples",
]

NU_GRID = (-0.49, -0.25, 0.0, 0.5, 1.0, 2.0, 10.0)
NECESSITY_RADII = (0.90, 0.99, 0.999, 0.9999)


@dataclass(frozen=True)
class DiskSampling:
    """Equally spaced angular samples on one circle |z| = radius < 1."""

    radius: float = 0.99
    num_points: int = 512
    denominator_floor: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.radius < 1.0):
            raise ParameterError(f"radius must lie in (0, 1), got {self.radius!r}")
        if not isinstance(self.num_points, int) or isinstance(self.num_points, bool):
            raise ParameterError(
                f"num_points must be an integer, got {self.num_points!r}")
        if self.num_points < 64:
            raise ParameterError(f"need at least 64 points, got {self.num_points!r}")
        _check_floor(self.denominator_floor)


def _check_floor(floor: float) -> None:
    if not (0.0 < floor < math.inf):
        raise ParameterError(
            f"denominator floor must be positive and finite, got {floor!r}")


def _ratio_arrays(f: NormalizedSeries, lam: float, kind: str):
    """Numerator/denominator coefficient arrays of the class-defining ratio.

    With u_n = n*lam - lam + 1 the starlike-type ratio is
    (z + sum n u_n a_n z^n) / (z + sum u_n a_n z^n) and the convex-type one
    is (z + sum n^2 u_n a_n z^n) / (z + sum n u_n a_n z^n).
    """
    if not (0.0 <= lam < 1.0):
        raise ParameterError(f"lambda must lie in [0, 1), got {lam!r}")
    signed = f.signed()
    e0 = [0.0, 1.0]
    e1 = [0.0, 1.0]
    e2 = [0.0, 1.0]
    for n, a in enumerate(signed, start=2):
        u = (n * lam - lam + 1.0) * a
        e0.append(u)
        e1.append(n * u)
        e2.append(n * n * u)
    if kind == "T":
        return e1, e0
    if kind == "L":
        return e2, e1
    raise ParameterError(f"kind must be 'T' or 'L', got {kind!r}")


def _circle_min(num, den, s: DiskSampling) -> float:
    min_re, _, viol, min_abs = kernels.min_real_ratio_on_circle(
        num, den, s.radius, s.num_points, s.denominator_floor)
    if viol >= 0:
        theta = 2.0 * math.pi * viol / s.num_points
        z = complex(s.radius * math.cos(theta), s.radius * math.sin(theta))
        raise DenominatorDegeneracyError(
            f"|denominator| = {min_abs:.3e} < floor {s.denominator_floor:.3e} "
            f"at z = {z}", z=z)
    return min_re


def min_real_part_T(f: NormalizedSeries, lam: float,
                    sampling: DiskSampling = DiskSampling()) -> float:
    """Minimum over the sampled circle of the starlike-type ratio's real part.

    A minimum above alpha at radii approaching 1 supports membership of f in
    the class of order alpha; this is sampling evidence, not a proof.
    """
    num, den = _ratio_arrays(f, lam, "T")
    return _circle_min(num, den, sampling)


def min_real_part_L(f: NormalizedSeries, lam: float,
                    sampling: DiskSampling = DiskSampling()) -> float:
    """Same as `min_real_part_T` for the convex-type ratio."""
    num, den = _ratio_arrays(f, lam, "L")
    return _circle_min(num, den, sampling)


def ratio_real_part(f: NormalizedSeries, lam: float, z, kind: str = "T",
                    floor: float = 1e-12) -> float:
    """Real part of the class-defining ratio at one point.  ``floor`` must
    be positive and finite, as `DiskSampling`'s."""
    num, den = _ratio_arrays(f, lam, kind)
    _check_floor(floor)
    z = complex(z)
    nr, ni = kernels.horner(num, z.real, z.imag)
    dr, di = kernels.horner(den, z.real, z.imag)
    d2 = dr * dr + di * di
    if math.sqrt(d2) < floor:
        raise DenominatorDegeneracyError(
            f"|denominator| = {math.sqrt(d2):.3e} < floor {floor:.3e} at z = {z}",
            z=z)
    return (nr * dr + ni * di) / d2


def ode_residual(nu, z, tol: float = 1e-12) -> float:
    """|S''(z) + (2nu+1)(S'(z) - S'(0))/z - S(z)| from the truncated series.

    The kernel satisfies this identity termwise, so the residual measures
    truncation plus rounding only; it stays below 10*tol.  The quotient is
    summed as its own series sum_k (k+2) c_{k+2} z^k, so its rounding does
    not grow as z -> 0.  At z = 0 the removable singularity is replaced by
    the lowest-order coefficient identity |(4nu+4)c_2 - c_0|.  The boundary
    nu = -1/2 is accepted: the singular factor 2nu+1 vanishes there.  The
    three coefficient arrays are formed once per (nu, tol) (`_ode_arrays`).
    """
    order = _as_order(nu)
    if order.nu < -0.5:
        raise DomainError(f"residual check requires nu >= -1/2, got {order.nu}")
    tol = _check_tol(tol)
    vals, dq, d2 = _ode_arrays(order.nu, tol)
    z = complex(z)
    if z == 0:
        return abs((4.0 * order.nu + 4.0) * vals[2] - vals[0])
    s0 = complex(*kernels.horner(vals, z.real, z.imag))
    quot = complex(*kernels.horner(dq, z.real, z.imag))
    s2 = complex(*kernels.horner(d2, z.real, z.imag))
    return abs(s2 + (2.0 * order.nu + 1.0) * quot - s0)


@lru_cache(maxsize=64)
def _ode_arrays(nu: float, tol: float):
    """The table c_k of `ode_residual` and its derived coefficients
    (k+2) c_{k+2} and (k+2)(k+1) c_{k+2}, as tuples."""
    vals = _cached_table(nu, tol, 2)[0]
    ks = range(len(vals) - 2)
    return (vals, tuple((k + 2) * vals[k + 2] for k in ks),
            tuple((k + 2) * (k + 1) * vals[k + 2] for k in ks))


# ----------------------------------------------------------------------------
# 50-digit summation oracle.  Deliberately naive and self-contained: the
# coefficients come from the literal Gamma-quotient formula and every sum is
# a plain termwise loop, on Python integers, with an explicit geometric
# remainder bound.

_ORACLE_DPS = 50

_M_SELECTORS = ("m0", "m1", "m2", "m3")
_S_SELECTORS = ("s0", "s1", "s2", "s3")
SELECTORS = ("c",) + _M_SELECTORS + _S_SELECTORS + (
    "t_proof", "t_stated", "l", "jnu", "qnu", "starlike", "convex")


# The oracle computes in a private mpmath context per digit count and never
# reads or sets mpmath's process-wide precision.  Threads share a context,
# which is safe only because nothing changes its precision after `_context`
# builds it: Gamma, sqrt, factorial, pi, isfinite and mpf arithmetic round
# at it and leave it alone (never use `extraprec` or raise it otherwise).
# Caches key on (argument, digits), sized for a `_suite_highprec` call.


@lru_cache(maxsize=8)
def _context(dps):
    """The mpmath context at ``dps`` digits, with `_oracle_sum`'s ``stops``
    and ``coefficient_ops``, the `mpmath.libmp` names `_oracle_coefficient`
    calls, resolved once."""
    import mpmath
    from mpmath import libmp

    ctx = mpmath.MPContext()
    ctx.dps = dps
    ctx.stops = ctx.mpf("1e-40")._mpf_, ctx.mpf("1e-30")._mpf_
    ctx.coefficient_ops = (libmp.fone, libmp.from_man_exp, libmp.mpf_add,
                           libmp.mpf_mul, libmp.mpf_div, libmp.mpf_gamma)
    return ctx


@lru_cache(maxsize=512)
def _index_factors(n, dps):
    """(Gamma((n+1)/2), sqrt(pi) * n!) at ``dps`` digits, as raw mpf values."""
    ctx = _context(dps)
    return (ctx.gamma(ctx.mpf(n + 1) / 2)._mpf_,
            (ctx.sqrt(ctx.pi) * ctx.factorial(n))._mpf_)


@lru_cache(maxsize=16)
def _order_store(nu, dps):
    """(Gamma(nu+1), {n: c_n}) of the order ``nu`` at ``dps`` digits, all
    raw mpf values; keyed on the raw ``nu``, which hashes faster than an mpf.

    Every caller shares the dict and fills it with ``setdefault`` as sums
    reach further: a value is the same whichever thread computes it."""
    ctx = _context(dps)
    return ctx.gamma(ctx.make_mpf(nu) + 1)._mpf_, {}


def _oracle_coefficient(ctx, nu, n):
    """Gamma(nu+1) Gamma((n+1)/2) / (sqrt(pi) n! Gamma(n/2+nu+1)).

    The literal quotient, formed from the stored factors of `_index_factors`
    and `_order_store` by the `mpmath.libmp` calls that the mpf expression
    Gamma(nu+1) * Gamma((n+1)/2) / (sqrt(pi) n! * gamma(mpf(n)/2 + nu + 1))
    makes in the context ``ctx``, in that order and rounded to nearest at
    its precision (n/2 is exact).  Returns an mpf of ``ctx``.
    """
    one, from_man_exp, add, mul, div, gamma = ctx.coefficient_ops
    prec, nu = ctx.prec, nu._mpf_
    gamma_half, sqrt_pi_factorial = _index_factors(n, ctx.dps)
    arg = add(add(from_man_exp(n, -1), nu, prec, "n"), one, prec, "n")
    return ctx.make_mpf(div(
        mul(_order_store(nu, ctx.dps)[0], gamma_half, prec, "n"),
        mul(sqrt_pi_factorial, gamma(arg, prec, "n"), prec, "n"), prec, "n"))


def _oracle_dps(nu: float) -> int:
    """50 digits, plus one per decade of nu past 1e30.

    At 50 digits mpf(nu) + 1 == nu from nu ~ 1e50 on, which wrecks the
    Gamma arguments nu + 1 and n/2 + nu + 1; the extra digits keep nu + 1
    exact with 20 digits to spare.  Every nu <= 1e30 keeps 50 digits.
    """
    if nu <= 1e30:
        return _ORACLE_DPS
    return _ORACLE_DPS + math.ceil(math.log10(nu)) - 30


def _fixed_point(x):
    """(m, e) with m an integer and x == m * 2**e exactly, for a finite mpf x."""
    sign, man, exp, _ = x._mpf_
    if not man:
        if exp:
            raise ParameterError(f"lambda and alpha must be finite, got {x}")
        return 0, 0
    return (-man if sign else man), exp


def _round(man, exp, prec):
    """man * 2**exp rounded to ``prec`` bits, ties to even, as (man, exp).

    The rounding of mpmath's ``normalize(..., prec, "n")``, of a signed
    integer mantissa that need not be normalized.  The result's magnitude
    is below 2**prec, or equal to it after a carry.
    """
    n = man.bit_length() - prec
    if n <= 0:
        return man, exp
    mag = -man if man < 0 else man
    t = mag >> (n - 1)
    if t & 1 and (t & 2 or mag & ((1 << (n - 1)) - 1)):
        t = (t >> 1) + 1
    else:
        t >>= 1
    return (-t if man < 0 else t), exp + n


def _oracle_sum(ctx, coef, weight, shift: int, start: int):
    """sum_{n>=start} coef(n) * weight(n) * 2**shift for positive
    factorially decaying terms.

    Stops once the term is below 1e-40 and certifies the remainder by the
    geometric bound term*r/(1-r) < 1e-30.  ``coef`` returns a raw mpf
    value (an ``_mpf_`` tuple) and ``weight`` an integer.  Each term is
    the coefficient's mantissa times the weight, and it and each running
    total are rounded by `_round` at the precision of the context ``ctx``:
    exactly as the mpf product by an integer and the mpf sum round, on
    Python integers (the shift by 2**shift is exact, so it only moves the
    exponent).  Raw mpf values are built only where the stop test can
    pass, which an exponent test rules out for a term of at least 2**-132;
    the test itself runs the `mpmath.libmp` calls the mpf operators make.
    Returns an mpf of ``ctx``.
    """
    from mpmath.libmp import fone, from_man_exp, mpf_div, mpf_lt, mpf_mul, mpf_sub

    prec = ctx.prec
    small_term, small_rem = ctx.stops
    # every term of at least 2**low exceeds small_term
    low = small_term[2] + small_term[3]
    total = total_exp = 0
    n = start
    while True:
        sign, man, exp, _ = coef(n)
        term, exp = _round((-man if sign else man) * weight(n), exp + shift,
                           prec)
        if exp >= total_exp:
            total += term << (exp - total_exp)
        else:
            total = (total << (total_exp - exp)) + term
            total_exp = exp
        total, total_exp = _round(total, total_exp, prec)
        if n - start > 8 and (term <= 0 or exp + term.bit_length() <= low):
            raw = from_man_exp(term, exp)
            if mpf_lt(raw, small_term):
                r = mpf_div(raw, from_man_exp(*prev), prec, "n")
                if mpf_lt(r, fone):
                    rem = mpf_div(mpf_mul(raw, r, prec, "n"),
                                  mpf_sub(fone, r, prec, "n"), prec, "n")
                    if mpf_lt(rem, small_rem):
                        return ctx.make_mpf(from_man_exp(total, total_exp))
        if n - start > 100_000:
            raise RuntimeError("oracle summation failed to converge")
        prev = term, exp
        n += 1


def highprec_sum_oracle(selector: str, nu, n: Optional[int] = None,
                        lam: float = 0.0, alpha: float = 0.0,
                        a: float = 1.0, b: float = -1.0, tau_abs: float = 1.0):
    """Recompute a coefficient, moment, or criterion lhs at 50 digits.

    Every criterion lhs is summed termwise through the coefficient-inequality
    weights (not through the derivative closed forms the fast path uses), so
    agreement is a genuine two-route check.  Returns an mpmath float of the
    global context, so arithmetic on it follows the caller's precision.
    mpmath is imported on first use, so importing the package does not pay.

    Each term is its weight times a coefficient, rounded once: the weight
    is i**k for m_k, i(i-1)...(i-k+1) for s_k (and the stated form's
    s_1, s_2), (i*lam - lam + 1)(i - alpha) for t_proof and starlike, and
    i times that for l, convex, qnu and jnu.  It is formed exactly, as an
    integer times a power of two built from the mantissas of lam and
    alpha.  For lam and alpha that are 0 or in [2**-22, 1) it fits the
    169-bit working precision (every sum ends before i = 64), so each term
    rounds exactly like the termwise mpf product; for smaller nonzero lam
    or alpha the result is the exactly weighted sum.  qnu's c_{i-1}/i and
    jnu's (c_{i-1}*scale)/i are rounded as written.  The sums themselves
    run on Python integers (`_oracle_sum`) and give the bits of the
    termwise mpf loop.  The working precision is 50 digits, plus one per
    decade of nu past 1e30 (see `_oracle_dps`).
    """
    import mpmath

    if selector not in SELECTORS:
        raise ParameterError(f"unknown selector {selector!r}; one of {SELECTORS}")
    nu_val = _as_order(nu).nu
    if selector == "c":
        if n is None:
            raise ParameterError("selector 'c' needs the index n")
        n = _check_index(n)
    value = _oracle_value(_context(_oracle_dps(nu_val)), selector, nu_val, n,
                          lam, alpha, a, b, tau_abs)
    return mpmath.mp.make_mpf(value._mpf_)


def _oracle_value(ctx, selector, nu, n, lam, alpha, a, b, tau_abs):
    """`highprec_sum_oracle` of checked arguments, as an mpf of ``ctx``."""
    from mpmath.libmp import from_int, mpf_div, mpf_mul

    nu_mp = ctx.mpf(nu)
    if selector == "c":
        return _oracle_coefficient(ctx, nu_mp, n)
    lam_mp, alpha_mp = ctx.mpf(lam), ctx.mpf(alpha)
    prec = ctx.prec
    coeffs = _order_store(nu_mp._mpf_, ctx.dps)[1]

    def c(k):
        return coeffs.get(k) or coeffs.setdefault(
            k, _oracle_coefficient(ctx, nu_mp, k)._mpf_)

    def derivative(k):
        """S^(k)(1) = sum_{i>=k} i(i-1)...(i-k+1) c_i."""
        return _oracle_sum(ctx, c, lambda i: math.perm(i, k), 0, k)

    if selector in _M_SELECTORS:
        k = int(selector[1])
        return _oracle_sum(ctx, lambda i: c(i - 1), lambda i: i ** k, 0, 2)
    if selector in _S_SELECTORS:
        return derivative(int(selector[1]))
    if selector == "t_stated":
        # stated variant differs only in the S'(1) weight; summed through
        # the derivative values to keep the route distinct from criteria
        s0, s1, s2 = derivative(0), derivative(1), derivative(2)
        return (lam_mp * s2 + (1 - lam_mp * alpha_mp) * s1
                + (1 - alpha_mp) * s0)
    if selector in ("starlike", "convex"):
        lam_mp = ctx.mpf(0)
    # (i*lam - lam + 1)(i - alpha) = u*v * 2**shift with the integers
    # u = (i-1)*lam_m + one and v = i*unit - alpha_m, where one and unit
    # are the powers of two that make lam_m and alpha_m integers.
    lam_m, lam_e = _fixed_point(lam_mp)
    alpha_m, alpha_e = _fixed_point(alpha_mp)
    e1, e2 = min(lam_e, 0), min(alpha_e, 0)
    lam_m <<= lam_e - e1
    alpha_m <<= alpha_e - e2
    one, unit, shift = 1 << -e1, 1 << -e2, e1 + e2
    if selector in ("t_proof", "starlike"):
        weight = lambda i: ((i - 1) * lam_m + one) * (i * unit - alpha_m)
    else:
        weight = lambda i: i * ((i - 1) * lam_m + one) * (i * unit - alpha_m)
    if selector == "jnu":
        scale = (ctx.mpf(a) - ctx.mpf(b)) * ctx.mpf(tau_abs)
        if not ctx.isfinite(scale):
            raise ParameterError(f"A, B and |tau| must be finite, got "
                                 f"{a!r}, {b!r}, {tau_abs!r}")
        scale = scale._mpf_
        coef = lambda i: mpf_div(mpf_mul(c(i - 1), scale, prec, "n"),
                                 from_int(i), prec, "n")
    elif selector == "qnu":
        # through the integral variant's own coefficients c_{n-1}/n
        coef = lambda i: mpf_div(c(i - 1), from_int(i), prec, "n")
    else:
        coef = lambda i: c(i - 1)
    total = _oracle_sum(ctx, coef, weight, shift, 2)
    return total if selector == "jnu" else total + (1 - alpha_mp)


# ----------------------------------------------------------------------------
# Seeded consistency suites (the CLI `verify` command).


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def sample_sufficiency_tuples(condition: str, count: int, seed: int,
                              gate: float = 0.05):
    """Seeded (nu, params...) tuples whose margin clears the gate.

    Rejection-samples nu upward of the critical region so the disk checks
    stay away from equality cases.  The margin is the criteria table's
    (`criteria._evaluate`, proof form, tol 1e-12); (A, B, |tau|) is drawn
    only for a condition that `criteria._resolve` finds on the Dixit-Pal
    class, and starlike and convex take lambda = 0 there, whatever lambda
    is drawn.
    """
    rng = random.Random((seed, condition, "sufficiency").__repr__())
    dixit_pal = _resolve(condition, needs=None)[2].dixit_pal
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 400 * count:
            raise RuntimeError(f"sampler starved for condition {condition}")
        lam = rng.uniform(0.0, 0.8)
        alpha = rng.uniform(0.0, 0.8)
        p = ClassParams(lam, alpha)
        nu = rng.uniform(2.0, 40.0)
        d = None
        if dixit_pal:
            bb = rng.uniform(-1.0, 0.9)
            aa = rng.uniform(bb + 0.05, 1.0)
            d = DixitPalParams(aa, bb, rng.uniform(0.1, 1.0))
        if _evaluate(condition, nu, p, d, ConditionForm.PROOF,
                     1e-12).margin >= gate:
            out.append((nu, p, d))
    return out


def sample_necessity_tuples(count: int, seed: int, excess: float = 0.05):
    """Seeded (nu, params) tuples where the truncated T-sum of the
    negative-coefficient variant exceeds its threshold by at least `excess`.

    Tuples are additionally required to keep the ratio denominator positive
    on the whole real segment (sum of its weighted coefficients < 0.95):
    past the denominator's first zero the sampled real-part check says
    nothing (the ratio flips sign twice), while with a positive denominator
    the threshold excess forces a drop below alpha near 1.
    """
    rng = random.Random((seed, "necessity").__repr__())
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 400 * count:
            raise RuntimeError("necessity sampler starved")
        lam = rng.uniform(0.0, 0.8)
        alpha = rng.uniform(0.0, 0.8)
        nu = rng.uniform(-0.49, 2.0)
        p = ClassParams(lam, alpha)
        ws = coefficient_sum_T(phi_series(nu), p)
        if ws.value < (1.0 + excess) * ws.threshold:
            continue
        s = moments(nu)
        den_sum = (1.0 - lam) * s.m0 + lam * s.m1
        if den_sum < 0.95:
            out.append((nu, p))
    return out


def _moment_identity_residuals(nu, tol: float = 1e-12):
    """Residuals of three identities that tie s_0..s_3 to the coefficients.

    The kernel ODE at z = 1, s_2 = s_0 - (2nu+1)(s_1 - c_1), and its
    derivative, s_3 = s_1 - (2nu+1)(s_2 - s_1 + c_1); and the contiguous
    relation s_1(nu) = s_0(nu+1)/(2(nu+1)) + c_1(nu) (DLMF 10.29, 11.4),
    whose other side comes from the table of order nu + 1.  Truncation
    alone contributes at most (2|2nu+1| + 3)*tol; `verify` allows
    (2nu+2)*10*tol, which the measured residuals (9e-9 at nu = 1e5, tol
    1e-12) stay well inside.
    """
    s = moments(nu, tol)
    nu = _as_order(nu).nu
    c1 = kernel_coefficient(nu, 1)
    k = 2.0 * nu + 1.0
    return (s.s2 - s.s0 + k * (s.s1 - c1),
            s.s3 - s.s1 + k * (s.s2 - s.s1 + c1),
            s.s1 - moments(nu + 1.0, tol).s0 / (2.0 * (nu + 1.0)) - c1)


def _suite_moments(seed: int) -> list[CheckResult]:
    results = []
    for nu in NU_GRID:
        s = moments(nu, 1e-12)
        worst = max(map(abs, _moment_identity_residuals(nu, 1e-12)))
        results.append(CheckResult(
            f"moment identities nu={nu}", worst <= (2.0 * nu + 2.0) * 1e-11,
            f"max residual {worst:.3e}"))
        positive = min(s.m0, s.m1, s.m2, s.m3, s.s0, s.s1, s.s2, s.s3) > 0.0
        results.append(CheckResult(
            f"moment positivity nu={nu}", positive, "all eight values > 0"))
    return results


def _suite_ode(seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    results = []
    for nu in (-0.5,) + NU_GRID:
        worst = 0.0
        for _ in range(25):
            r = rng.uniform(0.0, 1.0)
            th = rng.uniform(0.0, 2.0 * math.pi)
            z = complex(r * math.cos(th), r * math.sin(th))
            worst = max(worst, ode_residual(nu, z, 1e-12))
        worst = max(worst, ode_residual(nu, 0.0, 1e-12))
        results.append(CheckResult(
            f"ode residual nu={nu}", worst <= 1e-10, f"max residual {worst:.3e}"))
    return results


def _suite_sufficiency(seed: int) -> list[CheckResult]:
    s = DiskSampling(radius=0.99, num_points=512)
    results = []
    for cond, kind in (("t", "T"), ("l", "L")):
        tuples = sample_sufficiency_tuples(cond, 30, seed)
        failures = []
        for nu, p, _ in tuples:
            num, den = _ratio_arrays(kernel_series(nu), p.lam, kind)
            # the proof settles the scan's verdict; only when it cannot
            # close does the scan itself run
            if kernels.ratio_exceeds_on_circle(num, den, s.radius, s.num_points,
                                               s.denominator_floor, p.alpha):
                continue
            m = _circle_min(num, den, s)
            if m <= p.alpha:
                failures.append((nu, p.lam, p.alpha, m))
        results.append(CheckResult(
            f"disk minimum exceeds alpha ({cond} condition, 30 tuples)",
            not failures, f"failures: {failures!r}" if failures else
            "min real part > alpha at r=0.99 for all tuples"))
    for cond in ("jnu", "qnu"):
        tuples = sample_sufficiency_tuples(cond, 30, seed)
        failures = []
        for nu, p, d in tuples:
            if cond == "jnu":
                f = rtab_extremal_sequence(d, 80)
                ws = coefficient_sum_L(bessel_struve_transform(nu, f), p)
            else:
                ws = coefficient_sum_L(q_operator(nu, 80), p)
            if ws.outcome is not Outcome.HOLDS:
                failures.append((nu, p.lam, p.alpha, ws.value, ws.threshold))
        results.append(CheckResult(
            f"weighted sum below threshold ({cond} condition, 30 tuples)",
            not failures, f"failures: {failures!r}" if failures else
            "sum_L <= 1 - alpha for all tuples"))
    return results


def _suite_necessity(seed: int) -> list[CheckResult]:
    tuples = sample_necessity_tuples(10, seed)
    failures = []
    degenerate = 0
    for nu, p in tuples:
        f = phi_series(nu)
        drops = []
        for r in NECESSITY_RADII:
            try:
                drops.append(ratio_real_part(f, p.lam, r, "T"))
            except DenominatorDegeneracyError:
                degenerate += 1
        if not drops or min(drops) >= p.alpha:
            failures.append((nu, p.lam, p.alpha, drops))
    detail = f"degenerate denominators skipped: {degenerate}" if degenerate else \
        "ratio drops below alpha on the real segment for all tuples"
    results = [CheckResult(
        "real-axis drop below alpha (negative-coefficient variant, 10 tuples)",
        not failures, f"failures: {failures!r}" if failures else detail)]
    return results


def _suite_highprec(seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    worst = 0.0
    worst_at = None
    for _ in range(8):
        nu = rng.uniform(-0.45, 10.0)
        p = ClassParams(rng.uniform(0.0, 0.95), rng.uniform(0.0, 0.95))
        pairs = (
            ("t_proof", t_condition(nu, p).lhs),
            ("t_stated", t_condition(nu, p, ConditionForm.STATED).lhs),
            ("l", l_condition(nu, p).lhs),
            ("qnu", qnu_condition(nu, p).lhs),
        )
        for sel, fast in pairs:
            ref = highprec_sum_oracle(sel, nu, lam=p.lam, alpha=p.alpha)
            err = abs(fast - float(ref))
            if err > worst:
                worst, worst_at = err, (sel, nu, p.lam, p.alpha)
    return [CheckResult(
        "criterion lhs vs 50-digit oracle (8 random tuples)",
        worst <= 1e-10, f"max abs diff {worst:.3e} at {worst_at}")]


_SUITES: dict[str, Callable[[int], list[CheckResult]]] = {
    "moments": _suite_moments,
    "ode": _suite_ode,
    "sufficiency": _suite_sufficiency,
    "necessity": _suite_necessity,
    "highprec": _suite_highprec,
}

SUITE_NAMES = tuple(_SUITES)


def run_suites(names: Sequence[str], seed: int = 2024) -> list[CheckResult]:
    """Run the named consistency suites with a fixed sampling seed."""
    results = []
    for name in names:
        if name not in _SUITES:
            raise ParameterError(f"unknown suite {name!r}; one of {SUITE_NAMES}")
        results.extend(_SUITES[name](seed))
    return results

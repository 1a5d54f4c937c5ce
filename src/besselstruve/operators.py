"""Normalized power-series machinery: convolution, operators, coefficient sums.

Series are truncated representations of f(z) = z + sum_{n>=2} a_n z^n.
Under the negative-coefficient convention the stored values are the
magnitudes b_n >= 0 of f(z) = z - sum b_n z^n.  Alongside the coefficients a
series carries an optional tail certificate: ``tail_bound`` bounds
sum_{n>N} |a_n| and ``tail_ratio`` is a geometric envelope ratio q with
|a_{n+1}| <= q*|a_n| past the truncation, which is what lets weighted
comparisons of truncated sums stay honest (conclusive or explicitly not).
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Optional

from . import _pykernels as kernels
from ._files import write_then_rename
from .criteria import ClassParams, DixitPalParams, _check_params
from .errors import InconclusiveError, ParameterError, SeriesFormatError
from .series import (_check_index, _operator_order, _weighted_tail,
                     coefficient_sequence)

__all__ = [
    "SignConvention",
    "NormalizedSeries",
    "Outcome",
    "WeightedSum",
    "hadamard",
    "kernel_series",
    "phi_series",
    "bessel_struve_transform",
    "q_operator",
    "coefficient_sum_T",
    "coefficient_sum_L",
    "rtab_extremal_sequence",
    "write_series",
    "read_series",
]


class SignConvention(enum.Enum):
    GENERAL = "general"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class NormalizedSeries:
    """Truncated normalized series; ``coeffs`` holds a_2..a_N.

    f(0) = 0 and f'(0) = 1 are implicit (a_1 = 1 is not stored).  With the
    NEGATIVE convention the stored values are magnitudes b_n >= 0.  Every
    coefficient must be finite and ``tail_bound`` must be >= 0 (inf means
    no bound); anything else raises ParameterError.
    """

    coeffs: tuple[float, ...]
    sign: SignConvention = SignConvention.GENERAL
    tail_bound: float = 0.0
    tail_ratio: Optional[float] = None

    def __post_init__(self):
        coeffs = tuple(map(float, self.coeffs))
        if not all(map(math.isfinite, coeffs)):
            raise ParameterError("coefficients must be finite")
        if self.sign is SignConvention.NEGATIVE and any(c < 0.0 for c in coeffs):
            raise ParameterError(
                "negative-coefficient series stores magnitudes, got a value < 0"
            )
        if not self.tail_bound >= 0.0:
            raise ParameterError(f"tail_bound must be >= 0, got {self.tail_bound!r}")
        if self.tail_ratio is not None and not (0.0 <= self.tail_ratio < 1.0):
            raise ParameterError("tail_ratio must lie in [0, 1) when given")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def truncation_index(self) -> int:
        """Highest represented power N (1 when no coefficients are stored)."""
        return len(self.coeffs) + 1

    def signed(self) -> tuple[float, ...]:
        """a_2..a_N with the sign convention applied."""
        if self.sign is SignConvention.NEGATIVE:
            return tuple(map(operator.neg, self.coeffs))
        return self.coeffs

    def poly_coeffs(self) -> list[float]:
        """Full ascending coefficient list [0, 1, a_2, ..., a_N]."""
        return [0.0, 1.0, *self.signed()]

    def evaluate(self, z) -> complex:
        z = complex(z)
        re, im = kernels.horner(self.poly_coeffs(), z.real, z.imag)
        return complex(re, im)


def hadamard(f: NormalizedSeries, g: NormalizedSeries) -> NormalizedSeries:
    """Coefficient-wise product, truncated at the shorter input.

    The all-ones series z/(1-z) acts as identity.  With f the shorter input
    (truncated at N), sum_{n>N} |a_n b_n| <= (max_{n>N} |b_n|) * tail(f):
    tail(f)*tail(g) for equal lengths, with the product of the envelope
    ratios, and `_product_certificate` when g is longer.
    """
    if len(f.coeffs) > len(g.coeffs):
        f, g = g, f
    prod = tuple(map(operator.mul, f.signed(), g.signed()))
    if len(prod) < len(g.coeffs):
        tail, ratio = _product_certificate(f, g)
    else:
        tail = f.tail_bound * g.tail_bound if f.tail_bound and g.tail_bound else 0.0
        ratio = (None if None in (f.tail_ratio, g.tail_ratio)
                 else f.tail_ratio * g.tail_ratio)
    # keep the magnitude representation when exactly one factor is negative
    if (f.sign is SignConvention.NEGATIVE) != (g.sign is SignConvention.NEGATIVE) \
            and all(c <= 0.0 for c in prod):
        return NormalizedSeries(tuple(map(operator.neg, prod)),
                                SignConvention.NEGATIVE,
                                tail, ratio)
    return NormalizedSeries(prod, SignConvention.GENERAL, tail, ratio)


def _product_certificate(f: NormalizedSeries, g: NormalizedSeries):
    """(tail, ratio) of the product of f with g, truncated at N_f < N_g.

    tail(f) * max(|g_n| for N_f < n <= N_g, tail(g)): each |g_n| past N_g is
    at most tail(g).  The ratio is q_f * max(|g_{n+1}/g_n| for N_f <= n <
    N_g, q_g or 0 when g is exact), or None if undefined or >= 1.
    """
    n_f = f.truncation_index
    mags = [1.0, *map(abs, g.coeffs)]  # |g_n| at mags[n - 1]
    tail = f.tail_bound * max(*mags[n_f:], g.tail_bound) if f.tail_bound else 0.0
    q_g = 0.0 if g.tail_bound == 0.0 else g.tail_ratio
    if f.tail_ratio is None or q_g is None or 0.0 in mags[n_f - 1:-1]:
        return tail, None
    steps = (b / a for a, b in zip(mags[n_f - 1:], mags[n_f:]))
    ratio = f.tail_ratio * max(q_g, *steps)
    return tail, ratio if ratio < 1.0 else None


def kernel_series(nu, tol: float = 1e-12) -> NormalizedSeries:
    """z*S_nu(z) as a normalized series: a_n = c_{n-1}(nu) for n >= 2."""
    seq = coefficient_sequence(nu, tol)
    return NormalizedSeries(seq.values[1:], SignConvention.GENERAL,
                            seq.tail_bound, seq.tail_ratio)


def phi_series(nu, tol: float = 1e-12) -> NormalizedSeries:
    """z*(2 - S_nu(z)): the same coefficients under the negative convention."""
    seq = coefficient_sequence(nu, tol)
    return NormalizedSeries(seq.values[1:], SignConvention.NEGATIVE,
                            seq.tail_bound, seq.tail_ratio)


def bessel_struve_transform(nu, f: NormalizedSeries,
                            tol: float = 1e-12) -> NormalizedSeries:
    """Convolution with z*S_nu: multiplies a_n by c_{n-1}(nu).

    Preserves the sign convention of ``f`` (the kernel coefficients are
    positive).  Truncation is the shorter of the two operands.
    """
    order = _operator_order(nu)
    out = hadamard(kernel_series(order, tol), f)
    # positive kernel coefficients: hadamard restores f's convention already
    assert out.sign is f.sign
    return out


def q_operator(nu, n_terms: int) -> NormalizedSeries:
    """Integral variant Q_nu(z) = z - sum_{n>=2} c_{n-1}(nu) z^n / n.

    Termwise antiderivative of 2 - S_nu; always a negative-coefficient
    series.  ``n_terms`` is the highest power kept.
    """
    order = _operator_order(nu)
    n_terms = _check_index(n_terms, "n_terms", 1)
    vals = kernels.coefficient_table(order.nu, n_terms + 1)
    coeffs = tuple(map(operator.truediv, vals[1:n_terms], range(2, n_terms + 1)))
    # b_n = c_{n-1}/n: past N the ratio is at most the c-ratio q, the larger
    # of the two at N-1 (the c-ratio decreases along each parity), and
    # sum_{n>N} b_n <= c_{N-1}/(N+1) * sum_{k>=1} q^k.  Rounding puts q just
    # above 1 for nu just above -1/2 at n_terms = 1.
    c0, c1, c2 = vals[n_terms - 1:]
    q = max(c1 / c0, c2 / c1) if c0 > 0.0 and c1 > 0.0 else 0.0
    if q >= 1.0:
        raise ParameterError(f"n_terms={n_terms} truncates before geometric "
                             f"decay at nu={order.nu}")
    tail = _weighted_tail(vals[n_terms - 1] / (n_terms + 1), q, 1.0)
    return NormalizedSeries(coeffs, SignConvention.NEGATIVE, tail,
                            q if q > 0.0 else None)


class Outcome(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class WeightedSum:
    """A truncated weighted coefficient sum compared against a threshold.

    ``value`` is the sum over the stored coefficients, ``tail_bound`` bounds
    the dropped weighted tail (may be inf when no envelope is available), and
    the comparison value <= threshold is decided three-ways.
    """

    value: float
    tail_bound: float
    threshold: float

    @property
    def outcome(self) -> Outcome:
        if self.value + self.tail_bound <= self.threshold:
            return Outcome.HOLDS
        if self.value > self.threshold:
            return Outcome.FAILS
        return Outcome.INCONCLUSIVE

    def require_verdict(self) -> bool:
        out = self.outcome
        if out is Outcome.INCONCLUSIVE:
            raise InconclusiveError(
                f"sum {self.value} vs threshold {self.threshold}: dropped tail "
                f"(<= {self.tail_bound}) straddles the comparison"
            )
        return out is Outcome.HOLDS


def _tail_weights(p: ClassParams, n: int, convex: bool):
    """Coefficients in powers of k of the T (or, ``convex``, L) weight at n+k.

    The T weight at m = n + k is (lam*k + a)(k + b) with a = lam*(n-1) + 1
    and b = n - alpha; the L weight multiplies it by k + n.  For n >= 1 each
    coefficient is >= 0, as `_weighted_tail` needs, within 5 roundings.
    """
    lam = p.lam
    a = lam * (n - 1) + 1.0
    b = n - p.alpha
    d = (a * b, lam * b + a, lam)
    if convex:
        return n * d[0], d[0] + n * d[1], d[1] + n * d[2], d[2]
    return d


def _coefficient_sum(f: NormalizedSeries, p: ClassParams,
                     convex: bool) -> WeightedSum:
    """The weighted sum over f's stored coefficients, and a bound on the rest:
    |a_N| * sum_{k>=1} w(N+k) q^k from the envelope |a_{N+k}| <= |a_N| q^k,
    0 for an exact series and inf without an envelope (or with a_N = 0)."""
    if not isinstance(f, NormalizedSeries):
        raise ParameterError(f"expected NormalizedSeries, got {f!r}")
    p = _check_params(p)
    lam, alpha = p.lam, p.alpha
    if convex:
        w = lambda n: n * (n * lam - lam + 1.0) * (n - alpha)
    else:
        w = lambda n: (n * lam - lam + 1.0) * (n - alpha)
    total = math.fsum(map(operator.mul, map(w, range(2, len(f.coeffs) + 2)),
                          map(abs, f.coeffs)))
    tail = 0.0 if f.tail_bound == 0.0 else math.inf
    base = abs(f.coeffs[-1]) if f.coeffs else 0.0
    if tail == math.inf and f.tail_ratio is not None and base > 0.0:
        d = _tail_weights(p, f.truncation_index, convex)
        tail = _weighted_tail(base, f.tail_ratio, *d)
    return WeightedSum(total, tail, 1.0 - alpha)


def coefficient_sum_T(f: NormalizedSeries, p: ClassParams) -> WeightedSum:
    """sum_{n>=2} (n*lambda - lambda + 1)(n - alpha) |a_n| vs 1 - alpha.

    ``outcome`` HOLDS certifies membership in the starlike-type class; for
    negative-coefficient series the comparison is necessary as well, so
    FAILS certifies non-membership there.
    """
    return _coefficient_sum(f, p, False)


def coefficient_sum_L(f: NormalizedSeries, p: ClassParams) -> WeightedSum:
    """sum_{n>=2} n (n*lambda - lambda + 1)(n - alpha) |a_n| vs 1 - alpha."""
    return _coefficient_sum(f, p, True)


def rtab_extremal_sequence(d: DixitPalParams, n_terms: int) -> NormalizedSeries:
    """Coefficient envelope of the Dixit-Pal class: a_n = (A-B)|tau|/n.

    This is the sharp magnitude bound, taken with positive sign; it is the
    worst case for every implemented coefficient sum.  The returned object
    is the truncation itself (tail_bound 0), so stress tests control the
    dropped mass explicitly through ``n_terms``.
    """
    if not isinstance(d, DixitPalParams):
        raise ParameterError(f"expected DixitPalParams, got {d!r}")
    n_terms = _check_index(n_terms, "n_terms", 1)
    scale = (d.a - d.b) * d.tau_abs
    return NormalizedSeries(tuple(map(scale.__truediv__, range(2, n_terms + 1))))


def write_series(path, f: NormalizedSeries) -> None:
    """Write a series as an annotated coefficient list (one per line).

    Write-then-rename: a failed write leaves ``path`` as it was and no
    temporary file behind.
    """
    lines = ["# normalized series, coefficients of z^n for n >= 2",
             f"# sign: {f.sign.value}",
             f"# tail_bound: {f.tail_bound!r}"]
    if f.tail_ratio is not None:
        lines.append(f"# tail_ratio: {f.tail_ratio!r}")
    for n, c in enumerate(f.coeffs, start=2):
        lines.append(f"{n} {c!r}")
    with write_then_rename(path) as fh:
        fh.write("\n".join(lines) + "\n")


# `read_series` fills index gaps with zeros, so one line "<index> <value>"
# costs memory in proportion to the index; a larger index is refused
MAX_SERIES_INDEX = 100_000


def read_series(path) -> NormalizedSeries:
    """Parse a coefficient list written by `write_series` (or by hand).

    Data lines are "<index> <coefficient>" with indices >= 2 strictly
    increasing, at most `MAX_SERIES_INDEX`, and finite coefficients; gaps
    are filled with zeros.  Header comments may set ``sign``,
    ``tail_bound`` (not NaN) and ``tail_ratio``.  A malformed line raises
    SeriesFormatError naming ``path:line``.
    """
    head = {"sign": SignConvention.GENERAL, "tail_bound": 0.0, "tail_ratio": None}
    coeffs: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                _read_line(raw.strip(), head, coeffs)
            except ValueError as exc:
                raise SeriesFormatError(f"{path}:{lineno}: {exc}") from exc
    return NormalizedSeries(tuple(coeffs), **head)


def _read_line(line: str, head: dict, coeffs: list) -> None:
    """Apply one line of a series file to ``head`` or ``coeffs``."""
    if line.startswith("#"):
        key, colon, val = line[1:].partition(":")
        key, val = key.strip().lower(), val.strip()
        if colon and key == "sign":
            head["sign"] = SignConvention(val)
        elif colon and key == "tail_bound":
            head["tail_bound"] = float(val)
            if math.isnan(head["tail_bound"]):
                raise ValueError("tail_bound must not be NaN")
        elif colon and key == "tail_ratio":
            head["tail_ratio"] = None if val == "none" else float(val)
        return
    parts = line.split()
    if not parts:
        return
    if len(parts) != 2:
        raise ValueError(f"expected '<index> <value>', got {line!r}")
    n, value = int(parts[0]), float(parts[1])
    if not math.isfinite(value):
        raise ValueError(f"coefficient must be finite, got {parts[1]!r}")
    last_n = len(coeffs) + 1
    if n <= last_n:
        raise ValueError(f"indices must be strictly increasing and >= 2, "
                         f"got {n} after {last_n}")
    if n > MAX_SERIES_INDEX:
        raise ValueError(f"index {n} exceeds the largest series index "
                         f"{MAX_SERIES_INDEX}")
    coeffs.extend(0.0 for _ in range(n - last_n - 1))
    coeffs.append(value)

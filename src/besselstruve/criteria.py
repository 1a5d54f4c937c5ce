"""Closed-form membership criteria and the critical-order solver.

Each criterion is a linear inequality in the kernel derivative values at
z = 1 (see `series.moments`; the criteria read only s0..s3, from
`series._moment_sums`).  All of them take the form lhs <= rhs with
nonnegative sides, so a single verdict record with the signed margin
rhs - lhs covers every case:

* ``t_condition``   -- sufficient for z*S_nu to lie in the lambda-interpolated
  starlike-type class of order alpha (lambda = 0: starlike of order alpha).
* ``l_condition``   -- same for the convex-type class (lambda = 0: convex).
* ``jnu_condition`` -- sufficient for the kernel convolution of any function
  in the Dixit-Pal class R^tau(A,B) to lie in the convex-type class.
* ``qnu_condition`` -- necessary and sufficient for the negative-coefficient
  integral variant Q_nu.

One table, ``_RULES``, holds every criterion as a linear form: for each
(condition, form) a weight function (lambda, alpha) -> (w3, w2, w1, w0),
the rhs as a function of alpha, a shift and a Dixit-Pal flag, with

    lhs = scale * (((w3*s3 + w2*s2) + w1*s1) + w0*(s0 - shift)),

scale = (A-B)|tau| for jnu (shift 1) and 1 otherwise (shift 0).  Each
lhs is sum_m P(m) c_m for the polynomial P(m) = (m*lambda + 1)(m + 1 -
alpha) of the coefficient test, times (m + 1) for the convex type; the
weights are P in the falling-factorial basis, so every weight but the
stated form's s1 weight is derived, not transcribed
(``tests/test_criteria.py`` checks this exactly).
`_lhs_slab` is the one implementation of the form: the public condition
functions call it with a one-cell slab, ``scan`` with a whole (lambda,
alpha) slab per nu.

`_resolve` is the one place that turns a condition into a table row and
lhs scale; every function here, the verifier and the CLI go through it.

The starlike-type criterion circulates in two variants that differ in the
coefficient multiplying S'_nu(1): re-deriving the bound from the coefficient
inequality gives (1 - lambda*alpha + 2*lambda) ("proof" form), while the
printed inequality carries (1 - lambda*alpha) ("stated" form).  The derived
form is corroborated independently by ``qnu_condition`` (algebraically the
same linear form) and by the lambda = 0 specialization, so it is canonical
here; the stated form stays available for comparison only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .errors import BracketError, MonotonicityError, ParameterError
from .series import _check_tol, _moment_sums, _operator_order

__all__ = [
    "ClassParams",
    "DixitPalParams",
    "ConditionForm",
    "MembershipVerdict",
    "t_condition",
    "l_condition",
    "starlike_condition",
    "convex_condition",
    "jnu_condition",
    "qnu_condition",
    "critical_nu",
    "CONDITION_NAMES",
]


class ConditionForm(enum.Enum):
    PROOF = "proof"
    STATED = "stated"


@dataclass(frozen=True)
class ClassParams:
    """Pair (lambda, alpha) of the interpolated class, both in [0, 1)."""

    lam: float
    alpha: float

    def __post_init__(self):
        lam = float(self.lam)
        alpha = float(self.alpha)
        if not (0.0 <= lam < 1.0):
            raise ParameterError(f"lambda must lie in [0, 1), got {self.lam!r}")
        if not (0.0 <= alpha < 1.0):
            raise ParameterError(f"alpha must lie in [0, 1), got {self.alpha!r}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class DixitPalParams:
    """Dixit-Pal class parameters: -1 <= B < A <= 1 and |tau| > 0.

    Only the modulus of tau enters any computed bound, so just ``tau_abs``
    is stored.
    """

    a: float
    b: float
    tau_abs: float

    def __post_init__(self):
        a = float(self.a)
        b = float(self.b)
        tau_abs = float(self.tau_abs)
        if not (-1.0 <= b < a <= 1.0):
            raise ParameterError(
                f"need -1 <= B < A <= 1, got A={self.a!r}, B={self.b!r}"
            )
        if not (tau_abs > 0.0 and math.isfinite(tau_abs)):
            raise ParameterError(f"|tau| must be positive, got {self.tau_abs!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "tau_abs", tau_abs)


@dataclass(frozen=True)
class MembershipVerdict:
    """One evaluated inequality: lhs <= rhs holds iff margin >= 0."""

    lhs: float
    rhs: float
    margin: float
    holds: bool
    condition_form: ConditionForm


def _check_params(p) -> ClassParams:
    if not isinstance(p, ClassParams):
        raise ParameterError(f"expected ClassParams, got {p!r}")
    return p


# Weights (w3, w2, w1, w0) of (s3, s2, s1, s0).  Each expression keeps the
# operation order of its documented inequality, and `_lhs_slab` adds in that
# order too, so the table rounds exactly as the written inequalities do: a
# zero w3 adds an exact 0.0 (s3 is finite and w2*s2 >= 0), and scale 1.0 and
# shift 0.0 are exact.

_Weights = tuple[float, float, float, float]


def _t_proof_weights(lam: float, alpha: float) -> _Weights:
    return (0.0, lam, 1.0 + 2.0 * lam - lam * alpha, 1.0 - alpha)


def _t_stated_weights(lam: float, alpha: float) -> _Weights:
    return (0.0, lam, 1.0 - lam * alpha, 1.0 - alpha)


def _l_weights(lam: float, alpha: float) -> _Weights:
    return (lam, 5.0 * lam + 1.0 - lam * alpha,
            4.0 * lam - 2.0 * lam * alpha - alpha + 3.0, 1.0 - alpha)


def _qnu_weights(lam: float, alpha: float) -> _Weights:
    return (0.0, lam, 2.0 * lam - lam * alpha + 1.0, 1.0 - alpha)


def _rhs(alpha: float) -> float:
    return 2.0 * (1.0 - alpha)


def _jnu_rhs(alpha: float) -> float:
    return 1.0 - alpha


class _Rule(NamedTuple):
    """One linear criterion.  A Dixit-Pal rule scales its lhs by (A-B)|tau|."""

    weights: Callable[[float, float], _Weights]
    rhs: Callable[[float], float]
    shift: float
    dixit_pal: bool


CONDITION_NAMES = ("t", "l", "starlike", "convex", "jnu", "qnu")

# Only "t" has a stated form; starlike and convex are the t and l forms at
# lambda = 0.  jnu sums over n >= 1 only, hence s0 - 1.
_RULES = {
    ("t", ConditionForm.PROOF): _Rule(_t_proof_weights, _rhs, 0.0, False),
    ("t", ConditionForm.STATED): _Rule(_t_stated_weights, _rhs, 0.0, False),
    ("l", ConditionForm.PROOF): _Rule(_l_weights, _rhs, 0.0, False),
    ("starlike", ConditionForm.PROOF): _Rule(_t_proof_weights, _rhs, 0.0, False),
    ("convex", ConditionForm.PROOF): _Rule(_l_weights, _rhs, 0.0, False),
    ("jnu", ConditionForm.PROOF): _Rule(_t_proof_weights, _jnu_rhs, 1.0, True),
    ("qnu", ConditionForm.PROOF): _Rule(_qnu_weights, _rhs, 0.0, False),
}


def _resolve(condition, form: ConditionForm = ConditionForm.PROOF, d=None,
             needs: Optional[str] = "DixitPalParams"):
    """(name, verdict form, `_Rule`, lhs scale) of a condition.

    The name is case-folded (a non-string is unknown).  Only "t" has a
    stated form; every other condition reports PROOF.  A Dixit-Pal rule
    needs the triple ``d`` and has scale (A-B)|tau|; ``needs`` words the
    refusal of a missing one, and ``needs=None`` gives scale None instead,
    for a caller that draws the triple itself.  Every other rule refuses a
    triple and has scale 1.0.
    """
    name = condition.lower() if isinstance(condition, str) else condition
    if name not in CONDITION_NAMES:
        raise ParameterError(
            f"unknown condition {name!r}; expected one of {CONDITION_NAMES}")
    if name != "t":
        form = ConditionForm.PROOF
    elif not isinstance(form, ConditionForm):
        raise ParameterError(f"unknown condition form {form!r}")
    rule = _RULES[name, form]
    if not rule.dixit_pal:
        if d is not None:
            raise ParameterError(f"condition {name!r} takes no DixitPalParams")
        return name, form, rule, 1.0
    if isinstance(d, DixitPalParams):
        return name, form, rule, (d.a - d.b) * d.tau_abs
    if needs is None:
        return name, form, rule, None
    raise ParameterError(f"condition {name!r} needs {needs}")


def _cell(name: str, rule: _Rule, p: ClassParams):
    """(one-cell weight slab, rhs) of a resolved rule at ``p``; starlike and
    convex take lambda = 0, whatever ``p.lam``."""
    p = _check_params(p)
    lam = 0.0 if name in ("starlike", "convex") else p.lam
    return [rule.weights(lam, p.alpha)], rule.rhs(p.alpha)


def _lhs_slab(sums: tuple[float, float, float, float],
              weights: list[_Weights], scale: float,
              shift: float) -> list[float]:
    """The lhs of every weight tuple in ``weights`` at ``sums`` = (s0, s1,
    s2, s3)."""
    s0, s1, s2, s3 = sums
    s0 -= shift
    return [scale * (((w3 * s3 + w2 * s2) + w1 * s1) + w0 * s0)
            for w3, w2, w1, w0 in weights]


def _evaluate(condition: str, nu, p: ClassParams, d: Optional[DixitPalParams],
              form: ConditionForm, tol: float) -> MembershipVerdict:
    """Verdict of a named condition at one point, from one `_moment_sums`
    call."""
    order = _operator_order(nu)
    name, form, rule, scale = _resolve(condition, form, d)
    cell, rhs = _cell(name, rule, p)
    sums = _moment_sums(order.nu, _check_tol(tol))
    lhs, = _lhs_slab(sums, cell, scale, rule.shift)
    margin = rhs - lhs
    return MembershipVerdict(lhs, rhs, margin, margin >= 0.0, form)


def t_condition(nu, p: ClassParams, form: ConditionForm = ConditionForm.PROOF,
                tol: float = 1e-12) -> MembershipVerdict:
    """Starlike-type sufficiency test for z*S_nu.

    Proof form (canonical):
        lambda*s2 + (1 + 2*lambda - lambda*alpha)*s1 + (1-alpha)*s0
            <= 2*(1-alpha).
    Stated form replaces the s1 coefficient by (1 - lambda*alpha); it is
    weaker-looking (never larger lhs) and is provided only for comparison.
    """
    return _evaluate("t", nu, p, None, form, tol)


def l_condition(nu, p: ClassParams, tol: float = 1e-12) -> MembershipVerdict:
    """Convex-type sufficiency test for z*S_nu:

    lambda*s3 + (5*lambda + 1 - lambda*alpha)*s2
        + (4*lambda - 2*lambda*alpha - alpha + 3)*s1 + (1-alpha)*s0
            <= 2*(1-alpha).
    """
    return _evaluate("l", nu, p, None, ConditionForm.PROOF, tol)


def starlike_condition(nu, alpha: float, tol: float = 1e-12) -> MembershipVerdict:
    """Starlikeness of order alpha for z*S_nu: `t_condition` at lambda = 0."""
    return _evaluate("starlike", nu, ClassParams(0.0, alpha),
                     None, ConditionForm.PROOF, tol)


def convex_condition(nu, alpha: float, tol: float = 1e-12) -> MembershipVerdict:
    """Convexity of order alpha for z*S_nu: `l_condition` at lambda = 0."""
    return _evaluate("convex", nu, ClassParams(0.0, alpha),
                     None, ConditionForm.PROOF, tol)


def jnu_condition(nu, p: ClassParams, d: DixitPalParams,
                  tol: float = 1e-12) -> MembershipVerdict:
    """Convex-type sufficiency for the kernel convolution on R^tau(A,B):

    (A-B)*|tau| * (lambda*s2 + (1 + 2*lambda - lambda*alpha)*s1
                   + (1-alpha)*(s0 - 1))  <=  1 - alpha.

    A nonnegative margin guarantees membership for *every* function of the
    class, via the sharp coefficient envelope |a_n| <= (A-B)|tau|/n.
    """
    return _evaluate("jnu", nu, p, d, ConditionForm.PROOF, tol)


def qnu_condition(nu, p: ClassParams, tol: float = 1e-12) -> MembershipVerdict:
    """Convex-type membership of the integral variant Q_nu (iff condition):

    lambda*s2 + (2*lambda - lambda*alpha + 1)*s1 + (1-alpha)*s0
        <= 2*(1-alpha).

    The n-weights cancel against the 1/n coefficients of Q_nu, which makes
    this the same linear form as the proof-form `t_condition`; because Q_nu
    has negative coefficients the condition is necessary as well.
    """
    return _evaluate("qnu", nu, p, None, ConditionForm.PROOF, tol)


def margin_function(condition: str, p: ClassParams,
                    extra: Optional[DixitPalParams] = None,
                    form: ConditionForm = ConditionForm.PROOF,
                    tol: float = 1e-12) -> Callable[[float], float]:
    """margin(nu) for a named condition with all other parameters fixed.

    `_resolve` checks the condition, form and triple, and the weights,
    rhs, scale and tol are prepared once.  Each call checks nu (a float in
    (-1/2, inf) directly, anything else through `_operator_order`, which
    raises the DomainError), sums s0..s3 from one cached truncated table
    (`_moment_sums`) and applies a one-cell `_lhs_slab`: it returns the
    margin of `_evaluate` bit for bit.
    """
    name, _, rule, scale = _resolve(condition, form, extra)
    cell, rhs = _cell(name, rule, p)
    shift = rule.shift
    tol = _check_tol(tol)

    def margin(nu: float) -> float:
        if type(nu) is not float or not -0.5 < nu < math.inf:
            nu = _operator_order(nu).nu
        lhs, = _lhs_slab(_moment_sums(nu, tol), cell, scale, shift)
        return rhs - lhs

    return margin


def critical_nu(condition: str, p: ClassParams,
                extra: Optional[DixitPalParams] = None,
                bracket: tuple[float, float] = (0.6, 30.0),
                margin_tol: float = 1e-10, nu_tol: float = 1e-10,
                form: ConditionForm = ConditionForm.PROOF,
                tol: float = 1e-12) -> float:
    """Boundary order nu* where the condition's margin crosses zero.

    The margin rhs - lhs strictly increases in nu.  For n >= 1, c_n(nu)
    is Gamma(nu+1)/Gamma(nu+1+n/2) times a factor free of nu, which
    strictly decreases on nu > -1 because psi is increasing (DLMF 5.15);
    c_0 = 1.  Each lhs is a scale > 0 times sum_k w_k s_k, less a
    constant, and s_k = S^(k)(1) weighs c_n by the falling factorial
    n(n-1)...(n-k+1) >= 0.  Every `_RULES` weight is >= 0 for lambda,
    alpha in [0, 1), and w1 > 0 gives c_1 a positive weight, so the lhs
    strictly decreases.

    Guarded false position (Illinois) on that margin: the first step is
    the midpoint, and any later pair of steps that fails to halve the
    bracket is followed by a midpoint, so the solver never needs more than
    about twice bisection's log2((hi-lo)/ulp) evaluations and usually
    needs far fewer.  The result is always on the side where the
    condition holds: 0 <= margin(nu*) <= margin_tol, so the condition
    holds at nu* and, the margin being increasing, for every larger order
    in the bracket.

    ``margin_tol`` alone decides when to stop.  A bracket narrower than
    ``nu_tol`` whose ends miss it is narrowed further, down to a few ulp,
    because its upper end can still miss ``margin_tol`` (where the margin
    rises 1.4 per unit order, a bracket 1e-10 wide can end at a margin of
    1.4e-10); ``nu_tol`` is only checked to be a valid tolerance.

    Raises `ParameterError` for a negative or non-finite ``margin_tol`` or
    ``nu_tol``, and when the bracket has shrunk to a few ulp without
    reaching ``margin_tol``; `BracketError` when the endpoint margins do not
    straddle zero; and `MonotonicityError` when a margin escapes the
    [margin(lo), margin(hi)] envelope of the current bracket by more than
    rounding slack, which the argument above leaves to numerical trouble.
    """
    for name, value in (("margin_tol", margin_tol), ("nu_tol", nu_tol)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ParameterError(
                f"{name} must be finite and >= 0, got {value!r}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (lo < hi):
        raise BracketError(f"bracket must satisfy lo < hi, got ({lo}, {hi})")
    margin = margin_function(condition, p, extra, form, tol)
    return _bisect_margin(margin, lo, hi, margin_tol)


def _bisect_margin(margin: Callable[[float], float], lo: float, hi: float,
                   margin_tol: float) -> float:
    """First evaluated nu with 0 <= margin(nu) <= margin_tol (see critical_nu).

    w_lo and w_hi are the false-position weights of the two ends: the
    true end margins, except that Illinois halves the weight of an end
    kept twice in a row.  The monotonicity envelope always uses the true
    margins m_lo and m_hi; a scaled weight would flag smooth margins.
    """
    m_lo = margin(lo)
    m_hi = margin(hi)
    if not (m_lo < 0.0 < m_hi):
        raise BracketError(
            f"margins do not straddle zero: margin({lo}) = {m_lo:.6e}, "
            f"margin({hi}) = {m_hi:.6e}"
        )
    slack = 1e-12 * (1.0 + abs(m_lo) + abs(m_hi))
    w_lo, w_hi = m_lo, m_hi
    last = 0  # -1 when the last step moved lo, +1 when it moved hi
    width = hi - lo  # bracket width two steps ago
    for step in range(200):
        x = (lo * w_hi - hi * w_lo) / (w_hi - w_lo)
        if step % 2 == 0:
            if step == 0 or hi - lo > 0.5 * width:
                x = 0.5 * (lo + hi)
            width = hi - lo
        if not (lo < x < hi):
            x = 0.5 * (lo + hi)
        m_x = margin(x)
        if m_x < m_lo - slack or m_x > m_hi + slack:
            raise MonotonicityError(
                f"margin not monotone on [{lo}, {hi}]: "
                f"margin({x}) = {m_x:.6e} outside "
                f"[{m_lo:.6e}, {m_hi:.6e}]"
            )
        if 0.0 <= m_x <= margin_tol:
            return x
        if m_x < 0.0:
            lo, m_lo, w_lo = x, m_x, m_x
            if last < 0:
                w_hi *= 0.5
            last = -1
        else:
            hi, m_hi, w_hi = x, m_x, m_x
            if last > 0:
                w_lo *= 0.5
            last = 1
        if hi - lo <= 4.0 * math.ulp(hi):
            if m_hi <= margin_tol:
                return hi
            break
    raise ParameterError(
        f"margin tolerance {margin_tol} not reached: final bracket "
        f"[{lo!r}, {hi!r}], margins [{m_lo:.6e}, {m_hi:.6e}]"
    )

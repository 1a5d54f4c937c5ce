"""Criterion formulas, form adjudication, and bisection tests.

The golden boundary order below was produced by bisecting the starlike
margin with the 50-digit summation oracle:
nu* = 2.038180705161871804536379822414 for alpha = 0.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from besselstruve import (BracketError, ClassParams, ConditionForm,
                          DixitPalParams, DomainError, MonotonicityError,
                          ParameterError, convex_condition, criteria,
                          critical_nu, highprec_sum_oracle, jnu_condition,
                          l_condition, moments, qnu_condition, series,
                          starlike_condition, t_condition)
from besselstruve.criteria import (_RULES, _bisect_margin, _evaluate,
                                   margin_function)

from conftest import NU_GRID

GOLDEN_STARLIKE_NU = 2.0381807051618718  # oracle bisection, alpha = 0

OPERATOR_GRID = tuple(nu for nu in NU_GRID if nu > -0.5)


class TestParams:
    def test_class_params_ranges(self):
        ClassParams(0.0, 0.0)
        ClassParams(0.999, 0.999)
        for bad in ((1.0, 0.0), (0.0, 1.0), (-0.1, 0.0), (0.0, -0.1)):
            with pytest.raises(ParameterError):
                ClassParams(*bad)

    def test_dixit_pal_ranges(self):
        DixitPalParams(1.0, -1.0, 1.0)
        with pytest.raises(ParameterError):
            DixitPalParams(0.5, 0.5, 1.0)  # A = B excluded
        with pytest.raises(ParameterError):
            DixitPalParams(-0.5, 0.5, 1.0)
        with pytest.raises(ParameterError):
            DixitPalParams(1.5, 0.0, 1.0)
        with pytest.raises(ParameterError):
            DixitPalParams(1.0, 0.0, 0.0)


class TestTCondition:
    def test_near_boundary_limit(self):
        # s0, s1 -> e as nu -> -1/2, so the lhs approaches 2e
        v = t_condition(-0.5 + 1e-9, ClassParams(0.0, 0.0))
        assert v.lhs == pytest.approx(2.0 * math.e, abs=1e-6)
        assert not v.holds

    def test_large_order_limit(self):
        # all coefficients vanish: lhs -> (1 - alpha) <= 2(1 - alpha);
        # the approach is O(nu^-1/2), hence the loose tolerance
        for alpha in (0.0, 0.5, 0.9):
            v = t_condition(1e5, ClassParams(0.7, alpha))
            assert v.holds
            assert v.lhs == pytest.approx(1.0 - alpha, abs=1e-2)

    def test_forms_coincide_at_lambda_zero(self):
        for nu in OPERATOR_GRID:
            a = t_condition(nu, ClassParams(0.0, 0.3), ConditionForm.PROOF)
            b = t_condition(nu, ClassParams(0.0, 0.3), ConditionForm.STATED)
            assert a.lhs == b.lhs
            assert a.holds == b.holds

    def test_stated_never_exceeds_proof(self):
        # the forms differ by 2*lambda*s1 >= 0
        for nu in OPERATOR_GRID:
            for lam in (0.1, 0.45, 0.9):
                p = ClassParams(lam, 0.2)
                proof = t_condition(nu, p, ConditionForm.PROOF).lhs
                stated = t_condition(nu, p, ConditionForm.STATED).lhs
                assert stated < proof
                assert proof - stated == pytest.approx(
                    2.0 * lam * moments(nu).s1, rel=1e-10)

    def test_domain_error_below_operator_range(self):
        with pytest.raises(DomainError):
            t_condition(-0.5, ClassParams(0.0, 0.0))
        with pytest.raises(DomainError):
            t_condition(-0.7, ClassParams(0.0, 0.0))

    def test_verdict_margin_consistency(self):
        v = t_condition(3.0, ClassParams(0.2, 0.1))
        assert v.margin == v.rhs - v.lhs
        assert v.holds == (v.margin >= 0.0)


class TestLCondition:
    def test_near_boundary_limit(self):
        v = l_condition(-0.5 + 1e-9, ClassParams(0.0, 0.0))
        assert v.lhs == pytest.approx(5.0 * math.e, abs=1e-6)
        assert not v.holds

    def test_large_order_limit(self):
        assert l_condition(1e5, ClassParams(0.5, 0.5)).holds

    def test_reduces_to_convexity_test_at_lambda_zero(self):
        # lhs reduces to s2 + (3 - alpha) s1 + (1 - alpha) s0
        for nu in (0.5, 2.0):
            for alpha in (0.0, 0.4):
                s = moments(nu)
                expected = (s.s2 + (3.0 - alpha) * s.s1
                            + (1.0 - alpha) * s.s0)
                assert l_condition(nu, ClassParams(0.0, alpha)).lhs == \
                    pytest.approx(expected, rel=1e-13)


class TestNamedCorollaries:
    def test_starlike_fixture_at_half(self):
        # s1 = 1 and s0 = e - 1: lhs = e > 2
        v = starlike_condition(0.5, 0.0)
        assert v.lhs == pytest.approx(math.e, abs=1e-12)
        assert not v.holds

    def test_starlike_equals_t_at_lambda_zero(self):
        rng = random.Random(7)
        for _ in range(50):
            nu = rng.uniform(-0.49, 20.0)
            alpha = rng.uniform(0.0, 0.99)
            a = starlike_condition(nu, alpha)
            b = t_condition(nu, ClassParams(0.0, alpha))
            assert a.lhs == b.lhs and a.rhs == b.rhs and a.holds == b.holds

    def test_convex_equals_l_at_lambda_zero(self):
        rng = random.Random(8)
        for _ in range(20):
            nu = rng.uniform(-0.49, 20.0)
            alpha = rng.uniform(0.0, 0.99)
            a = convex_condition(nu, alpha)
            b = l_condition(nu, ClassParams(0.0, alpha))
            assert a.lhs == b.lhs and a.holds == b.holds

    def test_convex_large_order(self):
        assert convex_condition(1e5, 0.3).holds


class TestJnuCondition:
    def test_degenerate_scaling(self):
        # (A-B)|tau| -> 0 drives the lhs to zero
        v = jnu_condition(1.0, ClassParams(0.3, 0.2),
                          DixitPalParams(1e-9, -1e-9, 1e-6))
        assert v.lhs == pytest.approx(0.0, abs=1e-12)
        assert v.holds

    def test_oracle_cross_check(self):
        d = DixitPalParams(1.0, -1.0, 1.0)
        v = jnu_condition(1.0, ClassParams(0.0, 0.0), d)
        ref = float(highprec_sum_oracle("jnu", 1.0, lam=0.0, alpha=0.0,
                                        a=1.0, b=-1.0, tau_abs=1.0))
        assert v.lhs == pytest.approx(ref, abs=1e-10)
        # lhs = (A-B)|tau| * (s1 + s0 - 1) here
        s = moments(1.0)
        assert v.lhs == pytest.approx(2.0 * (s.s1 + s.s0 - 1.0), rel=1e-12)

    def test_requires_params(self):
        with pytest.raises(ParameterError):
            jnu_condition(1.0, ClassParams(0.0, 0.0), None)


class TestQnuCondition:
    def test_identical_to_proof_form(self):
        rng = random.Random(11)
        for _ in range(40):
            nu = rng.uniform(-0.49, 25.0)
            p = ClassParams(rng.uniform(0.0, 0.99), rng.uniform(0.0, 0.99))
            a = qnu_condition(nu, p)
            b = t_condition(nu, p, ConditionForm.PROOF)
            assert a.lhs == pytest.approx(b.lhs, abs=1e-12)
            assert a.holds == b.holds

    def test_near_boundary_fails(self):
        # lhs approaches (1/2 + 7/4 + 1/2) e = 2.75 e, far above rhs = 1
        v = qnu_condition(-0.5 + 1e-9, ClassParams(0.5, 0.5))
        assert v.lhs == pytest.approx(2.75 * math.e, abs=1e-6)
        assert not v.holds

    def test_large_order_holds(self):
        assert qnu_condition(1e5, ClassParams(0.9, 0.9)).holds


class TestTermwiseConsistency:
    def test_decomposition_through_moment_sums(self):
        # lhs - (1 - alpha) equals the weighted coefficient sum, expanded as
        # lam*m2 + (1 - lam(1+alpha))*m1 + alpha*(lam-1)*m0
        for nu in OPERATOR_GRID:
            s = moments(nu)
            for lam, alpha in ((0.0, 0.0), (0.3, 0.6), (0.9, 0.1)):
                p = ClassParams(lam, alpha)
                t_sum = (lam * s.m2 + (1.0 - lam * (1.0 + alpha)) * s.m1
                         + alpha * (lam - 1.0) * s.m0)
                assert t_condition(nu, p).lhs - (1.0 - alpha) == \
                    pytest.approx(t_sum, abs=1e-10)
                l_sum = (lam * s.m3 + (1.0 - lam * (1.0 + alpha)) * s.m2
                         + alpha * (lam - 1.0) * s.m1)
                assert l_condition(nu, p).lhs - (1.0 - alpha) == \
                    pytest.approx(l_sum, abs=1e-10)


# The per-condition lhs expressions the criteria table replaced, kept as the
# reference the table must reproduce bit for bit.

def _ref_t_proof(s, lam, alpha, d):
    return (lam * s.s2 + (1.0 + 2.0 * lam - lam * alpha) * s.s1
            + (1.0 - alpha) * s.s0)


def _ref_t_stated(s, lam, alpha, d):
    return lam * s.s2 + (1.0 - lam * alpha) * s.s1 + (1.0 - alpha) * s.s0


def _ref_l(s, lam, alpha, d):
    return (lam * s.s3
            + (5.0 * lam + 1.0 - lam * alpha) * s.s2
            + (4.0 * lam - 2.0 * lam * alpha - alpha + 3.0) * s.s1
            + (1.0 - alpha) * s.s0)


def _ref_jnu(s, lam, alpha, d):
    scale = (d.a - d.b) * d.tau_abs
    return scale * (lam * s.s2
                    + (1.0 + 2.0 * lam - lam * alpha) * s.s1
                    + (1.0 - alpha) * (s.s0 - 1.0))


def _ref_qnu(s, lam, alpha, d):
    return (lam * s.s2
            + (2.0 * lam - lam * alpha + 1.0) * s.s1
            + (1.0 - alpha) * s.s0)


# (condition, form) -> (reference lhs, reference rhs(alpha), lambda = 0 only)
_REFERENCE = {
    ("t", "proof"): (_ref_t_proof, lambda a: 2.0 * (1.0 - a), False),
    ("t", "stated"): (_ref_t_stated, lambda a: 2.0 * (1.0 - a), False),
    ("l", "proof"): (_ref_l, lambda a: 2.0 * (1.0 - a), False),
    ("starlike", "proof"): (_ref_t_proof, lambda a: 2.0 * (1.0 - a), True),
    ("convex", "proof"): (_ref_l, lambda a: 2.0 * (1.0 - a), True),
    ("jnu", "proof"): (_ref_jnu, lambda a: 1.0 - a, False),
    ("qnu", "proof"): (_ref_qnu, lambda a: 2.0 * (1.0 - a), False),
}


class TestCriteriaTable:
    def test_reference_covers_every_rule(self):
        assert {(c, f.value) for c, f in _RULES} == set(_REFERENCE)

    # hypothesis favours short mantissas, which round alike in any order;
    # multiples of 2**-53 give full ones
    UNIT = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                     st.integers(0, 2 ** 53 - 1).map(lambda k: k * 2.0 ** -53))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=st.sampled_from(sorted(_REFERENCE)),
           nu=st.floats(-0.5, 1e3, exclude_min=True), lam=UNIT, alpha=UNIT,
           b=st.floats(-1.0, 0.99), a_gap=st.floats(1e-6, 2.0),
           tau_abs=st.floats(1e-6, 1e3))
    def test_table_reproduces_the_written_expressions(self, case, nu, lam,
                                                      alpha, b, a_gap,
                                                      tau_abs):
        condition, form = case
        ref_lhs, ref_rhs, lambda_zero = _REFERENCE[case]
        p = ClassParams(lam, alpha)
        d = (DixitPalParams(min(b + a_gap, 1.0), b, tau_abs)
             if condition == "jnu" else None)
        lhs = ref_lhs(moments(nu), 0.0 if lambda_zero else lam, alpha, d)
        form = ConditionForm(form)
        v = _evaluate(condition, nu, p, d, form, 1e-12)
        assert v.lhs == lhs and v.rhs == ref_rhs(alpha)
        assert v.margin == ref_rhs(alpha) - lhs
        assert margin_function(condition, p, d, form)(nu) == v.margin


def _falling_factorial_weights(poly, degree):
    """(w3, w2, w1, w0) with poly(m) = sum_k w_k m(m-1)...(m-k+1): the k-th
    forward difference of poly at 0 over k!, exactly."""
    values = [poly(Fraction(m)) for m in range(degree + 1)]
    weights = []
    for k in range(degree + 1):
        weights.append(values[0] / math.factorial(k))
        values = [y - x for x, y in zip(values, values[1:])]
    return tuple(reversed(weights + [Fraction(0)] * (3 - degree)))


class TestDerivedWeights:
    """Each lhs is sum_m P(m) c_m for P(m) = (m*lambda + 1)(m + 1 - alpha),
    times (m + 1) for the convex type; expanding P in falling factorials
    gives the weights of s_k = S^(k)(1).  jnu sums over m >= 1, which
    removes P(0) c_0 = w0 * 1: its shift.  At dyadic (lambda, alpha) every
    float weight is exact, so the comparison is exact."""

    DYADIC = (0.0, 0.25, 0.5, 0.75)

    @staticmethod
    def _derived(condition, lam, alpha):
        lam, alpha = Fraction(lam), Fraction(alpha)

        def t_poly(m):
            return (m * lam + 1) * (m + 1 - alpha)

        if condition in ("l", "convex"):
            return _falling_factorial_weights(lambda m: (m + 1) * t_poly(m), 3)
        return _falling_factorial_weights(t_poly, 2)

    @pytest.mark.parametrize("key", sorted(_RULES, key=lambda k: (k[0], k[1].value)))
    def test_weights_follow_from_the_polynomial(self, key):
        condition, form = key
        rule = _RULES[key]
        stated = key == ("t", ConditionForm.STATED)
        for lam in self.DYADIC:
            for alpha in self.DYADIC:
                table = tuple(map(Fraction, rule.weights(lam, alpha)))
                derived = self._derived(condition, lam, alpha)
                if stated:
                    # the stated s1 weight lacks the derived 2*lambda
                    assert table[:2] + table[3:] == derived[:2] + derived[3:]
                    assert derived[2] - table[2] == 2 * Fraction(lam)
                else:
                    assert table == derived
        assert rule.shift == (1.0 if condition == "jnu" else 0.0)
        assert rule.dixit_pal == (condition == "jnu")


class TestMarginMonotonicity:
    @pytest.mark.parametrize("condition", ["t", "l", "starlike", "convex",
                                           "jnu", "qnu"])
    def test_margin_increasing_in_order(self, condition):
        rng = random.Random(f"monotone-{condition}")
        grid = [-0.49 + (30.0 + 0.49) * i / 199 for i in range(200)]
        grid = [g for g in grid if g > -0.5]
        for _ in range(20):
            p = ClassParams(rng.uniform(0.0, 0.99), rng.uniform(0.0, 0.99))
            extra = None
            if condition == "jnu":
                b = rng.uniform(-1.0, 0.9)
                extra = DixitPalParams(rng.uniform(b + 0.01, 1.0), b,
                                       rng.uniform(0.05, 2.0))
            margin = margin_function(condition, p, extra)
            values = [margin(nu) for nu in grid]
            assert all(x < y for x, y in zip(values, values[1:]))

    # the argument in `critical_nu`'s docstring: its premise on the
    # weights, and its conclusion on the margin
    RULE_KEYS = sorted(_RULES, key=lambda k: (k[0], k[1].value))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(key=st.sampled_from(RULE_KEYS), lam=TestCriteriaTable.UNIT,
           alpha=TestCriteriaTable.UNIT)
    def test_every_weight_is_nonnegative(self, key, lam, alpha):
        w3, w2, w1, w0 = _RULES[key].weights(lam, alpha)
        assert min(w3, w2, w1, w0) >= 0.0 and w1 > 0.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(key=st.sampled_from(RULE_KEYS), lam=TestCriteriaTable.UNIT,
           alpha=TestCriteriaTable.UNIT,
           nu1=st.floats(-0.5, 1e3, exclude_min=True), frac=st.floats(0.0, 1.0),
           b=st.floats(-1.0, 0.99), a_gap=st.floats(1e-6, 2.0),
           tau_abs=st.floats(1e-6, 1e3))
    def test_margin_never_decreases(self, key, lam, alpha, nu1, frac, b,
                                    a_gap, tau_abs):
        low = nu1 + 1e-3 * (1.0 + nu1)
        assume(low <= 1e3)
        nu2 = min(low + frac * (1e3 - low), 1e3)
        condition, form = key
        d = (DixitPalParams(min(b + a_gap, 1.0), b, tau_abs)
             if condition == "jnu" else None)
        margin = margin_function(condition, ClassParams(lam, alpha), d, form)
        assert margin(nu1) <= margin(nu2)


class TestCriticalNu:
    def test_golden_fixture(self):
        nu_star = critical_nu("starlike", ClassParams(0.0, 0.0),
                              bracket=(0.6, 20.0))
        assert abs(nu_star - GOLDEN_STARLIKE_NU) <= 1e-8
        assert abs(starlike_condition(nu_star, 0.0).margin) <= 1e-10

    def test_bracket_error_on_same_sign(self):
        with pytest.raises(BracketError, match="margin"):
            critical_nu("starlike", ClassParams(0.0, 0.0), bracket=(5.0, 20.0))
        with pytest.raises(BracketError):
            critical_nu("starlike", ClassParams(0.0, 0.0), bracket=(0.6, 1.0))

    def test_convex_boundary_above_starlike(self):
        p = ClassParams(0.0, 0.0)
        nu_t = critical_nu("starlike", p, bracket=(0.6, 30.0))
        nu_c = critical_nu("convex", p, bracket=(0.6, 30.0))
        assert nu_c > nu_t

    def test_alpha_shifts_boundary_up(self):
        lo = critical_nu("starlike", ClassParams(0.0, 0.0), bracket=(0.6, 30.0))
        hi = critical_nu("starlike", ClassParams(0.0, 0.5), bracket=(0.6, 30.0))
        assert hi > lo

    def test_monotonicity_violation_detected(self):
        # synthetic margin with a bump at the first midpoint: bisection must
        # flag the inversion, not converge
        def bumpy(x):
            return x - 3.0 + 6.0 * math.exp(-40.0 * (x - 2.0) ** 2)
        with pytest.raises(MonotonicityError):
            _bisect_margin(bumpy, 0.0, 4.0, 1e-10)

    def test_unknown_condition(self):
        with pytest.raises(ParameterError):
            critical_nu("nope", ClassParams(0.0, 0.0), bracket=(0.6, 20.0))

    def test_golden_solve_evaluation_count(self):
        margin = margin_function("starlike", ClassParams(0.0, 0.0))
        points = []

        def counted(nu):
            points.append(nu)
            return margin(nu)

        nu_star = _bisect_margin(counted, 0.6, 20.0, 1e-10)
        assert len(points) <= 16  # bisection made 37
        assert nu_star == critical_nu("starlike", ClassParams(0.0, 0.0),
                                      bracket=(0.6, 20.0))
        assert 0.0 <= margin(nu_star) <= 1e-10

    @pytest.mark.parametrize("margin_tol, nu_tol", [
        (-1.0, 1e-10), (math.inf, 1e-10), (math.nan, 1e-10),
        (1e-10, -1e-12), (1e-10, math.inf), (1e-10, math.nan)])
    def test_bad_tolerances_rejected(self, margin_tol, nu_tol):
        with pytest.raises(ParameterError, match="_tol must be finite"):
            critical_nu("starlike", ClassParams(0.0, 0.0), bracket=(0.6, 20.0),
                        margin_tol=margin_tol, nu_tol=nu_tol)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(condition=st.sampled_from(("t", "l", "starlike", "convex", "jnu",
                                      "qnu")),
           lam=st.floats(0.0, 0.9), alpha=st.floats(0.0, 0.9),
           b=st.floats(-1.0, 0.9), a_gap=st.floats(0.01, 1.0),
           tau_abs=st.floats(0.05, 2.0),
           lo=st.floats(-0.45, 0.0), hi=st.floats(20.0, 40.0))
    def test_result_is_on_the_holding_side(self, condition, lam, alpha, b,
                                           a_gap, tau_abs, lo, hi):
        if condition in ("starlike", "convex"):
            lam = 0.0
        p = ClassParams(lam, alpha)
        extra = (DixitPalParams(min(b + a_gap, 1.0), b, tau_abs)
                 if condition == "jnu" else None)
        margin = margin_function(condition, p, extra)
        assume(margin(lo) < 0.0 < margin(hi))
        nu_star = critical_nu(condition, p, extra, bracket=(lo, hi))
        assert lo < nu_star < hi
        assert 0.0 <= margin(nu_star) <= 1e-10


class TestSolveCost:
    """What one `critical_nu` solve computes: per margin evaluation one
    `_moment_sums` and one truncated table (each order is new to the
    table cache), and no `MomentSet`."""

    # (condition, p, extra, bracket, form, nu*, margin evaluations)
    SOLVES = [
        ("t", ClassParams(0.5, 0.3), None, (0.6, 30.0), ConditionForm.PROOF,
         7.4912367943898435, 14),
        ("t", ClassParams(0.5, 0.3), None, (0.6, 30.0), ConditionForm.STATED,
         3.3751414015487824, 12),
        ("l", ClassParams(0.2, 0.4), None, (0.6, 30.0), ConditionForm.PROOF,
         21.69213569918175, 10),
        ("starlike", ClassParams(0.0, 0.5), None, (-0.4, 30.0),
         ConditionForm.PROOF, 4.682194345866703, 14),
        ("convex", ClassParams(0.0, 0.5), None, (-0.4, 30.0),
         ConditionForm.PROOF, 18.429835150393345, 10),
        ("jnu", ClassParams(0.3, 0.2), DixitPalParams(0.7, -0.6, 0.85),
         (-0.4, 30.0), ConditionForm.PROOF, 5.799014657599882, 14),
        ("qnu", ClassParams(0.7, 0.6), None, (0.6, 30.0), ConditionForm.PROOF,
         17.935022782829325, 10),
    ]

    @pytest.mark.parametrize("condition, p, extra, bracket, form, nu_star, "
                             "evaluations", SOLVES)
    def test_counts(self, monkeypatch, condition, p, extra, bracket, form,
                    nu_star, evaluations):
        tables, sums = [], []
        truncated = series._truncated_table
        moment_sums = series._moment_sums

        def counted_table(*args):
            tables.append(args[0])
            return truncated(*args)

        def counted_sums(*args):
            sums.append(args[0])
            return moment_sums(*args)

        def no_moment_set(*args):
            raise AssertionError("a solve builds no MomentSet")

        # the cache would hide a table run at an order seen before
        series._cached_table.cache_clear()
        monkeypatch.setattr(series, "_truncated_table", counted_table)
        monkeypatch.setattr(criteria, "_moment_sums", counted_sums)
        monkeypatch.setattr(series, "MomentSet", no_moment_set)
        got = critical_nu(condition, p, extra, bracket, form=form)
        series._cached_table.cache_clear()
        assert got == nu_star
        assert len(sums) == evaluations
        assert tables == sums


_P = ClassParams(0.5, 0.3)
_D = DixitPalParams(0.5, -0.5, 1.0)

# the entry points that take a condition name, as (condition, triple) -> call
_NAMED_ENTRY_POINTS = {
    "_evaluate": lambda c, d: _evaluate(c, 3.0, _P, d, ConditionForm.PROOF,
                                        1e-12),
    "margin_function": lambda c, d: margin_function(c, _P, d),
    "critical_nu": lambda c, d: critical_nu(c, _P, d),
}


class TestOneResolver:
    """Every entry point resolves a condition through `criteria._resolve`,
    so each refusal has one type and one message."""

    @pytest.mark.parametrize("entry", ["jnu_condition", *_NAMED_ENTRY_POINTS])
    def test_missing_triple_has_one_message(self, entry):
        call = _NAMED_ENTRY_POINTS.get(
            entry, lambda c, d: jnu_condition(3.0, _P, d))
        with pytest.raises(ParameterError) as exc:
            call("jnu", None)
        assert str(exc.value) == "condition 'jnu' needs DixitPalParams"

    @pytest.mark.parametrize("entry", sorted(_NAMED_ENTRY_POINTS))
    @pytest.mark.parametrize("condition", ["t", "l", "qnu"])
    def test_triple_refused_off_the_dixit_pal_class(self, entry, condition):
        with pytest.raises(ParameterError) as exc:
            _NAMED_ENTRY_POINTS[entry](condition, _D)
        assert str(exc.value) == f"condition {condition!r} takes no DixitPalParams"

    @pytest.mark.parametrize("call", [lambda: critical_nu(None, _P),
                                      lambda: margin_function(5, _P)],
                             ids=["critical_nu(None)", "margin_function(5)"])
    def test_non_string_condition_is_unknown(self, call):
        with pytest.raises(ParameterError, match="unknown condition"):
            call()

    def test_name_is_case_folded_everywhere(self):
        v = _evaluate("Convex", 3.0, _P, None, ConditionForm.PROOF, 1e-12)
        assert v == convex_condition(3.0, _P.alpha)
        assert margin_function("CONVEX", _P)(3.0) == v.margin

"""Coefficient, evaluation, and moment tests for the kernel series.

Expected values tagged as closed forms below were derived independently:
c_n(-1/2) = 1/n! and c_n(1/2) = 1/(n+1)! follow from the Gamma-quotient
formula by telescoping, which makes S_{-1/2}(z) = e^z and
S_{1/2}(z) = (e^z - 1)/z exact reference cases; the 50-digit summation
oracle in `verifier` confirms the rest.
"""

import cmath
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from besselstruve import (ClassParams, CoefficientSequence, DomainError,
                          KernelOrder, MomentSet, ParameterError,
                          coefficient_sequence, eval_kernel, eval_normalized,
                          eval_phi, highprec_sum_oracle, kernel_coefficient,
                          log_kernel_coefficient, moments, operators, series)
from besselstruve import _pykernels as kernels
from besselstruve.criteria import critical_nu, margin_function
from besselstruve.verifier import _moment_identity_residuals

from conftest import NU_GRID, disk_points, mp_class_weight, mp_weighted_tail

_LN2 = math.log(2.0)
_LN10 = math.log(10.0)


def _log_coeff_direct(nu, n):
    """Direct log-gamma evaluation of log c_n (the literal quotient form)."""
    return (math.lgamma(nu + 1.0) + math.lgamma(0.5 * (n + 1))
            - 0.5 * math.log(math.pi) - math.lgamma(n + 1.0)
            - math.lgamma(0.5 * n + nu + 1.0))


def _ratio_envelope(vals, start):
    """(q, ok): q = max of the two consecutive ratios at ``start``, ok when
    q sits below the cap 0.875 (0.0 where a value has underflowed).

    The references' own envelope, with a cap the search under test does
    not have: a reference that agrees with it shows the cap never binds.
    """
    c0, c1, c2 = vals[start:start + 3]
    if c0 <= 0.0 or c1 <= 0.0:
        return 0.0, True
    q = max(c1 / c0, c2 / c1)
    return q, q < 0.875


def _full_search(nu, tol, power):
    """Reference truncation search: unpruned, rescanned from n = 2 on
    tables of 64, 128, ... entries."""
    for size in (64 << k for k in range(9)):
        vals = kernels.coefficient_table(
            nu, min(size, series._MAX_TERMS + 2))
        for n in range(2, len(vals) - 2):
            q, ok = _ratio_envelope(vals, n)
            if not ok:
                continue
            tail = series._weighted_tail(vals[n], q,
                                         *series._power_weights(n, power))
            if tail <= tol:
                return vals[: n + 1], tail, q
    raise AssertionError(f"no truncation for nu={nu}")


def _full_radius_search(nu, tol, radius):
    """Reference truncation for |z| = radius > 1: rescanned from n = 1 on
    tables of 64, 128, ... entries."""
    for size in (64 << k for k in range(9)):
        vals = kernels.coefficient_table(
            nu, min(size, series._MAX_TERMS + 2))
        term = 1.0
        for n in range(1, len(vals) - 2):
            if vals[n - 1] > 0.0:
                term *= radius * vals[n] / vals[n - 1]
            else:
                term = 0.0
            if n < 2:
                continue
            q, ok = _ratio_envelope(vals, n)
            qr = q * radius
            if ok and qr < 1.0 and term * qr / (1.0 - qr) <= tol:
                return vals[: n + 1]
    raise AssertionError(f"no truncation for nu={nu}, |z|={radius}")


def _dropped_tail(nu, radius, n):
    """sum_{k>n} c_k radius^k at nu = -1/2 (c_k = 1/k!) or nu = 1/2
    (c_k = 1/(k+1)!): the closed form e^r or (e^r - 1)/r minus the kept
    terms, carried to 50 digits beyond those of e^r."""
    import mpmath
    with mpmath.workdps(50 + int(radius / _LN10) + 1):
        r = mpmath.mpf(radius)
        if nu == -0.5:
            whole, shift = mpmath.exp(r), 0
        else:
            whole, shift = mpmath.expm1(r) / r, 1
        kept = mpmath.fsum(r ** k / mpmath.factorial(k + shift)
                           for k in range(n + 1))
        return whole - kept


def _mp_kernel(nu, z):
    """S_nu(z) from the literal Gamma-quotient coefficients, summed at 60
    digits plus one per factor 10 in e^|z|, past n = 2|z| until two
    consecutive terms fall below 1e-80."""
    import mpmath
    r = abs(z)
    with mpmath.workdps(60 + int(r / _LN10)):
        v, w = mpmath.mpf(nu), mpmath.mpc(z)
        head = mpmath.gamma(v + 1) / mpmath.sqrt(mpmath.pi)
        total, prev, n = mpmath.mpf(0), mpmath.inf, 0
        while True:
            term = (head * mpmath.gamma(mpmath.mpf(n + 1) / 2) * w ** n
                    / (mpmath.factorial(n) * mpmath.gamma(n / 2 + v + 1)))
            total += term
            if n > 2 * r and max(abs(term), abs(prev)) < 1e-80:
                return complex(total)
            prev, n = term, n + 1


def _termwise_moments(nu, tol):
    """Reference moments: one generator-expression fsum per field."""
    vals, _, _ = _full_search(nu, tol, 3)
    top = len(vals)
    return MomentSet(
        math.fsum(vals[m] for m in range(1, top)),
        math.fsum((m + 1) * vals[m] for m in range(1, top)),
        math.fsum((m + 1) ** 2 * vals[m] for m in range(1, top)),
        math.fsum((m + 1) ** 3 * vals[m] for m in range(1, top)),
        math.fsum(vals),
        math.fsum(m * vals[m] for m in range(1, top)),
        math.fsum(m * (m - 1) * vals[m] for m in range(2, top)),
        math.fsum(m * (m - 1) * (m - 2) * vals[m] for m in range(3, top)),
        tol)


def _log_ratio(nu, n):
    """log(c_n / c_{n-1}) from the closed-form Gamma ratio."""
    return (math.lgamma(0.5 * (n + 1)) + math.lgamma(0.5 * (n - 1) + nu + 1.0)
            - math.log(n) - math.lgamma(0.5 * n) - math.lgamma(0.5 * n + nu + 1.0))


class TestKernelOrder:
    def test_rejects_boundary_and_below(self):
        with pytest.raises(DomainError):
            KernelOrder(-1.0)
        with pytest.raises(DomainError):
            KernelOrder(-1.5)
        with pytest.raises(DomainError):
            KernelOrder(math.nan)

    def test_operator_valid_flag(self):
        assert not KernelOrder(-0.5).operator_valid
        assert KernelOrder(-0.499).operator_valid
        assert KernelOrder(10.0).operator_valid


class TestKernelCoefficient:
    def test_c0_is_one_for_any_order(self):
        for nu in NU_GRID:
            assert kernel_coefficient(nu, 0) == 1.0

    def test_c1_matches_gamma_quotient(self):
        # u'(0) of the defining initial value problem
        for nu in NU_GRID:
            expected = math.gamma(nu + 1.0) / (math.sqrt(math.pi)
                                               * math.gamma(nu + 1.5))
            assert kernel_coefficient(nu, 1) == pytest.approx(expected, rel=1e-13)

    def test_factorial_specializations(self):
        # telescoping of the Gamma quotient at nu = -1/2 and 1/2
        assert kernel_coefficient(-0.5, 5) == pytest.approx(1.0 / 120.0, rel=1e-13)
        assert kernel_coefficient(0.5, 3) == pytest.approx(1.0 / 24.0, rel=1e-13)

    def test_against_fifty_digit_oracle(self):
        worst = 0.0
        for nu in NU_GRID:
            for n in (*range(0, 65), 100, 150):
                ref = highprec_sum_oracle("c", nu, n=n)
                if ref < 1e-290:
                    continue  # below the reliable double range
                err = abs(kernel_coefficient(nu, n) - float(ref)) / float(ref)
                worst = max(worst, err)
        assert worst <= 1e-13

    def test_log_variant_reaches_n500(self):
        # past the underflow horizon only the logarithm is representable
        for nu in (-0.49, 0.0, 10.0):
            for n in (200, 350, 500):
                with_mp = highprec_sum_oracle("c", nu, n=n)
                import mpmath
                assert log_kernel_coefficient(nu, n) == pytest.approx(
                    float(mpmath.log(with_mp)), abs=1e-11)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(nu=st.one_of(
               st.floats(math.log(1e-16), math.log(1e300)).map(
                   lambda u: math.exp(u) - 1.0),
               st.floats(-1.0, 20.0, exclude_min=True)),
           n=st.one_of(st.sampled_from((1, 3)), st.integers(0, 40),
                       st.integers(0, 10_000)))
    def test_log_variant_within_4_ulp(self, nu, n):
        # nu + 1 log-uniform in [1e-16, 1e300], or nu uniform in (-1, 20]
        # where c_1 alone would take an lgamma difference; n = 1 and 3
        # show the error of log c_1 best.  The reference carries 60
        # digits beyond those of nu + 1, which a fixed precision would
        # round to nu past 1e60.  The scale includes |log(nu + 1)|: log c_n
        # holds log Gamma(nu + 1) ~ -log(nu + 1), which near nu = -1 can
        # far exceed log c_n and is itself a double only to its ulp.
        import mpmath
        with mpmath.workdps(60 + max(0, int(math.log10(nu + 1.0)))):
            v, h = mpmath.mpf(nu), mpmath.mpf(n) / 2
            ref = float(mpmath.loggamma(v + 1) + mpmath.loggamma(h + 0.5)
                        - mpmath.log(mpmath.pi) / 2 - mpmath.loggamma(n + 1)
                        - mpmath.loggamma(h + v + 1))
        scale = max(abs(ref), abs(math.log1p(nu)), 1.0)
        assert abs(log_kernel_coefficient(nu, n) - ref) <= 4 * math.ulp(scale)

    def test_domain_and_index_errors(self):
        with pytest.raises(DomainError):
            kernel_coefficient(-1.0, 3)
        with pytest.raises(ParameterError):
            kernel_coefficient(0.5, -1)

    def test_monotone_decreasing_in_order(self):
        for n in (1, 2, 5, 10, 50):
            values = [kernel_coefficient(nu, n) for nu in NU_GRID]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_ratio_products_agree_with_direct_log_gamma(self):
        # cumulative ratio products vs the direct quotient, in log space
        # (log agreement == relative agreement of the values)
        for nu in NU_GRID:
            acc = 0.0
            for n in range(1, 201):
                acc += _log_ratio(nu, n)
                assert acc == pytest.approx(_log_coeff_direct(nu, n), abs=1e-12)


class TestCoefficientSequence:
    def test_exponential_fixture(self):
        seq = coefficient_sequence(-0.5, tol=1e-15)
        assert isinstance(seq, CoefficientSequence)
        assert seq.truncation_index <= 20
        for n, c in enumerate(seq.values):
            assert c == pytest.approx(1.0 / math.factorial(n), rel=1e-13)
        assert seq.values[0] == 1.0

    def test_truncation_shrinks_with_order(self):
        n_small = coefficient_sequence(10.0, tol=1e-12).truncation_index
        n_zero = coefficient_sequence(0.0, tol=1e-12).truncation_index
        assert n_small < n_zero

    def test_domain_error_at_boundary(self):
        with pytest.raises(DomainError):
            coefficient_sequence(-1.0, tol=1e-8)

    def test_bad_tolerance(self):
        with pytest.raises(ParameterError):
            coefficient_sequence(0.5, tol=0.0)
        with pytest.raises(ParameterError):
            coefficient_sequence(0.5, tol=2.0)

    def test_values_satisfy_closed_form_ratio(self):
        for nu in NU_GRID:
            seq = coefficient_sequence(nu, tol=1e-12)
            for n in range(1, seq.truncation_index + 1):
                ratio = seq.values[n] / seq.values[n - 1]
                assert ratio == pytest.approx(math.exp(_log_ratio(nu, n)),
                                              rel=1e-12)

    def test_positivity(self):
        for nu in NU_GRID:
            assert all(c > 0.0 for c in coefficient_sequence(nu).values)

    def test_tail_bound_sound(self):
        # dropping the terms between N and 2N changes the value by less
        # than the reported bound anywhere in the closed disk
        pts = disk_points(5, 8)
        for nu in NU_GRID:
            seq = coefficient_sequence(nu, tol=1e-10)
            n = seq.truncation_index
            table = kernels.coefficient_table(nu, 2 * n)
            for z in pts:
                a = complex(*kernels.horner(table[: n + 1], z.real, z.imag))
                b = complex(*kernels.horner(table, z.real, z.imag))
                assert abs(a - b) < seq.tail_bound

    def test_pruned_search_matches_full_search(self):
        # the truncation search skips indices whose first tail term already
        # exceeds tol, and it starts on a short table that it doubles and
        # resumes; the unpruned loop over 64-entry-and-up tables is the
        # reference it must equal.  tol 1e-300 and 5e-324 force doublings.
        for nu in (-0.999, -0.9, -0.49, 0.0, 0.37, 2.0, 11.5, 1e3, 1e5,
                   -0.9999999999999999, -0.45, 40.0, 1e300):
            for tol in (0.5, 1e-6, 1e-12, 1e-15, 1e-300, 5e-324):
                for power in (0, 1, 2, 3):
                    assert series._truncated_table(nu, tol, power) == \
                        _full_search(nu, tol, power)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(nu=st.one_of(
               st.floats(math.log(1e-12), math.log(1e5 + 1.0)).map(
                   lambda u: min(math.expm1(u), 1e5)),
               st.floats(math.log(1e-16), math.log(1e300)).map(
                   lambda u: math.exp(u) - 1.0)),
           tol=st.one_of(
               st.floats(math.log(1e-15), math.log(0.5)).map(math.exp),
               st.floats(math.log(5e-324), math.log(0.5)).map(math.exp)),
           power=st.integers(0, 3))
    def test_sized_search_and_moments_match_references(self, nu, tol, power):
        # nu log-uniform in (-1, 1e5] or (-1, 1e300] through nu + 1, tol
        # down to 5e-324.  The radius-1 scan starts past the indices a
        # bisection proves fail the prune; it still returns the unpruned
        # search's table, tail and q, also when tol is the accepted tail
        # itself, where the first tail term sits within a few roundings of
        # tol at large nu
        got = series._truncated_table(nu, tol, power)
        assert got == _full_search(nu, tol, power)
        if got[1] > 0.0:
            assert series._truncated_table(nu, got[1], power) == got
        # s0..s3 and m0 are the termwise fsums bit for bit, m1..m3 their
        # exact combinations, and the only refusal is a tol below the ulp
        # of the largest value
        ref = _termwise_moments(nu, tol)
        m3 = ref.s3 + 6.0 * ref.s2 + 7.0 * ref.s1 + ref.m0
        if math.ulp(max(ref.s0, m3)) > tol:
            with pytest.raises(ParameterError, match="ulp"):
                moments(nu, tol)
        else:
            got = moments(nu, tol)
            for name in ("m0", "s0", "s1", "s2", "s3", "tol"):
                assert getattr(got, name) == getattr(ref, name), name
            assert got.m1 == ref.s1 + ref.m0
            assert got.m2 == ref.s2 + 3.0 * ref.s1 + ref.m0
            assert got.m3 == m3

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(nu=st.floats(math.log(1e-16), math.log(1e300)).map(
               lambda u: math.exp(u) - 1.0))
    def test_skip_bound_strictly_decreases(self, nu):
        # the premise of the skipped start: for n >= 2, c_{n+1} (n+2)^3
        # shrinks by a factor below 0.83 per step, compared exactly on the
        # table's own normal entries, so the first index that can pass the
        # prune is found by bisection
        vals = kernels.coefficient_table(nu, 200)
        for n in range(2, 198):
            if vals[n + 2] < sys.float_info.min:
                break
            assert (Fraction(vals[n + 2]) * (n + 3) ** 3
                    < Fraction(83, 100) * Fraction(vals[n + 1]) * (n + 2) ** 3)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(nu=st.floats(math.log(1e-16), math.log(1e5 + 1.0)).map(
               lambda u: math.exp(u) - 1.0))
    def test_radius_one_envelope_stays_below_0_4245(self, nu):
        # q peaks at c_3/c_2 -> 4/(3 pi) ~ 0.42441 as nu -> -1, so at
        # radius 1 the search needs no cap on q below 1
        vals = kernels.coefficient_table(nu, 60)
        for n in range(2, 58):
            if vals[n + 1] <= 0.0:
                break
            assert max(vals[n + 1] / vals[n], vals[n + 2] / vals[n + 1]) < 0.4245

    def test_cold_moments_builds_a_short_table(self, monkeypatch):
        # the first table covers the usual truncation (N = 11..17 at
        # tol 1e-12): at most 25 coefficients per cold moments call
        built = []
        table = kernels.coefficient_table

        def counting_table(nu, n_max):
            vals = table(nu, n_max)
            built.append(len(vals))
            return vals

        monkeypatch.setattr(series.kernels, "coefficient_table", counting_table)
        for nu in NU_GRID:
            series._cached_table.cache_clear()
            built.clear()
            moments(nu, 1e-12)
            assert 0 < sum(built) <= 25, (nu, built)


class TestEvalKernel:
    def test_exponential_closed_form(self, unit_disk_points):
        worst = max(abs(eval_kernel(-0.5, z) - cmath.exp(z))
                    for z in unit_disk_points)
        assert worst <= 1e-12

    def test_expm1_closed_form(self, unit_disk_points):
        def ref(z):
            return (cmath.exp(z) - 1.0) / z if z != 0 else complex(1.0)
        worst = max(abs(eval_kernel(0.5, z) - ref(z)) for z in unit_disk_points)
        assert worst <= 1e-12

    def test_value_at_origin_exact(self):
        assert eval_kernel(3.0, 0.0) == 1.0 + 0.0j
        assert eval_kernel(-0.49, 0.0) == 1.0 + 0.0j

    def test_at_one(self):
        assert eval_kernel(-0.5, 1.0).real == pytest.approx(math.e, abs=1e-12)
        assert eval_kernel(0.5, 1.0).real == pytest.approx(math.e - 1.0, abs=1e-12)

    def test_outside_unit_disk(self):
        # the guarantee rescales: truncation extends until the majorant
        # at |z| meets the tolerance
        assert eval_kernel(-0.5, 2.0, 1e-12).real == pytest.approx(
            math.e ** 2, abs=2e-12)
        assert eval_kernel(-0.5, -3.0, 1e-12).real == pytest.approx(
            math.e ** -3, abs=2e-12)

    def test_outside_unit_disk_table_matches_full_search(self):
        # tables for |z| > 1 grow and resume the scan; the reference
        # rescans every doubled table from n = 1.  Where the reference
        # stops only because the next coefficient underflowed (a zero
        # tail to it), the table has run out and the search refuses
        for nu in (-0.999, -0.49, 0.0, 2.0, 40.0, 1e5):
            for radius in (1.01, 2.0, 7.5, 60.0, 400.0):
                for tol in (1e-6, 1e-12, 1e-300):
                    ref = _full_radius_search(nu, tol, radius)
                    if kernels.coefficient_table(nu, len(ref))[-1] == 0.0:
                        with pytest.raises(ParameterError, match="underflow"):
                            series._truncated_table(nu, tol, 0, radius)
                        continue
                    assert series._truncated_table(nu, tol, 0, radius)[0] == ref

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(nu=st.sampled_from((-0.5, 0.5)),
           radius=st.floats(1.0, 80.0, exclude_min=True),
           tol=st.floats(math.log(1e-15), math.log(0.5)).map(math.exp))
    def test_outside_unit_disk_tail_is_sound(self, nu, radius, tol):
        # the tail returned past radius 1 bounds what the table drops; a
        # table that runs out first is refused
        try:
            vals, tail, _ = series._truncated_table(nu, tol, 0, radius)
        except ParameterError as exc:
            assert "underflow" in str(exc)
            return
        assert tail <= tol
        assert _dropped_tail(nu, radius, len(vals) - 1) <= tail

    @pytest.mark.parametrize("z", (1.5, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0))
    def test_expm1_far_outside_unit_disk(self, z):
        # S_{1/2}(z) = expm1(z)/z: within tol, or refused once Horner's
        # rounding bound exceeds tol/2, which at tol 1e-12 is past |z| = 5
        ref = math.expm1(z) / z
        try:
            got = eval_kernel(0.5, z)
        except ParameterError as exc:
            assert z > 5.0 and str(exc).startswith("S_nu at |z|=")
            return
        assert abs(got.real - ref) <= 1e-12

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(nu=st.one_of(
               st.floats(math.log(1e-3), math.log(1e3)).map(
                   lambda u: math.exp(u) - 0.5),
               st.floats(-1.0, -0.5, exclude_min=True, exclude_max=True)),
           radius=st.floats(0.0, math.log(60.0), exclude_min=True).map(
               math.exp),
           arg=st.floats(-math.pi, math.pi),
           tol=st.floats(math.log(1e-14), math.log(1e-3)).map(math.exp))
    def test_outside_unit_disk_within_tol_or_refused(self, nu, radius, arg,
                                                     tol):
        # nu + 1/2 log-uniform in [1e-3, 1e3] or nu in (-1, -1/2), |z|
        # log-uniform in (1, 60], any arg z: every value returned is within
        # tol of the series summed at 60 digits plus those that cancel
        # against S_nu(|z|)
        z = cmath.rect(radius, arg)
        assume(abs(z) > 1.0)
        try:
            got = eval_kernel(nu, z, tol)
        except ParameterError as exc:
            assert str(exc).startswith("S_nu at |z|=")
            return
        assert abs(got - _mp_kernel(nu, z)) <= tol

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(gap=st.floats(math.log(2.0 ** -53), math.log(0.5)).map(math.exp),
           radius=st.floats(0.0, 1.0),
           arg=st.floats(-math.pi, math.pi),
           tol=st.floats(math.log(1e-14), math.log(1e-3)).map(math.exp))
    def test_inside_unit_disk_within_tol_plus_rounding(self, gap, radius, arg,
                                                       tol):
        # nu = -1 + gap with gap log-uniform in [2^-53, 1/2]: S_nu(|z|) is
        # up to 6e15, so only tol plus Horner's rounding bound
        # gamma_{4m} S_nu(|z|) plus the coefficients' documented relative
        # error 1e-13 (`kernel_coefficient`), at most 1e-13 S_nu(|z|) over
        # positive terms, holds against the series summed at 60 digits
        nu, z = -1.0 + gap, cmath.rect(radius, arg)
        got = eval_kernel(nu, z, tol)
        vals, _, _ = series._cached_table(nu, tol, 0)
        mu = len(vals) * 2.0 ** -53
        s_abs = kernels.horner(vals, abs(z), 0.0)[0] / (1.0 - 2.0 * mu)
        rounding = 4.0 * mu / (1.0 - 4.0 * mu) * s_abs
        coefficients = 1e-13 * s_abs
        assert abs(got - _mp_kernel(nu, z)) <= tol + rounding + coefficients

    def test_inside_unit_disk_rounding_exceeds_tol(self):
        # the example of the docstring and README: 6433586881780770.56 is
        # the true value, off by 4.56 at tol 1e-14
        assert eval_kernel(-0.9999999999999999, 1.0, 1e-14) == 6433586881780766
        assert _mp_kernel(-0.9999999999999999, 1.0) == 6433586881780771

    @pytest.mark.parametrize("nu, z", ((0.5, 150.0), (0.5, 200.0), (0.0, -400.0),
                                       (1.0, 1e300), (1.0, complex(1e308, 1e308))))
    def test_unreachable_radius_is_a_parameter_error(self, nu, z):
        # the coefficients underflow before the tail is negligible, or a
        # term overflows
        with pytest.raises(ParameterError, match=r"S_nu at \|z\|="):
            eval_kernel(nu, z)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eval_kernel(-1.2, 0.5)

    @pytest.mark.parametrize("z", (math.nan, math.inf, -math.inf,
                                   complex(0.3, math.nan), complex(math.inf, 1.0)))
    def test_non_finite_z_rejected(self, z):
        for fn in (eval_kernel, eval_normalized, eval_phi):
            with pytest.raises(ParameterError, match="z must be finite"):
                fn(1.0, z)


class TestNormalizedVariants:
    def test_normalized_at_one(self):
        assert eval_normalized(-0.5, 1.0).real == pytest.approx(math.e, abs=1e-12)

    def test_origin_fixed(self):
        for nu in NU_GRID:
            assert eval_normalized(nu, 0.0) == 0.0 + 0.0j
            assert eval_phi(nu, 0.0) == 0.0 + 0.0j

    def test_variants_sum_to_2z(self, unit_disk_points):
        for nu in (-0.49, 0.5, 2.0):
            for z in unit_disk_points[::7]:
                total = eval_normalized(nu, z) + eval_phi(nu, z)
                assert abs(total - 2.0 * z) <= 1e-12

    def test_derivative_at_origin(self):
        # f'(0) = 1 for both variants, via a tiny central difference
        h = 1e-6
        for nu in (-0.25, 1.0):
            d = (eval_normalized(nu, h) - eval_normalized(nu, -h)) / (2 * h)
            assert d.real == pytest.approx(1.0, abs=1e-9)
            d = (eval_phi(nu, h) - eval_phi(nu, -h)) / (2 * h)
            assert d.real == pytest.approx(1.0, abs=1e-9)


class TestMoments:
    def test_exponential_fixture(self):
        m = moments(-0.5, tol=1e-12)
        e = math.e
        assert m.m0 == pytest.approx(e - 1.0, abs=1e-12)
        assert m.m1 == pytest.approx(2.0 * e - 1.0, abs=1e-12)
        assert m.m2 == pytest.approx(5.0 * e - 1.0, abs=1e-12)
        assert m.m3 == pytest.approx(15.0 * e - 1.0, abs=1e-12)
        for s in (m.s0, m.s1, m.s2, m.s3):
            assert s == pytest.approx(e, abs=1e-12)

    def test_first_derivative_exact_at_half(self):
        # S'(1) = ((z-1)e^z + 1)/z^2 at z = 1
        assert moments(0.5).s1 == pytest.approx(1.0, abs=1e-13)

    def test_identities_on_grid(self):
        # the kernel ODE at z = 1 and the contiguous relation in nu tie
        # s0..s3 to c_1 and to the table of order nu + 1
        for nu in NU_GRID:
            for r in _moment_identity_residuals(nu, 1e-12):
                assert abs(r) <= (2.0 * nu + 2.0) * 1e-11

    def test_contiguous_relation_across_the_c1_switch(self):
        # at nu = 11.5, c_1 comes from lgamma and s0(nu + 1) from a table
        # whose c_1 is the asymptotic series; measured 8.6e-16
        ode2, ode3, contiguous = _moment_identity_residuals(11.5, 1e-12)
        assert abs(contiguous) <= 4e-15

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(nu=st.floats(math.log(0.5), math.log(1e300)).map(
               lambda u: max(math.expm1(u), -0.5)),
           tol=st.floats(math.log(1e-14), math.log(0.5)).map(math.exp))
    def test_reachable_from_minus_half(self, nu, tol):
        # max(s0, m3) <= 15e - 1 < 40 for nu >= -1/2, whose ulp is 7.1e-15
        moments(nu, max(tol, 1e-14))

    def test_all_positive(self):
        for nu in NU_GRID:
            m = moments(nu)
            assert min(m.m0, m.m1, m.m2, m.m3, m.s0, m.s1, m.s2, m.s3) > 0.0

    def test_against_oracle(self):
        for nu in (-0.49, 0.7, 3.0):
            m = moments(nu)
            for sel, val in (("m0", m.m0), ("m1", m.m1), ("m2", m.m2),
                             ("m3", m.m3), ("s0", m.s0), ("s1", m.s1),
                             ("s2", m.s2), ("s3", m.s3)):
                assert val == pytest.approx(float(highprec_sum_oracle(sel, nu)),
                                            abs=1e-11)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            moments(-1.0)

    @pytest.mark.parametrize("nu, tol", ((-0.9908168868332572, 1e-14),
                                         (1.0, 1e-17), (-0.999999, 1e-12),
                                         (-0.9999996799937884,
                                          1.6494056682298896e-13)))
    def test_unreachable_tol_is_a_parameter_error(self, nu, tol):
        # the last case: m3 = 6.9e7, whose ulp is 1.5e-8
        with pytest.raises(ParameterError) as info:
            moments(nu, tol)
        msg = str(info.value)
        assert f"nu={nu!r}" in msg and f"tol={tol!r}" in msg
        assert "ulp" in msg


class TestMomentSums:
    """`series._moment_sums`, the s0..s3 and m0 that `moments` and the
    criteria read."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(nu=st.one_of(st.floats(-0.5, 2.0, exclude_min=True),
                        st.floats(-0.5, 1e3, exclude_min=True)),
           tol=st.floats(-16.0, -6.0).map(lambda e: min(10.0 ** e, 1e-6)))
    def test_sums_equal_moments_and_raise_with_it(self, nu, tol):
        ref = _termwise_moments(nu, tol)
        top = max(ref.s0, ref.s3 + 6.0 * ref.s2 + 7.0 * ref.s1 + ref.m0)
        try:
            m = moments(nu, tol)
        except ParameterError as exc:
            assert math.ulp(top) > tol
            series._cached_table.cache_clear()
            with pytest.raises(ParameterError) as info:
                series._moment_sums(nu, tol)
            assert str(info.value) == str(exc)
            return
        assert math.ulp(top) <= tol
        series._cached_table.cache_clear()
        assert series._moment_sums(nu, tol) == (m.s0, m.s1, m.s2, m.s3)

    @pytest.mark.parametrize("bits", (3, 9, 15, 21, 27))
    def test_exact_floor_test_decides_near_a_binade(self, bits):
        # m3 just below 2^bits with tol = ulp(m3): the cheap bound
        # s3 + 6 s2 + 7 s1 + s0 crosses 2^bits, so only the exact test with
        # m0 can tell that moments resolve this tol and not half of it
        edge = 2.0 ** bits
        tol = math.ulp(edge / 2.0)
        lo, hi = -1.0 + 2.0 ** -40, 1e3
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _termwise_moments(mid, tol).m3 > edge - 0.5:
                lo = mid
            else:
                hi = mid
        nu = hi
        for t, refused in ((tol, False), (0.5 * tol, True)):
            ref = _termwise_moments(nu, t)
            m3 = ref.s3 + 6.0 * ref.s2 + 7.0 * ref.s1 + ref.m0
            top = max(ref.s0, m3)
            bound = ref.s3 + 6.0 * ref.s2 + 7.0 * ref.s1 + ref.s0
            assert math.ulp(bound) > t and (math.ulp(top) > t) == refused
            series._cached_table.cache_clear()
            if refused:
                with pytest.raises(ParameterError) as info:
                    moments(nu, t)
                assert str(info.value) == (
                    f"moments at nu={nu!r} cannot reach tol={t!r}: the "
                    f"largest value {top:.6g} is resolved only to its ulp "
                    f"{math.ulp(top):.3e}")
            else:
                got = moments(nu, t)
                assert (got.m0, got.s0, got.s1, got.s2, got.s3, got.m3) == \
                    (ref.m0, ref.s0, ref.s1, ref.s2, ref.s3, m3)

    def test_exact_floor_test_names_s0_at_large_order(self):
        # at nu = 1e300, S(1) = 1 + 5.6e-151 is the largest value and m0 the
        # tiny rest: the refusal names s0 and its ulp
        with pytest.raises(ParameterError) as info:
            moments(1e300, 1e-16)
        assert str(info.value) == (
            "moments at nu=1e+300 cannot reach tol=1e-16: the largest value "
            "1 is resolved only to its ulp 2.220e-16")

    def test_floor_message_through_critical_nu(self):
        with pytest.raises(ParameterError) as info:
            critical_nu("t", ClassParams(0.5, 0.3), tol=1e-15)
        assert str(info.value) == (
            "moments at nu=0.6 cannot reach tol=1e-15: the largest value "
            "11.7974 is resolved only to its ulp 1.776e-15")

    @pytest.mark.parametrize("nu, message", [
        (-0.5, "criteria and operators require nu > -1/2, got nu=-0.5"),
        (-1.0, "kernel order must satisfy nu > -1, got -1.0"),
        (math.nan, "kernel order must satisfy nu > -1, got nan"),
        (math.inf, "kernel order must satisfy nu > -1, got inf"),
        (-0.7, "criteria and operators require nu > -1/2, got nu=-0.7"),
    ])
    def test_margin_function_domain_errors(self, nu, message):
        margin = margin_function("t", ClassParams(0.5, 0.3))
        with pytest.raises(DomainError) as info:
            margin(nu)
        assert str(info.value) == message

    def test_margin_function_takes_any_real_order(self):
        margin = margin_function("t", ClassParams(0.5, 0.3))
        assert margin(True) == margin(1) == margin(1.0) == -1.411959601998794


_DBL_MIN = 2.2250738585072014e-308


class TestLargeOrderAccuracy:
    """c_1 comes from a stable Gamma ratio and the rest from the exact
    recurrence, so the 1e-13 relative accuracy holds on all of nu > -1."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(nu=st.floats(math.log(1e-15), math.log(1e300)).map(
               lambda u: min(math.expm1(u), 1e300)),
           n=st.integers(2, 200))
    def test_table_entries_match_the_oracle(self, nu, n):
        # nu log-uniform in (-1, 1e300] through nu + 1; c_1 and c_n are
        # checked wherever the oracle value lies in the normal double range
        table = kernels.coefficient_table(nu, n)
        for i in (1, n):
            ref = highprec_sum_oracle("c", nu, n=i)
            if ref < _DBL_MIN:
                continue
            assert abs(table[i] - ref) / ref <= 1e-13, (nu, i)

    @pytest.mark.parametrize("nu", (-0.9999999999999999, -0.999, -0.5, 0.0,
                                    3.7, 11.99, 12.0, 12.01, 20.0, 47.3, 1e3,
                                    1e6, 1e16, 1e100, 1e300))
    def test_c1_within_5e_14(self, nu):
        # both sides of the switch from lgamma to the asymptotic series; at
        # 1e16 (c_1 = 5.6e-9) the lgamma differences gave exactly 1.0
        ref = highprec_sum_oracle("c", nu, n=1)
        assert abs(kernel_coefficient(nu, 1) - ref) / ref <= 5e-14

    def test_s0_at_1e20(self):
        # s0 - 1 is about c_1 = 5.6e-11; the lgamma table gave s0 = 33
        s0 = moments(1e20).s0
        assert s0 - 1.0 == pytest.approx(5.6418958e-11, rel=1e-5)
        assert s0 == pytest.approx(float(highprec_sum_oracle("s0", 1e20)),
                                   abs=1e-15)


class TestWeightedTail:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(c_n=st.floats(math.log(1e-200), 0.0).map(math.exp),
           n=st.integers(0, 10_000),
           q=st.floats(1e-12, 0.875, exclude_max=True),
           power=st.integers(0, 3))
    def test_closed_form_bounds_the_sum(self, c_n, n, q, power):
        # a strict upper bound, and tight to 1e-12
        got = series._weighted_tail(c_n, q, *series._power_weights(n, power))
        ref = mp_weighted_tail(c_n, q, lambda k: (n + k + 1) ** power)
        assert ref <= got <= ref * (1 + 1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(c=st.floats(math.log(1e-200), 0.0).map(math.exp),
           n=st.integers(2, 2_000),
           q=st.floats(0.01, 0.875, exclude_max=True),
           lam=st.floats(0.0, 1.0, exclude_max=True),
           alpha=st.floats(0.0, 1.0, exclude_max=True),
           convex=st.booleans())
    def test_class_weights_bound_the_sum(self, c, n, q, lam, alpha, convex):
        # the T and L weights of the coefficient sums, expanded in k
        p = ClassParams(lam, alpha)
        got = series._weighted_tail(c, q, *operators._tail_weights(p, n, convex))
        ref = mp_weighted_tail(c, q, mp_class_weight(lam, alpha, n, convex))
        assert ref <= got <= ref * (1 + 1e-12)

    def test_no_tail_without_envelope(self):
        assert series._weighted_tail(0.5, 0.0, *series._power_weights(10, 3)) == 0.0
        with pytest.raises(ValueError):
            series._weighted_tail(0.5, 0.5, *series._power_weights(10, 4))

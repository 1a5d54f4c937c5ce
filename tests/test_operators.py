"""Series machinery: convolution, operators, coefficient sums, file I/O."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselstruve import (ClassParams, ConditionForm, DixitPalParams,
                          DomainError, InconclusiveError, NormalizedSeries,
                          Outcome, ParameterError, SeriesFormatError,
                          SignConvention, bessel_struve_transform,
                          coefficient_sequence, coefficient_sum_L,
                          coefficient_sum_T, eval_kernel, hadamard,
                          jnu_condition, kernel_series, phi_series, q_operator,
                          read_series, rtab_extremal_sequence, t_condition,
                          write_series)
from besselstruve import _pykernels as kernels
from besselstruve.operators import MAX_SERIES_INDEX

from conftest import NU_GRID, mp_class_weight, mp_weighted_tail

OPERATOR_GRID = tuple(nu for nu in NU_GRID if nu > -0.5)


def ones_series(n_terms):
    """Truncated z/(1-z): the convolution identity."""
    return NormalizedSeries(tuple(1.0 for _ in range(2, n_terms + 1)))


class TestNormalizedSeries:
    def test_negative_convention_rejects_negative_magnitudes(self):
        NormalizedSeries((0.5, 0.0), SignConvention.NEGATIVE)
        with pytest.raises(ParameterError):
            NormalizedSeries((-0.5,), SignConvention.NEGATIVE)

    def test_signed_values(self):
        f = NormalizedSeries((0.5, 0.25), SignConvention.NEGATIVE)
        assert f.signed() == (-0.5, -0.25)
        g = NormalizedSeries((0.5, -0.25))
        assert g.signed() == (0.5, -0.25)

    def test_origin_normalization(self):
        f = NormalizedSeries((0.3, 0.1))
        assert f.evaluate(0.0) == 0.0
        h = 1e-7
        d = (f.evaluate(h) - f.evaluate(-h)) / (2 * h)
        assert d.real == pytest.approx(1.0, abs=1e-10)

    def test_truncation_index(self):
        assert NormalizedSeries(()).truncation_index == 1
        assert NormalizedSeries((1.0, 2.0, 3.0)).truncation_index == 4

    @pytest.mark.parametrize("kw", [
        dict(coeffs=(0.1, math.nan), tail_bound=math.nan, tail_ratio=0.5),
        dict(coeffs=(0.1, math.nan)),
        dict(coeffs=(math.inf,)),
        dict(coeffs=(-math.inf,), sign=SignConvention.GENERAL),
        dict(coeffs=(0.1,), tail_bound=math.nan),
        dict(coeffs=(0.1,), tail_bound=-1e-3),
    ])
    def test_non_finite_coefficients_and_nan_tail_rejected(self, kw):
        # these were a verdict: the first gave INCONCLUSIVE with value nan
        with pytest.raises(ParameterError):
            NormalizedSeries(**kw)

    def test_infinite_tail_bound_means_no_bound(self):
        f = NormalizedSeries((0.1,), tail_bound=math.inf)
        ws = coefficient_sum_T(f, ClassParams(0.0, 0.0))
        assert ws.tail_bound == math.inf
        assert ws.outcome is Outcome.INCONCLUSIVE


class TestHadamard:
    def test_ones_is_identity(self):
        f = NormalizedSeries((2.0, -0.5, 0.125))
        out = hadamard(f, ones_series(4))
        assert out.coeffs == f.coeffs

    def test_direct_product(self):
        # (z + z^2) * (z + 3 z^2) = z + 3 z^2
        f = NormalizedSeries((1.0,))
        g = NormalizedSeries((3.0,))
        assert hadamard(f, g).coeffs == (3.0,)

    def test_commutative_exact(self):
        f = NormalizedSeries((0.7, -0.3, 0.11))
        g = NormalizedSeries((1.5, 2.0, -4.0))
        assert hadamard(f, g).coeffs == hadamard(g, f).coeffs

    def test_associative_to_rounding(self):
        f = NormalizedSeries((0.7, -0.3, 0.11))
        g = NormalizedSeries((1.5, 2.0, -4.0))
        h = NormalizedSeries((0.2, 0.9, 3.0))
        a = hadamard(hadamard(f, g), h).coeffs
        b = hadamard(f, hadamard(g, h)).coeffs
        for x, y in zip(a, b):
            assert x == pytest.approx(y, rel=1e-14)

    def test_kernel_convolution_closed_form(self):
        # c_{n-1}(-1/2)^2 = 1/((n-1)!)^2
        out = hadamard(kernel_series(-0.5), kernel_series(-0.5))
        for n, a in enumerate(out.coeffs, start=2):
            assert a == pytest.approx(1.0 / math.factorial(n - 1) ** 2,
                                      rel=1e-13)

    def test_truncates_at_shorter_input(self):
        f = NormalizedSeries((1.0, 2.0, 3.0, 4.0))
        g = NormalizedSeries((1.0, 1.0))
        assert hadamard(f, g).truncation_index == 3

    def test_negative_convention_restored(self):
        f = NormalizedSeries((0.5, 0.25), SignConvention.NEGATIVE)
        out = hadamard(kernel_series(0.5), f)
        assert out.sign is SignConvention.NEGATIVE
        assert all(c >= 0.0 for c in out.coeffs)

    def test_tail_bounds_multiply(self):
        f = NormalizedSeries((0.5,), tail_bound=1e-3, tail_ratio=0.5)
        g = NormalizedSeries((0.5,), tail_bound=1e-4, tail_ratio=0.25)
        out = hadamard(f, g)
        assert out.tail_bound == pytest.approx(1e-7, rel=1e-15)
        assert out.tail_ratio == 0.125

    def test_exact_input_of_equal_length_has_no_tail(self):
        # a_n = 0 past N, so the product has no tail even when the other
        # factor's is unbounded (0 * inf was NaN)
        f = NormalizedSeries((0.5, 0.25))
        g = NormalizedSeries((0.5, 0.5), tail_bound=math.inf)
        assert hadamard(f, g).tail_bound == 0.0
        assert hadamard(g, f).tail_bound == 0.0

    def test_longer_exact_input_keeps_the_shorter_tail(self):
        # the kernel series stops at N = 4 with a tail; the extremal series
        # is exact to N = 80, so the product has a tail of its own.  A tail
        # of tail(f)*tail(g) = 0 made this sum HOLDS; at tol 1e-14 the same
        # sum is 0.70164 > 0.7
        d = DixitPalParams(0.7, -0.4, 1.3)
        f = bessel_struve_transform(13.55, rtab_extremal_sequence(d, 80), 1e-3)
        assert f.tail_bound > 0.0 and f.tail_ratio is not None
        p = ClassParams(0.5, 0.3)
        assert coefficient_sum_L(f, p).outcome is not Outcome.HOLDS
        fine = bessel_struve_transform(13.55, rtab_extremal_sequence(d, 80), 1e-14)
        assert coefficient_sum_L(fine, p).outcome is Outcome.FAILS

    @pytest.mark.parametrize("nu, tol", ((0.5, 1e-3), (2.0, 1e-6), (13.55, 1e-3)))
    def test_unequal_truncations_certify_the_product(self, nu, tol):
        # against the product of the extremal series with a long kernel table
        g = rtab_extremal_sequence(DixitPalParams(0.7, -0.4, 1.3), 60)
        c = kernels.coefficient_table(nu, 80)
        true = [c[m - 1] * g.coeffs[m - 2] for m in range(2, 61)]  # m = 2..60
        for f, h in ((kernel_series(nu, tol), g), (g, kernel_series(nu, tol))):
            out = hadamard(f, h)
            n = out.truncation_index
            assert math.fsum(true[n - 1:]) <= out.tail_bound
            for m in range(n, 60):
                assert true[m - 1] <= out.tail_ratio * true[m - 2]

    def test_unequal_truncations_without_envelope(self):
        # an inexact longer input without a ratio, or a stored zero past
        # the shorter truncation, leaves the product without an envelope
        f = NormalizedSeries((0.5,), tail_bound=1e-3, tail_ratio=0.5)
        assert hadamard(f, NormalizedSeries((0.5, 0.25), tail_bound=1e-4)
                        ).tail_ratio is None
        out = hadamard(f, NormalizedSeries((0.5, 0.0, 0.1)))
        assert out.tail_ratio is None
        assert out.tail_bound == pytest.approx(1e-4, rel=1e-15)
        # an exact shorter input makes the product exact
        exact = NormalizedSeries((0.5,))
        assert hadamard(exact, ones_series(9)).tail_bound == 0.0
        assert hadamard(ones_series(9), exact).tail_bound == 0.0


class TestBesselStruveTransform:
    def test_identity_series_gives_kernel(self):
        ks = kernel_series(1.5)
        out = bessel_struve_transform(1.5, ones_series(ks.truncation_index))
        assert out.coeffs == ks.coeffs

    def test_pure_z_passes_through(self):
        out = bessel_struve_transform(2.0, NormalizedSeries(()))
        assert out.coeffs == ()
        assert out.evaluate(0.5) == 0.5

    def test_boundary_limit_coefficients(self):
        # f = z + sum z^n/n convolved near nu = -1/2: a_n -> 1/(n (n-1)!)
        f = NormalizedSeries(tuple(1.0 / n for n in range(2, 20)))
        out = bessel_struve_transform(-0.5 + 1e-9, f)
        for n, a in enumerate(out.coeffs, start=2):
            assert a == pytest.approx(1.0 / (n * math.factorial(n - 1)),
                                      rel=1e-6)

    def test_preserves_normalization_and_positivity(self):
        f = NormalizedSeries(tuple(0.5 ** n for n in range(2, 12)))
        out = bessel_struve_transform(0.7, f)
        assert all(c > 0.0 for c in out.coeffs)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bessel_struve_transform(-0.5, ones_series(5))


class TestQOperator:
    def test_coefficients_and_convention(self):
        q = q_operator(1.0, 12)
        seq = coefficient_sequence(1.0)
        assert q.sign is SignConvention.NEGATIVE
        for n, b in enumerate(q.coeffs, start=2):
            assert n * b == pytest.approx(seq.values[n - 1], rel=1e-15)

    def test_derivative_matches_two_minus_kernel(self):
        # termwise: Q'(z) = 2 - S(z); check at a few points
        nu = 0.8
        q = q_operator(nu, 40)
        h = 1e-6
        for z in (0.3, 0.7 + 0.2j):
            deriv = (q.evaluate(z + h) - q.evaluate(z - h)) / (2 * h)
            assert deriv == pytest.approx(2.0 - eval_kernel(nu, z), abs=1e-8)

    def test_value_at_origin(self):
        assert q_operator(2.0, 10).evaluate(0.0) == 0.0

    def test_boundary_limit(self):
        q = q_operator(-0.5 + 1e-9, 10)
        for n, b in enumerate(q.coeffs, start=2):
            assert b == pytest.approx(1.0 / (n * math.factorial(n - 1)),
                                      rel=1e-6)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            q_operator(-0.5, 10)

    def test_envelope_at_one_is_refused(self):
        # one ulp above nu = -1/2, c_1 rounds to 1.0000000000000004, so the
        # envelope q = c_1 at n_terms = 1 reaches 1
        with pytest.raises(ParameterError, match="before geometric decay"):
            q_operator(-0.49999999999999994, 1)

    @pytest.mark.parametrize("n_terms", (12.5, True, "12", 0, -3))
    def test_n_terms_must_be_a_positive_integer(self, n_terms):
        with pytest.raises(ParameterError, match="n_terms must be"):
            q_operator(1.0, n_terms)

    def test_integral_float_n_terms_accepted(self):
        assert q_operator(1.0, 12.0) == q_operator(1.0, 12)

    def test_tail_bounds_the_dropped_coefficients(self):
        for nu in OPERATOR_GRID:
            for n_terms in (1, 5, 12):
                q = q_operator(nu, n_terms)
                c = kernels.coefficient_table(nu, n_terms + 200)
                rest = math.fsum(c[n - 1] / n
                                 for n in range(n_terms + 1, n_terms + 200))
                assert rest <= q.tail_bound


class TestCoefficientSums:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(c=st.floats(math.log(1e-200), 0.0).map(math.exp),
           n=st.integers(2, 2_000),
           q=st.floats(0.01, 0.875, exclude_max=True),
           lam=st.floats(0.0, 1.0, exclude_max=True),
           alpha=st.floats(0.0, 1.0, exclude_max=True))
    def test_tail_bound_covers_the_envelope_sum(self, c, n, q, lam, alpha):
        # the dropped tail of a series whose last stored coefficient is c,
        # with envelope ratio q: c * sum_{k>=1} w(n+k) q^k, at 60 digits
        f = NormalizedSeries((0.0,) * (n - 2) + (c,), tail_bound=1.0,
                             tail_ratio=q)
        p = ClassParams(lam, alpha)
        for convex, coefficient_sum in ((False, coefficient_sum_T),
                                        (True, coefficient_sum_L)):
            got = coefficient_sum(f, p).tail_bound
            ref = mp_weighted_tail(c, q, mp_class_weight(lam, alpha, n, convex))
            assert ref <= got <= ref * (1 + 1e-12)

    def test_single_term_closed_form(self):
        # f = z - b z^2 at lambda = 0: sum = (2 - alpha) b
        for alpha in (0.0, 0.4):
            p = ClassParams(0.0, alpha)
            b = (1.0 - alpha) / (2.0 - alpha)
            ws = coefficient_sum_T(
                NormalizedSeries((b,), SignConvention.NEGATIVE), p)
            assert ws.value == pytest.approx((2.0 - alpha) * b, rel=1e-15)
            assert ws.outcome is Outcome.HOLDS  # equality counts as holding

    def test_matches_t_condition_shift(self):
        # sum over the kernel series equals lhs - (1 - alpha); the series
        # needs a finer truncation than the default because the comparison
        # weights the dropped tail by n^2
        for nu in OPERATOR_GRID:
            for lam, alpha in ((0.0, 0.0), (0.5, 0.3)):
                p = ClassParams(lam, alpha)
                ws = coefficient_sum_T(kernel_series(nu, 1e-14), p)
                lhs = t_condition(nu, p, ConditionForm.PROOF).lhs
                assert ws.value == pytest.approx(lhs - (1.0 - alpha), abs=1e-10)
                assert abs(ws.value - (lhs - (1.0 - alpha))) <= \
                    ws.tail_bound + 1e-11

    def test_q_operator_n_cancellation(self):
        # sum_L of the integral variant equals sum_T of the kernel series
        for nu in OPERATOR_GRID:
            ks = kernel_series(nu)
            q = q_operator(nu, ks.truncation_index)
            for p in (ClassParams(0.0, 0.0), ClassParams(0.6, 0.2)):
                a = coefficient_sum_L(q, p).value
                b = coefficient_sum_T(ks, p).value
                assert a == pytest.approx(b, abs=1e-12)

    def test_phi_series_sum_equals_kernel_sum(self):
        # the magnitudes are identical, only the signs differ
        p = ClassParams(0.2, 0.1)
        assert coefficient_sum_T(phi_series(1.0), p).value == \
            coefficient_sum_T(kernel_series(1.0), p).value

    def test_inconclusive_when_tail_straddles(self):
        f = NormalizedSeries((0.4,), tail_bound=0.2, tail_ratio=0.5)
        ws = coefficient_sum_T(f, ClassParams(0.0, 0.0))
        assert ws.outcome is Outcome.INCONCLUSIVE
        with pytest.raises(InconclusiveError):
            ws.require_verdict()

    def test_unknown_tail_is_inconclusive_not_wrong(self):
        f = NormalizedSeries((0.1,), tail_bound=0.05)  # no envelope ratio
        ws = coefficient_sum_T(f, ClassParams(0.0, 0.0))
        assert math.isinf(ws.tail_bound)
        assert ws.outcome is Outcome.INCONCLUSIVE

    def test_fails_is_conclusive_despite_tail(self):
        f = NormalizedSeries((2.0,), tail_bound=0.5)
        ws = coefficient_sum_T(f, ClassParams(0.0, 0.0))
        assert ws.outcome is Outcome.FAILS
        assert ws.require_verdict() is False


class TestExtremalSequence:
    def test_envelope_values(self):
        f = rtab_extremal_sequence(DixitPalParams(1.0, -1.0, 1.0), 10)
        for n, a in enumerate(f.coeffs, start=2):
            assert a == 2.0 / n

    def test_degenerate_scale_is_identity(self):
        f = rtab_extremal_sequence(DixitPalParams(1e-9, -1e-9, 1e-8), 10)
        assert max(abs(c) for c in f.coeffs) <= 1e-17
        assert abs(f.evaluate(0.9) - 0.9) <= 1e-15

    @pytest.mark.parametrize("n_terms", (2.5, True, None, 0))
    def test_n_terms_must_be_a_positive_integer(self, n_terms):
        with pytest.raises(ParameterError, match="n_terms must be"):
            rtab_extremal_sequence(DixitPalParams(1.0, -1.0, 1.0), n_terms)

    def test_theorem_chain_matches_condition_lhs(self):
        # the convolution bound evaluated at the extremal envelope equals
        # the closed-form lhs
        for nu, lam, alpha in ((1.0, 0.0, 0.0), (2.0, 0.4, 0.3),
                               (0.6, 0.8, 0.1)):
            d = DixitPalParams(0.7, -0.4, 1.3)
            p = ClassParams(lam, alpha)
            f = rtab_extremal_sequence(d, 80)
            ws = coefficient_sum_L(bessel_struve_transform(nu, f, 1e-15), p)
            lhs = jnu_condition(nu, p, d).lhs
            assert ws.value == pytest.approx(lhs, abs=1e-10)


class TestSeriesFiles:
    def test_round_trip(self, tmp_path):
        f = NormalizedSeries((0.5, 0.0, 0.125), SignConvention.NEGATIVE,
                             tail_bound=1e-9, tail_ratio=0.25)
        path = tmp_path / "series.txt"
        write_series(path, f)
        g = read_series(path)
        assert g == f

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        # the rename onto a directory fails after the temporary file is full
        (tmp_path / "taken").mkdir()
        with pytest.raises(IsADirectoryError):
            write_series(tmp_path / "taken", NormalizedSeries((0.5,)))
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_gap_fills_with_zeros(self, tmp_path):
        path = tmp_path / "gap.txt"
        path.write_text("2 1.5\n5 0.25\n")
        g = read_series(path)
        assert g.coeffs == (1.5, 0.0, 0.0, 0.25)

    def test_rejects_out_of_order_indices(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1.0\n2 1.0\n")
        with pytest.raises(SeriesFormatError):
            read_series(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("2 one\n")
        with pytest.raises(SeriesFormatError):
            read_series(path)
        path.write_text("2 1.0 extra\n")
        with pytest.raises(SeriesFormatError):
            read_series(path)

    @pytest.mark.parametrize("text, line", (
        ("2 0.5\n3 nan\n", 2), ("2 inf\n", 1), ("2 -inf\n", 1),
        ("# tail_bound: nan\n2 0.5\n", 1), ("# tail_bound: tiny\n", 1),
        ("# tail_ratio: half\n", 1)))
    def test_rejects_bad_values_naming_the_line(self, tmp_path, text, line):
        path = tmp_path / "bad3.txt"
        path.write_text(text)
        with pytest.raises(SeriesFormatError, match=f"^{path}:{line}: "):
            read_series(path)

    def test_index_bound(self, tmp_path):
        path = tmp_path / "far.txt"
        path.write_text(f"2 0.5\n{MAX_SERIES_INDEX} 1.0\n")
        g = read_series(path)
        assert len(g.coeffs) == MAX_SERIES_INDEX - 1 and g.coeffs[-1] == 1.0
        path.write_text(f"2 0.5\n{MAX_SERIES_INDEX + 1} 1.0\n")
        with pytest.raises(SeriesFormatError, match=f"^{path}:2: index "):
            read_series(path)

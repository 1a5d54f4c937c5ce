"""Oracle tests: disk sampling, differential residual, 50-digit summation."""

import math
import os
import subprocess
import sys
import threading

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import besselstruve
from besselstruve import (ClassParams, DenominatorDegeneracyError, DiskSampling,
                          DomainError, NormalizedSeries, ParameterError,
                          SignConvention, highprec_sum_oracle, kernel_series,
                          l_condition, min_real_part_L, min_real_part_T,
                          ode_residual, phi_series, ratio_real_part,
                          t_condition)
from besselstruve import _pykernels, verifier
from besselstruve._pykernels import (horner, min_real_ratio_on_circle,
                                     ratio_exceeds_on_circle)
from besselstruve.verifier import (_context, _oracle_coefficient, _oracle_dps,
                                   _ratio_arrays, _round, _suite_sufficiency,
                                   run_suites,
                                   sample_necessity_tuples,
                                   sample_sufficiency_tuples)

from conftest import NU_GRID


def geometric_series(n_terms):
    """Truncated z/(1-z); the tail is ~r^N, negligible at the test radii."""
    return NormalizedSeries(tuple(1.0 for _ in range(2, n_terms + 1)))


class TestDiskSampling:
    def test_validation(self):
        DiskSampling(0.5, 64, 1e-10)
        with pytest.raises(ParameterError):
            DiskSampling(radius=1.0)
        with pytest.raises(ParameterError):
            DiskSampling(num_points=32)
        with pytest.raises(ParameterError):
            DiskSampling(denominator_floor=0.0)

    @pytest.mark.parametrize("kw", (
        {"num_points": 64.5}, {"num_points": 64.0}, {"num_points": True},
        {"num_points": "512"}, {"denominator_floor": math.inf},
        {"denominator_floor": math.nan}))
    def test_rejects_non_integer_points_and_non_finite_floor(self, kw):
        with pytest.raises(ParameterError):
            DiskSampling(0.5, **{"num_points": 64, **kw})

    def test_non_integer_points_rejected_before_the_scan(self):
        # was a bare TypeError from range() inside the half-circle table
        with pytest.raises(ParameterError, match="integer"):
            min_real_part_T(kernel_series(5.0), 0.0, DiskSampling(0.5, 64.5))


class TestMinRealPart:
    def test_identity_function_ratio_is_one(self):
        f = NormalizedSeries(())
        for lam in (0.0, 0.5, 0.9):
            assert min_real_part_T(f, lam, DiskSampling(0.7, 64)) == 1.0
            assert min_real_part_L(f, lam, DiskSampling(0.7, 64)) == 1.0

    def test_geometric_series_classical_minima(self):
        # z/(1-z): T ratio min is 1/(1+r), L ratio min is (1-r)/(1+r)
        f = geometric_series(600)
        for r in (0.3, 0.5, 0.8):
            s = DiskSampling(r, 512)
            assert min_real_part_T(f, 0.0, s) == pytest.approx(
                1.0 / (1.0 + r), abs=1e-10)
            assert min_real_part_L(f, 0.0, s) == pytest.approx(
                (1.0 - r) / (1.0 + r), abs=1e-10)

    def test_sufficient_margin_implies_disk_minimum(self):
        s = DiskSampling(0.99, 512)
        for nu, p in ((5.0, ClassParams(0.0, 0.0)),
                      (12.0, ClassParams(0.5, 0.3)),
                      (20.0, ClassParams(0.2, 0.6))):
            assert t_condition(nu, p).margin > 0.05
            assert min_real_part_T(kernel_series(nu), p.lam, s) > p.alpha
        for nu, p in ((12.0, ClassParams(0.0, 0.0)),
                      (60.0, ClassParams(0.5, 0.3))):
            assert l_condition(nu, p).margin > 0.05
            assert min_real_part_L(kernel_series(nu), p.lam, s) > p.alpha

    def test_denominator_degeneracy_reported_with_point(self):
        # f = z - 2 z^2 vanishes at z = 1/2, which the r = 0.5 circle hits
        f = NormalizedSeries((2.0,), SignConvention.NEGATIVE)
        with pytest.raises(DenominatorDegeneracyError) as exc:
            min_real_part_T(f, 0.0, DiskSampling(0.5, 64))
        assert exc.value.z is not None
        assert abs(exc.value.z - 0.5) < 1e-12


class TestRatioRealPart:
    def test_single_point_closed_form(self):
        f = geometric_series(600)
        for z in (0.3, 0.5 + 0.2j):
            expected = (1.0 / (1.0 - z)).real
            assert ratio_real_part(f, 0.0, z, "T") == pytest.approx(
                expected, abs=1e-10)

    def test_kind_validation(self):
        with pytest.raises(ParameterError):
            ratio_real_part(geometric_series(5), 0.0, 0.1, "X")


class TestRatioFloor:
    """`ratio_real_part` checks ``floor`` as `DiskSampling` does."""

    @pytest.mark.parametrize("floor", [0.0, -0.0, -1.0, math.nan, math.inf])
    def test_bad_floor_refused_like_disk_sampling(self, floor):
        # z = 0 is a zero of the denominator: a floor <= 0 divided by it
        with pytest.raises(ParameterError) as exc:
            ratio_real_part(kernel_series(1.0), 0.0, 0.0, "T", floor=floor)
        with pytest.raises(ParameterError) as ref:
            DiskSampling(denominator_floor=floor)
        assert str(exc.value) == str(ref.value)

    def test_positive_floor_reports_the_degeneracy(self):
        with pytest.raises(DenominatorDegeneracyError):
            ratio_real_part(kernel_series(1.0), 0.0, 0.0, "T", floor=1e-300)

    def test_suite_names_list_the_suites(self):
        assert verifier.SUITE_NAMES == tuple(verifier._SUITES)


class TestOdeResidual:
    def test_vanishing_singular_term_at_boundary(self):
        # 2nu+1 = 0: the residual of e^z reduces to |S'' - S|
        for z in (0.3, -0.8, 0.5 + 0.5j):
            assert ode_residual(-0.5, z) <= 1e-11

    def test_half_order_fixture(self):
        assert ode_residual(0.5, 0.7) <= 1e-11

    def test_grid(self):
        import random
        rng = random.Random(123)
        worst = 0.0
        for nu in NU_GRID:
            if nu < -0.5:
                continue
            for _ in range(100):
                r = rng.uniform(0.0, 1.0)
                th = rng.uniform(0.0, 2 * math.pi)
                z = complex(r * math.cos(th), r * math.sin(th))
                worst = max(worst, ode_residual(nu, z, 1e-12))
        assert worst <= 1e-10

    def test_origin_lowest_order_identity(self):
        for nu in (-0.5, 0.0, 2.0):
            assert ode_residual(nu, 0.0) <= 1e-14

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ode_residual(-0.6, 0.5)


class TestHighPrecOracle:
    def test_c0_exact(self):
        assert abs(highprec_sum_oracle("c", 1.7, n=0) - 1) < mpmath.mpf("1e-45")

    def test_m1_closed_form_thirty_digits(self):
        with mpmath.workdps(50):
            expected = 2 * mpmath.e - 1
            got = highprec_sum_oracle("m1", -0.5)
            assert abs(got - expected) < mpmath.mpf("1e-30")

    def test_t_lhs_agrees_with_fast_path(self):
        v = t_condition(1.0, ClassParams(0.3, 0.2))
        ref = float(highprec_sum_oracle("t_proof", 1.0, lam=0.3, alpha=0.2))
        assert v.lhs == pytest.approx(ref, abs=1e-10)

    def test_all_criteria_lhs_on_grid(self):
        # every closed-form lhs against the termwise oracle, over the
        # standard order grid
        from besselstruve import qnu_condition
        for nu in NU_GRID:
            if nu <= -0.5:
                continue
            for lam, alpha in ((0.0, 0.0), (0.6, 0.3)):
                p = ClassParams(lam, alpha)
                pairs = (
                    ("t_proof", t_condition(nu, p).lhs),
                    ("l", l_condition(nu, p).lhs),
                    ("qnu", qnu_condition(nu, p).lhs),
                )
                for sel, fast in pairs:
                    ref = float(highprec_sum_oracle(sel, nu, lam=lam,
                                                    alpha=alpha))
                    assert fast == pytest.approx(ref, abs=1e-10)

    def test_unknown_selector(self):
        with pytest.raises(ParameterError):
            highprec_sum_oracle("bogus", 1.0)

    def test_starlike_and_convex_selectors(self):
        # named like the moment selectors (s_k, c) but are criterion lhs
        from besselstruve import convex_condition, starlike_condition
        for nu in (0.5, 3.0):
            for alpha in (0.0, 0.4):
                star = highprec_sum_oracle("starlike", nu, lam=0.7, alpha=alpha)
                assert star == highprec_sum_oracle("t_proof", nu, lam=0.0,
                                                   alpha=alpha)
                assert float(star) == pytest.approx(
                    starlike_condition(nu, alpha).lhs, abs=1e-10)
                conv = highprec_sum_oracle("convex", nu, lam=0.7, alpha=alpha)
                assert conv == highprec_sum_oracle("l", nu, lam=0.0, alpha=alpha)
                assert float(conv) == pytest.approx(
                    convex_condition(nu, alpha).lhs, abs=1e-10)

    def test_mpmath_loaded_on_first_oracle_use_only(self):
        code = ("import sys, besselstruve as bs; "
                "assert 'mpmath' not in sys.modules; "
                "bs.highprec_sum_oracle('c', 1.0, n=2); "
                "assert 'mpmath' in sys.modules")
        src = os.path.dirname(os.path.dirname(besselstruve.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestSamplers:
    def test_sufficiency_deterministic(self):
        a = sample_sufficiency_tuples("t", 5, seed=42)
        b = sample_sufficiency_tuples("t", 5, seed=42)
        assert a == b
        c = sample_sufficiency_tuples("t", 5, seed=43)
        assert a != c

    def test_necessity_gates(self):
        from besselstruve import coefficient_sum_T, moments
        for nu, p in sample_necessity_tuples(5, seed=1):
            ws = coefficient_sum_T(phi_series(nu), p)
            assert ws.value >= 1.05 * ws.threshold
            s = moments(nu)
            assert (1.0 - p.lam) * s.m0 + p.lam * s.m1 < 0.95


class TestSuites:
    def test_quick_suites_pass(self):
        results = run_suites(("moments", "ode"), seed=2024)
        assert results and all(r.passed for r in results)

    def test_ode_suite_at_a_sample_next_to_the_origin(self):
        # seed 1097481192 samples |z| = 5.6e-8 at nu = 1, where dividing
        # the rounded S'(z) - S'(0) by z read 1.798e-10 > 1e-10
        results = run_suites(("ode",), seed=1097481192)
        assert all(r.passed for r in results)
        row = next(r for r in results if r.name == "ode residual nu=1.0")
        assert row.detail == "max residual 1.030e-13"

    def test_ode_suite_passes_on_300_seeds(self):
        for seed in range(300):
            for r in run_suites(("ode",), seed=seed):
                assert r.passed, (seed, r)

    def test_seed_changes_not_verdicts(self):
        for seed in (1, 99):
            results = run_suites(("necessity",), seed=seed)
            assert all(r.passed for r in results)

    def test_unknown_suite(self):
        with pytest.raises(ParameterError):
            run_suites(("nope",))


# ---------------------------------------------------------------------------
# The half-circle scan against a plain full-circle scan, and the cached
# oracle against its literal formula.

def _circle_points(radius, n_points):
    """z_j = radius*exp(2*pi*i*j/n_points), j = 0..n_points-1."""
    return [complex(radius * math.cos(2.0 * math.pi * j / n_points),
                    radius * math.sin(2.0 * math.pi * j / n_points))
            for j in range(n_points)]


def _symmetric_points(radius, n_points):
    """The same circle with z_{n-j} replaced by the conjugate of z_j."""
    half = _circle_points(radius, n_points)[: n_points // 2 + 1]
    rest = [z.conjugate() for z in reversed(half[1:(n_points + 1) // 2])]
    return half + rest


def _plain_scan(num, den, points, floor):
    """Reference: Re(num/den) at every point in order, real Horner each."""
    min_re, argmin, min_abs = math.inf, -1, math.inf
    for j, z in enumerate(points):
        nr, ni = horner(num, z.real, z.imag)
        dr, di = horner(den, z.real, z.imag)
        d2 = dr * dr + di * di
        ad = math.sqrt(d2)
        min_abs = min(min_abs, ad)
        if ad < floor:
            return min_re, argmin, j, min_abs
        re = (nr * dr + ni * di) / d2
        if re < min_re:
            min_re, argmin = re, j
    return min_re, argmin, -1, min_abs


class TestCircleScan:
    @pytest.mark.parametrize("kind", ("T", "L"))
    @pytest.mark.parametrize("lam", (0.0, 0.5))
    def test_equals_full_scan_of_conjugate_symmetric_points(self, kind, lam):
        for nu in NU_GRID:
            num, den = _ratio_arrays(kernel_series(nu), lam, kind)
            for radius, n_points in ((0.99, 512), (0.5, 257)):
                got = min_real_ratio_on_circle(num, den, radius, n_points, 1e-12)
                ref = _plain_scan(num, den, _symmetric_points(radius, n_points),
                                  1e-12)
                assert got == ref
                assert 0 <= got[1] <= n_points // 2

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(num=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=30),
           den=st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=30),
           radius=st.floats(0.05, 0.99),
           n_points=st.integers(64, 300),
           floor=st.sampled_from((1e-12, 0.05, 0.3)))
    def test_agrees_with_full_scan_on_random_polynomials(
            self, num, den, radius, n_points, floor):
        # den(z) = z * (1 + sum b_k z^k) with sum |b_k| r^k < 0.9 keeps the
        # ratio well conditioned; larger floors exercise the early stop
        scale = sum(abs(b) * radius ** k for k, b in enumerate(den, start=1))
        den = [0.0, 1.0] + [b * 0.9 / max(scale, 0.9) for b in den]
        got = min_real_ratio_on_circle(num, den, radius, n_points, floor)
        ref = _plain_scan(num, den, _circle_points(radius, n_points), floor)
        assert got[0] == pytest.approx(ref[0], rel=1e-12, abs=1e-12)
        assert got[2] == ref[2]
        assert -1 <= got[1] <= n_points // 2 and got[2] <= n_points // 2

    def test_floor_violation_at_first_point(self):
        # denominator z - 2 z^2 vanishes at z = 0.5 (sample index 0)
        got = min_real_ratio_on_circle([0.0, 1.0, -4.0], [0.0, 1.0, -2.0],
                                       0.5, 64, 1e-12)
        assert got[2] == 0

    def test_shorter_numerator_is_zero_padded(self):
        num, den = [0.0, 1.0], [0.0, 1.0, 0.3, -0.2]
        got = min_real_ratio_on_circle(num, den, 0.9, 128, 1e-12)
        padded = num + [0.0, 0.0]
        assert got == min_real_ratio_on_circle(padded, den, 0.9, 128, 1e-12)
        assert got == _plain_scan(num, den, _symmetric_points(0.9, 128), 1e-12)


# ---------------------------------------------------------------------------
# The sufficiency suite's proof: never True where the scan would fail, and
# the suite's verdicts and details exactly those of the scan alone.

def _reference_disk_checks(seed):
    """The sufficiency suite's t/l loop before the proof: the scan alone."""
    s = DiskSampling(radius=0.99, num_points=512)
    results = []
    for cond, checker in (("t", min_real_part_T), ("l", min_real_part_L)):
        tuples = verifier.sample_sufficiency_tuples(cond, 30, seed)
        failures = []
        for nu, p, _ in tuples:
            m = checker(kernel_series(nu), p.lam, s)
            if m <= p.alpha:
                failures.append((nu, p.lam, p.alpha, m))
        results.append(verifier.CheckResult(
            f"disk minimum exceeds alpha ({cond} condition, 30 tuples)",
            not failures, f"failures: {failures!r}" if failures else
            "min real part > alpha at r=0.99 for all tuples"))
    return results


def _counting_points(monkeypatch):
    """Count `_ratio_point` calls, which both circle primitives make."""
    calls = [0]
    point = _pykernels._ratio_point

    def counted(*args):
        calls[0] += 1
        return point(*args)

    monkeypatch.setattr(_pykernels, "_ratio_point", counted)
    return calls


class TestSufficiencyProof:
    # the strategy of TestCircleScan.test_agrees_with_full_scan_on_random_polynomials
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(num=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=30),
           den=st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=30),
           radius=st.floats(0.05, 0.99),
           n_points=st.integers(64, 300),
           floor=st.sampled_from((1e-12, 0.05, 0.3)),
           delta=st.sampled_from((0.0, 1e-15, 1e-9, 1e-3, 0.1, -0.1)))
    def test_true_only_where_the_scan_passes(self, num, den, radius, n_points,
                                             floor, delta):
        scale = sum(abs(b) * radius ** k for k, b in enumerate(den, start=1))
        den = [0.0, 1.0] + [b * 0.9 / max(scale, 0.9) for b in den]
        min_re, _, violation, min_abs = min_real_ratio_on_circle(
            num, den, radius, n_points, floor)
        alpha = min_re - delta
        if ratio_exceeds_on_circle(num, den, radius, n_points, floor, alpha):
            assert violation == -1 and min_re > alpha
        assert not ratio_exceeds_on_circle(num, den, radius, n_points, floor,
                                           min_re)
        assert not ratio_exceeds_on_circle(num, den, radius, n_points,
                                           min_abs * (1.0 + 1e-9), alpha)

    @pytest.mark.parametrize("kind", ("T", "L"))
    @pytest.mark.parametrize("lam", (0.0, 0.5))
    def test_minimum_at_the_last_sample_is_seen(self, kind, lam):
        # positive kernel coefficients put the minimum at z = -r, the last
        # sample of the half circle
        for nu in (2.0, 10.0, 40.0):
            num, den = _ratio_arrays(kernel_series(nu), lam, kind)
            min_re, argmin, _, min_abs = min_real_ratio_on_circle(
                num, den, 0.99, 512, 1e-12)
            assert argmin == 256
            assert not ratio_exceeds_on_circle(num, den, 0.99, 512, 1e-12, min_re)
            assert not ratio_exceeds_on_circle(num, den, 0.99, 512,
                                               min_abs * (1.0 + 1e-9), 0.0)
            assert ratio_exceeds_on_circle(num, den, 0.99, 512, 1e-12,
                                           min_re - 1e-3)

    def test_refuses_what_the_proof_does_not_cover(self):
        num, den = _ratio_arrays(kernel_series(5.0), 0.0, "T")
        assert ratio_exceeds_on_circle(num, den, 0.5, 64, 1e-12, 0.0)
        for radius in (1.0, 1.5):
            assert not ratio_exceeds_on_circle(num, den, radius, 64, 1e-12, -10.0)
        for bad in (math.nan, math.inf):
            assert not ratio_exceeds_on_circle(num + [bad], den, 0.5, 64, 1e-12,
                                               -10.0)
        assert not ratio_exceeds_on_circle(num, den, 0.5, 64, 1e-12, math.nan)

    def test_suite_equals_the_scan_alone(self):
        for seed in range(40):
            assert _suite_sufficiency(seed)[:2] == _reference_disk_checks(seed)

    def test_failure_details_equal_the_scan_alone(self, monkeypatch):
        sample = verifier.sample_sufficiency_tuples

        def above_the_disk_minimum(cond, count, seed, gate=0.05):
            out = sample(cond, count, seed, gate)
            if cond in ("t", "l"):
                out = [(nu, ClassParams(p.lam, 0.999), d) for nu, p, d in out]
            return out

        monkeypatch.setattr(verifier, "sample_sufficiency_tuples",
                            above_the_disk_minimum)
        got = _suite_sufficiency(2024)[:2]
        assert got == _reference_disk_checks(2024)
        assert all(not r.passed and r.detail.startswith("failures: [")
                   for r in got)

    def test_suite_proves_every_tuple_from_few_samples(self, monkeypatch):
        scans = []
        monkeypatch.setattr(verifier, "_circle_min",
                            lambda *args: scans.append(args))
        calls = _counting_points(monkeypatch)
        for seed in (3, 11, 2024):
            _suite_sufficiency(seed)
        assert scans == []
        # 17 scheduled samples of 257 per tuple, 60 tuples per suite
        assert calls[0] <= 3 * 60 * 20

    def test_suite_proofs_evaluate_at_most_eight_samples(self, monkeypatch):
        # every 64th of 257 samples and the last one are 5; no tuple of
        # these seeds needs more than 3 bisections
        scans = []
        monkeypatch.setattr(verifier, "_circle_min",
                            lambda *args: scans.append(args))
        calls = _counting_points(monkeypatch)
        exceeds = _pykernels.ratio_exceeds_on_circle
        per_tuple = []

        def counted(*args):
            before = calls[0]
            proved = exceeds(*args)
            per_tuple.append(calls[0] - before)
            return proved

        monkeypatch.setattr(_pykernels, "ratio_exceeds_on_circle", counted)
        for seed in (3, 11, 2024):
            _suite_sufficiency(seed)
        assert scans == []
        assert len(per_tuple) == 3 * 60
        assert max(per_tuple) <= 8


def _literal_coefficient(nu, n):
    return (mpmath.gamma(nu + 1) * mpmath.gamma(mpmath.mpf(n + 1) / 2)
            / (mpmath.sqrt(mpmath.pi) * mpmath.factorial(n)
               * mpmath.gamma(mpmath.mpf(n) / 2 + nu + 1)))


class TestOracleCache:
    @pytest.mark.parametrize("dps", (50, 80))
    def test_cached_values_equal_the_literal_formula(self, dps):
        for nu in (-0.45, 0.0, 1.7, 9.3):
            for _ in range(2):  # second pass reads the caches
                with mpmath.workdps(dps):
                    nu_mp = mpmath.mpf(nu)
                    for n in (0, 1, 2, 7, 40):
                        assert (_oracle_coefficient(_context(dps), nu_mp, n)
                                == _literal_coefficient(nu_mp, n))

    def test_precision_change_recomputes(self):
        with mpmath.workdps(50):
            low = _oracle_coefficient(_context(50), mpmath.mpf(2.5), 3)
        with mpmath.workdps(80):
            high = _oracle_coefficient(_context(80), mpmath.mpf(2.5), 3)
            assert high == _literal_coefficient(mpmath.mpf(2.5), 3)
        assert high != low

    def test_concurrent_calls_give_the_single_threaded_values(self):
        # concurrent calls share the contexts and the stored factors and
        # coefficients, so each value stored must be the one a lone call forms
        from besselstruve import verifier
        orders = [0.1 + k / 7 for k in range(30)]
        got = {}

        def work(nu, slot):
            got[nu, slot] = highprec_sum_oracle("s1", nu)

        prec, interval = mpmath.mp.prec, sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for nu in orders:
                threads = [threading.Thread(target=work, args=(nu, slot))
                           for slot in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert mpmath.mp.prec == prec
        verifier._order_store.cache_clear()
        verifier._index_factors.cache_clear()
        for nu in orders:
            want = highprec_sum_oracle("s1", nu)
            assert [got[nu, slot] for slot in range(4)] == [want] * 4, nu

    def test_other_threads_keep_their_own_precision(self):
        # the oracle computes in its own mpmath context, so a thread using
        # mpmath beside it never sees the oracle's 169 bits
        prec, interval = mpmath.mp.prec, sys.getswitchinterval()
        third = mpmath.mpf(1) / 3
        seen = set()
        done = threading.Event()

        def spin():
            while True:
                seen.add((mpmath.mp.prec, mpmath.mpf(1) / 3))
                if done.is_set():
                    return

        spinner = threading.Thread(target=spin)
        sys.setswitchinterval(1e-6)
        try:
            spinner.start()
            got = [highprec_sum_oracle("l", 0.3 + k / 7, lam=0.3, alpha=0.2)
                   for k in range(20)]
        finally:
            done.set()
            spinner.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not spinner.is_alive()
        assert seen == {(prec, third)}
        assert type(got[0]) is mpmath.mpf
        for dps in (15, 120):
            with mpmath.workdps(dps):
                assert highprec_sum_oracle("l", 0.3, lam=0.3,
                                           alpha=0.2) == got[0]

    @pytest.mark.parametrize("selector, nu, n, lam, alpha, digits", [
        ("t_proof", 1.5, None, 0.3, 0.2,
         "2.3226474650282261039209232859607856314285139779463"),
        ("t_stated", -0.25, None, 0.6, 0.1,
         "4.7580668974353457330467914492014886941427393475211"),
        ("qnu", 7.0, None, 0.5, 0.5,
         "1.1536537224205051605155746651536085214654835349471"),
        ("c", 2.0, 9, 0.0, 0.0,
         "0.000000039881405515438124443491295519455732079816782580105"),
    ])
    def test_oracle_values_pinned_to_fifty_digits(self, selector, nu, n, lam,
                                                  alpha, digits):
        # written before the Gamma factors were cached
        got = highprec_sum_oracle(selector, nu, n=n, lam=lam, alpha=alpha)
        assert mpmath.nstr(got, 50) == digits


# ---------------------------------------------------------------------------
# The raw-mpf oracle against the termwise mpf expressions it replaced, its
# input checks, its precision at huge orders, and a closed form.

def _reference_sum(termfn, start):
    """The termwise mpf summation loop, kept as the bit-identity reference."""
    small_term, small_rem = mpmath.mpf("1e-40"), mpmath.mpf("1e-30")
    total = mpmath.mpf(0)
    prev = None
    n = start
    while True:
        term = termfn(n)
        total += term
        if prev is not None and n - start > 8 and term < small_term:
            r = term / prev
            if r < 1:
                rem = term * r / (1 - r)
                if rem < small_rem:
                    return total
        if n - start > 100_000:
            raise RuntimeError("oracle summation failed to converge")
        prev = term
        n += 1


def _reference_oracle(selector, nu, n=None, lam=0.0, alpha=0.0, a=1.0, b=-1.0,
                      tau_abs=1.0, dps=50):
    """Every selector as a termwise mpf expression at ``dps`` digits."""
    with mpmath.workdps(dps):
        nu_mp = mpmath.mpf(nu)
        lam_mp = mpmath.mpf(lam)
        alpha_mp = mpmath.mpf(alpha)
        c = lambda k: _oracle_coefficient(_context(dps), nu_mp, k)
        if selector == "c":
            return c(n)
        if selector in ("m0", "m1", "m2", "m3"):
            k = int(selector[1])
            return _reference_sum(lambda i: mpmath.mpf(i) ** k * c(i - 1), 2)
        if selector in ("s0", "s1", "s2", "s3"):
            k = int(selector[1])
            return _reference_sum(lambda i: mpmath.ff(i, k) * c(i), k)
        if selector in ("t_proof", "starlike"):
            if selector == "starlike":
                lam_mp = mpmath.mpf(0)
            w = lambda i: (i * lam_mp - lam_mp + 1) * (i - alpha_mp) * c(i - 1)
            return _reference_sum(w, 2) + (1 - alpha_mp)
        if selector == "t_stated":
            s0 = _reference_sum(lambda i: c(i), 0)
            s1 = _reference_sum(lambda i: i * c(i), 1)
            s2 = _reference_sum(lambda i: i * (i - 1) * c(i), 2)
            return (lam_mp * s2 + (1 - lam_mp * alpha_mp) * s1
                    + (1 - alpha_mp) * s0)
        if selector in ("l", "convex"):
            if selector == "convex":
                lam_mp = mpmath.mpf(0)
            w = lambda i: i * (i * lam_mp - lam_mp + 1) * (i - alpha_mp) * c(i - 1)
            return _reference_sum(w, 2) + (1 - alpha_mp)
        if selector == "jnu":
            scale = (mpmath.mpf(a) - mpmath.mpf(b)) * mpmath.mpf(tau_abs)
            w = lambda i: (i * (i * lam_mp - lam_mp + 1) * (i - alpha_mp)
                           * (c(i - 1) * scale / i))
            return _reference_sum(w, 2)
        w = lambda i: (i * (i * lam_mp - lam_mp + 1) * (i - alpha_mp)
                       * (c(i - 1) / i))
        return _reference_sum(w, 2) + (1 - alpha_mp)


# Below 2**-22 (for both lam and alpha) the termwise product of the two
# weight factors no longer fits 169 bits and is rounded, while the oracle
# keeps the weight exact; see the `highprec_sum_oracle` docstring.
_WEIGHT_PARAM = st.one_of(st.just(0.0),
                          st.floats(2.0 ** -22, 0.95, exclude_max=True))


class TestRawOracle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(nu=st.floats(-0.45, 40.0), lam=_WEIGHT_PARAM, alpha=_WEIGHT_PARAM,
           b=st.floats(-1.0, 0.9), gap=st.floats(0.05, 1.0),
           tau_abs=st.floats(0.1, 1.0), n=st.integers(0, 60))
    def test_bit_identical_to_termwise_mpf(self, nu, lam, alpha, b, gap,
                                           tau_abs, n):
        from besselstruve.verifier import SELECTORS
        kw = dict(lam=lam, alpha=alpha, a=b + gap, b=b, tau_abs=tau_abs)
        for sel in SELECTORS:
            index = n if sel == "c" else None
            got = highprec_sum_oracle(sel, nu, n=index, **kw)
            assert got == _reference_oracle(sel, nu, n=index, **kw), sel

    @pytest.mark.parametrize("nu", (3e30, 1e52, 1e300))
    def test_bit_identical_past_fifty_digits(self, nu):
        # past nu = 1e30 the oracle works at more than 50 digits
        from besselstruve.verifier import SELECTORS
        dps = _oracle_dps(nu)
        assert dps > 50
        kw = dict(lam=0.3, alpha=0.2, a=0.7, b=-0.6, tau_abs=0.85)
        for sel in SELECTORS[1:]:
            got = highprec_sum_oracle(sel, nu, **kw)
            assert got == _reference_oracle(sel, nu, dps=dps, **kw), sel

    def test_warm_call_makes_almost_no_mpf_operations(self, monkeypatch):
        highprec_sum_oracle("l", 3.0, lam=0.3, alpha=0.2)
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
                     "__neg__", "__lt__", "__le__", "__gt__", "__ge__"):
            original = getattr(mpmath.mpf, name)

            def counted(*args, _original=original):
                calls.append(1)
                return _original(*args)

            monkeypatch.setattr(mpmath.mpf, name, counted)
        highprec_sum_oracle("l", 3.0, lam=0.3, alpha=0.2)
        assert len(calls) <= 10

    @pytest.mark.parametrize("nu, n, error", [
        (-1.0, 1, DomainError),
        (math.nan, 1, DomainError),
        (1.0, -1, ParameterError),
        (1.0, 1.5, ParameterError),
        (1.0, True, ParameterError),
    ])
    def test_invalid_order_or_index_rejected(self, nu, n, error):
        with pytest.raises(error):
            highprec_sum_oracle("c", nu, n=n)

    @pytest.mark.parametrize("selector, kw", [
        ("t_proof", dict(lam=math.nan)),
        ("l", dict(alpha=math.inf)),
        ("jnu", dict(tau_abs=math.nan)),
    ])
    def test_non_finite_weight_parameters_rejected(self, selector, kw):
        # a NaN term never falls below the stopping threshold
        with pytest.raises(ParameterError):
            highprec_sum_oracle(selector, 2.0, **kw)

    @pytest.mark.parametrize("nu", (1e52, 1e100, 1e300))
    def test_first_coefficient_at_huge_orders(self, nu):
        # Gamma(nu+1)/(sqrt(pi) Gamma(nu+3/2)) ~ (1 - 3/(8nu) + 25/(128nu^2))
        # / sqrt(pi nu) (DLMF 5.11.13); the next term is O(nu^-3.5)
        got = highprec_sum_oracle("c", nu, n=1)
        with mpmath.workdps(400):
            x = mpmath.mpf(nu)
            ref = ((1 - mpmath.mpf(3) / (8 * x) + mpmath.mpf(25) / (128 * x ** 2))
                   / mpmath.sqrt(mpmath.pi * x))
            assert abs(got / ref - 1) <= mpmath.mpf("1e-45")

    @pytest.mark.parametrize("nu", (-0.49, 0.0, 0.5, 2.0, 10.0, 40.0))
    def test_s0_equals_bessel_struve_closed_form(self, nu):
        # S_nu(1) = Gamma(nu+1) 2^nu (I_nu(1) + L_nu(1)) (DLMF 10.25.2,
        # 11.2.2), through mpmath's own Bessel and Struve functions
        got = highprec_sum_oracle("s0", nu)
        with mpmath.workdps(60):
            x = mpmath.mpf(nu)
            ref = (mpmath.gamma(x + 1) * mpmath.power(2, x)
                   * (mpmath.besseli(x, 1) + mpmath.struvel(x, 1)))
            assert abs(got / ref - 1) <= mpmath.mpf("1e-40")

    @pytest.mark.parametrize("nu", (-0.49, 0.0, 0.7, 3.0, 11.5, 40.0, 1e3))
    def test_s1_to_s3_satisfy_the_ode_and_contiguous_relation(self, nu):
        # s2 = s0 - (2nu+1)(s1 - c1), s3 = s1 - (2nu+1)(s2 - s1 + c1) (the
        # kernel ODE at z = 1) and s1(nu) = s0(nu+1)/(2(nu+1)) + c1(nu)
        # (DLMF 10.29, 11.4); the largest residual measured is 9.6e-40
        s0, s1, s2, s3 = (highprec_sum_oracle(f"s{k}", nu) for k in range(4))
        c1 = highprec_sum_oracle("c", nu, n=1)
        up = highprec_sum_oracle("s0", nu + 1.0)
        with mpmath.workdps(50):
            k = 2 * mpmath.mpf(nu) + 1
            residuals = (s2 - s0 + k * (s1 - c1),
                         s3 - s1 + k * (s2 - s1 + c1),
                         s1 - up / (k + 1) - c1)
            bound = (2 * mpmath.mpf(nu) + 2) * mpmath.mpf("1e-40")
            assert max(abs(r) for r in residuals) <= bound


# ---------------------------------------------------------------------------
# The integer rounding of the oracle sums against mpmath's own.

@st.composite
def _rounding_cases(draw):
    """(man, prec): a random signed mantissa, an exact tie between two
    quotients (odd or even), or a carry that adds a bit."""
    prec = draw(st.sampled_from((169, 1063)))
    drop = draw(st.integers(1, 400))
    kind = draw(st.sampled_from(("random", "tie", "carry")))
    if kind == "random":
        man = draw(st.integers(0, 1 << (prec + drop)))
    elif kind == "tie":
        q = draw(st.integers(1 << (prec - 1), (1 << prec) - 1))
        man = (q << drop) | (1 << (drop - 1))
    else:
        # all prec quotient bits set: a round bit carries into a new one
        low = draw(st.integers(1 << (drop - 1), (1 << drop) - 1))
        man = (((1 << prec) - 1) << drop) | low
    return (-man if draw(st.booleans()) else man), prec


class TestIntegerRounding:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=_rounding_cases(), exp=st.integers(-2000, 2000))
    def test_equals_mpmath_normalize(self, case, exp):
        from mpmath.libmp import from_man_exp, normalize
        man, prec = case
        got_man, got_exp = _round(man, exp, prec)
        assert abs(got_man) <= 1 << prec
        mag = abs(man)
        want = normalize(int(man < 0), mag, exp, mag.bit_length(), prec, "n")
        assert from_man_exp(got_man, got_exp) == want

    def test_ties_go_to_the_even_quotient_and_carry(self):
        assert _round(0b1011, 0, 3) == (0b110, 1)   # 101.1 -> 110
        assert _round(0b1001, 0, 3) == (0b100, 1)   # 100.1 -> 100
        assert _round(-0b1011, 0, 3) == (-0b110, 1)
        assert _round(0b1111, 5, 3) == (0b1000, 6)  # 111.1 -> 1000
        assert _round(0b101, 7, 3) == (0b101, 7)
        assert _round(0, 7, 3) == (0, 7)

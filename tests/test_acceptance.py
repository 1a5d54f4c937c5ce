"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with `pytest -s`) before
asserting, so a full run doubles as a checklist.  Golden value used below:
the starlike boundary order at alpha = 0 is 2.038180705161871804536...
(50-digit oracle bisection).
"""

import cmath
import math
import random

import pytest

from besselstruve import (ClassParams, ConditionForm, DiskSampling,
                          DixitPalParams, bessel_struve_transform,
                          coefficient_sum_L, coefficient_sum_T, critical_nu,
                          eval_kernel, highprec_sum_oracle, jnu_condition,
                          kernel_series, l_condition, min_real_part_L,
                          min_real_part_T, moments, ode_residual, Outcome,
                          phi_series, q_operator, qnu_condition, ratio_real_part,
                          rtab_extremal_sequence, starlike_condition,
                          t_condition)
from besselstruve.cli import main as cli_main
from besselstruve.verifier import (NECESSITY_RADII, _moment_identity_residuals,
                                   sample_necessity_tuples,
                                   sample_sufficiency_tuples)

from conftest import NU_GRID, disk_points

GOLDEN_STARLIKE_NU = 2.0381807051618718
SEED = 20240811


def report(criterion, passed, detail):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_closed_form_specializations(unit_disk_points):
    err_exp = max(abs(eval_kernel(-0.5, z) - cmath.exp(z))
                  for z in unit_disk_points)
    err_expm1 = max(abs(eval_kernel(0.5, z)
                        - ((cmath.exp(z) - 1.0) / z if z != 0 else 1.0))
                    for z in unit_disk_points)
    worst = max(err_exp, err_expm1)
    report(1, worst <= 1e-12,
           f"closed-form specializations over {len(unit_disk_points)} disk "
           f"points: max |error| = {worst:.3e} (tol 1e-12)")


def test_criterion_2_moment_identities():
    e = math.e
    # the kernel ODE at z = 1 and the contiguous relation, relative to
    # their (2nu+2)*10*tol bound
    worst_id = max(abs(r) / ((2.0 * nu + 2.0) * 1e-11) for nu in NU_GRID
                   for r in _moment_identity_residuals(nu, 1e-12))
    m = moments(-0.5, 1e-12)
    worst_fix = max(abs(m.m0 - (e - 1.0)), abs(m.m1 - (2.0 * e - 1.0)),
                    abs(m.m2 - (5.0 * e - 1.0)), abs(m.m3 - (15.0 * e - 1.0)))
    ok = worst_id <= 1.0 and worst_fix <= 1e-12
    report(2, ok, f"moment identities: max residual {worst_id:.3e} of its "
                  f"(2nu+2)*10*tol bound on the order grid; exponential "
                  f"fixture max error {worst_fix:.3e} (tol 1e-12)")


def test_criterion_3_oracle_cross_check():
    rng = random.Random(SEED)
    worst_oracle = 0.0
    worst_ident = 0.0
    for _ in range(100):
        nu = rng.uniform(-0.45, 10.0)
        lam = rng.uniform(0.0, 0.95)
        alpha = rng.uniform(0.0, 0.95)
        p = ClassParams(lam, alpha)
        b = rng.uniform(-1.0, 0.9)
        d = DixitPalParams(rng.uniform(b + 0.05, 1.0), b, rng.uniform(0.1, 2.0))
        t_proof = t_condition(nu, p, ConditionForm.PROOF).lhs
        values = (
            ("t_proof", t_proof, {}),
            ("t_stated", t_condition(nu, p, ConditionForm.STATED).lhs, {}),
            ("l", l_condition(nu, p).lhs, {}),
            ("qnu", qnu_condition(nu, p).lhs, {}),
            ("jnu", jnu_condition(nu, p, d).lhs,
             {"a": d.a, "b": d.b, "tau_abs": d.tau_abs}),
        )
        for sel, fast, extra in values:
            ref = float(highprec_sum_oracle(sel, nu, lam=lam, alpha=alpha,
                                            **extra))
            worst_oracle = max(worst_oracle, abs(fast - ref))
        worst_ident = max(worst_ident,
                          abs(qnu_condition(nu, p).lhs - t_proof))
    ok = worst_oracle <= 1e-10 and worst_ident <= 1e-12
    report(3, ok, f"100 random tuples: max |lhs - oracle| = "
                  f"{worst_oracle:.3e} (tol 1e-10); max |qnu - t_proof| = "
                  f"{worst_ident:.3e} (tol 1e-12)")


def test_criterion_4_form_adjudication():
    grid = [(lam, alpha) for lam in (0.1, 0.3, 0.5, 0.7, 0.9)
            for alpha in (0.0, 0.25, 0.5, 0.75)]
    assert len(grid) == 20
    strict_ok = True
    for lam, alpha in grid:
        p = ClassParams(lam, alpha)
        proof = t_condition(2.0, p, ConditionForm.PROOF).lhs
        stated = t_condition(2.0, p, ConditionForm.STATED).lhs
        strict_ok = strict_ok and stated < proof
    coincide_ok = True
    for nu in (0.5, 2.0, 8.0):
        for alpha in (0.0, 0.5):
            p0 = ClassParams(0.0, alpha)
            proof = t_condition(nu, p0, ConditionForm.PROOF)
            stated = t_condition(nu, p0, ConditionForm.STATED)
            named = starlike_condition(nu, alpha)
            s = moments(nu)
            expected = s.s1 + (1.0 - alpha) * s.s0
            coincide_ok = coincide_ok and proof.lhs == stated.lhs == \
                named.lhs and abs(proof.lhs - expected) <= 1e-13
    report(4, strict_ok and coincide_ok,
           "stated < proof form strictly on the 20-point lambda > 0 grid; "
           "both coincide with the lambda = 0 starlikeness test")


def test_criterion_5_sufficiency_oracles():
    s = DiskSampling(radius=0.99, num_points=512)
    failures = []
    for nu, p, _ in sample_sufficiency_tuples("t", 30, SEED):
        if min_real_part_T(kernel_series(nu), p.lam, s) <= p.alpha:
            failures.append(("t", nu, p.lam, p.alpha))
    for nu, p, _ in sample_sufficiency_tuples("l", 30, SEED):
        if min_real_part_L(kernel_series(nu), p.lam, s) <= p.alpha:
            failures.append(("l", nu, p.lam, p.alpha))
    for nu, p, d in sample_sufficiency_tuples("jnu", 30, SEED):
        ws = coefficient_sum_L(
            bessel_struve_transform(nu, rtab_extremal_sequence(d, 80)), p)
        if ws.outcome is not Outcome.HOLDS:
            failures.append(("jnu", nu, p.lam, p.alpha))
    for nu, p, _ in sample_sufficiency_tuples("qnu", 30, SEED):
        ws = coefficient_sum_L(q_operator(nu, 80), p)
        if ws.outcome is not Outcome.HOLDS:
            failures.append(("qnu", nu, p.lam, p.alpha))
    report(5, not failures,
           f"30 margin-gated tuples per condition: disk minima exceed alpha "
           f"at r=0.99/512 points and operator sums stay below threshold"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_6_necessity_on_negative_coefficients():
    tuples = sample_necessity_tuples(10, SEED)
    failures = []
    for nu, p in tuples:
        f = phi_series(nu)
        drops = [ratio_real_part(f, p.lam, r, "T") for r in NECESSITY_RADII]
        if min(drops) >= p.alpha:
            failures.append((nu, p.lam, p.alpha, drops))
    report(6, not failures,
           "10 tuples with >= 5% threshold excess: the real-axis ratio drops "
           "below alpha at one of z in {0.9, 0.99, 0.999, 0.9999}"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_7_ode_residual():
    pts = disk_points(5, 8)
    worst = 0.0
    for nu in (-0.5,) + NU_GRID:
        if nu < -0.5:
            continue
        for z in pts:
            worst = max(worst, ode_residual(nu, z, tol=1e-12))
        worst = max(worst, ode_residual(nu, 0.0, tol=1e-12))
    report(7, worst <= 1e-10,
           f"differential residual over the order/point grid: max "
           f"{worst:.3e} (tol 1e-10, series tol 1e-12)")


def test_criterion_8_bisection(tmp_path):
    p = ClassParams(0.0, 0.0)
    nu_star = critical_nu("starlike", p, bracket=(0.6, 20.0),
                          margin_tol=1e-10, nu_tol=1e-12)
    margin = starlike_condition(nu_star, 0.0).margin
    golden_ok = abs(nu_star - GOLDEN_STARLIKE_NU) <= 1e-8
    margin_ok = abs(margin) <= 1e-10

    out = tmp_path / "flip.csv"
    code = cli_main(["scan", "starlike", "--nu", "0.6:20:50", "--alpha", "0",
                     "--output", str(out)])
    holds = [line.rsplit(",", 1)[1]
             for line in out.read_text().splitlines()[1:]]
    flips = sum(1 for a, b in zip(holds, holds[1:]) if a != b)
    ok = golden_ok and margin_ok and code == 0 and flips == 1
    report(8, ok, f"bisection: nu* = {nu_star!r} (golden "
                  f"{GOLDEN_STARLIKE_NU}, diff {abs(nu_star - GOLDEN_STARLIKE_NU):.2e}, "
                  f"tol 1e-8), |margin| = {abs(margin):.2e} (tol 1e-10); "
                  f"scan verdict flips exactly once ({flips})")


def test_criterion_9_cli_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scan", "t", "--nu", "0.5:12:6", "--lambda", "0:0.8:3",
            "--alpha", "0:0.6:3"]
    assert cli_main(args + ["--output", str(a)]) == 0
    assert cli_main(args + ["--output", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()

    rows = [line.split(",") for line in a.read_text().splitlines()[1:]]
    replay_ok = True
    import io
    from contextlib import redirect_stdout
    for cond, form, nu, lam, alpha, lhs, rhs, margin, holds in rows:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["check", cond, "--nu", nu, "--lambda", lam,
                             "--alpha", alpha, "--form", form])
        out = buf.getvalue()
        replay_ok = replay_ok and (code == 0) == (holds == "true") \
            and f"lhs       = {lhs}\n" in out \
            and f"rhs       = {rhs}\n" in out \
            and f"margin    = {margin}\n" in out
    report(9, identical and replay_ok,
           f"identical scans byte-identical: {identical}; all {len(rows)} "
           f"rows replay exactly through check: {replay_ok}")

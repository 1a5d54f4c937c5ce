"""The three benchmark workloads: seeded operations and their correctness gates.

Each workload yields an endless, seed-determined sequence of operations.
An operation is one call into the package's public API (``cli.main``,
``critical_nu`` or ``run_suites``); ``run`` is the timed call and ``check``
judges its output afterwards, outside the timed region.  ``items`` is the
unit of work the throughput metric counts.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from pathlib import Path

import besselstruve as bs
from besselstruve import cli
from besselstruve.verifier import SUITE_NAMES

ORACLE_TOL = 1e-10      # absolute agreement with the 50-digit oracle
MARGIN_TOL = 1e-10      # critical_nu's default margin tolerance
HEADER = "condition,form,nu,lambda,alpha,lhs,rhs,margin,holds"

# starlike is t at lambda = 0.  The oracle's own "starlike" selector is not
# used: highprec_sum_oracle routes it to the s_k moment branch (it starts
# with "s") and raises ValueError.
_ORACLE = {("t", "proof"): "t_proof", ("t", "stated"): "t_stated",
           ("l", "proof"): "l", ("starlike", "proof"): "t_proof",
           ("convex", "proof"): "convex", ("jnu", "proof"): "jnu",
           ("qnu", "proof"): "qnu"}


def _rhs(condition: str, alpha: float) -> float:
    return 1.0 - alpha if condition == "jnu" else 2.0 * (1.0 - alpha)


def _oracle_margin(condition, form, nu, lam, alpha, dp) -> float:
    extra = {} if dp is None else {"a": dp.a, "b": dp.b, "tau_abs": dp.tau_abs}
    lhs = bs.highprec_sum_oracle(_ORACLE[condition, form], nu, lam=lam,
                                 alpha=alpha, **extra)
    return _rhs(condition, alpha) - float(lhs)


def _margin(condition, nu, p, dp, tol=1e-12) -> float:
    if condition == "t":
        return bs.t_condition(nu, p, bs.ConditionForm.PROOF, tol).margin
    if condition == "l":
        return bs.l_condition(nu, p, tol).margin
    if condition == "starlike":
        return bs.starlike_condition(nu, p.alpha, tol).margin
    if condition == "convex":
        return bs.convex_condition(nu, p.alpha, tol).margin
    if condition == "jnu":
        return bs.jnu_condition(nu, p, dp, tol).margin
    return bs.qnu_condition(nu, p, tol).margin


def _dixit_pal(rng) -> bs.DixitPalParams:
    b = rng.uniform(-1.0, 0.5)
    return bs.DixitPalParams(rng.uniform(b + 0.1, 1.0), b, rng.uniform(0.1, 1.0))


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    """The CLI's documented 'lo:hi:steps' grid."""
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


# ----------------------------------------------------------------- region_scan

class ScanOp:
    """One ``scan`` call over a 4 x 20 x 20 (nu, lambda, alpha) slab."""

    STEPS = (4, 20, 20)

    def __init__(self, condition, form, nu, lam, alpha, dp, output, rng):
        self.condition, self.form, self.dp = condition, form, dp
        self.output = output
        self.grids = [_grid(lo, hi, n) for (lo, hi), n in
                      zip((nu, lam, alpha), self.STEPS)]
        self.items = math.prod(self.STEPS)
        self.samples = rng.sample(range(self.items), 2)
        self.argv = ["scan", condition, "--form", form, "--output", str(output)]
        for flag, (lo, hi), n in zip(("--nu", "--lambda", "--alpha"),
                                     (nu, lam, alpha), self.STEPS):
            self.argv.append(f"{flag}={lo!r}:{hi!r}:{n}")
        if dp is not None:
            self.argv += [f"--A={dp.a!r}", f"--B={dp.b!r}",
                          f"--tau-abs={dp.tau_abs!r}"]

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        return code, out.getvalue()

    def check(self, result, stats) -> bool:
        code, printed = result
        if code != 0 or printed != f"wrote {self.items} rows to {self.output}\n":
            return False
        data = Path(self.output).read_bytes()
        stats["cli_bytes_written"] += len(data) + len(printed.encode())
        lines = data.decode("utf-8").split("\n")
        if lines[0] != HEADER or lines[-1] != "" or len(lines) != self.items + 2:
            return False
        return all(self._check_row(k, lines[k + 1]) for k in self.samples)

    def _check_row(self, k: int, line: str) -> bool:
        fields = line.split(",")
        if len(fields) != 9 or fields[:2] != [self.condition, self.form]:
            return False
        nu, lam, alpha, lhs, rhs, margin = map(float, fields[2:8])
        n_lam, n_alpha = self.STEPS[1], self.STEPS[2]
        point = (self.grids[0][k // (n_lam * n_alpha)],
                 self.grids[1][k // n_alpha % n_lam], self.grids[2][k % n_alpha])
        if (nu, lam, alpha) != point or rhs != _rhs(self.condition, alpha):
            return False
        if margin != rhs - lhs or fields[8] != str(margin >= 0.0).lower():
            return False
        ref = _oracle_margin(self.condition, self.form, nu, lam, alpha, self.dp)
        return abs(margin - ref) <= ORACLE_TOL

    def same_again(self, result) -> bool:
        """A repeated scan writes identical bytes."""
        first = Path(self.output).read_bytes()
        again = Path(self.output).with_suffix(".again.csv")
        argv = list(self.argv)
        argv[argv.index("--output") + 1] = str(again)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code == 0 and again.read_bytes() == first


def region_scan(seed: int, scratch: Path):
    """Cycles t (proof and stated forms), l, qnu and jnu scans."""
    rng = random.Random(f"region_scan:{seed}")
    cases = (("t", "proof"), ("t", "stated"), ("l", "proof"), ("qnu", "proof"),
             ("jnu", "proof"))
    for condition, form in itertools.cycle(cases):
        nu = (rng.uniform(-0.4, 1.0), rng.uniform(4.0, 20.0))
        lam = (0.0, rng.uniform(0.5, 0.95))
        alpha = (0.0, rng.uniform(0.5, 0.95))
        dp = _dixit_pal(rng) if condition == "jnu" else None
        yield ScanOp(condition, form, nu, lam, alpha, dp, scratch / "scan.csv", rng)


# -------------------------------------------------------------- critical_sweep

class SolveOp:
    """One ``critical_nu`` solve whose bracket straddles zero."""

    items = 1

    def __init__(self, condition, p, dp, bracket, oracle):
        self.condition, self.p, self.dp, self.bracket = condition, p, dp, bracket
        self.oracle = oracle

    def run(self):
        return bs.critical_nu(self.condition, self.p, self.dp, self.bracket)

    def check(self, nu_star, stats) -> bool:
        lo, hi = self.bracket
        if not lo <= nu_star <= hi:
            return False
        margin = _margin(self.condition, nu_star, self.p, self.dp)
        if margin < 0.0:
            stats["critical_failing_side"] += 1
        if abs(margin) > MARGIN_TOL:
            return False
        if not self.oracle:
            return True
        ref = _oracle_margin(self.condition, "proof", nu_star, self.p.lam,
                             self.p.alpha, self.dp)
        return abs(margin - ref) <= ORACLE_TOL

    def same_again(self, nu_star) -> bool:
        return self.run() == nu_star


def critical_sweep(seed: int, scratch: Path):
    """Cycles all six conditions with random lambda, alpha and (A, B, |tau|).

    Brackets are validated at tol=1e-13, a different cache key from the
    solves' tol=1e-12, so generating a bracket never warms the solve's table
    cache.  About one solve in 40 is also checked against the oracle.
    """
    rng = random.Random(f"critical_sweep:{seed}")
    conditions = ("t", "l", "starlike", "convex", "jnu", "qnu")
    for condition in itertools.cycle(conditions):
        for _ in range(1000):
            lam = 0.0 if condition in ("starlike", "convex") else rng.uniform(0.0, 0.9)
            p = bs.ClassParams(lam, rng.uniform(0.0, 0.9))
            dp = _dixit_pal(rng) if condition == "jnu" else None
            bracket = (rng.uniform(-0.45, 0.0), rng.uniform(20.0, 40.0))
            if (_margin(condition, bracket[0], p, dp, 1e-13) < 0.0
                    < _margin(condition, bracket[1], p, dp, 1e-13)):
                break
        else:
            raise RuntimeError(f"no straddling bracket found for {condition}")
        yield SolveOp(condition, p, dp, bracket, rng.random() < 0.025)


# --------------------------------------------------------------- verify_suites

class VerifyOp:
    """One ``run_suites`` call on the five default suites."""

    def __init__(self, seed):
        self.seed = seed
        self.items = 1

    def run(self):
        return bs.run_suites(SUITE_NAMES, self.seed)

    def check(self, results, stats) -> bool:
        self.items = len(results)
        return bool(results) and all(r.passed for r in results)

    def same_again(self, results) -> bool:
        return self.run() == results


def verify_suites(seed: int, scratch: Path):
    """Suite seeds drawn from the workload seed."""
    rng = random.Random(f"verify_suites:{seed}")
    while True:
        yield VerifyOp(rng.randrange(2 ** 31))


WORKLOADS = {
    "region_scan": region_scan,
    "critical_sweep": critical_sweep,
    "verify_suites": verify_suites,
}

# Each workload's own names for the end-to-end metrics and for the mean
# throughput and median latency, which the human-readable summary adds:
# (name, metric, scale, unit).
ALIASES = {
    "region_scan": (("rows_per_s", "items_per_s", 1.0, "rows/s"),
                    ("rows_per_s_p10", "items_per_s_p10", 1.0, "rows/s"),
                    ("scan_ms_p50", "op_ms_p50", 1.0, "ms"),
                    ("scan_ms_p90", "op_ms_p90", 1.0, "ms")),
    "critical_sweep": (("solves_per_s", "items_per_s", 1.0, "1/s"),
                       ("solves_per_s_p10", "items_per_s_p10", 1.0, "1/s"),
                       ("solve_ms_p50", "op_ms_p50", 1.0, "ms"),
                       ("solve_ms_p90", "op_ms_p90", 1.0, "ms")),
    "verify_suites": (("checks_per_s", "items_per_s", 1.0, "1/s"),
                      ("checks_per_s_p10", "items_per_s_p10", 1.0, "1/s"),
                      ("verify_s_p50", "op_ms_p50", 1e-3, "s"),
                      ("verify_s_p90", "op_ms_p90", 1e-3, "s")),
}

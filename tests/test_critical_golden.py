"""`critical_nu` results pinned bit for bit.

Each line of ``tests/data/critical_seed<s>.txt`` is one seeded solve: the
condition, lambda, alpha, the Dixit-Pal triple (jnu only), the bracket and
``repr`` of nu*.  The draws follow the benchmark's critical sweep: lambda and
alpha uniform in [0, 0.9) (lambda = 0 for starlike and convex), A, B and
|tau| as its Dixit-Pal draw, and a bracket (lo, hi) with lo in [-0.45, 0)
and hi in [20, 40) redrawn until its end margins straddle zero at
tol = 1e-13.  Seed 11 holds 10 solves per condition and seed 12 holds 100.
Later changes must leave every nu* unchanged.  A golden file can be
reproduced with
``PYTHONPATH=src python tests/test_critical_golden.py <s> > tests/data/critical_seed<s>.txt``.
"""

import random
import sys
from pathlib import Path

import pytest

from besselstruve import (ClassParams, DixitPalParams, convex_condition,
                          critical_nu, jnu_condition, l_condition,
                          qnu_condition, starlike_condition, t_condition)

DATA = Path(__file__).resolve().parent / "data"
CONDITIONS = ("t", "l", "starlike", "convex", "jnu", "qnu")
# solves per condition in each golden file, by seed
GOLDEN_SOLVES = {11: 10, 12: 100}


def _margin(condition, nu, p, dp, tol):
    if condition == "t":
        return t_condition(nu, p, tol=tol).margin
    if condition == "l":
        return l_condition(nu, p, tol).margin
    if condition == "starlike":
        return starlike_condition(nu, p.alpha, tol).margin
    if condition == "convex":
        return convex_condition(nu, p.alpha, tol).margin
    if condition == "jnu":
        return jnu_condition(nu, p, dp, tol).margin
    return qnu_condition(nu, p, tol).margin


def _draw(rng, condition):
    """(p, dp, bracket) of one solve, drawn until the bracket straddles."""
    while True:
        lam = 0.0 if condition in ("starlike", "convex") else rng.uniform(0.0, 0.9)
        p = ClassParams(lam, rng.uniform(0.0, 0.9))
        dp = None
        if condition == "jnu":
            b = rng.uniform(-1.0, 0.5)
            dp = DixitPalParams(rng.uniform(b + 0.1, 1.0), b, rng.uniform(0.1, 1.0))
        bracket = (rng.uniform(-0.45, 0.0), rng.uniform(20.0, 40.0))
        if (_margin(condition, bracket[0], p, dp, 1e-13) < 0.0
                < _margin(condition, bracket[1], p, dp, 1e-13)):
            return p, dp, bracket


def golden_lines(seed: int, solves: int) -> list[str]:
    """The golden file's lines: ``solves`` seeded solves per condition."""
    rng = random.Random(f"critical_golden:{seed}")
    lines = []
    for condition in CONDITIONS:
        for _ in range(solves):
            p, dp, bracket = _draw(rng, condition)
            nu_star = critical_nu(condition, p, dp, bracket)
            dp_text = "-" if dp is None else f"{dp.a!r},{dp.b!r},{dp.tau_abs!r}"
            lines.append(f"{condition} lambda={p.lam!r} alpha={p.alpha!r} "
                         f"dixit_pal={dp_text} bracket={bracket[0]!r}:{bracket[1]!r} "
                         f"nu*={nu_star!r}\n")
    return lines


@pytest.mark.parametrize("seed", sorted(GOLDEN_SOLVES))
def test_critical_matches_golden_lines(seed):
    text = "".join(golden_lines(seed, GOLDEN_SOLVES[seed]))
    assert text == (DATA / f"critical_seed{seed}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    seed = int(sys.argv[1])
    sys.stdout.write("".join(golden_lines(seed, GOLDEN_SOLVES[seed])))

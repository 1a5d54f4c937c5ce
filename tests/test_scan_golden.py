"""`scan` output pinned byte for byte, and every row replayed point by point.

The CSV files under ``tests/data/`` were written by ``scan`` once the
coefficient table came from the exact two-term recurrence (its lhs digits
moved by at most 2.5e-15 relative and no ``holds`` value changed); the scan
must keep producing them byte for byte.  Each case is one invocation, so a
golden file can be reproduced with
``besselstruve scan <argv...> --output tests/data/scan_<case>.csv``.
"""

import math
from pathlib import Path

import pytest

from besselstruve import (ClassParams, ConditionForm, DixitPalParams,
                          convex_condition, jnu_condition, l_condition,
                          qnu_condition, series, starlike_condition,
                          t_condition)
from besselstruve.cli import main

DATA = Path(__file__).resolve().parent / "data"

_GRID = ("--nu=-0.4:12:7", "--lambda", "0:0.9:4", "--alpha", "0:0.8:3")
_LAMBDA_ZERO = ("--nu=-0.4:12:13", "--alpha", "0:0.95:5")
_DIXIT_PAL = ("--A", "0.7", "--B", "-0.6", "--tau-abs", "0.85")

CASES = {
    "t_proof": ("t", "--form", "proof") + _GRID,
    "t_stated": ("t", "--form", "stated") + _GRID,
    "l": ("l",) + _GRID,
    "starlike": ("starlike",) + _LAMBDA_ZERO,
    "starlike_stated": ("starlike", "--form", "stated") + _LAMBDA_ZERO,
    "convex": ("convex",) + _LAMBDA_ZERO,
    "qnu": ("qnu",) + _GRID,
    "jnu": ("jnu",) + _GRID + _DIXIT_PAL,
}

_DP = DixitPalParams(0.7, -0.6, 0.85)


def _point_verdict(condition, form, nu, lam, alpha):
    """The public per-point function a scan row stands for."""
    p = ClassParams(lam, alpha)
    if condition == "t":
        return t_condition(nu, p, ConditionForm(form))
    if condition == "l":
        return l_condition(nu, p)
    if condition == "starlike":
        return starlike_condition(nu, alpha)
    if condition == "convex":
        return convex_condition(nu, alpha)
    if condition == "jnu":
        return jnu_condition(nu, p, _DP)
    return qnu_condition(nu, p)


def _scan(tmp_path, capsys, case):
    out = tmp_path / f"{case}.csv"
    code = main(["scan", *CASES[case], "--output", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    return out.read_bytes(), printed, out


@pytest.mark.parametrize("case", sorted(CASES))
def test_scan_matches_golden_bytes(tmp_path, capsys, case):
    data, printed, out = _scan(tmp_path, capsys, case)
    golden = (DATA / f"scan_{case}.csv").read_bytes()
    assert data == golden
    rows = golden.count(b"\n") - 1
    assert printed == f"wrote {rows} rows to {out}\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_row_equals_the_point_function(tmp_path, capsys, case):
    data, _, _ = _scan(tmp_path, capsys, case)
    rows = [line.split(",") for line in data.decode().splitlines()[1:]]
    assert rows
    for cond, form, nu, lam, alpha, lhs, rhs, margin, holds in rows:
        v = _point_verdict(cond, form, float(nu), float(lam), float(alpha))
        assert form == v.condition_form.value
        assert (float(lhs), float(rhs), float(margin)) == (v.lhs, v.rhs, v.margin)
        assert holds == str(v.holds).lower()
        assert math.isfinite(v.margin)


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_row_replays_through_check(tmp_path, capsys, case):
    data, _, _ = _scan(tmp_path, capsys, case)
    extra = list(_DIXIT_PAL) if case == "jnu" else []
    for line in data.decode().splitlines()[1:]:
        cond, form, nu, lam, alpha, lhs, rhs, margin, holds = line.split(",")
        code = main(["check", cond, f"--nu={nu}", "--lambda", lam,
                     "--alpha", alpha, "--form", form, *extra])
        out = capsys.readouterr().out
        assert (code == 0) == (holds == "true")
        assert f"lhs       = {lhs}\nrhs       = {rhs}\nmargin    = {margin}\n" in out


def test_scan_builds_no_moment_set(tmp_path, capsys, monkeypatch):
    """`scan` sums s0..s3 once per nu with `series._moment_sums`: it builds
    no `MomentSet` and sums no m0."""
    made = []
    monkeypatch.setattr(series, "MomentSet", lambda *args: made.append(args))
    data, _, _ = _scan(tmp_path, capsys, "jnu")
    assert data == (DATA / "scan_jnu.csv").read_bytes()
    assert made == []

"""`verify` output pinned byte for byte.

The files under ``tests/data/`` were written by ``verify`` once the
coefficient table came from the exact two-term recurrence, which moved only
printed residual and diff digits.  The "moment identities" lines were
rewritten once more when they began to print the residuals of the kernel
ODE at z = 1 and the contiguous relation in nu, which replaced the
rounding residuals between two termwise moment families; no other line
moved.  The "ode residual" details moved in their last one or two digits
when `ode_residual` began to sum (S'(z) - S'(0))/z as its own series
instead of dividing a rounded difference by z.  Later changes must leave
the output unchanged.  A golden file can be reproduced with
``besselstruve verify --seed <s> > tests/data/verify_seed<s>.txt``.
"""

from pathlib import Path

import pytest

from besselstruve.cli import main

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("seed", (7, 2024, 31337))
def test_verify_matches_golden_bytes(capsys, seed):
    code = main(["verify", "--seed", str(seed)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / f"verify_seed{seed}.txt").read_text(encoding="utf-8")

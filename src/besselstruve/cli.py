"""Command-line front end.

Subcommands: eval, check, scan, critical, verify.  Exit codes are uniform
across subcommands: 0 success/holds, 1 fails (or a failed verify suite),
2 parameter or domain error, 3 inconclusive truncated comparison.

Defaults may come from an optional key-value config file (`--config`);
explicit flags always win.  There is no environment-variable configuration,
so identical invocations produce identical output.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Optional

from . import __version__
from ._files import write_then_rename
from ._pykernels import backend_name
from .criteria import (CONDITION_NAMES, ClassParams, ConditionForm,
                       DixitPalParams, _evaluate, _lhs_slab, _resolve,
                       critical_nu)
from .errors import (BesselStruveError, BracketError, DomainError,
                     InconclusiveError, ParameterError)
from .series import (_check_tol, _eval_kernel, _moment_sums, _operator_order,
                     moments)

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# the most points of a `scan` range, and of its lambda x alpha grid
MAX_GRID_POINTS = 1_000_000

# `scan` rows per write: a region_scan slab of 400 cells is one write per nu,
# and a 1000 x 1000 slab never holds more than this many row strings
_ROWS_PER_WRITE = 4096

# config key -> (type, default); a flag left unset takes the config file's
# value, else the default
_CONFIG = {
    "tol": (float, 1e-12),
    "margin_tol": (float, 1e-10),
    "nu_tol": (float, 1e-10),
    "seed": (int, 2024),
}


def _fmt(x: float) -> str:
    """17 significant digits: enough to round-trip any double."""
    return format(float(x), ".17g")


def _load_config(path: Optional[str]) -> dict:
    cfg = {key: default for key, (_, default) in _CONFIG.items()}
    if path is None:
        return cfg
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, val = line.partition("=")
                if not sep:
                    raise ParameterError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key = key.strip()
                if key not in _CONFIG:
                    raise ParameterError(
                        f"{path}:{lineno}: unknown config key {key!r}")
                try:
                    cfg[key] = _CONFIG[key][0](val.strip())
                except ValueError as exc:
                    raise ParameterError(
                        f"{path}:{lineno}: bad {key} value: {exc}") from exc
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    return cfg


def _parse_range(text: str):
    """Parse 'lo:hi:steps' (or a single value) into a list of grid points."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
        else:
            raise ValueError("expected 'value' or 'lo:hi:steps'")
    except ValueError as exc:
        raise ParameterError(f"bad range {text!r}: {exc}") from exc
    if not 1 <= steps <= MAX_GRID_POINTS:
        raise ParameterError(f"bad range {text!r}: steps must lie in "
                             f"[1, {MAX_GRID_POINTS}]")
    if steps == 1:
        return [lo]
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


def _dixit_pal(args) -> Optional[DixitPalParams]:
    """The --A/--B/--tau-abs triple, or None when no flag is given."""
    given = (args.A, args.B, args.tau_abs)
    if given == (None, None, None):
        return None
    if None in given:
        raise ParameterError("--A, --B and --tau-abs must be given together")
    return DixitPalParams(*given)


def _condition(args):
    """(triple, (name, form, rule, scale)): `_dixit_pal` and the
    `criteria._resolve` of the condition, --form and triple, which names
    the flags when a triple is missing."""
    extra = _dixit_pal(args)
    return extra, _resolve(args.condition, ConditionForm(args.form), extra,
                           "--A, --B and --tau-abs")


def _check_lambda(condition: str, lams) -> None:
    """starlike and convex are the lambda = 0 cases: refuse any other lambda
    instead of evaluating at 0 under the given value."""
    if condition in ("starlike", "convex") and any(l != 0.0 for l in lams):
        raise ParameterError(f"condition {condition!r} fixes lambda = 0")


# ---------------------------------------------------------------- subcommands


def _cmd_eval(args) -> int:
    z = complex(args.z)
    # every value first, so an error leaves stdout empty
    s, n_top, tail = _eval_kernel(args.nu, z, args.tol)
    m = moments(args.nu, args.tol)
    print(f"nu = {_fmt(args.nu)}   z = {z}   tol = {_fmt(args.tol)}")
    print(f"S(z)        = {s}")
    print(f"z*S(z)      = {z * s}")
    print(f"z*(2-S(z))  = {z * (2.0 - s)}")
    for k, val in enumerate((m.s0, m.s1, m.s2, m.s3)):
        label = "S" + "'" * k + "(1)"
        print(f"{label.ljust(12)}= {_fmt(val)}")
    print(f"truncation  : N = {n_top}, tail bound = {_fmt(tail)}")
    return EXIT_HOLDS


def _series_check(args, p: ClassParams) -> int:
    from .operators import (Outcome, coefficient_sum_L, coefficient_sum_T,
                            read_series)

    if args.condition in ("jnu", "qnu"):
        raise ParameterError(
            f"--series-file applies the coefficient test; condition "
            f"{args.condition!r} is about a fixed operator, not a user series")
    _condition(args)  # refuses a Dixit-Pal triple
    try:
        f = read_series(args.series_file)
    except OSError as exc:
        raise ParameterError(
            f"cannot read series file {args.series_file}: {exc}") from exc
    if args.condition in ("t", "starlike"):
        ws = coefficient_sum_T(f, p)
        label = "starlike-type"
    else:
        ws = coefficient_sum_L(f, p)
        label = "convex-type"
    print(f"condition : {label} coefficient test (lambda={_fmt(p.lam)}, "
          f"alpha={_fmt(p.alpha)})")
    print(f"series    : {args.series_file} (N={f.truncation_index}, "
          f"sign={f.sign.value})")
    print(f"sum       = {_fmt(ws.value)}")
    print(f"threshold = {_fmt(ws.threshold)}")
    print(f"tail      <= {_fmt(ws.tail_bound) if math.isfinite(ws.tail_bound) else 'unknown'}")
    print(f"outcome   : {ws.outcome.value}")
    if ws.outcome is Outcome.HOLDS:
        return EXIT_HOLDS
    if ws.outcome is Outcome.FAILS:
        return EXIT_FAILS
    return EXIT_INCONCLUSIVE


def _cmd_check(args) -> int:
    _check_lambda(args.condition, (args.lam,))
    p = ClassParams(args.lam, args.alpha)
    if args.series_file is not None:
        return _series_check(args, p)
    if args.nu is None:
        raise ParameterError("--nu is required unless --series-file is given")
    extra, (_, form, _, _) = _condition(args)
    verdict = _evaluate(args.condition, args.nu, p, extra, form, args.tol)
    print(f"condition : {args.condition} (form {verdict.condition_form.value})")
    print(f"nu        = {_fmt(args.nu)}")
    print(f"lambda    = {_fmt(p.lam)}   alpha = {_fmt(p.alpha)}")
    print(f"lhs       = {_fmt(verdict.lhs)}")
    print(f"rhs       = {_fmt(verdict.rhs)}")
    print(f"margin    = {_fmt(verdict.margin)}")
    print(f"holds     : {str(verdict.holds).lower()}")
    return EXIT_HOLDS if verdict.holds else EXIT_FAILS


def _cmd_scan(args) -> int:
    """The condition, grids and tol are checked once; weights once per
    (lambda, alpha) cell and rhs and its text once per alpha; then
    `_lhs_slab` evaluates each (lambda, alpha) slab from S(1)..S'''(1),
    summed from one table per nu (`_moment_sums`), and only lhs and margin
    are formatted (as `_fmt` does) per row."""
    _, (_, form, rule, scale) = _condition(args)
    nus = _parse_range(args.nu)
    alphas = _parse_range(args.alpha)
    lams = _parse_range(args.lam)
    if len(lams) * len(alphas) > MAX_GRID_POINTS:
        raise ParameterError(f"{len(lams)} x {len(alphas)} lambda x alpha "
                             f"cells exceed {MAX_GRID_POINTS}")
    _check_lambda(args.condition, lams)
    # raises the first error a lambda-major sweep of every cell would
    for alpha in alphas:
        ClassParams(lams[0], alpha)
    for lam in lams:
        ClassParams(lam, alphas[0])
    tol = _check_tol(args.tol)
    columns = []
    for alpha in alphas:
        rhs = rule.rhs(alpha)
        columns.append((alpha, _fmt(alpha), rhs, f",{_fmt(rhs)},"))
    weights = []
    cells = []
    for lam in lams:
        lam_text = _fmt(lam)
        for alpha, a_text, rhs, rhs_text in columns:
            weights.append(rule.weights(lam, alpha))
            cells.append((f"{lam_text},{a_text},", rhs, rhs_text))
    # rows go to the temporary file _ROWS_PER_WRITE at a time, so memory
    # holds one slab's cells but never all its rows; an error anywhere
    # leaves no file behind
    try:
        with write_then_rename(args.output) as fh:
            fh.write("condition,form,nu,lambda,alpha,lhs,rhs,margin,holds\n")
            for nu in nus:
                sums = _moment_sums(_operator_order(nu).nu, tol)
                head = f"{args.condition},{form.value},{_fmt(nu)},"
                for start in range(0, len(cells), _ROWS_PER_WRITE):
                    stop = start + _ROWS_PER_WRITE
                    lhs_slab = _lhs_slab(sums, weights[start:stop], scale,
                                         rule.shift)
                    rows = []
                    for lhs, (point, rhs, rhs_text) in zip(lhs_slab,
                                                           cells[start:stop]):
                        margin = rhs - lhs
                        rows.append(f"{head}{point}{lhs:.17g}{rhs_text}"
                                    f"{margin:.17g},"
                                    f"{'true' if margin >= 0.0 else 'false'}\n")
                    fh.write("".join(rows))
    except OSError as exc:
        raise ParameterError(f"cannot write {args.output}: {exc}") from exc
    print(f"wrote {len(nus) * len(cells)} rows to {args.output}")
    return EXIT_HOLDS


def _cmd_critical(args) -> int:
    _check_lambda(args.condition, (args.lam,))
    p = ClassParams(args.lam, args.alpha)
    lo, _, hi = args.bracket.partition(":")
    try:
        bracket = (float(lo), float(hi))
    except ValueError as exc:
        raise ParameterError(f"bad bracket {args.bracket!r}: {exc}") from exc
    extra, (_, form, _, _) = _condition(args)
    nu_star = critical_nu(args.condition, p, extra, bracket,
                          args.margin_tol, args.nu_tol, form, args.tol)
    verdict = _evaluate(args.condition, nu_star, p, extra, form, args.tol)
    print(f"condition : {args.condition} (form {form.value})")
    print(f"lambda    = {_fmt(p.lam)}   alpha = {_fmt(p.alpha)}")
    print(f"nu*       = {_fmt(nu_star)}")
    print(f"margin    = {_fmt(verdict.margin)}")
    return EXIT_HOLDS


def _cmd_verify(args) -> int:
    from .verifier import SUITE_NAMES, run_suites

    names = SUITE_NAMES if args.suite == "default" else (args.suite,)
    results = run_suites(names, args.seed)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        print(f"{status}  {r.name.ljust(width)}  {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed "
          f"(seed {args.seed}, backend {backend_name()})")
    return EXIT_HOLDS if failed == 0 else EXIT_FAILS


# ------------------------------------------------------------------- parsing


def _add_common(sub):
    sub.add_argument("--config", metavar="PATH",
                     help="key-value file with defaults (flags win)")
    sub.add_argument("--tol", type=float, default=None,
                     help="series truncation tolerance (default 1e-12)")


def _add_class_params(sub):
    sub.add_argument("--lambda", dest="lam", type=float, default=0.0,
                     help="interpolation parameter in [0, 1) (default 0)")
    sub.add_argument("--alpha", type=float, default=0.0,
                     help="order parameter in [0, 1) (default 0)")
    sub.add_argument("--A", type=float, default=None,
                     help="Dixit-Pal upper parameter (jnu only)")
    sub.add_argument("--B", type=float, default=None,
                     help="Dixit-Pal lower parameter (jnu only)")
    sub.add_argument("--tau-abs", dest="tau_abs", type=float, default=None,
                     help="Dixit-Pal |tau| (jnu only)")
    sub.add_argument("--form", choices=("proof", "stated"), default="proof",
                     help="variant of the starlike-type inequality")


def _suite_name(text: str) -> str:
    """A --suite value: 'default' or one of `verifier.SUITE_NAMES`.  The
    verifier layer loads only when a suite is named."""
    if text != "default":
        from .verifier import SUITE_NAMES

        if text not in SUITE_NAMES:
            choices = ", ".join(map(repr, ("default",) + SUITE_NAMES))
            raise argparse.ArgumentTypeError(
                f"invalid choice: {text!r} (choose from {choices})")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besselstruve",
        description="Bessel-Struve kernel evaluation and class-membership "
                    "criteria with independent verification.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate the kernel and its variants")
    p_eval.add_argument("--nu", type=float, required=True)
    p_eval.add_argument("--z", required=True,
                        help="evaluation point, e.g. '1', '0.3+0.4j'")
    _add_common(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_check = subs.add_parser("check", help="evaluate one membership criterion")
    p_check.add_argument("condition", choices=CONDITION_NAMES)
    p_check.add_argument("--nu", type=float, default=None)
    p_check.add_argument("--series-file", metavar="PATH", default=None,
                         help="apply the coefficient test to a user series")
    _add_class_params(p_check)
    _add_common(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_scan = subs.add_parser("scan", help="grid scan to CSV")
    p_scan.add_argument("condition", choices=CONDITION_NAMES)
    p_scan.add_argument("--nu", required=True, metavar="LO:HI:STEPS",
                        help="nu grid (or a single value)")
    p_scan.add_argument("--lambda", dest="lam", default="0",
                        metavar="LO:HI:STEPS", help="lambda grid or value")
    p_scan.add_argument("--alpha", default="0", metavar="LO:HI:STEPS",
                        help="alpha grid or value")
    p_scan.add_argument("--A", type=float, default=None)
    p_scan.add_argument("--B", type=float, default=None)
    p_scan.add_argument("--tau-abs", dest="tau_abs", type=float, default=None)
    p_scan.add_argument("--form", choices=("proof", "stated"), default="proof")
    p_scan.add_argument("--output", required=True, metavar="PATH")
    _add_common(p_scan)
    p_scan.set_defaults(func=_cmd_scan)

    p_crit = subs.add_parser(
        "critical",
        help="locate the critical order of a condition (guarded false "
             "position; the condition holds at the printed nu*)")
    p_crit.add_argument("condition", choices=CONDITION_NAMES)
    p_crit.add_argument("--bracket", default="0.6:30", metavar="LO:HI")
    p_crit.add_argument("--margin-tol", dest="margin_tol", type=float,
                        default=None)
    p_crit.add_argument("--nu-tol", dest="nu_tol", type=float, default=None)
    _add_class_params(p_crit)
    _add_common(p_crit)
    p_crit.set_defaults(func=_cmd_critical)

    p_verify = subs.add_parser("verify", help="run the consistency suites")
    p_verify.add_argument("--suite", type=_suite_name, default="default",
                          help="'default' (every suite) or one suite name; "
                               "an unknown name lists them")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--config", metavar="PATH")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and reused after it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for key, value in _load_config(args.config).items():
            if getattr(args, key, None) is None:
                setattr(args, key, value)
        return args.func(args)
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (DomainError, ParameterError, BracketError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BesselStruveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILS


if __name__ == "__main__":
    sys.exit(main())

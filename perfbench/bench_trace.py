"""Span tracing for the benchmark, installed from outside the package.

The tracer wraps the package's public functions in every module namespace
that binds them (``criteria.moments``, ``cli.t_condition``, ...), so calls
between modules are seen no matter which binding the caller uses.  The
kernel module is reached through a proxy that replaces each consumer's
``kernels`` binding; calls the kernel module makes to itself (the circle
scan's own Horner loop) stay untraced, whichever backend is active.

Each wrapped call appends one span (name, start, end, parent) to flat
arrays while the tracer is active.  Self time is a span's duration minus
the durations of its direct children, so the self times of all spans plus
the time outside any root span add up to the traced wall time.
"""

from __future__ import annotations

import array
import collections
import functools
import gzip
import importlib
import time
import types

# Modules whose public functions are wrapped, in layer order.
LAYERS = ("series", "criteria", "operators", "verifier", "cli")
CONDITIONS = ("t_condition", "l_condition", "starlike_condition",
              "convex_condition", "jnu_condition", "qnu_condition")
SUITES = ("moments", "ode", "sufficiency", "necessity", "highprec")


def _count_table(counts, args, result):
    counts["kernels.table.coeffs"] += len(result)


def _count_horner(counts, args, result):
    counts["kernels.horner.terms"] += len(args[0])


def _count_circle(counts, args, result):
    num, den, n_points = args[0], args[1], args[3]
    violation = result[2]
    points = violation + 1 if violation >= 0 else n_points
    counts["kernels.circle.points"] += points
    counts["kernels.circle.terms"] += points * (len(num) + len(den))


# Computed work per kernel call (multiply-adds and sample points).
KERNEL_COUNTERS = {
    "coefficient_table": _count_table,
    "horner": _count_horner,
    "min_real_ratio_on_circle": _count_circle,
}


class Tracer:
    """In-memory span recorder; spans are kept only while ``active``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.counts: collections.Counter = collections.Counter()
        self.active = False
        self._stack = [-1]

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span called ``name`` per call while active."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, counts, clock, tracer = self._stack, self.counts, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write every span as gzipped CSV: id,name,start_s,end_s,parent."""
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            names = self.names
            for i, (nid, s, e, p) in enumerate(zip(self.name, self.start,
                                                    self.end, self.parent)):
                fh.write(f"{i},{names[nid]},{s!r},{e!r},{p}\n")

    def summarize(self):
        """Per span name: [calls, inclusive seconds, self seconds].

        Also returns the total duration of root spans and the number of
        condition evaluations made directly by ``critical_nu``.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        roots = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                roots += dur[i]
        stats = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            st = stats[self.names[self.name[i]]]
            st[0] += 1
            st[1] += dur[i]
            st[2] += dur[i] - child[i]
        critical = self._ids.get("criteria.critical_nu")
        conditions = {self._ids[f"criteria.{c}"] for c in CONDITIONS
                      if f"criteria.{c}" in self._ids}
        margin_evals = sum(1 for i in range(n)
                           if self.name[i] in conditions and self.parent[i] >= 0
                           and self.name[self.parent[i]] == critical)
        return stats, roots, margin_evals


def instrument(tracer: Tracer, package) -> list:
    """Wrap the package's public functions everywhere they are bound.

    Returns an undo list of (namespace, key, original) for `uninstrument`.
    Names that a module does not define are skipped, so the tracer follows
    the package as it is restructured.
    """
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"{package.__name__}.{layer}")
        except ImportError:
            continue
    wrapped = {}
    for layer, mod in modules.items():
        public = list(getattr(mod, "__all__", ())) + (["main"] if layer == "cli" else [])
        for attr in public:
            fn = getattr(mod, attr, None)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                wrapped[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    undo = []
    proxies = {}
    for mod in [package, *modules.values()]:
        space = vars(mod)
        for attr, val in list(space.items()):
            if isinstance(val, types.FunctionType) and val in wrapped:
                undo.append((space, attr, val))
                space[attr] = wrapped[val]
        kern = space.get("kernels")
        if isinstance(kern, types.ModuleType):
            if kern not in proxies:
                proxies[kern] = _kernel_proxy(tracer, kern)
            undo.append((space, "kernels", kern))
            space["kernels"] = proxies[kern]
    verifier = modules.get("verifier")
    suites = getattr(verifier, "_SUITES", None)
    if isinstance(suites, dict):
        for name, fn in list(suites.items()):
            undo.append((suites, name, fn))
            suites[name] = tracer.wrap(f"verifier.suite.{name}", fn)
    return undo


def uninstrument(undo: list) -> None:
    for space, key, original in reversed(undo):
        space[key] = original


def _kernel_proxy(tracer: Tracer, kern: types.ModuleType):
    proxy = types.SimpleNamespace()
    for attr in dir(kern):
        if attr.startswith("_"):
            continue
        val = getattr(kern, attr)
        if callable(val) and not isinstance(val, type):
            val = tracer.wrap(f"kernels.{attr}", val, KERNEL_COUNTERS.get(attr))
        setattr(proxy, attr, val)
    return proxy


def layer_metrics(stats, counts, margin_evals: int) -> dict:
    """Per-layer metric values from `Tracer.summarize` output and counters."""

    def pick(names, field):
        return sum(stats[n][field] for n in names if n in stats)

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    layer_self = collections.Counter()
    for name, st in stats.items():
        layer_self[name.split(".", 1)[0]] += st[2]
    table, horner, circle = ("kernels.coefficient_table",), ("kernels.horner",), \
        ("kernels.min_real_ratio_on_circle",)
    conditions = [f"criteria.{c}" for c in CONDITIONS]
    solves = pick(("criteria.critical_nu",), 0)
    out = {
        "kernels.self_s": layer_self["kernels"],
        "kernels.table.calls": pick(table, 0),
        "kernels.table.coeffs": counts["kernels.table.coeffs"],
        "kernels.table.self_s": pick(table, 2),
        "kernels.table.ns_per_coeff": ratio(pick(table, 2),
                                            counts["kernels.table.coeffs"], 1e9),
        "kernels.horner.calls": pick(horner, 0),
        "kernels.horner.terms": counts["kernels.horner.terms"],
        "kernels.horner.self_s": pick(horner, 2),
        "kernels.horner.ns_per_term": ratio(pick(horner, 2),
                                            counts["kernels.horner.terms"], 1e9),
        "kernels.circle.calls": pick(circle, 0),
        "kernels.circle.points": counts["kernels.circle.points"],
        "kernels.circle.terms": counts["kernels.circle.terms"],
        "kernels.circle.self_s": pick(circle, 2),
        "kernels.circle.us_per_point": ratio(pick(circle, 2),
                                             counts["kernels.circle.points"], 1e6),
        "series.self_s": layer_self["series"],
        "series.moments.calls": pick(("series.moments",), 0),
        "series.moments.self_s": pick(("series.moments",), 2),
        "criteria.self_s": layer_self["criteria"],
        "criteria.condition.calls": pick(conditions, 0),
        "criteria.condition.self_s": pick(conditions, 2),
        "criteria.critical.calls": solves,
        "criteria.critical.self_s": pick(("criteria.critical_nu",), 2),
        "criteria.margin_evals_per_solve": ratio(margin_evals, solves),
        "operators.calls": sum(st[0] for n, st in stats.items()
                               if n.startswith("operators.")),
        "operators.self_s": layer_self["operators"],
        "verifier.self_s": layer_self["verifier"],
        "verifier.oracle.calls": pick(("verifier.highprec_sum_oracle",), 0),
        "verifier.oracle.self_s": pick(("verifier.highprec_sum_oracle",), 2),
        "verifier.disk.self_s": pick(("verifier.min_real_part_T",
                                      "verifier.min_real_part_L",
                                      "verifier.ratio_real_part"), 2),
        "verifier.ode.self_s": pick(("verifier.ode_residual",), 2),
        "cli.self_s": layer_self["cli"],
    }
    for suite in SUITES:
        out[f"verifier.suite.{suite}_s"] = pick((f"verifier.suite.{suite}",), 1)
    return out

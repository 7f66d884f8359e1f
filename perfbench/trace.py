"""Spans and counters around the calls into each ivfkit module, installed from
outside the package.

``Tracer.install`` replaces every public function of the layer modules (and a
few methods) with a wrapper that records a span: name, start, end, parent and
op id.  Names re-imported into other modules (``ekeland`` and ``cli`` import
from ``ivf``, ``calculus`` and ``catalog``) are replaced too, by identity, so
every call path goes through the wrapper.  ``interval`` functions are only
counted: they are called too often and too briefly to time one by one.
``Tracer.uninstall`` puts every original object back.

Spans stay in memory; ``layer_metrics`` reduces them to the per-layer numbers.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Optional

PACKAGE = "ivfkit"
SPANNED_MODULES = ("ivf", "expr", "calculus", "ekeland", "sequences", "catalog", "cli")
COUNTED_MODULES = ("interval",)

# (module, class, method, points measure) wrapped in addition to public functions
METHODS = (
    ("ivf", "IVF", "values", "arg_rows"),
    ("ivf", "IVF", "__call__", None),
    ("ivf", "SampleGrid", "points", "result_rows"),
)
# private functions wrapped only to count work: sequence terms evaluated
PRIVATE = (("sequences", "_endpoint_arrays", "horizon"),)
POINTS = {"ivf.IVF.values": "arg_rows", "expr.eval_expr": "arg_rows",
          "ekeland.evp_search": "grid_size"}


def _measure(kind: Optional[str], args: tuple, result: Any) -> int:
    if kind == "arg_rows":
        pts = args[-1]
        shape = getattr(pts, "shape", None)
        return int(shape[0]) if shape is not None and len(shape) == 2 else 1
    if kind == "result_rows":
        return int(result.shape[0])
    if kind == "grid_size":
        return int(args[0].grid.size)
    if kind == "horizon":
        return int(args[1])
    return 0


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "points", "error")

    def __init__(self, name: str, parent: int, op: Optional[int]):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.points = 0
        self.error: Optional[str] = None

    def to_list(self) -> list:
        return [self.name, self.parent, self.op, self.start, self.end, self.points, self.error]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        span = cls(row[0], row[1], row[2])
        span.start, span.end, span.points, span.error = row[3], row[4], row[5], row[6]
        return span


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: Optional[int] = None
        self.interval_calls = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        span = Span(name, parent, self.op)
        self.spans.append(span)
        self.stack.append(index)
        span.start = self.clock()
        return index

    def close(self, index: int, points: int = 0, error: Optional[str] = None) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.points = points
        span.error = error
        self.stack.pop()

    def _spanned(self, name: str, fn: Callable, measure: Optional[str]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index, error=type(exc).__name__)
                raise
            tracer.close(index, _measure(measure, args, result))
            return result

        return traced

    def _counted(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.interval_calls += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {n: sys.modules[f"{PACKAGE}.{n}"] for n in SPANNED_MODULES + COUNTED_MODULES}
        replacements: dict[int, tuple[Any, Any]] = {}
        for short, module in modules.items():
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name, None)
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if short in COUNTED_MODULES:
                    wrapper = self._counted(obj)
                else:
                    key = f"{short}.{name}"
                    wrapper = self._spanned(key, obj, POINTS.get(key))
                replacements[id(obj)] = (obj, wrapper)
        for short, name, measure in PRIVATE:
            obj = getattr(modules[short], name)
            replacements[id(obj)] = (obj, self._spanned(f"{short}.{name}", obj, measure))
        # every module of the package that holds a reference gets the wrapper
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        for short, cls_name, method, measure in METHODS:
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__[method]
            key = f"{short}.{cls_name}.{method}"
            self._patch(cls, method, self._spanned(key, original, measure))

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- exporting ----------------------------------------------------------

    def export(self) -> dict:
        return {"spans": [s.to_list() for s in self.spans], "interval_calls": self.interval_calls}


def spans_table(spans: list[Span]) -> dict:
    """Compact form of the spans for writing out: names once, times in ns.

    Times of spans recorded in different processes share no origin; compare
    them only within one op.
    """
    names = sorted({s.name for s in spans})
    code = {n: i for i, n in enumerate(names)}
    return {
        "names": names,
        "fields": ["name", "parent", "op", "start_ns", "end_ns", "points", "error"],
        "spans": [[code[s.name], s.parent, s.op, round(s.start * 1e9), round(s.end * 1e9),
                   s.points, s.error] for s in spans],
    }


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cur_start = cur_end = None
        for k in sorted(kids, key=lambda k: spans[k].start):
            a = max(spans[k].start, s.start)
            b = min(spans[k].end, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


# span-name families behind the per-layer metrics
PROBE = {f"ivf.{n}" for n in (
    "lower_limit", "upper_limit", "scalar_lower_limit", "scalar_upper_limit",
    "is_gh_lsc_at", "is_gh_usc_at", "continuity_report", "is_gh_continuous_at",
    "endpoint_lsc_equivalence",
)}
REDUCE = {f"ivf.{n}" for n in ("infimum_over", "argmin_over", "is_proper_probe", "level_member_mask")}


def _family(prefix: str) -> Callable[[str], bool]:
    return lambda name: name.startswith(prefix)


def layer_metrics(spans: list[Span], interval_calls: int, report_bytes: int) -> dict[str, float]:
    """Per-layer counts, times and ratios from the recorded spans."""
    selfs = self_times(spans)
    dur = [s.end - s.start for s in spans]

    def ancestors(i: int):
        p = spans[i].parent
        while p >= 0:
            yield p
            p = spans[p].parent

    def outermost(member: Callable[[str], bool]) -> list[int]:
        return [i for i, s in enumerate(spans)
                if member(s.name) and not any(member(spans[a].name) for a in ancestors(i))]

    def named(name: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s.name == name]

    def total(idx: list[int]) -> float:
        return float(sum(dur[i] for i in idx))

    def self_total(member: Callable[[str], bool]) -> float:
        return float(sum(selfs[i] for i, s in enumerate(spans) if member(s.name)))

    def points(idx: list[int]) -> int:
        return int(sum(spans[i].points for i in idx))

    m: dict[str, float] = {}
    cli = outermost(_family("cli."))
    m["cli.calls"] = len(cli)
    m["cli.self_s"] = self_total(_family("cli."))
    m["cli.report_bytes"] = report_bytes

    grid = named("ivf.SampleGrid.points")
    m["ivf.grid_points.calls"] = len(grid)
    m["ivf.grid_points.points"] = points(grid)
    m["ivf.grid_points.s"] = total(grid)

    values = named("ivf.IVF.values")
    m["ivf.values.calls"] = len(values)
    m["ivf.values.points"] = points(values)
    m["ivf.values.s"] = total(values)
    m["ivf.values.self_s"] = float(sum(selfs[i] for i in values))

    evals = named("expr.eval_expr")
    m["expr.eval.calls"] = len(evals)
    m["expr.eval.points"] = points(evals)
    m["expr.eval.s"] = total(evals)
    m["expr.eval.ns_per_point"] = 1e9 * m["expr.eval.s"] / max(1, m["expr.eval.points"])

    probes = outermost(PROBE.__contains__)
    reports = set(named("ivf.continuity_report"))
    balls = sum(1 for i in values
                if spans[i].points > 1 and any(a in reports for a in ancestors(i)))
    m["ivf.probe.calls"] = len(probes)
    m["ivf.probe.s"] = total(probes)
    m["ivf.probe.balls"] = balls / max(1, len(reports))
    m["ivf.reduce.s"] = self_total(REDUCE.__contains__)

    searches = named("ekeland.evp_search")
    m["ekeland.search.calls"] = len(searches)
    m["ekeland.search.s"] = total(searches)
    m["ekeland.search.self_s"] = float(sum(selfs[i] for i in searches))
    m["ekeland.verify.s"] = total(outermost("ekeland.verify_certificate".__eq__))
    searched = set(searches)
    under_search = sum(spans[i].points for i in values if any(a in searched for a in ancestors(i)))
    m["ekeland.points_per_grid_point"] = under_search / max(1, points(searches))

    gateaux = named("calculus.gateaux_derivative")
    m["calculus.gateaux.calls"] = len(gateaux)
    m["calculus.gateaux.s"] = total(outermost("calculus.gateaux_derivative".__eq__))
    m["calculus.gateaux.nonconvergent"] = sum(1 for i in gateaux if spans[i].error == "NonConvergent")

    m["interval.calls"] = interval_calls

    seq = outermost(_family("sequences."))
    m["sequences.calls"] = len(seq)
    m["sequences.terms"] = points(named("sequences._endpoint_arrays"))
    m["sequences.s"] = total(seq)
    return m


def op_coverage(spans: list[Span], op_seconds: dict[int, float]) -> float:
    """Share of the ops' wall time that their spans' self times account for."""
    selfs = self_times(spans)
    covered = sum(t for s, t in zip(spans, selfs) if s.op in op_seconds)
    return covered / max(1e-12, sum(op_seconds.values()))

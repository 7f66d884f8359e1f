"""Workload process of the benchmark, started by ``run.py``.

Roles:

``worker WORKLOAD SEED SECONDS TRACE``
    Imports ivfkit, builds the catalog, generates the seeded ops, warms up,
    prints one ``ready`` JSON line (with the time spent generating inputs)
    and waits for ``run`` or ``exit`` on stdin.
    On ``run`` it executes the ops in a closed loop and prints one result line.
``cli-op SPANS_PATH -- ARGV...``
    One traced CLI invocation: times the import of ivfkit, installs the tracer,
    calls ``ivfkit.cli.main(ARGV)`` and writes its spans to SPANS_PATH.
"""

from __future__ import annotations

import builtins
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.trace import Span, Tracer, layer_metrics, op_coverage, spans_table  # noqa: E402


class ImportClock:
    """Times the outermost imports of packages outside the standard library
    and ivfkit (numpy, scipy) while it is active."""

    def __init__(self) -> None:
        self.deps_s = 0.0
        self._depth = 0
        self._original = builtins.__import__

    def __enter__(self) -> "ImportClock":
        builtins.__import__ = self._import
        return self

    def __exit__(self, *exc) -> None:
        builtins.__import__ = self._original

    def _import(self, name, globals=None, locals=None, fromlist=(), level=0):
        top = name.partition(".")[0]
        if (self._depth or level or name in sys.modules or top == "ivfkit"
                or top in sys.stdlib_module_names):
            return self._original(name, globals, locals, fromlist, level)
        self._depth += 1
        start = time.perf_counter()
        try:
            return self._original(name, globals, locals, fromlist, level)
        finally:
            self.deps_s += time.perf_counter() - start
            self._depth -= 1


def _import_ivfkit(time_deps: bool) -> tuple[float, float]:
    """Imports ivfkit and its CLI; returns (import seconds, dependency seconds)."""
    start = time.perf_counter()
    if time_deps:
        with ImportClock() as clock:
            import ivfkit.cli  # noqa: F401
        deps = clock.deps_s
    else:
        import ivfkit.cli  # noqa: F401
        deps = 0.0
    return time.perf_counter() - start, deps


def cli_op(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.op = 0
    index = tracer.open("import")
    import_s, deps_s = _import_ivfkit(True)
    tracer.close(index)
    import ivfkit.cli

    tracer.install()
    try:
        return ivfkit.cli.main(argv)
    finally:
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps(
            {**tracer.export(), "import_s": import_s, "deps_s": deps_s}))


class Tally:
    """Outcome of a loop of ops.  Holds numbers only, no program results, so
    the benchmark does not grow the heap the program's garbage collector scans."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.ok = 0
        self.refused = 0
        self.failures: dict[str, int] = {}
        self.mismatches: list[str] = []
        self.report_bytes = 0
        self.maxrss_kb = 0
        self.child_spans: list[tuple[int, dict]] = []

    def add(self, other: "Tally") -> None:
        self.seconds += other.seconds
        self.ok += other.ok
        self.refused += other.refused
        for kind, n in other.failures.items():
            self.failures[kind] = self.failures.get(kind, 0) + n
        self.mismatches += other.mismatches
        self.report_bytes += other.report_bytes
        self.maxrss_kb = max(self.maxrss_kb, other.maxrss_kb)
        self.child_spans += other.child_spans

    def summary(self) -> dict:
        return {
            "seconds": self.seconds,
            "ok": self.ok,
            "refused": self.refused,
            "failures": self.failures,
            "mismatches": self.mismatches[:20],
            "mismatch_count": len(self.mismatches),
            "child_maxrss_kb": self.maxrss_kb,
        }


def run_ops(workload, tracer: Tracer | None, count: int | None = None,
            seconds: float | None = None) -> Tally:
    """Closed loop, one op at a time: ``count`` ops, or ops until ``seconds``
    of op time passed.  Each output is checked against its oracle right after
    its op, outside the op's timing.  An op the workload counts as a refused
    verdict (``workload.refusal``) is neither ok nor failed."""
    from perfbench.workloads import Mismatch

    ops = workload.ops
    tally = Tally()
    clock = time.perf_counter
    busy = 0.0
    i = 0
    while (i < count) if count is not None else (i == 0 or busy < seconds):
        op = ops[i % len(ops)]
        if tracer:
            tracer.op = i
        t0 = clock()
        try:
            result = workload.run(op, i)
            status = "ok"
        except Exception as exc:  # a failed op is counted, never fatal
            result = getattr(exc, "result", None)
            status = getattr(exc, "kind", type(exc).__name__)
        elapsed = clock() - t0
        if tracer:
            tracer.op = None
        busy += elapsed
        if status == "ok":
            try:
                workload.check(op, result, i)
            except (Mismatch, KeyError, TypeError, ValueError) as exc:
                status = "mismatch"
                tally.mismatches.append(f"{type(exc).__name__}: {exc}")
        tally.seconds.append(elapsed)
        if status == "ok":
            tally.ok += 1
        elif workload.refusal(op, status):
            tally.refused += 1
        else:
            tally.failures[status] = tally.failures.get(status, 0) + 1
        tally.report_bytes += getattr(result, "report_bytes", 0)
        tally.maxrss_kb = max(tally.maxrss_kb, getattr(result, "maxrss_kb", 0))
        if getattr(result, "spans", None):
            tally.child_spans.append((i, result.spans))
        i += 1
    return tally


def _merge_child_spans(tracer: Tracer, tally: Tally) -> tuple[int, list[float], list[float]]:
    """Adds the spans written by traced CLI processes to ``tracer``, tagged by op."""
    interval_calls = 0
    import_s, deps_s = [], []
    for index, data in tally.child_spans:
        offset = len(tracer.spans)
        for row in data["spans"]:
            span = Span.from_list(row)
            span.parent = span.parent + offset if span.parent >= 0 else -1
            span.op = index
            tracer.spans.append(span)
        interval_calls += data["interval_calls"]
        import_s.append(data["import_s"])
        deps_s.append(data["deps_s"])
    return interval_calls, import_s, deps_s


def trace_op_count(workload, seconds: float) -> int:
    """Ops per traced-run phase: a fixed function of the arguments, so counts repeat."""
    block = workload.trace_block
    return block * max(1, round(seconds / (workload.trace_op_budget_s * block)))


def worker(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import stats

    tracer = Tracer() if trace else None
    import_s, deps_s = _import_ivfkit(trace)
    from ivfkit.catalog import catalog

    start = time.perf_counter()
    catalog()
    catalog_s = time.perf_counter() - start

    from perfbench.workloads import CliCold, WORKLOADS

    workdir = ROOT / ".perfbench" / f"work-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cls = WORKLOADS[name]
    start = time.perf_counter()
    if cls is CliCold:
        workload = CliCold(seed, workdir, ROOT / "src", Path(__file__).resolve())
    else:
        workload = cls(seed, workdir)
    inputs_s = time.perf_counter() - start
    if tracer:
        tracer.install()
    workload.warm_up()
    if tracer:
        tracer.uninstall()
    print(json.dumps({"ready": True, "import_s": import_s, "deps_s": deps_s,
                      "catalog_s": catalog_s, "inputs_s": inputs_s}), flush=True)
    if sys.stdin.readline().strip() != "run":
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    try:
        if not tracer:
            result = run_ops(workload, None, seconds=seconds).summary()
        else:
            count = trace_op_count(workload, seconds)
            plain = run_ops(workload, None, count=count)
            workload.traced = True
            tracer.install()
            try:
                traced = run_ops(workload, tracer, count=count)
            finally:
                tracer.uninstall()
                workload.traced = False
            child_calls, child_import, child_deps = _merge_child_spans(tracer, traced)
            both = Tally()
            both.add(plain)
            both.add(traced)
            result = both.summary()
            layers = layer_metrics(tracer.spans, tracer.interval_calls + child_calls,
                                   traced.report_bytes)
            layers["trace.overhead"] = stats.median(traced.seconds) / stats.median(plain.seconds)
            layers["trace.coverage"] = op_coverage(tracer.spans, dict(enumerate(traced.seconds)))
            result["layers"] = layers
            result["child_import_s"] = child_import
            result["child_deps_s"] = child_deps
            result["trace_ops"] = count
            spans_file = ROOT / ".perfbench" / f"spans-{name}.json"
            with open(spans_file, "w", encoding="utf-8") as handle:
                json.dump(spans_table(tracer.spans), handle)
            result["spans_file"] = str(spans_file.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli-op"]:
        return cli_op(argv[1], argv[3:])
    if argv[:1] == ["worker"] and len(argv) == 5:
        return worker(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")
    print("usage: worker.py worker WORKLOAD SEED SECONDS TRACE | cli-op SPANS -- ARGV",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

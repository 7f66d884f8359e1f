"""Tests of the benchmark itself: order statistics, span arithmetic, failure
counting, tracer installation and the oracles.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import stats, worker  # noqa: E402
from perfbench.trace import Span, Tracer, layer_metrics, op_coverage, self_times  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    Mismatch,
    central_difference_derivative,
    check_evp_report,
)


# -- percentile selection ----------------------------------------------------


@pytest.mark.parametrize(
    "n, rank",
    [(1000, 990), (100, 90), (21, 11), (11, 1), (5, 1), (1, 1)],
)
def test_tail_keeps_ten_samples_beyond(n, rank):
    samples = list(np.random.default_rng(n).permutation(np.arange(1.0, n + 1)))
    value, percentile, beyond = stats.tail(samples)
    assert value == float(rank)
    assert percentile == pytest.approx(100.0 * rank / n)
    assert beyond == n - rank
    assert beyond == 10 or n <= 10


# -- self time ----------------------------------------------------------------


def _span(name, parent, start, end):
    s = Span(name, parent, 0)
    s.start, s.end = start, end
    return s


def test_self_time_subtracts_children_once():
    spans = [
        _span("root", -1, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),
        _span("a.inner", 1, 2.0, 3.0),
        _span("b", 0, 5.0, 6.0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlap_and_overhang_once():
    spans = [
        _span("root", -1, 0.0, 10.0),
        _span("a", 0, 2.0, 6.0),
        _span("b", 0, 4.0, 8.0),     # overlaps a: union is [2, 8]
        _span("c", 0, 9.0, 12.0),    # overhangs the parent: only [9, 10] counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_spans_nest_by_call():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.op = 3
    outer = tracer.open("outer")      # t=0
    inner = tracer.open("inner")      # t=1
    tracer.close(inner, points=7)     # t=2
    tracer.close(outer)               # t=3
    assert [s.parent for s in tracer.spans] == [-1, 0]
    assert [s.op for s in tracer.spans] == [3, 3]
    assert self_times(tracer.spans) == [2.0, 1.0]
    assert op_coverage(tracer.spans, {3: 4.0}) == pytest.approx(0.75)


# -- failure counting ----------------------------------------------------------


class _Refused(Exception):
    pass


class _FakeWorkload:
    """Op i: raises ValueError if i % 4 == 1, returns a wrong answer if i % 4 == 2,
    declines a verdict if i % 4 == 3."""

    def __init__(self):
        self.ops = list(range(8))

    def run(self, op, index):
        if op % 4 == 1:
            raise ValueError("broken")
        if op % 4 == 3:
            raise _Refused("no verdict")
        return op

    def refusal(self, op, status):
        return status == "_Refused"

    def check(self, op, result, index):
        if op % 4 == 2:
            raise Mismatch(f"op {op} wrong")


def test_failures_and_mismatches_count_against_attempts():
    summary = worker.run_ops(_FakeWorkload(), None, count=12).summary()
    assert len(summary["seconds"]) == 12
    assert summary["failures"] == {"ValueError": 3, "mismatch": 3}
    assert summary["ok"] == 3
    assert summary["refused"] == 3
    assert summary["mismatch_count"] == 3


def test_only_the_workloads_refusals_are_not_failures():
    from perfbench.workloads import CliCold, CliOp, EvpSweep, PointVerdicts, VerdictOp

    gateaux = VerdictOp("gateaux", "paper-levelset", (0.0, 0.0), (1.0, 0.0))
    probe = VerdictOp("probe", "paper-levelset", (0.0, 0.0))
    assert PointVerdicts.refusal(None, gateaux, "NonConvergent")
    assert not PointVerdicts.refusal(None, gateaux, "ValueError")
    assert not PointVerdicts.refusal(None, probe, "NonConvergent")
    assert CliCold.refusal(None, CliOp("derivative", ()), "NonConvergent")
    assert not CliCold.refusal(None, CliOp("derivative", ()), "exit")
    assert not CliCold.refusal(None, CliOp("probe", ()), "NonConvergent")
    assert not EvpSweep.refusal(None, None, "NonConvergent")


def test_tallies_add_up():
    both = worker.Tally()
    both.add(worker.run_ops(_FakeWorkload(), None, count=4))
    both.add(worker.run_ops(_FakeWorkload(), None, count=8))
    summary = both.summary()
    assert len(summary["seconds"]) == 12
    assert summary["failures"] == {"ValueError": 3, "mismatch": 3}
    assert summary["ok"] == 3
    assert summary["refused"] == 3


def test_timed_loop_runs_at_least_one_op():
    assert len(worker.run_ops(_FakeWorkload(), None, seconds=0.0).seconds) == 1


# -- tracer installation ------------------------------------------------------


def _snapshot():
    import ivfkit.ivf

    mods = {n: m for n, m in sys.modules.items() if n == "ivfkit" or n.startswith("ivfkit.")}
    state = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    for cls in (ivfkit.ivf.IVF, ivfkit.ivf.SampleGrid):
        state.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return state


def _small_traced_run(tracer):
    import ivfkit
    from ivfkit import Box, EkelandInput, SampleGrid, continuity_report, evp_search

    quad = ivfkit.get_function("quadratic").ivf
    continuity_report(quad, (0.4,))
    grid = SampleGrid(Box(((-2.0, 2.0),)), (401,))
    evp_search(EkelandInput(f=quad, xbar=(0.05,), eps=0.01, delta=1.0, box=grid.box, grid=grid))
    ivfkit.gh_sub(ivfkit.Interval(1, 2), ivfkit.Interval(0, 1))


def test_uninstall_restores_every_wrapped_attribute():
    import ivfkit.cli
    import ivfkit.ekeland
    import ivfkit.ivf

    ivfkit.catalog()  # the first call fills the catalog cache, which is not tracer state
    before = _snapshot()
    original_infimum = ivfkit.ivf.infimum_over
    tracer = Tracer()
    tracer.install()
    try:
        # names re-imported into ekeland and cli are wrapped as well
        assert ivfkit.ekeland.infimum_over is not original_infimum
        assert ivfkit.ekeland.infimum_over is ivfkit.ivf.infimum_over
        assert ivfkit.cli.function_catalog is sys.modules["ivfkit.catalog"].catalog
        assert ivfkit.cli.function_catalog.__wrapped__ is before[("ivfkit.catalog", "catalog")]
        assert vars(ivfkit.ivf.IVF)["values"] is not before[("IVF", "values")]
        _small_traced_run(tracer)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert tracer.spans, "the traced calls recorded spans"


def test_layer_counts_repeat_and_match_known_ratios():
    from perfbench.run import LAYER_UNITS

    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            _small_traced_run(tracer)
        finally:
            tracer.uninstall()
        m = layer_metrics(tracer.spans, tracer.interval_calls, 0)
        counts.append({k: v for k, v in m.items() if LAYER_UNITS[k] in ("count", "ratio", "bytes")})
    assert counts[0] == counts[1]
    m = counts[0]
    assert m["ivf.probe.balls"] == 13          # six rungs walked twice, plus the eps-delta ball
    assert m["ekeland.search.calls"] == 1
    assert 2.9 < m["ekeland.points_per_grid_point"] < 3.2
    assert m["interval.calls"] >= 1
    assert m["ivf.values.points"] > 0 and m["expr.eval.points"] >= m["ivf.values.points"]


# -- oracles --------------------------------------------------------------------


def test_central_difference_oracle_is_sorted_endpoint_pair():
    # quadratic: lower x^2, upper 2x^2; at x=-1 along +1 the slopes are -2 and -4
    lo, hi = central_difference_derivative("quadratic", (-1.0,), (1.0,))
    assert (lo, hi) == pytest.approx((-4.0, -2.0), rel=1e-8)


def _evp_report():
    cell = {
        "x0": [0.0], "xbar": [0.05], "eps": 0.1, "delta": 1.0,
        "value_x0": {"lo": 0.0, "hi": 0.0}, "value_xbar": {"lo": 0.0025, "hi": 0.005},
        "ok": True, "verified_on_finer_grid": True,
    }
    return {"verdict": {"all_ok": True}, "inputs": {"eps": [0.1], "delta": [1.0]},
            "evidence": [cell]}


def test_evp_oracle_rechecks_distance_and_descent():
    check_evp_report(_evp_report())
    far = _evp_report()
    far["evidence"][0]["x0"] = [0.5]
    with pytest.raises(Mismatch, match="eps/delta"):
        check_evp_report(far)
    ascent = _evp_report()
    ascent["evidence"][0]["value_x0"] = {"lo": 0.0, "hi": 1.0}
    with pytest.raises(Mismatch, match="dominate"):
        check_evp_report(ascent)


def test_metric_names_and_units_match_benchmark_json():
    from perfbench import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS

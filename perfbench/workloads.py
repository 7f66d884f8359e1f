"""Seeded inputs, operations and output oracles of the three workloads.

Every point, direction, ``xbar`` and command the program receives is drawn
here from the run's seed, so the program only ever sees generated inputs.
Each op has an oracle that checks what the program returned without relying
on byte-identical reports: a documented change in sampled bits still passes,
a wrong verdict or value does not.

This module is imported by the worker process after ``ivfkit`` is importable.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# Endpoint fields of catalog entries, written out independently of the
# program's expression language.  Each maps an (N, dim) array to (lower, upper).
CLOSED_FORMS: dict[str, Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = {
    "paper-levelset": lambda P: (
        P[:, 0] ** 2 + 3 * np.exp(P[:, 1] ** 2),
        2 * P[:, 0] ** 2 + 4 * np.exp(P[:, 1] ** 2),
    ),
    "paper-proper": lambda P: (P[:, 0] + 0.0, np.exp(P[:, 0]) + P[:, 1] ** 2),
    "quadratic": lambda P: (P[:, 0] ** 2, 2 * P[:, 0] ** 2),
    "constant": lambda P: (np.ones(len(P)), np.full(len(P), 2.0)),
    "linear-pair": lambda P: (np.minimum(P[:, 0], 2 * P[:, 0]), np.maximum(P[:, 0], 2 * P[:, 0])),
    "abs-pair": lambda P: (np.abs(P[:, 0]), 2 * np.abs(P[:, 0])),
    "plateau": lambda P: (
        np.maximum(np.abs(P[:, 0]) - 1, 0.0),
        2 * np.maximum(np.abs(P[:, 0]) - 1, 0.0),
    ),
}

# Entries whose endpoint fields are continuous on the whole catalog box.
CONTINUOUS_ON_BOX = tuple(CLOSED_FORMS)

# Stated tolerances of the oracles.
DERIVATIVE_REL_TOL = 1e-5      # |got - expected| <= tol * (1 + |expected|), per endpoint
CENTRAL_DIFF_STEP = 1e-6       # step of the central-difference oracle, along the unit direction
EVAL_REL_TOL = 1e-12
LEVELSET_COUNT_TOL = 0.005     # share of grid points allowed to flip at the level-set boundary
INFIMUM_TOL = 1e-3             # gH distance, as the catalog self-test uses

# The probe reports a continuous point as lsc/usc only when the endpoint slope
# times the smallest ball radius stays below its tolerance; seeded continuity
# points are drawn where slope * radius <= CONTINUITY_SLOPE_SHARE * tol.
CONTINUITY_SLOPE_SHARE = 0.5

EVP_SEARCH_RES = 251
EVP_VERIFY_RES = 501
# One block of evp-sweep ops.  Sweeps on paper-lsc-sin cost between those on
# paper-proper (cheapest) and paper-levelset (dearest); listing it twice puts
# the median op in the middle of its cost mode, not on a boundary between two.
EVP_BLOCK = ("paper-levelset", "paper-lsc-sin", "paper-lsc-sin", "paper-proper")


class Mismatch(Exception):
    """An op returned, but its output contradicts the oracle."""


# ``gateaux_derivative`` answers ``NonConvergent`` where its difference
# quotients have not settled below the tolerance.  On smooth entries that is
# the library declining a verdict it should give (the known derivative
# defect), not an error of the run: such an op is counted as refused, which
# lowers ``verdict_ratio`` and ``calculus.gateaux.nonconvergent``, and is
# neither ok nor failed.  Any other exception or exit of a derivative op fails.
DERIVATIVE_REFUSAL = "NonConvergent"


@dataclass
class Output:
    """What a CLI op leaves behind besides its report file."""

    report_bytes: int = 0
    maxrss_kb: int = 0
    spans: Optional[dict] = None


def selftest_warm_up() -> None:
    """Runs every code path once (filling the ball-point caches) and checks
    the installation before anything is timed."""
    from ivfkit.cli import run_selftest

    ok, _ = run_selftest()
    if not ok:
        raise RuntimeError("ivfkit selftest failed during set-up")


def closed_form(label: str, x) -> tuple[float, float]:
    lo, hi = CLOSED_FORMS[label](np.asarray(x, dtype=float).reshape(1, -1))
    return float(lo[0]), float(hi[0])


def central_difference_derivative(label: str, x, h) -> tuple[float, float]:
    """Sorted pair of endpoint directional derivatives along ``h``.

    This is the gH-Gateaux derivative of an interval function whose endpoint
    fields are differentiable at ``x``.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    speed = float(np.linalg.norm(h))
    step = CENTRAL_DIFF_STEP / speed
    lo, hi = CLOSED_FORMS[label](np.vstack([x + step * h, x - step * h]))
    d_lo = (lo[0] - lo[1]) / (2 * step)
    d_hi = (hi[0] - hi[1]) / (2 * step)
    return (min(d_lo, d_hi), max(d_lo, d_hi))


def slope_bound(label: str, x) -> float:
    """Largest central-difference gradient norm of the two endpoint fields at ``x``."""
    x = np.asarray(x, dtype=float)
    dim = len(x)
    grads = np.zeros((2, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = CENTRAL_DIFF_STEP
        lo, hi = CLOSED_FORMS[label](np.vstack([x + e, x - e]))
        grads[0, i] = (lo[0] - lo[1]) / (2 * CENTRAL_DIFF_STEP)
        grads[1, i] = (hi[0] - hi[1]) / (2 * CENTRAL_DIFF_STEP)
    return float(np.max(np.linalg.norm(grads, axis=1)))


def _json_endpoint(v) -> float:
    if isinstance(v, str):
        return {"-inf": -math.inf, "+inf": math.inf, "inf": math.inf}[v]
    return float(v)


def _interval(obj: dict) -> tuple[float, float]:
    return _json_endpoint(obj["lo"]), _json_endpoint(obj["hi"])


def gh_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    """gH distance of two intervals; equal infinite endpoints count as 0 apart."""
    gaps = [0.0 if p == q else abs(p - q) for p, q in zip(a, b)]
    return max(gaps)


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * (1.0 + abs(want))


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _interior_point(rng: random.Random, box, margin: float = 0.05) -> tuple[float, ...]:
    out = []
    for a, b in box.bounds:
        w = (b - a) * margin
        out.append(rng.uniform(a + w, b - w))
    return tuple(out)


def _direction(rng: random.Random, dim: int) -> tuple[float, ...]:
    speed = rng.uniform(0.5, 2.0)
    if dim == 1:
        return (speed if rng.random() < 0.5 else -speed,)
    z = np.array([rng.gauss(0.0, 1.0) for _ in range(dim)])
    return tuple((z / np.linalg.norm(z) * speed).tolist())


def _balanced_cycle(rng: random.Random, items: tuple, count: int) -> list:
    """``count`` picks that use every entry of ``items`` once per block of
    ``len(items)``, in seeded order."""
    out: list = []
    while len(out) < count:
        block = list(items)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


# --------------------------------------------------------------------------
# point-verdicts: in-process library verdicts at single points


@dataclass(frozen=True)
class VerdictOp:
    kind: str                      # "probe" or "gateaux"
    label: str
    point: tuple[float, ...]
    direction: tuple[float, ...] = ()
    expect_lsc: bool = True
    expect_usc: bool = True
    expect_derivative: tuple[float, float] = (0.0, 0.0)


class PointVerdicts:
    name = "point-verdicts"
    # per cycle: every catalog probe point, seeded continuity points and
    # seeded derivatives; derivatives dominate so the median sits among them
    PROBES_PER_CYCLE = 48
    GATEAUX_PER_ENTRY = 28
    CYCLES = 25   # enough distinct points that the slowest ops differ little between seeds
    # a traced run budgets this many seconds per op (plain and traced phase
    # together); it fixes the traced op count, so counts repeat exactly
    trace_op_budget_s = 0.0075
    trace_block = 200

    def __init__(self, seed: int, workdir: Path):
        from ivfkit import catalog

        self.entries = {e.label: e for e in catalog()}
        rng = random.Random(seed)
        differentiable = [e for e in self.entries.values() if e.differentiable]
        ops: list[VerdictOp] = []
        for _ in range(self.CYCLES):
            for e in self.entries.values():
                ops.append(VerdictOp("probe", e.label, e.probe_point, (), e.expect_lsc, e.expect_usc))
            for label in _balanced_cycle(rng, CONTINUOUS_ON_BOX, self.PROBES_PER_CYCLE):
                ops.append(VerdictOp("probe", label, self._continuity_point(rng, label)))
            for e in differentiable:
                for _ in range(self.GATEAUX_PER_ENTRY):
                    x = _interior_point(rng, e.box)
                    h = _direction(rng, e.ivf.dim)
                    ops.append(
                        VerdictOp("gateaux", e.label, x, h,
                                  expect_derivative=central_difference_derivative(e.label, x, h))
                    )
        rng.shuffle(ops)
        self.ops = ops

    def _continuity_point(self, rng: random.Random, label: str) -> tuple[float, ...]:
        from ivfkit import ProbeParams

        params = ProbeParams()
        limit = CONTINUITY_SLOPE_SHARE * params.tol / params.delta_ladder[-1]
        box = self.entries[label].box
        for _ in range(100_000):
            x = _interior_point(rng, box)
            if slope_bound(label, x) <= limit:
                return x
        raise RuntimeError(f"no point of {label} meets the continuity precondition")

    warm_up = staticmethod(selftest_warm_up)

    def refusal(self, op: VerdictOp, status: str) -> bool:
        return op.kind == "gateaux" and status == DERIVATIVE_REFUSAL

    def run(self, op: VerdictOp, index: int):
        from ivfkit import continuity_report, endpoint_lsc_equivalence, gateaux_derivative

        f = self.entries[op.label].ivf
        if op.kind == "probe":
            return continuity_report(f, op.point), endpoint_lsc_equivalence(f, op.point)
        return gateaux_derivative(f, op.point, op.direction)

    def check(self, op: VerdictOp, result, index: int) -> None:
        if op.kind == "probe":
            rep, eq = result
            where = f"{op.label} at {list(op.point)}"
            _check(rep.lsc == op.expect_lsc and rep.usc == op.expect_usc,
                   f"probe {where}: lsc={rep.lsc} usc={rep.usc}, expected {op.expect_lsc}/{op.expect_usc}")
            _check(rep.continuous == (op.expect_lsc and op.expect_usc),
                   f"probe {where}: continuous={rep.continuous}")
            _check(eq.interval_route == op.expect_lsc and eq.agrees,
                   f"probe {where}: endpoint lsc route {eq.to_json()}")
            return
        got = (result.value.lo, result.value.hi)
        want = op.expect_derivative
        _check(all(_close(g, w, DERIVATIVE_REL_TOL) for g, w in zip(got, want)),
               f"derivative of {op.label} at {list(op.point)} along {list(op.direction)}: "
               f"got {list(got)}, central difference {list(want)}")


# --------------------------------------------------------------------------
# evp-sweep: in-process CLI sweeps of the variational search on 2-D grids


@dataclass(frozen=True)
class SweepOp:
    label: str
    argv: tuple[str, ...]


def _sample_xbar(rng: random.Random, label: str, eps: float, delta: float) -> tuple[float, ...]:
    """A point strictly within ``eps`` of the sampled infimum (with 10% slack)
    where both endpoint slopes stay 10% below ``delta``.

    The slope condition makes ``xbar`` a common minimizer of both endpoints of
    the cone ``F + delta*|x - xbar|``, which stage 1 of the search needs; where
    the endpoint minimizers split, ``evp_search`` raises EmptyArgmin instead.
    """
    if label == "paper-lsc-sin":
        # the axes carry the infimum [-2,-1]; the odd grid contains them
        t = rng.uniform(-0.9, 0.9)
        return (0.0, t) if rng.random() < 0.5 else (t, 0.0)
    regions = {
        "paper-levelset": ((3.0, 4.0), ((-0.7, 0.7), (-0.7, 0.7))),
        "paper-proper": ((-2.0, math.exp(-2.0)), ((-2.0, -2.0 + eps), (-0.7, 0.7))),
        "quadratic": ((0.0, 0.0), ((-1.0, 1.0),)),
    }
    inf, region = regions[label]
    for _ in range(100_000):
        x = tuple(rng.uniform(a, b) for a, b in region)
        lo, hi = closed_form(label, x)
        if (lo < inf[0] + 0.9 * eps and hi < inf[1] + 0.9 * eps
                and 1.1 * slope_bound(label, x) <= delta):
            return x
    raise RuntimeError(f"no xbar for {label} at eps={eps} delta={delta}")


def check_evp_report(report: dict) -> None:
    """Oracle of an ``evp`` report: every cell ok, plus an own recheck of the
    distance bound and descent from the reported fields."""
    _check(report["verdict"]["all_ok"] is True, "evp: all_ok is not true")
    cells = report["evidence"]
    _check(len(cells) == len(report["inputs"]["eps"]) * len(report["inputs"]["delta"]),
           "evp: cell count does not match the sweep")
    for cell in cells:
        x0 = np.array(cell["x0"])
        xbar = np.array(cell["xbar"])
        dist = float(np.linalg.norm(x0 - xbar))
        _check(dist < cell["eps"] / cell["delta"],
               f"evp: |x0-xbar|={dist} not below eps/delta at eps={cell['eps']} delta={cell['delta']}")
        v0, vbar = _interval(cell["value_x0"]), _interval(cell["value_xbar"])
        _check(v0[0] <= vbar[0] and v0[1] <= vbar[1],
               f"evp: F(x0)={v0} does not dominate into F(xbar)={vbar}")
        _check(cell["ok"] is True and cell["verified_on_finer_grid"] is not False,
               "evp: cell not ok")


class EvpSweep:
    name = "evp-sweep"
    BLOCKS = 24
    trace_op_budget_s = 1.2
    trace_block = len(EVP_BLOCK)

    def __init__(self, seed: int, workdir: Path):
        from ivfkit.catalog import get_function

        rng = random.Random(seed)
        self.workdir = workdir
        ops = []
        for label in _balanced_cycle(rng, EVP_BLOCK, len(EVP_BLOCK) * self.BLOCKS):
            entry = get_function(label)
            eps = (round(rng.uniform(0.2, 0.5), 6), round(rng.uniform(0.5, 1.0), 6))
            delta = (round(rng.uniform(1.1, 1.5), 6), round(rng.uniform(1.5, 3.0), 6))
            xbar = _sample_xbar(rng, label, eps[0], delta[0])
            box = ",".join(f"{a!r}:{b!r}" for a, b in entry.box.bounds)
            argv = (
                "evp", f"--fn={label}", f"--xbar={_fmt(xbar)}",
                f"--eps={_fmt(eps)}", f"--delta={_fmt(delta)}", f"--box={box}",
                f"--res={EVP_SEARCH_RES},{EVP_SEARCH_RES}",
                f"--verify-res={EVP_VERIFY_RES},{EVP_VERIFY_RES}",
            )
            ops.append(SweepOp(label, argv))
        self.ops = ops

    warm_up = staticmethod(selftest_warm_up)

    def refusal(self, op: SweepOp, status: str) -> bool:
        return False

    def _out(self, index: int) -> Path:
        return self.workdir / f"evp-{index}.json"

    def run(self, op: SweepOp, index: int):
        from ivfkit.cli import main

        out = self._out(index)
        rc = main([*op.argv, f"--out={out}"])
        if rc != 0:
            raise RuntimeError(f"evp exited {rc}")
        return Output(report_bytes=out.stat().st_size)

    def check(self, op: SweepOp, result, index: int) -> None:
        path = self._out(index)
        report = json.loads(path.read_text())
        path.unlink()
        check_evp_report(report)


# --------------------------------------------------------------------------
# cli-cold: one fresh ``python -m ivfkit.cli`` process per op


@dataclass(frozen=True)
class CliOp:
    command: str
    argv: tuple[str, ...]
    label: str = ""
    point: tuple[float, ...] = ()
    direction: tuple[float, ...] = ()


CLI_COMMANDS = ("eval", "probe", "levelset", "argmin", "derivative", "evp", "seq", "selftest")


class CliCold:
    name = "cli-cold"
    CYCLES = 8
    trace_op_budget_s = 3.6
    trace_block = len(CLI_COMMANDS)

    def __init__(self, seed: int, workdir: Path, src: Path, traced_entry: Optional[Path] = None):
        from ivfkit import catalog
        from ivfkit.catalog import sequence_catalog

        self.entries = {e.label: e for e in catalog()}
        self.sequences = {s.label: s for s in sequence_catalog()}
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": str(src)}
        self.traced_entry = traced_entry
        self.traced = False
        rng = random.Random(seed)
        self.ops = [
            self._make(rng, cmd)
            for cmd in _balanced_cycle(rng, CLI_COMMANDS, len(CLI_COMMANDS) * self.CYCLES)
        ]

    def _make(self, rng: random.Random, cmd: str) -> CliOp:
        if cmd == "eval":
            label = rng.choice(CONTINUOUS_ON_BOX)
            x = _interior_point(rng, self.entries[label].box)
            return CliOp(cmd, (cmd, f"--fn={label}", f"--at={_fmt(x)}"), label, x)
        if cmd == "probe":
            e = rng.choice(list(self.entries.values()))
            return CliOp(cmd, (cmd, f"--fn={e.label}", f"--at={_fmt(e.probe_point)}"), e.label)
        if cmd == "levelset":
            res = (rng.randrange(80, 161), rng.randrange(80, 161))
            alpha_hi = round(rng.uniform(8.0, 12.0), 6)
            return CliOp(cmd, (cmd, "--fn=paper-levelset", f"--alpha=[-1,{alpha_hi!r}]",
                               "--box=-3:3,-3:3", f"--res={res[0]},{res[1]}"),
                         "paper-levelset", (alpha_hi,))
        if cmd == "argmin":
            e = rng.choice(list(self.entries.values()))
            res = ",".join(str(r + 2 * rng.randrange(0, 6)) for r in e.min_grid_resolution)
            box = ",".join(f"{a!r}:{b!r}" for a, b in e.box.bounds)
            return CliOp(cmd, (cmd, f"--fn={e.label}", f"--box={box}", f"--res={res}"), e.label)
        if cmd == "derivative":
            e = rng.choice([e for e in self.entries.values() if e.differentiable])
            x = _interior_point(rng, e.box)
            h = _direction(rng, e.ivf.dim)
            return CliOp(cmd, (cmd, f"--fn={e.label}", f"--at={_fmt(x)}", f"--dir={_fmt(h)}"),
                         e.label, x, h)
        if cmd == "evp":
            eps = round(rng.uniform(0.01, 0.1), 6)
            delta = round(rng.uniform(0.5, 2.0), 6)
            xbar = _sample_xbar(rng, "quadratic", eps, delta)[0]
            return CliOp(cmd, (cmd, "--fn=quadratic", f"--xbar={xbar!r}", f"--eps={eps!r}",
                               f"--delta={delta!r}", "--box=-2:2", "--res=4001",
                               "--verify-res=40001"), "quadratic")
        if cmd == "seq":
            label = rng.choice(sorted(self.sequences))
            return CliOp(cmd, (cmd, f"--label={label}"), label)
        return CliOp(cmd, (cmd,))

    def warm_up(self) -> None:
        """Each op starts a fresh process, so nothing in this one needs warming."""

    def refusal(self, op: CliOp, status: str) -> bool:
        return op.command == "derivative" and status == DERIVATIVE_REFUSAL

    def _out(self, index: int) -> Path:
        return self.workdir / f"cli-{index}.json"

    def run(self, op: CliOp, index: int) -> Output:
        out = self._out(index)
        spans_path = self.workdir / f"cli-{index}.spans.json"
        if self.traced:
            cmd = [sys.executable, str(self.traced_entry), "cli-op", str(spans_path), "--",
                   *op.argv, f"--out={out}"]
        else:
            cmd = [sys.executable, "-m", "ivfkit.cli", *op.argv, f"--out={out}"]
        with open(self.workdir / "stderr.txt", "w+b") as err:
            proc = subprocess.Popen(cmd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        spans = None
        if self.traced and spans_path.exists():
            spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        size = out.stat().st_size if out.exists() else 0
        result = Output(size, usage.ru_maxrss, spans)
        if "Traceback" in stderr:
            raise RuntimeError(f"{op.command} printed a traceback")
        if proc.returncode != 0:
            kind = "exit"
            try:
                kind = json.loads(stderr.strip().splitlines()[-1])["error"]
            except (ValueError, KeyError, IndexError):
                pass
            raise CliFailure(kind, result)
        return result

    def check(self, op: CliOp, result: Output, index: int) -> None:
        path = self._out(index)
        report = json.loads(path.read_text())
        path.unlink()
        getattr(self, "_check_" + op.command)(op, report)

    def _check_eval(self, op: CliOp, report: dict) -> None:
        got = _interval(report["verdict"]["value"])
        want = closed_form(op.label, op.point)
        _check(all(_close(g, w, EVAL_REL_TOL) for g, w in zip(got, want)),
               f"eval {op.label} at {list(op.point)}: got {got}, closed form {want}")

    def _check_probe(self, op: CliOp, report: dict) -> None:
        e = self.entries[op.label]
        v = report["verdict"]
        _check(v["lsc"] == e.expect_lsc and v["usc"] == e.expect_usc,
               f"probe {op.label}: lsc={v['lsc']} usc={v['usc']}, expected {e.expect_lsc}/{e.expect_usc}")

    def _check_levelset(self, op: CliOp, report: dict) -> None:
        inputs = report["inputs"]
        res = inputs["res"]
        axes = [np.linspace(a, b, r) for (a, b), r in zip(inputs["box"], res)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        lo, hi = CLOSED_FORMS[op.label](pts)
        a_lo, a_hi = -1.0, op.point[0]
        # member unless alpha strictly dominates the value
        strictly_below = (a_lo <= lo) & (a_hi <= hi) & ((a_lo < lo) | (a_hi < hi))
        want = int((~strictly_below).sum())
        got = report["verdict"]["member_count"]
        _check(abs(got - want) <= LEVELSET_COUNT_TOL * len(pts),
               f"levelset: {got} members, closed form gives {want}")
        _check(report["verdict"]["bounded_evidence"] is True, "levelset: not bounded")

    def _check_argmin(self, op: CliOp, report: dict) -> None:
        e = self.entries[op.label]
        v = report["verdict"]
        pts = np.array(report["evidence"]["points"], dtype=float).reshape(-1, e.ivf.dim)
        _check(v["proper"] == e.expect_proper, f"argmin {op.label}: proper={v['proper']}")
        _check(v["argmin_count"] >= 1 and len(pts) >= 1, f"argmin {op.label}: empty")
        _check(bool(np.all(e.argmin_predicate(pts))),
               f"argmin {op.label}: a reported point fails the catalog predicate")
        if e.expect_infimum is not None:
            want = (e.expect_infimum.lo, e.expect_infimum.hi)
            _check(gh_distance(_interval(v["infimum"]), want) <= INFIMUM_TOL,
                   f"argmin {op.label}: infimum {v['infimum']} vs {want}")

    def _check_derivative(self, op: CliOp, report: dict) -> None:
        got = _interval(report["verdict"]["value"])
        want = central_difference_derivative(op.label, op.point, op.direction)
        _check(all(_close(g, w, DERIVATIVE_REL_TOL) for g, w in zip(got, want)),
               f"derivative {op.label} at {list(op.point)}: got {got}, central difference {want}")

    def _check_evp(self, op: CliOp, report: dict) -> None:
        check_evp_report(report)

    def _check_seq(self, op: CliOp, report: dict) -> None:
        s = self.sequences[op.label]
        kind = report["verdict"]["kind"]
        checks = {ev["check"]: ev for ev in report["evidence"]}
        if s.expect_limit is not None:
            _check(kind == "converges", f"seq {op.label}: kind {kind}")
            got = _interval(checks["convergence"]["limit"])
            _check(gh_distance(got, (s.expect_limit.lo, s.expect_limit.hi)) <= s.convergence_eps,
                   f"seq {op.label}: limit {got}")
        if s.diverges_pos_inf:
            _check(kind == "diverges_pos_inf", f"seq {op.label}: kind {kind}")
        for name, want in (("liminf", s.expect_liminf), ("limsup", s.expect_limsup)):
            if want is not None:
                got = _interval(checks[name]["value"])
                _check(gh_distance(got, (want.lo, want.hi)) <= s.convergence_eps,
                       f"seq {op.label}: {name} {got}")

    def _check_selftest(self, op: CliOp, report: dict) -> None:
        v = report["verdict"]
        _check(v["ok"] is True and v["passed"] == v["total"], "selftest: not ok")


class CliFailure(Exception):
    """A CLI process exited non-zero; ``kind`` is the reported error type."""

    def __init__(self, kind: str, result: Output):
        super().__init__(kind)
        self.kind = kind
        self.result = result


WORKLOADS = {w.name: w for w in (CliCold, EvpSweep, PointVerdicts)}

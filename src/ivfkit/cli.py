"""Command-line surface: evaluation, probes, level sets, argmin, derivatives,
the variational search, sequence verdicts, and the built-in self-test.

Reports are JSON records ``{op, inputs, verdict, evidence, params, seed}``
with sorted keys; byte-identical across runs for a fixed seed and config
(a timestamp is added only when requested).  They are strict JSON: a
non-finite float is written ``"+inf"``, ``"-inf"`` or ``"nan"``, as
interval endpoints are.  CSV output is available for sweeps and point lists.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from dataclasses import dataclass, fields as dataclass_fields
from typing import Optional

import numpy as np

from .catalog import (
    catalog as function_catalog,
    check_function_entry,
    check_sequence_entry,
    get_function,
    get_sequence,
    ivf_from_expressions,
    sequence_catalog,
)
from .calculus import _checked_ladder, gateaux_derivative
from .ekeland import (
    EkelandInput,
    _sweep_cell,
    level_bound_lemma_check,
)
from .errors import InvalidEndpoints, IvfkitError
from .interval import (
    Interval,
    format_interval,
    gh_dist,
    gh_sub,
    inf_family,
    interval_to_json,
    norm,
    parse_interval,
    sup_family,
)
from .ivf import (
    Box,
    IVF,
    ProbeParams,
    SampleGrid,
    _check_dim,
    _grid_axes,
    argmin_over,
    continuity_report,
    endpoint_lsc_equivalence,
    infimum_over,
    is_proper_probe,
    level_bounded_probe,
    level_member_mask,
    sample_level_set,
)
from .sequences import (
    check_convergence,
    check_divergence,
    endpointwise_limit,
    liminf_seq,
    limsup_seq,
)

__all__ = ["main", "build_parser", "run", "RunConfig", "run_selftest"]


@dataclass(frozen=True)
class RunConfig:
    """Validated options of one CLI invocation, built from flags or a config file."""

    command: str
    fn: Optional[str] = None
    lower: Optional[str] = None
    upper: Optional[str] = None
    dim: Optional[int] = None
    at: Optional[str] = None
    dir: Optional[str] = None
    xbar: Optional[str] = None
    alpha: Optional[str] = None
    box: Optional["Box"] = None
    res: Optional[tuple[int, ...]] = None
    eps: Optional[tuple[float, ...]] = None
    delta: Optional[tuple[float, ...]] = None
    tol: Optional[float] = None
    deltas: Optional[tuple[float, ...]] = None
    samples: Optional[int] = None
    ladder: Optional[tuple[float, ...]] = None
    verify_res: Optional[tuple[int, ...]] = None
    gateaux: bool = False
    label: Optional[str] = None
    horizon: Optional[int] = None
    limit: Optional[str] = None
    out: Optional[str] = None
    format: str = "json"
    seed: Optional[int] = None
    timestamp: bool = False

    def __post_init__(self) -> None:
        # eps is one value for seq and a list for evp
        for name in ("tol", "eps", "delta"):
            value = getattr(self, name)
            values = value if isinstance(value, tuple) else (value,)
            if value is not None and not all(math.isfinite(v) and v > 0 for v in values):
                raise ValueError(f"{name} must be finite and positive")
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        for name in ("at", "dir", "xbar"):
            if getattr(self, name) is not None:
                _parse_point(getattr(self, name))
        for res in (self.res, self.verify_res) if self.box else ():
            # fewer than two points on an axis is the grid's own error, raised
            # when a command builds the grid
            if res and min(res) > 1:
                _grid_axes(self.box, res)
        if self.deltas is not None:
            ProbeParams(delta_ladder=self.deltas)
        if self.ladder is not None:
            _checked_ladder(self.ladder)

    @classmethod
    def from_namespace(cls, ns: argparse.Namespace) -> "RunConfig":
        known = {f.name for f in dataclass_fields(cls)}
        picked = {k: v for k, v in vars(ns).items() if k in known}
        return cls(**picked)


def _parse_point(text: str) -> tuple[float, ...]:
    point = tuple(float(v) for v in text.split(","))
    if not all(math.isfinite(v) for v in point):
        raise ValueError(f"point {text!r} must be finite")
    return point


def _parse_box(text: str) -> Box:
    bounds = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        if not _:
            raise argparse.ArgumentTypeError(f"box bound {part!r} is not lo:hi")
        bounds.append((float(lo), float(hi)))
    try:
        return Box(tuple(bounds))
    except InvalidEndpoints as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_resolution(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _probe_params(args: RunConfig) -> ProbeParams:
    given = {"delta_ladder": args.deltas, "samples_per_ball": args.samples,
             "seed": args.seed, "tol": args.tol}
    return ProbeParams(**{k: v for k, v in given.items() if v is not None})


def _resolve_function(args: RunConfig) -> IVF:
    if args.fn:
        return get_function(args.fn).ivf
    if args.lower and args.upper:
        return ivf_from_expressions(
            args.lower, args.upper, label="cli-expr", dim=args.dim
        )
    raise argparse.ArgumentTypeError("supply --fn LABEL or both --lower and --upper")


def _report(op: str, inputs: dict, verdict, evidence, params: dict, seed) -> dict:
    return {
        "op": op,
        "inputs": inputs,
        "verdict": verdict,
        "evidence": evidence,
        "params": params,
        "seed": seed,
    }


def _finite(obj):
    """``obj`` with each non-finite float written as ``interval_to_json``
    writes an endpoint: ``"+inf"``, ``"-inf"``, and ``"nan"`` for NaN."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("+inf" if obj > 0 else "-inf")
    return obj


def _emit(report: dict, args: RunConfig, csv_rows: Optional[list[dict]] = None) -> None:
    if getattr(args, "timestamp", False):
        report = {**report, "timestamp": time.time()}
    if args.format == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(csv_rows[0].keys()))
        writer.writeheader()
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        try:
            text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError:  # a non-finite float, which RFC 8259 has no token for
            text = json.dumps(_finite(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_eval(args: RunConfig) -> int:
    f = _resolve_function(args)
    value = f(_parse_point(args.at))
    report = _report(
        "eval",
        {"fn": f.label, "at": list(_parse_point(args.at))},
        {"value": interval_to_json(value), "text": format_interval(value)},
        [],
        {},
        args.seed,
    )
    _emit(report, args)
    return 0


def _cmd_probe(args: RunConfig) -> int:
    f = _resolve_function(args)
    params = _probe_params(args)
    point = _parse_point(args.at)
    rep = continuity_report(f, point, params)
    eq = endpoint_lsc_equivalence(f, point, params)
    report = _report(
        "probe",
        {"fn": f.label, "at": list(point)},
        {
            "lsc": rep.lsc,
            "usc": rep.usc,
            "continuous": rep.continuous,
            "liminf": interval_to_json(rep.liminf),
            "limsup": interval_to_json(rep.limsup),
        },
        [rep.to_json(), eq.to_json()],
        {"delta_ladder": list(params.delta_ladder), "samples_per_ball": params.samples_per_ball, "tol": params.tol},
        params.seed,
    )
    _emit(report, args)
    return 0


def _cmd_levelset(args: RunConfig) -> int:
    f = _resolve_function(args)
    alpha = parse_interval(args.alpha)
    grid = SampleGrid(args.box, args.res)
    members = sample_level_set(f, alpha, grid)
    bound_reports = level_bounded_probe(f, [alpha], grid)
    report = _report(
        "levelset",
        {"fn": f.label, "alpha": interval_to_json(alpha), "box": list(args.box.bounds), "res": list(grid.resolution)},
        {
            "member_count": int(len(members)),
            "bounded_evidence": bound_reports[0].bounded_evidence,
        },
        [bound_reports[0].to_json()],
        {},
        args.seed,
    )
    rows = [{f"x{i+1}": p[i] for i in range(f.dim)} for p in members.tolist()]
    _emit(report, args, csv_rows=rows or [{"empty": True}])
    return 0


def _cmd_argmin(args: RunConfig) -> int:
    f = _resolve_function(args)
    grid = SampleGrid(args.box, args.res)
    tol = args.tol if args.tol is not None else 1e-6
    # the argmin reads every grid value; the infimum then comes from the memo
    points = argmin_over(f, grid, tol)
    inf = infimum_over(f, grid)
    report = _report(
        "argmin",
        {"fn": f.label, "box": list(args.box.bounds), "res": list(grid.resolution), "tol": tol},
        {
            "infimum": interval_to_json(inf),
            "argmin_count": int(len(points)),
            "proper": is_proper_probe(f, grid),
        },
        {"points": [list(p) for p in points.tolist()[:100]]},
        {},
        args.seed,
    )
    rows = [{f"x{i+1}": p[i] for i in range(f.dim)} for p in points.tolist()]
    _emit(report, args, csv_rows=rows or [{"empty": True}])
    return 0


def _cmd_derivative(args: RunConfig) -> int:
    f = _resolve_function(args)
    direction = _parse_point(args.dir)
    if len(direction) != 1:
        # a direction of one coordinate is the same along every axis
        _check_dim(f, len(direction))
    kwargs = {"ladder": args.ladder} if args.ladder else {}
    d = gateaux_derivative(f, _parse_point(args.at), direction, **kwargs)
    report = _report(
        "derivative",
        {"fn": f.label, "at": list(_parse_point(args.at)), "dir": list(direction)},
        {"value": interval_to_json(d.value), "residual": d.residual},
        [d.to_json()],
        {"ladder": list(d.lambda_ladder)},
        args.seed,
    )
    _emit(report, args)
    return 0


def _cmd_evp(args: RunConfig) -> int:
    f = _resolve_function(args)
    grid = SampleGrid(args.box, args.res)
    tol = args.tol if args.tol is not None else 1e-9
    directions = np.vstack([np.eye(f.dim), -np.eye(f.dim)])
    # one verify grid for the whole sweep, so f is evaluated on it once
    fine = SampleGrid(args.box, args.verify_res) if args.verify_res else None
    # cells of one delta share its search and verification
    searched: dict = {}
    cells = []
    rows = []
    all_ok = True
    for eps in args.eps:
        for delta in args.delta:
            inp = EkelandInput(
                f=f, xbar=_parse_point(args.xbar), eps=eps, delta=delta,
                box=args.box, grid=grid, tol=tol,
            )
            cert, bound, verified = _sweep_cell(
                inp, searched, directions if args.gateaux else None, fine
            )
            ok = cert.valid and (verified is not False)
            if bound is not None:
                ok = ok and bound <= delta + 1e-3
            all_ok = all_ok and ok
            cell = cert.to_json()
            cell["grid"] = {"box": list(args.box.bounds), "res": list(grid.resolution)}
            cell["gateaux_bound"] = bound
            cell["verified_on_finer_grid"] = verified
            cell["ok"] = ok
            cells.append(cell)
            rows.append(
                {
                    "eps": eps,
                    "delta": delta,
                    "x0": ";".join(repr(v) for v in cert.x0),
                    "dist": cert.dist_x0_xbar,
                    "bound": cert.dist_bound,
                    "distance_ok": cert.dist_bound_ok,
                    "descent_ok": cert.descent_ok,
                    "uniqueness_violations": len(cert.violations),
                    "ties": len(cert.ties),
                    "gateaux_bound": bound,
                    "verified": verified,
                    "ok": ok,
                }
            )
    report = _report(
        "evp",
        {
            "fn": f.label,
            "xbar": list(_parse_point(args.xbar)),
            "eps": list(args.eps),
            "delta": list(args.delta),
            "box": list(args.box.bounds),
            "res": list(grid.resolution),
            "tol": tol,
        },
        {"all_ok": all_ok, "cells": len(cells)},
        cells,
        {"verify_res": list(args.verify_res) if args.verify_res else None},
        args.seed,
    )
    _emit(report, args, csv_rows=rows)
    return 0 if all_ok else 1


def _cmd_seq(args: RunConfig) -> int:
    entry = get_sequence(args.label)
    horizon = args.horizon if args.horizon is not None else entry.horizon
    eps = args.eps if args.eps is not None else entry.convergence_eps
    evidence = []
    if args.limit:
        target = parse_interval(args.limit)
    else:
        target = entry.expect_limit
    if target is not None:
        v = check_convergence(entry.seq, target, eps, horizon)
        evidence.append({"check": "convergence", **v.to_json()})
    ep = endpointwise_limit(entry.seq, horizon, max(eps, 1e-12))
    evidence.append({"check": "endpointwise", **ep.to_json()})
    evidence.append(
        {"check": "liminf", "value": interval_to_json(liminf_seq(entry.seq, horizon))}
    )
    evidence.append(
        {"check": "limsup", "value": interval_to_json(limsup_seq(entry.seq, horizon))}
    )
    div = check_divergence(entry.seq, [1.0, 10.0, 100.0], horizon)
    evidence.append({"check": "divergence", **div.to_json()})
    report = _report(
        "seq",
        {"label": args.label, "horizon": horizon, "eps": eps},
        {"kind": evidence[0]["kind"] if target is not None else div.kind.value},
        evidence,
        {},
        args.seed,
    )
    _emit(report, args)
    return 0


def run_selftest(seed: int = 7) -> tuple[bool, list[dict]]:
    """Every built-in example with its expected values; returns (ok, records)."""
    records: list[dict] = []

    def check(name: str, ok: bool, **detail) -> None:
        records.append({"check": name, "ok": bool(ok), **detail})

    # interval examples
    for n in (1, 2, 5, 100):
        got = gh_sub(Interval(1.0 / n, 1.0), Interval(0, 1))
        check(
            f"interval/gh-sub-shrinking-n{n}",
            got == Interval(0.0, 1.0 / n) and norm(got) == 1.0 / n,
            value=interval_to_json(got),
        )
    fam = [Interval(1.0 / n, 1.0) for n in range(1, 1001)]
    got = inf_family(fam)
    check(
        "interval/inf-family-shrinking",
        got == Interval(1.0 / 1000, 1.0) and gh_dist(got, Interval(0, 1)) <= 1e-3,
        value=interval_to_json(got),
    )
    got = sup_family([Interval(1.0 / n**2 + 1.0, 3.0) for n in range(1, 1001)])
    check("interval/sup-family-squeezed", got == Interval(2, 3), value=interval_to_json(got))
    pair = [Interval(-2, 4), Interval(-1, 3)]
    check(
        "interval/finite-pair-bounds",
        inf_family(pair) == Interval(-2, 3) and sup_family(pair) == Interval(-1, 4),
    )

    # catalog entries against their recorded expectations
    for entry in sequence_catalog():
        records.extend(check_sequence_entry(entry))
    params = ProbeParams(seed=seed)
    for entry in function_catalog():
        records.extend(check_function_entry(entry, params))

    # level-set reduction, pointwise
    level_entry = get_function("paper-levelset")
    grid = SampleGrid(Box(((-3.0, 3.0), (-3.0, 3.0))), (100, 100))
    pts = grid.points()
    by_dominance = level_member_mask(level_entry.ivf, Interval(-1, 10), pts)
    by_reduction = pts[:, 0] ** 2 + 2 * np.exp(pts[:, 1] ** 2) < 5
    mismatches = int(np.sum(by_dominance != by_reduction))
    check("levelset/analytic-reduction", mismatches == 0, mismatches=mismatches, points=int(len(pts)))

    # bounded-region reduction for the distance cone
    shell_grid = SampleGrid(Box(((-3.0, 3.0), (-3.0, 3.0))), (101, 101))
    check(
        "lemma/distance-cone-region",
        level_bound_lemma_check((0.0, 0.0), Interval(1, 2), shell_grid),
    )

    # variational sweep on the quadratic catalog entry
    quad = get_function("quadratic")
    box = Box(((-2.0, 2.0),))
    evp_grid = SampleGrid(box, (4001,))
    fine = SampleGrid(box, (40001,))
    directions = np.array([[1.0], [-1.0]])
    searched: dict = {}
    for eps in (0.01, 0.1):
        for delta in (0.5, 1.0, 2.0):
            inp = EkelandInput(
                f=quad.ivf, xbar=(0.05,), eps=eps, delta=delta,
                box=box, grid=evp_grid, tol=1e-9,
            )
            cert, bound, verified = _sweep_cell(inp, searched, directions, fine)
            check(
                f"evp/quadratic-eps{eps:g}-delta{delta:g}",
                cert.valid and verified and bound <= delta + 1e-3,
                dist=cert.dist_x0_xbar,
                bound=cert.dist_bound,
                gateaux_bound=bound,
                violations=len(cert.violations),
                verified=verified,
            )

    ok = all(r["ok"] for r in records)
    return ok, records


def _cmd_selftest(args: RunConfig) -> int:
    seed = args.seed if args.seed is not None else 7
    ok, records = run_selftest(seed=seed)
    report = _report(
        "selftest",
        {},
        {"ok": ok, "passed": sum(r["ok"] for r in records), "total": len(records)},
        records,
        {},
        seed,
    )
    _emit(report, args)
    return 0 if ok else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report to this path instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--timestamp", action="store_true", help="add a timestamp field to the report")


def _add_function_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fn", help="catalog label")
    p.add_argument("--lower", help="lower endpoint expression")
    p.add_argument("--upper", help="upper endpoint expression")
    p.add_argument("--dim", type=int, default=None)


def _add_probe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--deltas", type=_parse_floats, default=None, help="ball radius ladder")
    p.add_argument("--samples", type=int, default=None, help="samples per ball")
    p.add_argument("--tol", type=float, default=None)


class _UsageError(Exception):
    """Malformed command line or config file; the CLI exits 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ivfkit",
        description="Interval-valued function calculus and certified approximate minimization",
    )
    parser.add_argument("--config", help="key=value file providing flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a function at a point")
    _add_function_flags(p)
    p.add_argument("--at", required=True)
    _add_common(p)

    p = sub.add_parser("probe", help="semicontinuity probes at a point")
    _add_function_flags(p)
    p.add_argument("--at", required=True)
    _add_probe_flags(p)
    _add_common(p)

    p = sub.add_parser("levelset", help="sample a level set over a grid")
    _add_function_flags(p)
    p.add_argument("--alpha", required=True, help='interval like "[-1,10]"')
    p.add_argument("--box", type=_parse_box, required=True)
    p.add_argument("--res", type=_parse_resolution, required=True)
    _add_common(p)

    p = sub.add_parser("argmin", help="sampled infimum and tolerance argmin")
    _add_function_flags(p)
    p.add_argument("--box", type=_parse_box, required=True)
    p.add_argument("--res", type=_parse_resolution, required=True)
    p.add_argument("--tol", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("derivative", help="directional derivative by quotient ladder")
    _add_function_flags(p)
    p.add_argument("--at", required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--ladder", type=_parse_floats, default=None)
    _add_common(p)

    p = sub.add_parser("evp", help="variational search with certificate")
    _add_function_flags(p)
    p.add_argument("--xbar", required=True)
    p.add_argument("--eps", type=_parse_floats, required=True)
    p.add_argument("--delta", type=_parse_floats, required=True)
    p.add_argument("--box", type=_parse_box, required=True)
    p.add_argument("--res", type=_parse_resolution, required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--verify-res", type=_parse_resolution, default=None)
    p.add_argument("--gateaux", action="store_true", help="also bound the derivative norm at x0")
    _add_common(p)

    p = sub.add_parser("seq", help="sequence verdicts by catalog label")
    p.add_argument("--label", required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--limit", default=None, help='target interval like "[0,1]"')
    _add_common(p)

    p = sub.add_parser("selftest", help="run every built-in example against its expected value")
    _add_common(p)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call uses, built on the first one."""
    return build_parser()


# flags without a value; a config file sets them with ``true`` or ``false``
_SWITCHES = ("gateaux", "timestamp")


def _apply_config(argv: list[str]) -> list[str]:
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 == len(argv):
        raise _UsageError("--config needs a file path")
    path = argv[at + 1]
    rest = argv[:at] + argv[at + 2 :]
    injected: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _SWITCHES:
                injected.extend([f"--{key}", value])
            elif value == "true":
                injected.append(f"--{key}")
            elif value != "false":
                raise _UsageError(f"config {key}={value}: expected true or false")
    # flags from the command line come last, so they win
    return [rest[0], *injected, *rest[1:]] if rest else injected


_HANDLERS = {
    "eval": _cmd_eval,
    "probe": _cmd_probe,
    "levelset": _cmd_levelset,
    "argmin": _cmd_argmin,
    "derivative": _cmd_derivative,
    "evp": _cmd_evp,
    "seq": _cmd_seq,
    "selftest": _cmd_selftest,
}


def run(config: RunConfig) -> int:
    """Dispatch a validated run configuration to its subcommand handler."""
    return _HANDLERS[config.command](config)


def _normalize_argv(argv: list[str]) -> list[str]:
    # join values that start with a single dash (negative bounds like -2:2)
    # onto their flag so argparse does not mistake them for options
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and "=" not in tok and i + 1 < len(argv):
            nxt = argv[i + 1]
            if nxt.startswith("-") and not nxt.startswith("--"):
                out.append(f"{tok}={nxt}")
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


def _fail(message: object, name: str, code: int) -> int:
    print(json.dumps({"error": name, "message": str(message)}, sort_keys=True), file=sys.stderr)
    return code


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command line; exit code 0 on success, 1 on a failed check or a
    domain error, 2 on a usage error.  Errors are one line of JSON on stderr."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _normalize_argv(_apply_config(argv))
        config = RunConfig.from_namespace(_shared_parser().parse_args(argv))
    except OSError as exc:
        return _fail(f"cannot read config: {exc}", "UsageError", 2)
    except (_UsageError, ValueError) as exc:
        return _fail(exc, "UsageError", 2)
    try:
        return run(config)
    except argparse.ArgumentTypeError as exc:
        return _fail(exc, "UsageError", 2)
    except (IvfkitError, KeyError) as exc:
        return _fail(exc, type(exc).__name__, 1)


if __name__ == "__main__":
    raise SystemExit(main())

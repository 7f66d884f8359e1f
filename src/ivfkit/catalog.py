"""Built-in interval-valued functions and sequences with expected properties.

Each entry carries the annotations the self-test suite checks: semicontinuity
flags at a probe point, sampled infimum, properness, level-boundedness
evidence, and (where meaningful) derivative values and argmin descriptions.
:func:`check_function_entry` and :func:`check_sequence_entry` turn those
annotations into pass/fail records; the self-test and the tests share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .calculus import gateaux_derivative, stationarity_check
from .expr import ExprField, max_var_index, parse_expr
from .interval import Interval, gh_dist, interval_to_json
from .ivf import IVF, Box, ProbeParams, SampleGrid, argmin_over, continuity_report
from .ivf import endpoint_lsc_equivalence, infimum_over, is_proper_probe, level_bounded_probe
from .sequences import IntervalSequence, LimitKind, check_convergence, check_divergence
from .sequences import _ReadOnce, liminf_seq, limsup_seq

__all__ = [
    "CatalogEntry",
    "SequenceEntry",
    "catalog",
    "catalog_by_label",
    "get_function",
    "sequence_catalog",
    "sequence_by_label",
    "get_sequence",
    "ivf_from_expressions",
    "check_function_entry",
    "check_sequence_entry",
]


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    ivf: IVF
    box: Box
    probe_point: tuple[float, ...]
    expect_lsc: bool
    expect_usc: bool
    expect_liminf: Optional[Interval] = None
    expect_infimum: Optional[Interval] = None
    expect_proper: bool = True
    level_alphas: tuple[Interval, ...] = ()
    expect_level_bounded: Optional[bool] = None
    min_grid_resolution: tuple[int, ...] = ()
    differentiable: bool = False
    derivative_cases: tuple[tuple[tuple[float, ...], tuple[float, ...], Interval], ...] = ()
    stationary_points: tuple[tuple[float, ...], ...] = ()
    argmin_predicate: Optional[Callable[[np.ndarray], np.ndarray]] = None
    notes: str = ""


def ivf_from_expressions(
    lower_text: str,
    upper_text: str,
    label: str = "expr",
    dim: Optional[int] = None,
    domain: Optional[Box] = None,
) -> IVF:
    """Build a function from endpoint expression texts; dim defaults to the
    largest variable index used."""
    lower_ast = parse_expr(lower_text)
    upper_ast = parse_expr(upper_text)
    inferred = max(max_var_index(lower_ast), max_var_index(upper_ast), 1)
    return IVF(
        dim=dim if dim is not None else inferred,
        lower=ExprField(lower_ast),
        upper=ExprField(upper_ast),
        label=label,
        domain=domain,
    )


def _box1(a: float, b: float) -> Box:
    return Box(((a, b),))


def _box2(a: float, b: float) -> Box:
    return Box(((a, b), (a, b)))


def _entries() -> list[CatalogEntry]:
    out: list[CatalogEntry] = []

    sin_osc = ivf_from_expressions(
        "piecewise(x1 * x2 != 0, min(sin(1/x1), 2*sin(1/x1)) + cos(x2)^2, -2)",
        "piecewise(x1 * x2 != 0, max(sin(1/x1), 2*sin(1/x1)) + cos(x2)^2, -1)",
        label="paper-lsc-sin",
    )
    out.append(
        CatalogEntry(
            label="paper-lsc-sin",
            ivf=sin_osc,
            box=_box2(-1.0, 1.0),
            probe_point=(0.0, 0.0),
            expect_lsc=True,
            expect_usc=False,
            expect_liminf=Interval(-2, -1),
            expect_infimum=Interval(-2, -1),
            level_alphas=(Interval(-2.5, -0.5),),
            expect_level_bounded=False,
            min_grid_resolution=(63, 63),
            argmin_predicate=lambda pts: (pts[:, 0] == 0.0) | (pts[:, 1] == 0.0),
            notes="oscillates along 1/x1; the axis branch carries the low values",
        )
    )

    rational = ivf_from_expressions(
        "piecewise(x1 * x2 != 0, abs(x1 * x2) / (2 * x1^2 + x2^2), 0)",
        "piecewise(x1 * x2 != 0, exp(abs(6 * x1 * x2)) / (x1^2 + x2^2), 0)",
        label="paper-endpoint-rational",
    )
    out.append(
        CatalogEntry(
            label="paper-endpoint-rational",
            ivf=rational,
            box=_box2(-1.0, 1.0),
            probe_point=(0.0, 0.0),
            expect_lsc=True,
            expect_usc=False,
            expect_liminf=Interval(0, 0),
            expect_infimum=Interval(0, 0),
            level_alphas=(Interval(-1.0, 0.5),),
            expect_level_bounded=False,
            min_grid_resolution=(63, 63),
            argmin_predicate=lambda pts: (pts[:, 0] == 0.0) | (pts[:, 1] == 0.0),
        )
    )

    levelset = ivf_from_expressions(
        "x1^2 + 3 * exp(x2^2)",
        "2 * x1^2 + 4 * exp(x2^2)",
        label="paper-levelset",
    )
    out.append(
        CatalogEntry(
            label="paper-levelset",
            ivf=levelset,
            box=_box2(-3.0, 3.0),
            probe_point=(0.3, 0.2),
            expect_lsc=True,
            expect_usc=True,
            expect_infimum=Interval(3, 4),
            level_alphas=(Interval(-1, 10),),
            expect_level_bounded=True,
            min_grid_resolution=(63, 63),
            differentiable=True,
            stationary_points=((0.0, 0.0),),
            argmin_predicate=lambda pts: (pts[:, 0] == 0.0) & (pts[:, 1] == 0.0),
            notes="level set at alpha=[-1,10] reduces to x1^2 + 2*exp(x2^2) < 5",
        )
    )

    axis_min = ivf_from_expressions(
        "piecewise(x1 != 0, -1 / abs(x1), -inf)",
        "piecewise(x1 != 0, exp(-1 / abs(x1) + x2^2), 0)",
        label="paper-argmin",
    )
    out.append(
        CatalogEntry(
            label="paper-argmin",
            ivf=axis_min,
            box=_box2(-2.0, 2.0),
            probe_point=(1.0, 0.0),
            expect_lsc=True,
            expect_usc=True,
            expect_infimum=Interval(-math.inf, 0.0),
            level_alphas=(Interval(-1.0, 1.0),),
            expect_level_bounded=False,
            min_grid_resolution=(41, 41),
            argmin_predicate=lambda pts: pts[:, 0] == 0.0,
            notes="lower endpoint escapes to -inf on the axis x1 = 0",
        )
    )

    proper = ivf_from_expressions(
        "x1", "exp(x1) + x2^2", label="paper-proper"
    )
    out.append(
        CatalogEntry(
            label="paper-proper",
            ivf=proper,
            box=_box2(-2.0, 2.0),
            probe_point=(0.0, 0.0),
            expect_lsc=True,
            expect_usc=True,
            expect_infimum=Interval(-2.0, math.exp(-2.0)),
            level_alphas=(Interval(-1.0, 0.5),),
            expect_level_bounded=False,
            min_grid_resolution=(41, 41),
            differentiable=True,
            argmin_predicate=lambda pts: (pts[:, 0] == -2.0) & (pts[:, 1] == 0.0),
        )
    )

    quadratic = ivf_from_expressions("x1^2", "2 * x1^2", label="quadratic")
    out.append(
        CatalogEntry(
            label="quadratic",
            ivf=quadratic,
            box=_box1(-2.0, 2.0),
            probe_point=(1.0,),
            expect_lsc=True,
            expect_usc=True,
            expect_liminf=Interval(1, 2),
            expect_infimum=Interval(0, 0),
            level_alphas=(Interval(1, 2), Interval(2, 3)),
            expect_level_bounded=True,
            min_grid_resolution=(4001,),
            differentiable=True,
            derivative_cases=(((1.0,), (1.0,), Interval(2, 4)),),
            stationary_points=((0.0,),),
            argmin_predicate=lambda pts: np.abs(pts[:, 0]) <= 1e-3,
        )
    )

    constant = ivf_from_expressions("1", "2", dim=1, label="constant")
    out.append(
        CatalogEntry(
            label="constant",
            ivf=constant,
            box=_box1(-1.0, 1.0),
            probe_point=(0.3,),
            expect_lsc=True,
            expect_usc=True,
            expect_liminf=Interval(1, 2),
            expect_infimum=Interval(1, 2),
            level_alphas=(Interval(5, 6),),
            expect_level_bounded=False,
            min_grid_resolution=(101,),
            differentiable=True,
            derivative_cases=(((0.3,), (1.0,), Interval(0, 0)),),
            stationary_points=((0.3,),),
            argmin_predicate=lambda pts: np.ones(pts.shape[0], dtype=bool),
        )
    )

    abs_pair = ivf_from_expressions("abs(x1)", "2 * abs(x1)", label="abs-pair")
    out.append(
        CatalogEntry(
            label="abs-pair",
            ivf=abs_pair,
            box=_box1(-2.0, 2.0),
            probe_point=(0.5,),
            expect_lsc=True,
            expect_usc=True,
            expect_infimum=Interval(0, 0),
            level_alphas=(Interval(0.5, 1.0),),
            expect_level_bounded=True,
            min_grid_resolution=(4001,),
            argmin_predicate=lambda pts: np.abs(pts[:, 0]) <= 1e-6,
            notes="directional quotients converge but their map in h is not linear at 0",
        )
    )

    step = ivf_from_expressions(
        "-1", "piecewise(x1 <= 0, 1, 0)", dim=1, label="step-upper"
    )
    out.append(
        CatalogEntry(
            label="step-upper",
            ivf=step,
            box=_box1(-1.0, 1.0),
            probe_point=(0.0,),
            expect_lsc=False,
            expect_usc=True,
            expect_infimum=Interval(-1, 0),
            level_alphas=(Interval(-1.5, 0.5),),
            expect_level_bounded=False,
            min_grid_resolution=(101,),
            argmin_predicate=lambda pts: pts[:, 0] > 0.0,
            notes="upper endpoint jumps down across 0, killing lower semicontinuity",
        )
    )

    segment = IVF(
        dim=1,
        lower=lambda P: np.where(np.abs(P[:, 0]) <= 1.0, 0.0, math.inf),
        upper=lambda P: np.where(np.abs(P[:, 0]) <= 1.0, 0.0, math.inf),
        label="indicator-segment",
    )
    out.append(
        CatalogEntry(
            label="indicator-segment",
            ivf=segment,
            box=_box1(-2.0, 2.0),
            probe_point=(1.0,),
            expect_lsc=True,
            expect_usc=False,
            expect_liminf=Interval(0, 0),
            expect_infimum=Interval(0, 0),
            level_alphas=(Interval(1, 2),),
            expect_level_bounded=True,
            min_grid_resolution=(401,),
            argmin_predicate=lambda pts: np.abs(pts[:, 0]) <= 1.0,
            notes="membership set is closed, so the boundary stays lsc but not usc",
        )
    )

    linear_pair = ivf_from_expressions(
        "min(x1, 2 * x1)", "max(x1, 2 * x1)", label="linear-pair"
    )
    out.append(
        CatalogEntry(
            label="linear-pair",
            ivf=linear_pair,
            box=_box1(-1.0, 1.0),
            probe_point=(0.3,),
            expect_lsc=True,
            expect_usc=True,
            expect_liminf=Interval(0.3, 0.6),
            expect_infimum=Interval(-2, -1),
            level_alphas=(Interval(-1.5, -0.5),),
            expect_level_bounded=False,
            min_grid_resolution=(101,),
            differentiable=True,
            derivative_cases=(((0.3,), (1.0,), Interval(1, 2)),),
            argmin_predicate=lambda pts: pts[:, 0] == -1.0,
        )
    )

    plateau = ivf_from_expressions(
        "max(abs(x1) - 1, 0)", "2 * max(abs(x1) - 1, 0)", label="plateau"
    )
    out.append(
        CatalogEntry(
            label="plateau",
            ivf=plateau,
            box=_box1(-3.0, 3.0),
            probe_point=(0.5,),
            expect_lsc=True,
            expect_usc=True,
            expect_infimum=Interval(0, 0),
            level_alphas=(Interval(1, 2),),
            expect_level_bounded=True,
            min_grid_resolution=(601,),
            stationary_points=((0.5,),),
            argmin_predicate=lambda pts: np.abs(pts[:, 0]) <= 1.0 + 1e-9,
            notes="flat bottom on [-1,1]; uniqueness evidence ties at tolerance scale",
        )
    )

    return out


_CATALOG = None
_SEQUENCES = None


def catalog() -> list[CatalogEntry]:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _entries()
    return list(_CATALOG)


def catalog_by_label() -> dict[str, CatalogEntry]:
    return {e.label: e for e in catalog()}


def get_function(label: str) -> CatalogEntry:
    try:
        return catalog_by_label()[label]
    except KeyError:
        known = ", ".join(sorted(catalog_by_label()))
        raise KeyError(f"no catalog function {label!r}; known labels: {known}") from None


@dataclass(frozen=True)
class SequenceEntry:
    label: str
    seq: IntervalSequence
    expect_limit: Optional[Interval] = None
    convergence_eps: float = 1e-3
    horizon: int = 2000
    expect_liminf: Optional[Interval] = None
    expect_limsup: Optional[Interval] = None
    monotone: Optional[bool] = None
    bounded_above_by: Optional[Interval] = None
    diverges_pos_inf: bool = False
    notes: str = ""


def _alternating(n: int) -> Interval:
    if n % 2 == 1:
        return Interval(1.0 / n**2, 1.0 / n**2 + 1.0)
    return Interval(float(n), float(n**2 + 1))


def _sequence_entries() -> list[SequenceEntry]:
    return [
        SequenceEntry(
            label="paper-seq-harmonic",
            seq=IntervalSequence(lambda n: Interval(1.0 / n, 1.0), "paper-seq-harmonic"),
            expect_limit=Interval(0, 1),
            convergence_eps=1e-3,
            horizon=2000,
            expect_liminf=Interval(0, 1),
            expect_limsup=Interval(0, 1),
        ),
        SequenceEntry(
            label="paper-seq-inverse-square",
            seq=IntervalSequence(
                lambda n: Interval(1.0 / n**2 + 1.0, 3.0), "paper-seq-inverse-square"
            ),
            expect_limit=Interval(1, 3),
            convergence_eps=1e-3,
            horizon=2000,
            notes="supremum of the family is [2,3], attained at the first term",
        ),
        SequenceEntry(
            label="paper-seq-alternating",
            seq=IntervalSequence(_alternating, "paper-seq-alternating"),
            horizon=10_000,
            expect_liminf=Interval(0, 1),
            expect_limsup=Interval(math.inf, math.inf),
        ),
        SequenceEntry(
            label="seq-monotone-halving",
            seq=IntervalSequence(
                lambda n: Interval(1.0 - 1.0 / n, 2.0), "seq-monotone-halving"
            ),
            expect_limit=Interval(1, 2),
            convergence_eps=1e-3,
            horizon=10_000,
            monotone=True,
            bounded_above_by=Interval(1, 2),
        ),
        SequenceEntry(
            label="seq-linear-growth",
            seq=IntervalSequence(
                lambda n: Interval(float(n), float(n + 1)), "seq-linear-growth"
            ),
            horizon=1000,
            monotone=True,
            diverges_pos_inf=True,
        ),
        SequenceEntry(
            label="seq-constant",
            seq=IntervalSequence(lambda n: Interval(2.0, 3.0), "seq-constant"),
            expect_limit=Interval(2, 3),
            convergence_eps=1e-9,
            horizon=100,
            monotone=True,
            bounded_above_by=Interval(2, 3),
            expect_liminf=Interval(2, 3),
            expect_limsup=Interval(2, 3),
        ),
    ]


def sequence_catalog() -> list[SequenceEntry]:
    global _SEQUENCES
    if _SEQUENCES is None:
        _SEQUENCES = _sequence_entries()
    return list(_SEQUENCES)


def sequence_by_label() -> dict[str, SequenceEntry]:
    return {e.label: e for e in sequence_catalog()}


def get_sequence(label: str) -> SequenceEntry:
    try:
        return sequence_by_label()[label]
    except KeyError:
        known = ", ".join(sorted(sequence_by_label()))
        raise KeyError(f"no catalog sequence {label!r}; known labels: {known}") from None


def check_function_entry(entry: CatalogEntry, params: ProbeParams) -> list[dict]:
    """Check every expectation of a function entry, one record
    ``{"check": "fn/<label>/<name>", "ok": bool, **detail}`` per check."""
    records: list[dict] = []

    def check(name: str, ok: bool, **detail) -> None:
        records.append({"check": f"fn/{entry.label}/{name}", "ok": bool(ok), **detail})

    f, grid = entry.ivf, SampleGrid(entry.box, entry.min_grid_resolution)
    rep = continuity_report(f, entry.probe_point, params)
    check(
        "semicontinuity",
        rep.lsc == entry.expect_lsc and rep.usc == entry.expect_usc and rep.cross_check_agrees
        and rep.continuous == (entry.expect_lsc and entry.expect_usc),
        lsc=rep.lsc, usc=rep.usc, gap=rep.eps_delta_gap,
    )
    if entry.expect_liminf is not None:
        ok = gh_dist(rep.liminf, entry.expect_liminf) <= 1e-3
        check("liminf", ok, value=interval_to_json(rep.liminf))
    eq = endpoint_lsc_equivalence(f, entry.probe_point, params)
    check("endpoint-equivalence", eq.agrees, **eq.to_json())
    # the readers of every grid value go first, so the grid is evaluated once
    # and the properness probe and the infimum read the minima they leave
    if entry.expect_level_bounded is not None:
        reports = level_bounded_probe(f, entry.level_alphas, grid)
    if entry.argmin_predicate is not None:
        points = argmin_over(f, grid, tol=1e-6)
    check("proper", is_proper_probe(f, grid) == entry.expect_proper)
    if entry.expect_infimum is not None:
        got = infimum_over(f, grid)
        check("infimum", gh_dist(got, entry.expect_infimum) <= 1e-3, value=interval_to_json(got))
    if entry.expect_level_bounded is not None:
        ok = all(r.member_count > 0 and r.bounded_evidence == entry.expect_level_bounded for r in reports)
        check("level-bounded", ok, reports=[r.to_json() for r in reports])
    if entry.argmin_predicate is not None:
        ok = len(points) >= 1 and bool(np.all(entry.argmin_predicate(points)))
        check("argmin", ok, count=int(len(points)))
    for xbar, direction, expected in entry.derivative_cases:
        d = gateaux_derivative(f, xbar, direction)
        ok = gh_dist(d.value, expected) <= 1e-4
        check("derivative", ok, value=interval_to_json(d.value), residual=d.residual)
    dirs = np.vstack([np.eye(f.dim), -np.eye(f.dim)])
    for point in entry.stationary_points:
        check("stationary", stationarity_check(f, point, dirs), at=list(point))
    return records


def check_sequence_entry(entry: SequenceEntry) -> list[dict]:
    """Check the limit expectations of a sequence entry, one record
    ``{"check": "seq/<label>/<name>", "ok": bool, **detail}`` per check.

    Lower and upper limits settle at the tail rate, so they are compared at
    the entry's ``convergence_eps``.
    """
    records: list[dict] = []

    def check(name: str, ok: bool, **detail) -> None:
        records.append({"check": f"seq/{entry.label}/{name}", "ok": bool(ok), **detail})

    seq = _ReadOnce(entry.seq.term, entry.seq.label)  # every check reads entry.horizon terms
    if entry.expect_limit is not None:
        v = check_convergence(seq, entry.expect_limit, entry.convergence_eps, entry.horizon)
        check("converges", v.kind is LimitKind.CONVERGES, settled_from=v.settled_from)
    for name, expected, limit in (
        ("liminf", entry.expect_liminf, liminf_seq),
        ("limsup", entry.expect_limsup, limsup_seq),
    ):
        if expected is not None:
            got = limit(seq, entry.horizon)
            ok = got == expected or gh_dist(got, expected) <= entry.convergence_eps
            check(name, ok, value=interval_to_json(got))
    if entry.diverges_pos_inf:
        v = check_divergence(seq, [1.0, 10.0, 100.0], entry.horizon)
        check("diverges", v.kind is LimitKind.DIVERGES_POS_INF)
    return records

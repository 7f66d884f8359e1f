"""One naive model of every grid, probe and Ekeland verdict of ivfkit.

The library reaches its verdicts through fast paths: a grid memo, windows
around a ball, slabs, open meshes, one-pass endpoint programs and per-delta
reuse in a sweep.  This module states each verdict as its definition over
the full sample instead, in a function named like the library's, and the
tests compare the two byte for byte; a new fast path states its check here.

The model evaluates a function only through ``f.lower(P)`` and
``f.upper(P)``, called separately, on every point of a grid
(``grid.points()``) or on explicit point arrays, with the checks of
``IVF.values``: a NaN is named before a reversed pair, each at its first
point.  It keeps no memo and reads no window, slab, mesh or one-pass program,
and it imports no private name of ivfkit.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ivfkit import (
    IVF,
    Box,
    ContinuityReport,
    EkelandCertificate,
    EmptyArgmin,
    EndpointLscReport,
    EndpointOrderViolation,
    HypothesisViolated,
    Interval,
    InvalidEndpoints,
    LevelBoundReport,
    NonConvergent,
    OutOfDomain,
    SampleGrid,
    interval_to_json,
)
from ivfkit.calculus import DEFAULT_LAMBDA_LADDER
from ivfkit.ekeland import REFINEMENT_RESOLUTION, REFINEMENT_ROUNDS
from ivfkit.ivf import CONTINUITY_GAP_TOL, unit_ball_points

_INF = math.inf


# -- comparing the library with the model -------------------------------------


def canonical(result):
    """``result`` in a form whose equality is equality of every bit: arrays
    by dtype, shape and bytes, reports and intervals by their JSON text
    (which tells -0.0 from 0.0)."""
    if isinstance(result, np.ndarray):
        return ("array", result.dtype.str, result.shape, result.tobytes())
    if isinstance(result, (tuple, list)):
        return (type(result).__name__, tuple(canonical(v) for v in result))
    if isinstance(result, Interval):
        result = interval_to_json(result)
    elif hasattr(result, "to_json"):
        result = result.to_json()
    return json.dumps(result, sort_keys=True)


def outcome(run):
    """``("ok", canonical(run()))``, or the type and message of what it raised."""
    try:
        return "ok", canonical(run())
    except Exception as exc:  # compared by the caller
        return type(exc), str(exc)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def quadratic_pair() -> IVF:
    return IVF(1, lambda P: P[:, 0] ** 2, lambda P: 2 * P[:, 0] ** 2, "quadratic")


# -- evaluation ---------------------------------------------------------------


def values(f: IVF, points) -> tuple[np.ndarray, np.ndarray]:
    """Both endpoints of ``f`` at an (N, dim) array of points, each field
    called on its own, with the checks of ``IVF.values``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != f.dim:
        raise OutOfDomain(f"{f.label!r}: expected points of dimension {f.dim}, got {pts.shape[1]}")
    with np.errstate(all="ignore"):
        lo = np.asarray(f.lower(pts), dtype=float)
        hi = np.asarray(f.upper(pts), dtype=float)
    n = (len(pts),)
    if lo.shape != n or hi.shape != n:
        raise InvalidEndpoints(
            f"{f.label!r}: endpoint fields returned shapes {lo.shape} and {hi.shape} "
            f"for {n[0]} points, expected {n}"
        )
    nan = np.isnan(lo) | np.isnan(hi)
    if nan.any():
        raise InvalidEndpoints(f"{f.label!r} produced NaN at {pts[np.argmax(nan)].tolist()}")
    reversed_ = lo > hi
    if reversed_.any():
        bad = pts[np.argmax(reversed_)]
        raise EndpointOrderViolation(f"{f.label!r}: lower > upper at {bad.tolist()}")
    return lo, hi


def in_domain(f: IVF, x: np.ndarray) -> bool:
    return f.domain is None or all(a <= v <= b for v, (a, b) in zip(x, f.domain.bounds))


def value(f: IVF, x) -> Interval:
    """``F(x)``; a point outside the domain of ``f`` raises ``OutOfDomain``."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if not in_domain(f, x):
        raise OutOfDomain(f"{x.tolist()} outside the domain of {f.label!r}")
    lo, hi = values(f, x[None, :])
    return Interval(float(lo[0]), float(hi[0]))


def grid_values(f: IVF, grid: SampleGrid) -> tuple[np.ndarray, np.ndarray]:
    return values(f, grid.points())


def window_values(f: IVF, grid: SampleGrid, window) -> tuple[np.ndarray, np.ndarray]:
    """The grid values of the points in ``window``, a tuple of index slices
    per axis, in enumeration order; the whole grid is checked."""
    return tuple(v.reshape(grid.resolution)[window].ravel() for v in grid_values(f, grid))


def distances(points: np.ndarray, center) -> np.ndarray:
    """Euclidean distance of each point to ``center``, row by row."""
    return np.linalg.norm(points - np.asarray(center, dtype=float)[None, :], axis=1)


def gh_gaps(lo: np.ndarray, hi: np.ndarray, ref: Interval) -> np.ndarray:
    """gH distance of each ``[lo, hi]`` to ``ref``: the larger endpoint gap,
    where an endpoint equal to its reference, infinite or not, is 0 away."""
    with np.errstate(invalid="ignore"):
        dlo = np.where(lo == ref.lo, 0.0, np.abs(lo - ref.lo))
        dhi = np.where(hi == ref.hi, 0.0, np.abs(hi - ref.hi))
    return np.maximum(dlo, dhi)


def near_minimum(lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the pairs ``[lo, hi]`` within ``tol`` of their
    componentwise minimum in the gH distance; none when that minimum is
    plus-infinity."""
    floor = Interval(float(lo.min()), float(hi.min()))
    if floor.lo == _INF:
        return np.arange(0)
    return np.flatnonzero(gh_gaps(lo, hi, floor) <= tol)


def preceq(a: Interval, b: Interval) -> bool:
    return a.lo <= b.lo and a.hi <= b.hi


def prec(a: Interval, b: Interval) -> bool:
    return preceq(a, b) and (a.lo < b.lo or a.hi < b.hi)


# -- grid verdicts ------------------------------------------------------------


def infimum_over(f: IVF, grid: SampleGrid) -> Interval:
    lo, hi = grid_values(f, grid)
    return Interval(float(lo.min()), float(hi.min()))


def argmin_over(f: IVF, grid: SampleGrid, tol: float) -> np.ndarray:
    """Grid points within ``tol`` of the infimum in the gH distance; none
    when the infimum is plus-infinity."""
    return grid.points()[near_minimum(*grid_values(f, grid), tol)]


def is_proper_probe(f: IVF, grid: SampleGrid) -> bool:
    """Some value below ``[+inf, +inf]`` and none equal to ``[-inf, -inf]``."""
    lo, hi = grid_values(f, grid)
    below_top = (lo < _INF) | (hi < _INF)
    bottom = (lo == -_INF) & (hi == -_INF)
    return bool(below_top.any()) and not bool(bottom.any())


def level_mask(lo: np.ndarray, hi: np.ndarray, alpha: Interval) -> np.ndarray:
    """Membership in the level set: ``alpha`` does not strictly dominate the value."""
    strictly_dominated = (alpha.lo <= lo) & (alpha.hi <= hi) & ((alpha.lo < lo) | (alpha.hi < hi))
    return ~strictly_dominated


def sample_level_set(f: IVF, alpha: Interval, grid: SampleGrid) -> np.ndarray:
    return grid.points()[level_mask(*grid_values(f, grid), alpha)]


def level_bounded_probe(f: IVF, alphas, grid: SampleGrid) -> list[LevelBoundReport]:
    lo, hi = grid_values(f, grid)
    index = np.unravel_index(np.arange(grid.size), grid.resolution)
    shell = np.zeros(grid.size, dtype=bool)
    for i, r in zip(index, grid.resolution):
        shell |= (i == 0) | (i == r - 1)
    reports = []
    for alpha in alphas:
        member = level_mask(lo, hi, alpha)
        reports.append(LevelBoundReport(alpha, int(member.sum()), int((member & shell).sum())))
    return reports


# -- probes on the ball ladder ------------------------------------------------


def ball(f: IVF, x: np.ndarray, radius: float, params) -> np.ndarray:
    """The center and the unit-ball sample scaled by ``radius``, clipped to
    the domain of ``f``."""
    unit = unit_ball_points(f.dim, params.samples_per_ball, params.seed)
    pts = np.vstack([x[None, :], x[None, :] + radius * unit])
    if f.domain is not None:
        pts = np.clip(pts, [a for a, _ in f.domain.bounds], [b for _, b in f.domain.bounds])
    return pts


def lower_limit(f: IVF, x, params) -> Interval:
    """The supremum down the ladder of each ball's componentwise minimum."""
    x = np.asarray(x, dtype=float).reshape(-1)
    rungs = [values(f, ball(f, x, r, params)) for r in params.delta_ladder]
    return Interval(max(float(lo.min()) for lo, _ in rungs), max(float(hi.min()) for _, hi in rungs))


def upper_limit(f: IVF, x, params) -> Interval:
    """The infimum down the ladder of each ball's componentwise maximum."""
    x = np.asarray(x, dtype=float).reshape(-1)
    rungs = [values(f, ball(f, x, r, params)) for r in params.delta_ladder]
    return Interval(min(float(lo.max()) for lo, _ in rungs), min(float(hi.max()) for _, hi in rungs))


def within_tol(a: Interval, b: Interval, tol: float) -> bool:
    return a.lo <= b.lo + tol and a.hi <= b.hi + tol


def continuity_report(f: IVF, x, params) -> ContinuityReport:
    x = np.asarray(x, dtype=float).reshape(-1)
    v = value(f, x)
    liminf = lower_limit(f, x, params)
    limsup = upper_limit(f, x, params)
    lsc = within_tol(v, liminf, params.tol)
    usc = within_tol(limsup, v, params.tol)
    lo, hi = values(f, ball(f, x, params.delta_ladder[-1], params))
    gap = float(gh_gaps(lo, hi, v).max())
    return ContinuityReport(
        point=tuple(x.tolist()), value=v, liminf=liminf, limsup=limsup, lsc=lsc, usc=usc,
        continuous=lsc and usc, eps_delta_gap=gap, eps_delta_ok=gap <= CONTINUITY_GAP_TOL,
    )


def scalar_lower_limit(field, f: IVF, x: np.ndarray, params) -> float:
    """The per-endpoint lsc walk: the supremum down the ladder of one
    endpoint field's minimum on each ball, read with no checks."""
    best = -_INF
    for r in params.delta_ladder:
        with np.errstate(all="ignore"):
            best = max(best, float(np.asarray(field(ball(f, x, r, params)), dtype=float).min()))
    return best


def endpoint_lsc_equivalence(f: IVF, x, params) -> EndpointLscReport:
    """The interval lsc probe, and each endpoint's own scalar walk."""
    x = np.asarray(x, dtype=float).reshape(-1)
    v = value(f, x)
    interval_route = within_tol(v, lower_limit(f, x, params), params.tol)
    return EndpointLscReport(
        interval_route=interval_route,
        lower_endpoint_lsc=v.lo <= scalar_lower_limit(f.lower, f, x, params) + params.tol,
        upper_endpoint_lsc=v.hi <= scalar_lower_limit(f.upper, f, x, params) + params.tol,
    )


# -- Ekeland's variational principle ------------------------------------------


def pick_witness(points: np.ndarray, lo: np.ndarray, hi: np.ndarray, xbar, tol: float) -> int:
    """Index of the witness among ``points`` with values ``[lo, hi]`` of F:
    those within ``tol`` of the componentwise minimum of F (or, when none
    is, those nearest it), then the nearest to ``xbar``, then the first in
    lexicographic order."""
    gap = gh_gaps(lo, hi, Interval(float(lo.min()), float(hi.min())))
    pool = np.flatnonzero(gap <= tol)
    if len(pool) == 0:
        pool = np.flatnonzero(gap == gap.min())
    # np.lexsort orders by its last key first and keeps equal keys in order
    order = np.lexsort((*points[pool].T[::-1], distances(points[pool], xbar)))
    return int(pool[order[0]])


def stage1(points: np.ndarray, lo: np.ndarray, hi: np.ndarray, xbar, value_xbar: Interval,
           delta: float, tol: float):
    """Of the sample ``points`` with values ``[lo, hi]`` of F, and of
    ``xbar`` (last), those whose value of the cone ``F + delta*|x - xbar|``
    is within ``tol`` of its componentwise minimum over them all, with their
    values of F."""
    xbar = np.asarray(xbar, dtype=float)
    points = np.vstack([points, xbar[None, :]])
    lo, hi = np.append(lo, value_xbar.lo), np.append(hi, value_xbar.hi)
    shift = delta * distances(points, xbar)
    near = near_minimum(lo + shift, hi + shift, tol)
    if len(near) == 0:
        raise EmptyArgmin(
            "stage-1 argmin is empty: no sampled point is within tol of both "
            "endpoint minima (grid too coarse, or the endpoint minimizers split)"
        )
    return points[near], lo[near], hi[near]


def refine(inp, x0: np.ndarray, value_x0: Interval) -> np.ndarray:
    """Rounds of ten-times-finer local grids around ``x0``: each moves ``x0``
    to the witness of the cone's near-minimizers on its local grid when the
    cone there strictly dominates into the cone at ``x0``."""
    f, delta, tol = inp.f, inp.delta, inp.tol
    xbar = np.asarray(inp.xbar, dtype=float)
    shift = delta * float(distances(x0[None, :], xbar)[0])
    cone_x0 = Interval(value_x0.lo + shift, value_x0.hi + shift)
    spacing = inp.grid.spacing()
    for _ in range(REFINEMENT_ROUNDS):
        local = Box(tuple((float(c - s), float(c + s)) for c, s in zip(x0, spacing)))
        local_grid = SampleGrid(local.intersect(inp.box), (REFINEMENT_RESOLUTION,) * f.dim)
        pts = local_grid.points()
        lo, hi = grid_values(f, local_grid)
        shift = delta * distances(pts, xbar)
        cone_lo, cone_hi = lo + shift, hi + shift
        near = near_minimum(cone_lo, cone_hi, tol)
        if len(near):
            k = near[pick_witness(pts[near], lo[near], hi[near], xbar, tol)]
            for x in (pts[k], x0):
                if not in_domain(f, x):
                    # named as the library names the cone
                    raise OutOfDomain(f"{x.tolist()} outside the domain of '{f.label}+{delta:g}*dist'")
            cone_k = Interval(float(cone_lo[k]), float(cone_hi[k]))
            if prec(cone_k, cone_x0):
                x0, cone_x0 = pts[k], cone_k
        spacing = spacing / 10.0
    return x0


def scan(points: np.ndarray, lo: np.ndarray, hi: np.ndarray, x0, v0: Interval, delta: float,
         tol: float):
    """Over the sample ``points`` off ``x0``, with values ``[lo, hi]`` of F:
    their count, the points where ``v0`` does not strictly dominate
    ``F(x) + delta*|x - x0|``, and the dominated ones whose endpoints lie
    within ``tol`` of those of ``v0`` (the ties), each as an (n, dim) array."""
    r = distances(points, x0)
    off = r > 0
    plo, phi = lo + delta * r, hi + delta * r
    dominated = (v0.lo <= plo) & (v0.hi <= phi) & ((v0.lo < plo) | (v0.hi < phi))
    with np.errstate(invalid="ignore"):
        tie = np.maximum(np.abs(plo - v0.lo), np.abs(phi - v0.hi)) <= tol
    return int(off.sum()), points[off & ~dominated], points[off & dominated & tie]


def strict_minimality_scan(f: IVF, x0, v0: Interval, delta: float, grid: SampleGrid, tol: float):
    """The scan over every point of the grid."""
    return scan(grid.points(), *grid_values(f, grid), x0, v0, delta, tol)


def evp_search(inp) -> EkelandCertificate:
    """Stage 1 over the whole grid plus ``xbar``, the witness, the
    refinement and the scan over the whole grid, with no window and no
    reuse."""
    f, eps, delta, tol = inp.f, inp.eps, inp.delta, inp.tol
    xbar = np.asarray(inp.xbar, dtype=float)
    points = inp.grid.points()
    lo, hi = grid_values(f, inp.grid)
    inf_f = Interval(float(lo.min()), float(hi.min()))
    if not inf_f.is_finite:
        raise HypothesisViolated(f"sampled infimum {inf_f!r} is not finite")
    value_xbar = value(f, xbar)
    if not prec(value_xbar, Interval(inf_f.lo + eps, inf_f.hi + eps)):
        raise HypothesisViolated(
            f"F(xbar)={value_xbar!r} is not strictly within eps={eps:g} "
            f"of the sampled infimum {inf_f!r}"
        )
    near, near_lo, near_hi = stage1(points, lo, hi, xbar, value_xbar, delta, tol)
    i = pick_witness(near, near_lo, near_hi, xbar, tol)
    x0 = refine(inp, near[i], Interval(float(near_lo[i]), float(near_hi[i])))
    value_x0 = value(f, x0)
    dist = float(np.linalg.norm(x0 - xbar))
    checked, bad, tie = scan(points, lo, hi, x0, value_x0, delta, tol)
    violations, ties = tuple(map(tuple, bad.tolist())), tuple(map(tuple, tie.tolist()))
    warnings = []
    if ties:
        warnings.append(
            f"{len(ties)} grid points tie with x0 at tolerance {tol:g}: "
            "the minimizer of the perturbed function is unique only above that scale"
        )
    if violations:
        warnings.append(f"{len(violations)} strict-minimality violations on the grid")
    return EkelandCertificate(
        x0=tuple(float(v) for v in x0), xbar=tuple(float(v) for v in xbar), eps=eps,
        delta=delta, value_x0=value_x0, value_xbar=value_xbar, dist_x0_xbar=dist,
        dist_bound=eps / delta, dist_bound_ok=dist < eps / delta,
        descent_ok=preceq(value_x0, value_xbar), checked_count=checked,
        violations=violations, ties=ties, warnings=tuple(warnings),
    )


def verify_certificate(
    f: IVF, cert: EkelandCertificate, grid: SampleGrid, delta: float, tol: float
) -> bool:
    """Descent, the scan over the whole grid and the distance bound, all
    rechecked from ``cert.x0`` and ``cert.xbar``."""
    x0, xbar = np.asarray(cert.x0, dtype=float), np.asarray(cert.xbar, dtype=float)
    value_x0 = value(f, x0)
    descent_ok = preceq(value_x0, value(f, xbar))
    _, violations, _ = strict_minimality_scan(f, x0, value_x0, delta, grid, tol)
    return float(np.linalg.norm(x0 - xbar)) < cert.eps / delta and descent_ok and len(violations) == 0


def gateaux_bound(f: IVF, x0, directions, tol: float = 1e-6) -> float:
    """The largest norm, over ``directions``, of the last gH difference
    quotient of F at ``x0`` down the default lambda ladder; raises
    ``NonConvergent`` where F is infinite or the last two quotients differ
    by ``tol`` or more."""
    x0 = np.asarray(x0, dtype=float)
    ladder = DEFAULT_LAMBDA_LADDER
    bound = 0.0
    for h in np.atleast_2d(directions):
        base = value(f, x0)
        quotients = []
        for lam in ladder:
            step = value(f, x0 + lam * h)
            if not (base.is_finite and step.is_finite):
                raise NonConvergent(f"{f.label!r} takes an infinite value near {x0.tolist()}")
            dlo, dhi = step.lo - base.lo, step.hi - base.hi
            quotients.append(Interval(1.0 / lam * min(dlo, dhi), 1.0 / lam * max(dlo, dhi)))
        a, b = quotients[-2:]
        residual = max(0.0 if a.lo == b.lo else abs(a.lo - b.lo),
                       0.0 if a.hi == b.hi else abs(a.hi - b.hi))
        if residual >= tol:
            raise NonConvergent(f"quotients still differ by {residual:g} at lambda={ladder[-1]:g}")
        bound = max(bound, abs(b.lo), abs(b.hi))
    return bound


def sweep_cell(inp, searched, directions, fine):
    """One cell of an ``eps x delta`` sweep searched, bounded and verified
    on its own; ``searched``, the library's per-delta store, is unused."""
    cert = evp_search(inp)
    bound = None if directions is None else gateaux_bound(inp.f, cert.x0, directions)
    verified = None if fine is None else verify_certificate(inp.f, cert, fine, inp.delta, inp.tol)
    return cert, bound, verified

"""Certified approximate minimization of interval-valued functions.

Given a near-minimizer ``xbar`` (within ``eps`` of the sampled infimum in the
dominance order) and a trade-off rate ``delta``, the search returns a point
``x0`` together with evidence for three conclusions: a distance bound
``|x0 - xbar| < eps/delta``, descent ``F(x0)`` dominating into ``F(xbar)``,
and strict minimality of ``x0`` for the ``x0``-centered perturbation over the
sampled grid.  Uniqueness is reported as evidence over the sample set, never
as a proof; tolerance-scale ties (plateaus) are surfaced as warnings.

As in Ekeland's construction, ``x0`` minimizes the perturbation
``F + delta*|x - xbar|``, which does not involve ``eps``: ``eps`` reaches
only the hypothesis ``F(xbar) < inf F + eps`` and the distance bound
``eps/delta``.  The witness, ``F(x0)``, descent, the scan and the descent
and scan halves of ``verify_certificate`` depend on ``f``, ``xbar``,
``delta``, ``box``, ``grid`` and ``tol`` alone, so an ``eps x delta`` sweep
searches and verifies once per ``delta`` and re-targets the kept
certificate to each further ``eps`` (``_sweep_cell``).

The strict-minimality scan and stage 1 of the search read only the grid
points of a ball.  A point ``x`` can tie with ``F(x0)`` at ``tol`` or fail to
be strictly dominated by it only if ``delta*|x - x0| <= max(F(x0).lo - min lo,
F(x0).hi - min hi) + tol``, the minima taken over the grid: the same
inequality that bounds ``|x0 - xbar|`` by ``eps/delta`` in the theorem.
Stage 1 uses it with ``F(xbar)`` in place of ``F(x0)``.  ``_cone_radius``
gives the radius, ``ivf._grid_window`` the index window, and an infinite
endpoint makes the window the whole grid.

Every grid a search touches -- the search grid, each local grid of the
refinement and the grid of ``verify_certificate`` -- is evaluated once,
through its one evaluator, ``ivf._window_eval``, whatever defines ``F``.
The search and verify grids keep a memo, which holds the minima of ``F``
first, reduced in slabs, and stage 1 and the scan evaluate ``F`` on their
own window; values of every point are built only for the 21^dim local
grids and for windows of more than one slab.  A sweep whose search grid is
the verify grid taken every s-th point fills both minima in one slab pass
over the verify grid (``ivf._nested_minima``).  The search grid's memo keeps
the last refinement path, so a further delta whose rounds land on the same
local grids reads them instead of evaluating them again.  The cone
``F + delta*|x - xbar|`` adds the same scalar to both endpoints, so stage 1
and the refinement take its values from those of ``F`` plus
``delta * _grid_distances``; ``perturbed`` is not evaluated on a grid.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .calculus import DEFAULT_LAMBDA_LADDER, _derivatives
from .errors import EmptyArgmin, HypothesisViolated, ImproperFunction
from .interval import (
    Interval,
    add_scalar,
    interval_to_json,
    norm,
    nprec,
    prec,
    preceq,
)
from .ivf import IVF, Box, SampleGrid, argmin_over, infimum_over, is_proper_probe
from .ivf import (
    _gh_gap,
    _grid_distances,
    _grid_points_at,
    _grid_window,
    _near_minimum,
    _nested_minima,
    _outside_domain,
    _whole_grid_eval,
    _window_grid_values,
    _window_to_grid,
)

__all__ = [
    "EkelandInput",
    "EkelandCertificate",
    "global_min",
    "perturbed",
    "evp_search",
    "verify_certificate",
    "evp_gateaux",
    "level_bound_lemma_check",
]

REFINEMENT_ROUNDS = 3
REFINEMENT_RESOLUTION = 21


@dataclass(frozen=True)
class EkelandInput:
    """Problem statement for the variational search."""

    f: IVF
    xbar: tuple[float, ...]
    eps: float
    delta: float
    box: Box
    grid: SampleGrid
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v > 0 for v in (self.eps, self.delta, self.tol)):
            raise ValueError("eps, delta and tol must be finite and positive")
        object.__setattr__(
            self, "xbar", tuple(float(v) for v in np.asarray(self.xbar).reshape(-1))
        )


@dataclass(frozen=True)
class EkelandCertificate:
    """Returned witness plus the evidence for each conclusion."""

    x0: tuple[float, ...]
    xbar: tuple[float, ...]
    eps: float
    delta: float
    value_x0: Interval
    value_xbar: Interval
    dist_x0_xbar: float
    dist_bound: float
    dist_bound_ok: bool
    descent_ok: bool
    checked_count: int
    violations: tuple[tuple[float, ...], ...]
    ties: tuple[tuple[float, ...], ...]
    warnings: tuple[str, ...]
    seed: Optional[int] = None

    @property
    def uniqueness_ok(self) -> bool:
        return len(self.violations) == 0

    @property
    def valid(self) -> bool:
        return self.dist_bound_ok and self.descent_ok and self.uniqueness_ok

    def to_json(self) -> dict:
        return {
            "x0": list(self.x0),
            "xbar": list(self.xbar),
            "eps": self.eps,
            "delta": self.delta,
            "value_x0": interval_to_json(self.value_x0),
            "value_xbar": interval_to_json(self.value_xbar),
            "checks": {
                "distance": {
                    "ok": self.dist_bound_ok,
                    "dist": self.dist_x0_xbar,
                    "bound": self.dist_bound,
                },
                "descent": {"ok": self.descent_ok},
                "uniqueness": {
                    "ok": self.uniqueness_ok,
                    "checked": self.checked_count,
                    "violations": [list(v) for v in self.violations],
                    "ties": [list(t) for t in self.ties],
                },
            },
            "warnings": list(self.warnings),
            "seed": self.seed,
        }


def global_min(f: IVF, grid: SampleGrid, tol: float) -> tuple[Interval, np.ndarray]:
    """Sampled infimum and its tolerance argmin; the function must be proper."""
    # the argmin reads every grid value, so it goes first and the properness
    # probe and the infimum read the minima it leaves in the grid's memo
    points = argmin_over(f, grid, tol)
    if not is_proper_probe(f, grid):
        raise ImproperFunction(f"{f.label!r} fails the properness probe on this grid")
    return infimum_over(f, grid), points


def perturbed(f: IVF, delta: float, center) -> IVF:
    """Shift both endpoints by ``delta * |x - center|`` (a cone around center)."""
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError("delta must be finite and positive")
    center = np.asarray(center, dtype=float).reshape(-1)
    lower, upper = f.lower, f.upper

    def cone(pts: np.ndarray) -> np.ndarray:
        return delta * np.linalg.norm(pts - center[None, :], axis=1)

    return IVF(
        dim=f.dim,
        lower=lambda pts: np.asarray(lower(pts), float) + cone(pts),
        upper=lambda pts: np.asarray(upper(pts), float) + cone(pts),
        label=f"{f.label}+{delta:g}*dist",
        domain=f.domain,
    )


def _cone_radius(value: Interval, floor: Interval, tol: float, delta: float) -> float:
    """Distance beyond which ``F(x) + delta*|x - c|`` exceeds ``value`` by more
    than ``tol`` in both endpoints, wherever ``F(x)`` dominates ``floor``.

    Farther grid points cannot tie with ``value`` at ``tol``, nor fail to be
    strictly dominated by it: the bound ``|x0 - xbar| <= eps/delta`` of the
    theorem, with ``value`` in place of ``F(xbar)``.  The slack is many times
    the rounding of the sums compared against ``tol``.  Infinite when an
    endpoint is.
    """
    ends = (value.lo, value.hi, floor.lo, floor.hi)
    if not all(math.isfinite(e) for e in ends):
        return math.inf
    reach = max(value.lo - floor.lo, value.hi - floor.hi, 0.0) + tol
    return (reach + 64 * math.ulp(max(abs(e) for e in ends + (reach,)))) / delta


def _strict_minimality_scan(
    f: IVF, x0: np.ndarray, v0: Interval, delta: float, grid: SampleGrid, tie_tol: float
) -> tuple[int, list[tuple[float, ...]], list[tuple[float, ...]]]:
    """Check ``v0 = F(x0)`` strictly dominates ``F(x) + delta*|x-x0|`` off ``x0``.

    Only the window of the ball of ``_cone_radius`` around ``x0`` is scanned;
    every point outside it is off ``x0`` and strictly dominated, with no tie.
    """
    window = _grid_window(grid, x0, _cone_radius(v0, infimum_over(f, grid), tie_tol, delta))
    lo, hi = _window_grid_values(f, grid, window)
    r = _grid_distances(grid, x0, window)
    off = r > 0
    plo = lo + delta * r
    phi = hi + delta * r
    dominated = (v0.lo <= plo) & (v0.hi <= phi) & ((v0.lo < plo) | (v0.hi < phi))
    bad = off & ~dominated
    with np.errstate(all="ignore"):
        gap = np.maximum(np.abs(plo - v0.lo), np.abs(phi - v0.hi))
    tie = off & dominated & (gap <= tie_tol)

    def points(mask: np.ndarray) -> list[tuple[float, ...]]:
        if not mask.any():
            return []
        flat = _window_to_grid(grid, window, np.flatnonzero(mask))
        return [tuple(p) for p in _grid_points_at(grid, flat).tolist()]

    checked = grid.size - len(r) + int(off.sum())
    return checked, points(bad), points(tie)


def _pick_witness(
    candidates: np.ndarray, lo: np.ndarray, hi: np.ndarray, xbar: np.ndarray, tol: float
) -> int:
    """Index of the candidate minimizing f (values ``lo``, ``hi``) over the
    candidate set, breaking ties by |x-xbar| then lexicographically."""
    dist = _gh_gap(lo, hi, float(lo.min()), float(hi.min()))
    winners = np.flatnonzero(dist <= tol)
    if len(winners) == 0:
        winners = np.flatnonzero(dist == dist.min())
    if len(winners) == 1:
        return int(winners[0])
    order = np.argsort(np.linalg.norm(candidates[winners] - xbar[None, :], axis=1), kind="stable")
    winners = winners[order]
    best = winners[0]
    best_d = float(np.linalg.norm(candidates[best] - xbar))
    for w in winners[1:]:
        if float(np.linalg.norm(candidates[w] - xbar)) > best_d:
            break
        if tuple(candidates[w].tolist()) < tuple(candidates[best].tolist()):
            best = w
    return int(best)


def _stage1_near_set(
    f: IVF, grid: SampleGrid, xbar: np.ndarray, value_xbar: Interval, inf_f: Interval,
    delta: float, tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points within ``tol`` of the minimum of ``F + delta*|x - xbar|`` over
    the grid plus ``xbar`` itself, with their values of ``F``.

    ``xbar`` comes last when it qualifies: the cone's kink sits exactly there,
    and grid points only approximate it.  The cone adds the same scalar to
    both endpoints, so its values come from those of ``F`` on the grid.  Only
    the window of the ball of ``_cone_radius`` around ``xbar`` is read: points
    off it have cone values above ``F(xbar) + tol`` in both endpoints, while
    the ``xbar`` row is ``F(xbar)``, so they hold neither cone minimum nor a
    point of the near-set.
    """
    window = _grid_window(grid, xbar, _cone_radius(value_xbar, inf_f, tol, delta))
    glo, ghi = _window_grid_values(f, grid, window)
    pool_lo = np.append(glo, value_xbar.lo)
    pool_hi = np.append(ghi, value_xbar.hi)
    shift = delta * np.append(_grid_distances(grid, xbar, window), 0.0)
    cone_lo, cone_hi = pool_lo + shift, pool_hi + shift
    near = np.flatnonzero(
        _gh_gap(cone_lo, cone_hi, float(cone_lo.min()), float(cone_hi.min())) <= tol
    )
    if len(near) == 0:
        raise EmptyArgmin(
            "stage-1 argmin is empty: no sampled point is within tol of both "
            "endpoint minima (grid too coarse, or the endpoint minimizers split)"
        )
    points = _grid_points_at(grid, _window_to_grid(grid, window, near[near < len(glo)]))
    if near[-1] == len(glo):
        points = np.vstack([points, xbar[None, :]])
    return points, pool_lo[near], pool_hi[near]


def _local_round(
    f: IVF, grid: SampleGrid, k: int, local: Box, xbar: np.ndarray
) -> tuple[SampleGrid, np.ndarray, np.ndarray, np.ndarray]:
    """Round ``k`` of the refinement: the local grid on ``local``, the values
    of ``f`` there and the distances of its points to ``xbar``, read-only.

    The memo of the search ``grid`` keeps, per function, the last
    refinement path: one entry per round.  A later search of ``f`` on
    ``grid``, such as another delta of a sweep, whose round ``k`` lands on
    the same box with the same ``xbar``, both bit for bit, reads the entry
    instead of evaluating again.
    """
    key = (id(f), "refinement")
    kept = grid._memo.get(key)
    if kept is None or kept[0] is not f:
        kept = grid._memo[key] = (f, [None] * REFINEMENT_ROUNDS)
    tag = np.array(local.bounds).tobytes() + xbar.tobytes()
    entry = kept[1][k]
    if entry is None or entry[0] != tag:
        local_grid = SampleGrid(local, (REFINEMENT_RESOLUTION,) * f.dim)
        lo, hi = _whole_grid_eval(f, local_grid)
        dist = _grid_distances(local_grid, xbar)
        for values in (lo, hi, dist):
            values.setflags(write=False)
        entry = kept[1][k] = (tag, local_grid, lo, hi, dist)
    return entry[1:]


def _refine(inp: EkelandInput, x0: np.ndarray, value_x0: Interval) -> np.ndarray:
    """Up to three rounds of ten-times-finer local grids around the stage-1
    witness ``x0``, whose value of ``F`` is ``value_x0``.

    A round picks the witness of the cone ``F + delta*|x - xbar|`` over its
    local grid and moves ``x0`` there when the cone strictly dominates into
    its value at ``x0``, which is carried from round to round.  A candidate,
    or the stage-1 witness, outside the domain of ``F`` raises
    ``OutOfDomain``.
    """
    f, delta, tol = inp.f, inp.delta, inp.tol
    xbar = np.asarray(inp.xbar, dtype=float)
    cone_label = f"{f.label}+{delta:g}*dist"  # as perturbed(f, delta, xbar) names the cone

    def check_domain(x: np.ndarray) -> None:
        if f.domain is not None and not f.domain.contains(x):
            raise _outside_domain(x, cone_label)

    # the distance row-wise, as perturbed's cone and _grid_distances compute it
    cone_x0 = add_scalar(value_x0, delta * float(np.linalg.norm((x0 - xbar)[None, :], axis=1)[0]))
    spacing = inp.grid.spacing()
    for k in range(REFINEMENT_ROUNDS):
        local = Box(
            tuple(
                (float(c - s), float(c + s))
                for c, s in zip(x0, spacing)
            )
        ).intersect(inp.box)
        local_grid, lo, hi, dist = _local_round(f, inp.grid, k, local, xbar)
        shift = delta * dist
        cone_lo, cone_hi = lo + shift, hi + shift
        near = _near_minimum(
            cone_lo, cone_hi, Interval(float(cone_lo.min()), float(cone_hi.min())), tol
        )
        if len(near):
            local_c = _grid_points_at(local_grid, near)
            k = _pick_witness(local_c, lo[near], hi[near], xbar, tol)
            candidate = local_c[k]
            check_domain(candidate)
            check_domain(x0)
            cone_c = Interval(cone_lo[near[k]], cone_hi[near[k]])
            if prec(cone_c, cone_x0):
                x0, cone_x0 = candidate, cone_c
        spacing = spacing / 10.0
    return x0


def _check_hypothesis(inf_f: Interval, value_xbar: Interval, eps: float) -> None:
    """Raise ``HypothesisViolated`` unless ``F(xbar) = value_xbar`` lies
    strictly within ``eps`` of the sampled infimum ``inf_f``."""
    if not prec(value_xbar, add_scalar(inf_f, eps)):
        raise HypothesisViolated(
            f"F(xbar)={value_xbar!r} is not strictly within eps={eps:g} "
            f"of the sampled infimum {inf_f!r}"
        )


def evp_search(inp: EkelandInput) -> EkelandCertificate:
    """Two-stage perturbed-argmin search with local refinement.

    Stage 1 minimizes ``F + delta*|x - xbar|`` over the grid; stage 2 picks,
    among those minimizers, a point minimizing ``F`` itself.  Up to three
    rounds of ten-times-finer local grids tighten the witness.

    ``eps`` reaches only the hypothesis check and the distance bound
    ``eps/delta``: the witness, ``F(x0)``, descent, the scan and its
    warnings depend on ``f``, ``xbar``, ``delta``, ``box``, ``grid`` and
    ``tol`` alone.
    """
    f = inp.f
    xbar = np.asarray(inp.xbar, dtype=float)
    inf_f = infimum_over(f, inp.grid)
    if not inf_f.is_finite:
        raise HypothesisViolated(f"sampled infimum {inf_f!r} is not finite")
    value_xbar = f(xbar)
    _check_hypothesis(inf_f, value_xbar, inp.eps)

    stage1, lo, hi = _stage1_near_set(f, inp.grid, xbar, value_xbar, inf_f, inp.delta, inp.tol)
    i = _pick_witness(stage1, lo, hi, xbar, inp.tol)
    x0 = _refine(inp, stage1[i], Interval(lo[i], hi[i]))

    value_x0 = f(x0)
    dist = float(np.linalg.norm(x0 - xbar))
    bound = inp.eps / inp.delta
    checked, violations, ties = _strict_minimality_scan(
        f, x0, value_x0, inp.delta, inp.grid, inp.tol
    )
    warnings = []
    if ties:
        warnings.append(
            f"{len(ties)} grid points tie with x0 at tolerance {inp.tol:g}: "
            "the minimizer of the perturbed function is unique only above that scale"
        )
    if violations:
        warnings.append(f"{len(violations)} strict-minimality violations on the grid")
    return EkelandCertificate(
        x0=tuple(float(v) for v in x0),
        xbar=tuple(float(v) for v in xbar),
        eps=inp.eps,
        delta=inp.delta,
        value_x0=value_x0,
        value_xbar=value_xbar,
        dist_x0_xbar=dist,
        dist_bound=bound,
        dist_bound_ok=dist < bound,
        descent_ok=preceq(value_x0, value_xbar),
        checked_count=checked,
        violations=tuple(violations),
        ties=tuple(ties),
        warnings=tuple(warnings),
    )


def _retarget(inp: EkelandInput, cert: EkelandCertificate) -> EkelandCertificate:
    """The certificate ``evp_search(inp)`` returns, built from ``cert``, which
    ``evp_search`` returned for an input that differs from ``inp`` at most in
    ``eps``: the hypothesis is checked against the kept ``F(xbar)``, and only
    ``eps`` and the distance bound change."""
    _check_hypothesis(infimum_over(inp.f, inp.grid), cert.value_xbar, inp.eps)
    bound = inp.eps / inp.delta
    return dataclasses.replace(
        cert, eps=inp.eps, dist_bound=bound, dist_bound_ok=cert.dist_x0_xbar < bound
    )


def verify_certificate(
    f: IVF,
    cert: EkelandCertificate,
    grid: SampleGrid,
    delta: float,
    tol: float,
) -> bool:
    """Independent recheck of all three conclusions, typically on a finer grid;
    ``delta`` must be finite and positive, ``tol`` finite and non-negative."""
    if not (math.isfinite(delta) and delta > 0 and math.isfinite(tol) and tol >= 0):
        raise ValueError("delta must be finite and positive, tol finite and non-negative")
    eps_free_ok = _verify_descent_and_scan(f, cert, grid, delta, tol)
    return _verify_distance(cert, delta) and eps_free_ok


def _verify_distance(cert: EkelandCertificate, delta: float) -> bool:
    """The distance half of ``verify_certificate``, the only part ``eps`` reaches."""
    x0 = np.asarray(cert.x0, dtype=float)
    xbar = np.asarray(cert.xbar, dtype=float)
    return float(np.linalg.norm(x0 - xbar)) < cert.eps / delta


def _verify_descent_and_scan(
    f: IVF, cert: EkelandCertificate, grid: SampleGrid, delta: float, tol: float
) -> bool:
    """Descent and the strict-minimality scan of ``verify_certificate``,
    rechecked from ``cert.x0`` and ``cert.xbar``."""
    x0 = np.asarray(cert.x0, dtype=float)
    value_x0 = f(x0)
    descent_ok = preceq(value_x0, f(np.asarray(cert.xbar, dtype=float)))
    _, violations, _ = _strict_minimality_scan(f, x0, value_x0, delta, grid, tol)
    return descent_ok and not violations


def _sweep_cell(
    inp: EkelandInput,
    searched: dict,
    directions: Optional[np.ndarray],
    fine: Optional[SampleGrid],
) -> tuple[EkelandCertificate, Optional[float], Optional[bool]]:
    """One cell of an ``eps x delta`` sweep: the certificate of
    ``evp_search(inp)``, or of ``evp_gateaux(inp, directions)`` with its
    bound, and ``verify_certificate`` on ``fine``, each None when not asked.

    ``searched`` is shared by the cells of one sweep, which differ only in
    ``eps`` and ``delta``.  It keeps, per delta, the eps-free results of the
    first cell: the certificate, the bound and the descent and scan halves of
    the verification.  A later cell of that delta only re-targets them, so
    it raises what a search of its own would raise first, the hypothesis.
    Before the first search, ``ivf._nested_minima`` reads the search and
    verify grids in one pass when they are nested.
    """
    if inp.delta in searched:
        cert, bound, eps_free_ok = searched[inp.delta]
        cert = _retarget(inp, cert)
    else:
        if not searched and fine is not None:
            # before the first search: one pass for both grids when nested
            _nested_minima(inp.f, inp.grid, fine)
        if directions is None:
            cert, bound = evp_search(inp), None
        else:
            cert, bound = evp_gateaux(inp, directions)
        eps_free_ok = None
        if fine is not None:
            eps_free_ok = _verify_descent_and_scan(inp.f, cert, fine, inp.delta, inp.tol)
        searched[inp.delta] = (cert, bound, eps_free_ok)
    verified = None
    if fine is not None:
        verified = _verify_distance(cert, inp.delta) and eps_free_ok
    return cert, bound, verified


def evp_gateaux(
    inp: EkelandInput,
    directions: np.ndarray,
    ladder: Sequence[float] = DEFAULT_LAMBDA_LADDER,
    tol: float = 1e-6,
) -> tuple[EkelandCertificate, float]:
    """Search, then bound the derivative norm at the witness from below.

    For a differentiable objective the returned bound should not exceed
    ``delta`` (up to tolerance): the witness is a near-stationary point.
    """
    cert = evp_search(inp)
    derivatives = _derivatives(inp.f, cert.x0, directions, ladder, tol)
    return cert, max((norm(value) for value, _ in derivatives), default=0.0)


def level_bound_lemma_check(xbar, bound: Interval, grid: SampleGrid) -> bool:
    """Pointwise agreement of two routes to the bounded region around ``xbar``.

    Membership of ``x`` is ``bound`` not strictly dominating the degenerate
    interval ``[r, r]`` with ``r = |x - xbar|``; the closed-form reduction is
    ``r <= bound.lo`` or ``bound.lo < r < bound.hi``.
    """
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    r = _grid_distances(grid, xbar)
    by_dominance = np.array([nprec(bound, Interval(float(v), float(v))) for v in r])
    by_reduction = (r <= bound.lo) | ((bound.lo < r) & (r < bound.hi))
    return bool(np.array_equal(by_dominance, by_reduction))

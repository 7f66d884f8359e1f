"""Interval-valued functions on boxes: evaluation, limit probes, level sets,
infimum and argmin over grids.

An interval-valued function (IVF) is a pair of scalar endpoint fields with
``lower(x) <= upper(x)`` everywhere.  Endpoint fields are vectorized: they map
an ``(N, dim)`` array of points to an ``(N,)`` array of extended reals, where
``+inf`` at both endpoints encodes the extended value plus-infinity.

Semicontinuity verdicts are one-sided evidence: a ``True`` means no violation
was found at the probed ball ladder and tolerance, since semicontinuity is not
decidable from finitely many samples.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from statistics import NormalDist
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    EmptyGrid,
    EndpointOrderViolation,
    InvalidEndpoints,
    OutOfDomain,
)
from . import expr
from .interval import Interval, inf_family, nprec, sup_family

__all__ = [
    "Box",
    "SampleGrid",
    "ProbeParams",
    "IVF",
    "ScalarField",
    "unit_ball_points",
    "lower_limit",
    "upper_limit",
    "preceq_tol",
    "is_gh_lsc_at",
    "is_gh_usc_at",
    "ContinuityReport",
    "continuity_report",
    "is_gh_continuous_at",
    "EndpointLscReport",
    "endpoint_lsc_equivalence",
    "level_member",
    "level_member_mask",
    "sample_level_set",
    "LevelBoundReport",
    "level_bounded_probe",
    "add_ivf",
    "indicator",
    "infimum_over",
    "is_proper_probe",
    "argmin_over",
]

ScalarField = Callable[[np.ndarray], np.ndarray]

_INF = float("inf")


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with finite per-dimension bounds."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        norm_bounds = tuple((float(a), float(b)) for a, b in self.bounds)
        for a, b in norm_bounds:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise InvalidEndpoints(f"box bounds must be finite, got ({a}, {b})")
            if a > b:
                raise InvalidEndpoints(f"reversed box bounds ({a}, {b})")
        object.__setattr__(self, "bounds", norm_bounds)

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def center(self) -> np.ndarray:
        return np.array([(a + b) / 2.0 for a, b in self.bounds])

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float).reshape(-1)
        return bool(self.inside(x[None, :])[0])

    def inside(self, points: np.ndarray) -> np.ndarray:
        """Mask of the rows of an (N, d) array of points that lie in the box;
        only the leading axes that the points and the box both have are
        compared, so a point of another dimension is left to the evaluation's
        own dimension check."""
        d = min(points.shape[1], self.dim)
        low, high = np.array(self.bounds[:d], dtype=float).reshape(d, 2).T
        return ((points[:, :d] >= low) & (points[:, :d] <= high)).all(axis=1)

    def clip(self, points: np.ndarray) -> np.ndarray:
        lo = np.array([a for a, _ in self.bounds])
        hi = np.array([b for _, b in self.bounds])
        return np.clip(points, lo, hi)

    def intersect(self, other: "Box") -> "Box":
        if other.dim != self.dim:
            raise InvalidEndpoints("boxes of different dimension")
        return Box(
            tuple(
                (max(a1, a2), min(b1, b2))
                for (a1, b1), (a2, b2) in zip(self.bounds, other.bounds)
            )
        )


@dataclass(frozen=True)
class SampleGrid:
    """Uniform lattice over a box, enumerated lexicographically.

    The first coordinate varies slowest; reductions over grid values follow
    this fixed order so results are bitwise reproducible.

    A grid keeps a memo of every function evaluated on it, so the infimum,
    argmin, properness and level-set probes, the variational search and the
    certificate check evaluate a function once per grid.  The memo holds the
    componentwise minima first and the endpoint values on request: on a grid
    of more than ``_SLAB_POINTS`` points, the minima come from slabs
    evaluated one at a time, the values are built only for a reader of every
    point, and a window of at most one slab is evaluated on its own.
    Endpoint fields are assumed pure.  The memo lives exactly as long as the
    grid object; it takes no part in equality or hashing.

    Every read of a function at grid points -- the whole grid, a slab or a
    window -- goes through one evaluator, ``_window_eval``.  The grid is the
    tensor product of its ``axes()``, so a function defined by expressions is
    evaluated on the window's open mesh without materializing its points: a
    subtree that depends on one coordinate runs on that axis alone.  Any
    other function goes through ``IVF.values`` on the window's points.  The
    axes are built once, with the grid, and kept read-only; like the memo
    they take no part in equality, hashing or repr.
    """

    box: Box
    resolution: tuple[int, ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _axes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        res = self.resolution
        if isinstance(res, int):
            res = (res,) * self.box.dim
        res = tuple(int(r) for r in res)
        if len(res) != self.box.dim:
            raise EmptyGrid("resolution rank does not match box dimension")
        if any(r < 2 for r in res):
            raise EmptyGrid("resolution must be >= 2 per dimension")
        object.__setattr__(self, "resolution", res)
        object.__setattr__(self, "_axes", _grid_axes(self.box, res))

    @property
    def size(self) -> int:
        out = 1
        for r in self.resolution:
            out *= r
        return out

    def axes(self) -> tuple[np.ndarray, ...]:
        """The grid's coordinates along each dimension, read-only."""
        return self._axes

    def points(self) -> np.ndarray:
        """Every grid point in enumeration order, shape (size, dim)."""
        return _mesh_points(self.axes())

    def spacing(self) -> np.ndarray:
        return np.array(
            [(b - a) / (r - 1) for (a, b), r in zip(self.box.bounds, self.resolution)]
        )

    def shell_mask(self) -> np.ndarray:
        """Boolean mask (in enumeration order) of points on the outermost layer."""
        idx = np.indices(self.resolution)
        shell = np.zeros(self.resolution, dtype=bool)
        for d, r in enumerate(self.resolution):
            shell |= (idx[d] == 0) | (idx[d] == r - 1)
        return shell.ravel(order="C")


def _grid_axes(box: Box, res: Sequence[int]) -> tuple[np.ndarray, ...]:
    """The read-only coordinates of a grid on ``box`` along each axis, ``res``
    per axis; raises ValueError where a coordinate is not finite, as the lerp
    of ``_axis`` overflows on boxes near the largest doubles."""
    with np.errstate(all="ignore"):
        axes = tuple(_axis(a, b, r) for (a, b), r in zip(box.bounds, res))
    if not all(np.isfinite(ax).all() for ax in axes):
        raise ValueError(f"box {list(box.bounds)} overflows at resolution {list(res)}")
    return axes


def _axis(a: float, b: float, r: int) -> np.ndarray:
    """``r`` read-only coordinates from ``a`` to ``b`` in the lerp form
    ``(a*(n-k) + b*k)/n``: exact at both ends and, by cancellation, exactly
    zero at the midpoint of symmetric boxes -- axis-guard functions
    (piecewise on x_i != 0) rely on hitting 0 exactly."""
    n = r - 1
    k = np.arange(r, dtype=float)
    ax = (a * (n - k) + b * k) / n
    ax[0] = a
    ax[-1] = b
    ax.setflags(write=False)
    return ax


def _mesh_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Every point of the tensor product of ``axes``, in enumeration order,
    shape (prod of lengths, dim)."""
    dim = len(axes)
    out = np.empty(tuple(len(ax) for ax in axes) + (dim,))
    for d, ax in enumerate(axes):
        out[..., d] = ax.reshape((-1,) + (1,) * (dim - 1 - d))
    return out.reshape(-1, dim)


DEFAULT_DELTA_LADDER = (0.5, 0.1, 0.02, 0.004, 0.0008, 0.00016)
# largest gH distance from the center value on the tightest ball that the
# eps-delta cross-check of ``continuity_report`` accepts
CONTINUITY_GAP_TOL = 1e-2


@dataclass(frozen=True)
class ProbeParams:
    """Parameters of the shrinking-ball probes.

    ``delta_ladder`` must decrease strictly toward zero; each rung is sampled
    with the same scaled low-discrepancy point set plus the ball center.
    """

    delta_ladder: tuple[float, ...] = DEFAULT_DELTA_LADDER
    samples_per_ball: int = 512
    seed: int = 7
    tol: float = 1e-3

    def __post_init__(self) -> None:
        ladder = tuple(float(d) for d in self.delta_ladder)
        if not ladder or not all(math.isfinite(d) and d > 0 for d in ladder):
            raise ValueError("delta ladder must be finite and positive")
        if any(nxt >= prev for nxt, prev in zip(ladder[1:], ladder[:-1])):
            raise ValueError("delta ladder must be strictly decreasing")
        if self.samples_per_ball < 1:
            raise ValueError("samples_per_ball must be >= 1")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be finite and positive")
        object.__setattr__(self, "delta_ladder", ladder)


def _halton_directions(dim: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions from a scrambled Halton sequence in ``dim + 1`` coordinates.

    Coordinate ``j`` has the ``j``-th prime as base, and each of its digits goes
    through its own permutation drawn from ``seed`` (Owen 2017, *A randomized
    Halton algorithm in R*) by the standard library's ``random.Random``, so
    no process that samples imports ``numpy.random``.  Coordinates are cell
    midpoints, strictly inside (0, 1); the first ``dim`` become normalized
    standard normals, and the last is returned as is, shape (count,).
    """
    rng = random.Random(seed)
    index = np.arange(count, dtype=np.int64)[:, None]
    # the first dim + 1 primes all lie below 20 * dim + 40
    primes = [n for n in range(2, 20 * dim + 40) if all(n % p for p in range(2, math.isqrt(n) + 1))]
    u = np.empty((count, dim + 1))
    for j, base in enumerate(primes[: dim + 1]):
        digits = int(32 / math.log2(base))  # base**digits <= 2**32
        weights = base ** np.arange(digits, dtype=np.int64)
        perms = np.array([rng.sample(range(base), base) for _ in range(digits)])
        scrambled = perms[np.arange(digits), index // weights % base]
        u[:, j] = (scrambled @ weights[::-1] + 0.5) / float(base**digits)
    z = np.vectorize(NormalDist().inv_cdf, otypes=[float])(u[:, :dim])
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0] = 1.0
    return z / norms[:, None], u[:, dim]


@lru_cache(maxsize=64)
def unit_ball_points(dim: int, count: int, seed: int) -> np.ndarray:
    """Deterministic low-discrepancy sample of the unit ball, shape (count, dim)."""
    directions, u = _halton_directions(dim, count, seed)
    pts = directions * (u ** (1.0 / dim))[:, None]
    pts.setflags(write=False)
    return pts


@dataclass(frozen=True)
class IVF:
    """Interval-valued function given by vectorized lower/upper endpoint fields.

    When both fields are ``expr.ExprField``s, their two trees are evaluated
    in one ``expr.eval_expr`` call, which computes each shared subtree once:
    on points by ``values``, on the open mesh of the grid points read by
    ``_window_eval``.  Any other pair of fields is called on points.
    """

    dim: int
    lower: ScalarField
    upper: ScalarField
    label: str = ""
    domain: Optional[Box] = None

    def values(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate both endpoint fields on an (N, dim) array, with checks:
        each field must return ``N`` values, shape ``(N,)`` (a scalar is
        not broadcast), else ``InvalidEndpoints`` names the shapes."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim < 2:
            pts = np.atleast_2d(pts)
        _check_dim(self, pts.shape[1])
        pair = _expression_pair(self)
        if pair:
            lo, hi = expr.eval_expr(pair, pts)  # which ignores floating-point errors itself
        else:
            with np.errstate(all="ignore"):
                lo, hi = self.lower(pts), self.upper(pts)
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        n = (len(pts),)
        if lo.shape != n or hi.shape != n:
            raise InvalidEndpoints(
                f"{self.label!r}: endpoint fields returned shapes {lo.shape} and {hi.shape} "
                f"for {n[0]} points, expected {n}"
            )
        # fails wherever an endpoint is NaN or the pair is reversed
        if not (lo <= hi).all():
            _check_endpoints(self, lo, hi, pts.__getitem__)
        return lo, hi

    def __call__(self, x) -> Interval:
        x = np.asarray(x, dtype=float).reshape(-1)
        if self.domain is not None and not self.domain.contains(x):
            raise _outside_domain(x, self.label)
        lo, hi = self.values(x[None, :])
        return Interval(float(lo[0]), float(hi[0]))


def _outside_domain(x: np.ndarray, label: str) -> OutOfDomain:
    """The error for a point ``x`` outside the domain of the function ``label``."""
    return OutOfDomain(f"{x.tolist()} outside the domain of {label!r}")


def _check_dim(f: IVF, dim: int) -> None:
    if dim != f.dim:
        raise OutOfDomain(f"{f.label!r}: expected points of dimension {f.dim}, got {dim}")


def _check_endpoints(
    f: IVF, lo: np.ndarray, hi: np.ndarray, point_at: Callable[[int], np.ndarray]
) -> None:
    """Raise on the first point, in order, where an endpoint is NaN or where
    ``lo > hi``; ``point_at(i)`` is the ``i``-th point."""
    if np.isnan(lo).any() or np.isnan(hi).any():
        bad = point_at(int(np.flatnonzero(np.isnan(lo) | np.isnan(hi))[0]))
        raise InvalidEndpoints(f"{f.label!r} produced NaN at {bad.tolist()}")
    order_ok = lo <= hi
    if not order_ok.all():
        bad = point_at(int(np.flatnonzero(~order_ok)[0]))
        raise EndpointOrderViolation(f"{f.label!r}: lower > upper at {bad.tolist()}")


def _expression_pair(f: IVF) -> Optional[tuple]:
    """The two endpoint trees of ``f`` when both fields are expressions."""
    if isinstance(f.lower, expr.ExprField) and isinstance(f.upper, expr.ExprField):
        return f.lower.node, f.upper.node
    return None


def _ball(
    dim: int, domain: Optional[Box], xbar: np.ndarray, delta: float, params: ProbeParams
) -> np.ndarray:
    """The ball center plus the scaled unit-ball sample, clipped to ``domain``."""
    unit = unit_ball_points(dim, params.samples_per_ball, params.seed)
    pts = np.vstack([xbar[None, :], xbar[None, :] + delta * unit])
    return pts if domain is None else domain.clip(pts)


def _ball_values(
    f: IVF, xbar: np.ndarray, delta: float, params: ProbeParams
) -> tuple[np.ndarray, np.ndarray]:
    return f.values(_ball(f.dim, f.domain, xbar, delta, params))


def lower_limit(f: IVF, xbar, params: ProbeParams = ProbeParams()) -> Interval:
    """Limit of per-ball infima down the delta ladder (their supremum)."""
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    rung_infima = []
    for delta in params.delta_ladder:
        lo, hi = _ball_values(f, xbar, delta, params)
        rung_infima.append(Interval(float(lo.min()), float(hi.min())))
    return sup_family(rung_infima)


def upper_limit(f: IVF, xbar, params: ProbeParams = ProbeParams()) -> Interval:
    """Limit of per-ball suprema down the delta ladder (their infimum)."""
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    rung_suprema = []
    for delta in params.delta_ladder:
        lo, hi = _ball_values(f, xbar, delta, params)
        rung_suprema.append(Interval(float(lo.max()), float(hi.max())))
    return inf_family(rung_suprema)


def preceq_tol(a: Interval, b: Interval, tol: float) -> bool:
    """Dominance with a tolerance slack on both endpoint comparisons."""
    return a.lo <= b.lo + tol and a.hi <= b.hi + tol


def is_gh_lsc_at(f: IVF, xbar, params: ProbeParams = ProbeParams()) -> bool:
    """No lower-semicontinuity violation found: ``f(xbar)`` dominates the lower limit."""
    return preceq_tol(f(xbar), lower_limit(f, xbar, params), params.tol)


def is_gh_usc_at(f: IVF, xbar, params: ProbeParams = ProbeParams()) -> bool:
    """No upper-semicontinuity violation found: the upper limit dominates ``f(xbar)``."""
    return preceq_tol(upper_limit(f, xbar, params), f(xbar), params.tol)


@dataclass(frozen=True)
class ContinuityReport:
    """Semicontinuity probes at a point plus an independent eps-delta cross-check."""

    point: tuple[float, ...]
    value: Interval
    liminf: Interval
    limsup: Interval
    lsc: bool
    usc: bool
    continuous: bool
    eps_delta_gap: float
    eps_delta_ok: bool

    @property
    def cross_check_agrees(self) -> bool:
        return self.continuous == self.eps_delta_ok

    def to_json(self) -> dict:
        from .interval import interval_to_json

        return {
            "point": list(self.point),
            "value": interval_to_json(self.value),
            "liminf": interval_to_json(self.liminf),
            "limsup": interval_to_json(self.limsup),
            "lsc": self.lsc,
            "usc": self.usc,
            "continuous": self.continuous,
            "eps_delta_gap": self.eps_delta_gap,
            "eps_delta_ok": self.eps_delta_ok,
        }


def continuity_report(f: IVF, xbar, params: ProbeParams = ProbeParams()) -> ContinuityReport:
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    value = f(xbar)
    liminf = lower_limit(f, xbar, params)
    limsup = upper_limit(f, xbar, params)
    lsc = preceq_tol(value, liminf, params.tol)
    usc = preceq_tol(limsup, value, params.tol)

    # eps-delta form on the tightest ball: sup of gH-distance to the center value
    lo, hi = _ball_values(f, xbar, params.delta_ladder[-1], params)
    gap = float(np.max(_gh_gap(lo, hi, value.lo, value.hi)))
    return ContinuityReport(
        point=tuple(xbar.tolist()),
        value=value,
        liminf=liminf,
        limsup=limsup,
        lsc=lsc,
        usc=usc,
        continuous=lsc and usc,
        eps_delta_gap=gap,
        eps_delta_ok=gap <= CONTINUITY_GAP_TOL,
    )


def is_gh_continuous_at(f: IVF, xbar, params: ProbeParams = ProbeParams()) -> bool:
    """Conjunction of the lsc and usc probes (the eps-delta gap is recorded too)."""
    return continuity_report(f, xbar, params).continuous


@dataclass(frozen=True)
class EndpointLscReport:
    """Interval-level lsc probe against per-endpoint scalar lsc probes."""

    interval_route: bool
    lower_endpoint_lsc: bool
    upper_endpoint_lsc: bool

    @property
    def agrees(self) -> bool:
        return self.interval_route == (self.lower_endpoint_lsc and self.upper_endpoint_lsc)

    def to_json(self) -> dict:
        return {
            "interval_route": self.interval_route,
            "lower_endpoint_lsc": self.lower_endpoint_lsc,
            "upper_endpoint_lsc": self.upper_endpoint_lsc,
            "agrees": self.agrees,
        }


def endpoint_lsc_equivalence(
    f: IVF, xbar, params: ProbeParams = ProbeParams()
) -> EndpointLscReport:
    """Consistency report: the interval lsc probe against the scalar lsc
    probe of each endpoint.

    The scalar probe of an endpoint compares its value at ``xbar`` with the
    supremum down the ladder of that endpoint's minimum on each ball, which
    is the same endpoint of ``lower_limit``.  Both routes read the one walk,
    so ``agrees`` holds by construction; the tests pin it against a separate
    walk per endpoint.
    """
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    value = f(xbar)
    liminf = lower_limit(f, xbar, params)
    return EndpointLscReport(
        interval_route=preceq_tol(value, liminf, params.tol),
        lower_endpoint_lsc=value.lo <= liminf.lo + params.tol,
        upper_endpoint_lsc=value.hi <= liminf.hi + params.tol,
    )


def level_member(f: IVF, alpha: Interval, x) -> bool:
    """Membership in the level set: the value is not strictly dominated by alpha."""
    return nprec(alpha, f(x))


def level_member_mask(f: IVF, alpha: Interval, points: np.ndarray) -> np.ndarray:
    """Vectorized level-set membership for an (N, dim) array of points."""
    return _level_mask(*f.values(points), alpha)


def _level_mask(lo: np.ndarray, hi: np.ndarray, alpha: Interval) -> np.ndarray:
    dominated_by_value = (lo <= alpha.lo) & (hi <= alpha.hi)
    crossing = ((alpha.lo < lo) & (alpha.hi > hi)) | ((alpha.lo > lo) & (alpha.hi < hi))
    return dominated_by_value | crossing


def sample_level_set(f: IVF, alpha: Interval, grid: SampleGrid) -> np.ndarray:
    """Grid points belonging to the level set, in enumeration order."""
    member = _level_mask(*_grid_values(f, grid), alpha)
    return _grid_points_at(grid, np.flatnonzero(member))


@dataclass(frozen=True)
class LevelBoundReport:
    alpha: Interval
    member_count: int
    shell_member_count: int

    @property
    def bounded_evidence(self) -> bool:
        """True when no member touched the outer shell of the sampled box."""
        return self.shell_member_count == 0

    def to_json(self) -> dict:
        from .interval import interval_to_json

        return {
            "alpha": interval_to_json(self.alpha),
            "member_count": self.member_count,
            "shell_member_count": self.shell_member_count,
            "bounded_evidence": self.bounded_evidence,
        }


def level_bounded_probe(
    f: IVF, alphas: Sequence[Interval], grid: SampleGrid
) -> list[LevelBoundReport]:
    """For each alpha, check whether level-set members stay off the outer shell."""
    lo, hi = _grid_values(f, grid)
    shell = grid.shell_mask()
    out = []
    for alpha in alphas:
        member = _level_mask(lo, hi, alpha)
        out.append(
            LevelBoundReport(
                alpha=alpha,
                member_count=int(member.sum()),
                shell_member_count=int((member & shell).sum()),
            )
        )
    return out


def add_ivf(f1: IVF, f2: IVF) -> IVF:
    """Pointwise sum; ``[+inf,+inf]`` absorbs under addition."""
    if f1.dim != f2.dim:
        raise OutOfDomain("cannot add functions of different dimension")
    lower1, upper1, lower2, upper2 = f1.lower, f1.upper, f2.lower, f2.upper
    domain = f1.domain
    if domain is None:
        domain = f2.domain
    elif f2.domain is not None:
        domain = domain.intersect(f2.domain)
    return IVF(
        dim=f1.dim,
        lower=lambda pts: np.asarray(lower1(pts), float) + np.asarray(lower2(pts), float),
        upper=lambda pts: np.asarray(upper1(pts), float) + np.asarray(upper2(pts), float),
        label=f"({f1.label})+({f2.label})",
        domain=domain,
    )


def indicator(pred: Callable[[np.ndarray], np.ndarray], dim: int, label: str = "indicator") -> IVF:
    """Zero interval on the set, plus-infinity off it; encodes constraints."""

    def fld(pts: np.ndarray) -> np.ndarray:
        mask = np.asarray(pred(pts), dtype=bool)
        return np.where(mask, 0.0, _INF)

    return IVF(dim=dim, lower=fld, upper=fld, label=label)


def _grid_values(f: IVF, grid: SampleGrid) -> tuple[np.ndarray, np.ndarray]:
    """Read-only endpoint values of ``f`` on ``grid`` in enumeration order,
    evaluated as one window on the first request and kept in the grid's
    memo with their componentwise minima; minima already kept stay.

    The memo is keyed by the identity of ``f`` and holds ``f`` itself, so the
    key cannot be reused while the entry lives, and endpoint fields need not
    be hashable.  Values in the memo passed the endpoint checks: none is NaN
    and ``lo <= hi`` everywhere.  Each is a view of its own, so the read-only
    flag never touches an array a field returned from its own state.
    """
    hit = _memo_hit(f, grid)
    if hit is None or hit[1] is None:
        lo, hi = _whole_grid_eval(f, grid)
        lo.setflags(write=False)
        hi.setflags(write=False)
        inf = Interval(float(lo.min()), float(hi.min())) if hit is None else hit[3]
        hit = grid._memo[id(f)] = (f, lo, hi, inf)
    return hit[1], hit[2]


def _whole_grid_eval(f: IVF, grid: SampleGrid) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint values of ``f`` at every point of ``grid`` in enumeration
    order, read as one window and kept in no memo."""
    whole = tuple(slice(0, r) for r in grid.resolution)
    lo, hi = _window_eval(f, grid, whole)
    return _raveled(lo, grid.resolution), _raveled(hi, grid.resolution)


# Grids of more points are reduced in slabs of at most this many points.  A
# 2x2 evp sweep on 251^2 and 501^2 grids (2-core Xeon, numpy 2.4) takes 1,225
# first-touch page faults when it builds full-grid value arrays; with slabs
# of 2^13 or 2^14 points it takes none, with 2^15 about 700 and with 2^16
# about 1,000.
_SLAB_POINTS = 2**14


def _memo_hit(f: IVF, grid: SampleGrid) -> Optional[tuple]:
    """The grid memo's entry ``(f, lo, hi, minima)`` for ``f``, or None; ``lo``
    and ``hi`` are None until a reader of every point asks for them."""
    hit = grid._memo.get(id(f))
    return hit if hit is not None and hit[0] is f else None


def _window_eval(
    f: IVF, grid: SampleGrid, window: tuple[slice, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Both endpoint values of ``f`` at the grid points in ``window``, with
    the checks of ``IVF.values``: a NaN, then ``lo > hi``, each named at the
    window's first bad point in enumeration order.  The only code that
    evaluates a function at grid points.

    A function whose endpoint fields are both expressions is evaluated on
    the window's open mesh, so each subtree runs on the axes it depends
    on, and each value comes back in a shape that broadcasts to the
    window's; ``lo <= hi`` on those values fails wherever a value is NaN or
    the endpoints are reversed, so the full checks run only then.  Any other
    function goes through ``IVF.values`` on the window's points, and each
    value comes back in the window's shape, copied out when it is not
    contiguous (a column of the points).  Both routes give the same bits.
    """
    axes = [ax[w] for ax, w in zip(grid.axes(), window)]
    shape = tuple(len(ax) for ax in axes)
    pair = _expression_pair(f)
    if pair:
        _check_dim(f, grid.box.dim)
        lo, hi = expr.eval_expr(pair, np.ix_(*axes))
        if not (lo <= hi).all():
            _check_endpoints(
                f, _raveled(lo, shape), _raveled(hi, shape), lambda i: _mesh_points(axes)[i]
            )
        return lo, hi
    return tuple(np.ascontiguousarray(v).reshape(shape) for v in f.values(_mesh_points(axes)))


def _slabs(resolution: tuple[int, ...]):
    """Index windows of at most ``_SLAB_POINTS`` points that tile a grid in
    enumeration order: runs of consecutive indices along one axis, the axes
    before it held at one index and the axes after it whole."""
    tail, split = 1, len(resolution)
    while split > 0 and tail * resolution[split - 1] <= _SLAB_POINTS:
        split -= 1
        tail *= resolution[split]
    if split == 0:
        yield tuple(slice(0, r) for r in resolution)
        return
    split -= 1
    step = _SLAB_POINTS // tail
    whole = tuple(slice(0, r) for r in resolution[split + 1:])
    for lead in np.ndindex(*resolution[:split]):
        held = tuple(slice(i, i + 1) for i in lead)
        for start in range(0, resolution[split], step):
            yield held + (slice(start, min(start + step, resolution[split])),) + whole


def _window_grid_values(
    f: IVF, grid: SampleGrid, window: tuple[slice, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint values of ``f`` at the grid points in ``window``, in
    enumeration order.

    The whole grid is checked first, through ``infimum_over``, so errors
    name the grid's first bad point.  An empty window then evaluates
    nothing.  When the memo holds no values and the window holds at most
    ``_SLAB_POINTS`` points, the window is evaluated on its own, with the
    bits of the whole grid; otherwise it is read from the values in the memo.
    """
    infimum_over(f, grid)
    shape = tuple(w.stop - w.start for w in window)
    if 0 in shape:
        return np.empty(0), np.empty(0)
    if _memo_hit(f, grid)[1] is None and math.prod(shape) <= _SLAB_POINTS:
        return tuple(_raveled(v, shape) for v in _window_eval(f, grid, window))
    lo, hi = _grid_values(f, grid)
    return _window_values(grid, lo, window), _window_values(grid, hi, window)


def _raveled(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``values`` broadcast to ``shape`` and raveled in C order, in place
    when they already have that shape."""
    if values.shape == shape:
        return values.reshape(-1)
    out = np.empty(shape)
    out[...] = values
    return out.reshape(-1)


def _grid_points_at(grid: SampleGrid, flat: np.ndarray) -> np.ndarray:
    """The grid points at enumeration indices ``flat``, shape (len(flat), dim)."""
    idx = np.unravel_index(flat, grid.resolution)
    return np.stack([ax[i] for ax, i in zip(grid.axes(), idx)], axis=-1)


def _grid_window(grid: SampleGrid, center: np.ndarray, radius: float) -> tuple[slice, ...]:
    """Per-axis index ranges of the grid points in the box around the closed
    ball ``|x - center| <= radius``; the whole grid when ``radius`` is not
    finite.

    Each range is found by ``searchsorted`` on the axis and padded outward by
    a few ulp of the largest coordinate involved, and by at least 1e-150, so
    the window holds every point whose ``_grid_distances`` value is at most
    ``radius`` despite rounding, squares that underflow included.
    """
    if not math.isfinite(radius):
        return tuple(slice(0, r) for r in grid.resolution)
    out = []
    for ax, c in zip(grid.axes(), center):
        pad = 8 * math.ulp(max(abs(c), radius, abs(ax[0]), abs(ax[-1]))) + 1e-150
        lo = int(np.searchsorted(ax, c - radius - pad, side="left"))
        hi = int(np.searchsorted(ax, c + radius + pad, side="right"))
        out.append(slice(lo, max(lo, hi)))
    return tuple(out)


def _window_values(grid: SampleGrid, values: np.ndarray, window: tuple[slice, ...]) -> np.ndarray:
    """The entries of per-point ``values`` inside ``window``, in enumeration order."""
    return values.reshape(grid.resolution)[window].ravel()


def _window_to_grid(grid: SampleGrid, window: tuple[slice, ...], flat: np.ndarray) -> np.ndarray:
    """Enumeration indices in ``grid`` of the window's enumeration indices ``flat``."""
    idx = np.unravel_index(flat, tuple(w.stop - w.start for w in window))
    return np.ravel_multi_index(
        tuple(i + w.start for i, w in zip(idx, window)), grid.resolution
    )


def _grid_distances(
    grid: SampleGrid, center: np.ndarray, window: Optional[tuple[slice, ...]] = None
) -> np.ndarray:
    """Euclidean distance to ``center`` of every grid point, or of those in
    ``window``, in enumeration order."""
    axes = grid.axes()
    if window is not None:
        axes = [ax[w] for ax, w in zip(axes, window)]
    dim = grid.box.dim
    sq = 0.0
    for d, (ax, c) in enumerate(zip(axes, center)):
        diff = (ax - c).reshape((-1,) + (1,) * (dim - 1 - d))
        sq = sq + diff * diff
    return np.sqrt(sq).ravel()


def _gh_gap(lo: np.ndarray, hi: np.ndarray, ref_lo: float, ref_hi: float) -> np.ndarray:
    """gH distance of each pair ``[lo, hi]`` to ``[ref_lo, ref_hi]``.

    An endpoint equal to its reference is 0 away, also when both are
    infinite; a NaN distance reads +inf.
    """
    with np.errstate(all="ignore"):
        dlo = np.where(lo == ref_lo, 0.0, np.abs(lo - ref_lo))
        dhi = np.where(hi == ref_hi, 0.0, np.abs(hi - ref_hi))
        dist = np.maximum(dlo, dhi)
    return np.where(np.isnan(dist), _INF, dist)


def infimum_over(f: IVF, grid: SampleGrid) -> Interval:
    """Componentwise infimum of the sampled values, kept in the grid's memo.

    A grid of at most ``_SLAB_POINTS`` points is evaluated as one window and
    the memo keeps its values too.  A larger one is reduced slab by slab,
    each slab's minima taken from its unbroadcast values, and the memo keeps
    the minima alone.  The errors are those of ``IVF.values`` on the grid's
    points: a NaN anywhere is named before a reversed pair anywhere, each at
    its first point in enumeration order.  A minimum is exact in any order
    of reduction but for the sign of a zero, which ``Interval`` drops.
    """
    hit = _memo_hit(f, grid)
    if hit is not None:
        return hit[3]
    if grid.size <= _SLAB_POINTS:
        _grid_values(f, grid)
        return _memo_hit(f, grid)[3]
    lo_min = hi_min = _INF
    reversed_pair = None
    for window in _slabs(grid.resolution):
        try:
            lo, hi = _window_eval(f, grid, window)
        except EndpointOrderViolation as exc:
            # a NaN in a later slab is named first
            reversed_pair = reversed_pair or exc
            continue
        lo_min = min(lo_min, float(lo.min()))
        hi_min = min(hi_min, float(hi.min()))
    if reversed_pair is not None:
        raise reversed_pair
    inf = Interval(lo_min, hi_min)
    grid._memo[id(f)] = (f, None, None, inf)
    return inf


def is_proper_probe(f: IVF, grid: SampleGrid) -> bool:
    """Somewhere strictly below plus-infinity, nowhere the bottom element.

    Since ``lo <= hi`` at every point, a value is ``[+inf, +inf]`` exactly
    where ``lo`` is ``+inf`` and ``[-inf, -inf]`` exactly where ``hi`` is
    ``-inf``, so the sampled infimum decides both.
    """
    inf = infimum_over(f, grid)
    return inf.lo < _INF and inf.hi > -_INF


def argmin_over(f: IVF, grid: SampleGrid, tol: float) -> np.ndarray:
    """Grid points whose value is within ``tol`` of the sampled infimum.

    Infinite endpoints of the infimum must be matched exactly; the finite gap
    is measured in the gH-distance.  Empty when the infimum is plus-infinity.
    ``tol`` must be finite and non-negative.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and non-negative")
    lo, hi = _grid_values(f, grid)
    return _grid_points_at(grid, _near_minimum(lo, hi, infimum_over(f, grid), tol))


def _near_minimum(lo: np.ndarray, hi: np.ndarray, minimum: Interval, tol: float) -> np.ndarray:
    """Indices of the pairs ``[lo, hi]`` within ``tol`` of ``minimum``, their
    componentwise minimum, in the sense of ``argmin_over``."""
    if minimum.is_pos_inf:
        return np.arange(0)
    return np.flatnonzero(_gh_gap(lo, hi, minimum.lo, minimum.hi) <= tol)

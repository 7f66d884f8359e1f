"""Directional derivatives of interval-valued functions and linear-map norms.

The derivative at a point along a direction is the one-sided limit of scaled
gH-difference quotients, estimated down a decreasing lambda ladder.  A result
is accepted only when the last two quotients agree below the convergence
tolerance, and that final gap is reported as the residual.

The base point and every rung of the ladder, for every direction a call
asks about, are evaluated in one ``IVF.values`` call, and the quotients are
formed as arrays, with the bits and the errors of a walk that evaluates one
rung at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import EndpointOrderViolation, InvalidEndpoints, NonConvergent
from .interval import Interval, add, gh_dist, gh_sub, norm, scalar_mul
from .ivf import IVF, _halton_directions, _outside_domain

__all__ = [
    "DEFAULT_LAMBDA_LADDER",
    "DirectionalDerivative",
    "gateaux_derivative",
    "LinearIVFApprox",
    "linear_map",
    "gateaux_map",
    "unit_sphere_samples",
    "operator_norm",
    "NormAxiomsReport",
    "norm_axioms_check",
    "bounded_linear_probe",
    "stationarity_check",
]

# The ladder runs to 1e-8 so that first-order quotient error (proportional to
# the final step) clears both the 1e-6 acceptance gap and stationarity checks
# at 1e-6 for smooth endpoint fields.
DEFAULT_LAMBDA_LADDER = tuple(10.0**-k for k in range(1, 9))


@dataclass(frozen=True)
class DirectionalDerivative:
    """Accepted difference-quotient limit along one direction.

    ``residual`` is the Cauchy gap between the last two quotients of the
    ladder (zero for exactly linear maps).
    """

    base_point: tuple[float, ...]
    direction: tuple[float, ...]
    value: Interval
    lambda_ladder: tuple[float, ...]
    residual: float

    def to_json(self) -> dict:
        from .interval import interval_to_json

        return {
            "base_point": list(self.base_point),
            "direction": list(self.direction),
            "value": interval_to_json(self.value),
            "lambda_ladder": list(self.lambda_ladder),
            "residual": self.residual,
        }


def _checked_ladder(ladder: Sequence[float]) -> tuple[float, ...]:
    """``ladder`` as floats; raises ValueError unless it has at least two
    rungs, decreases strictly and stays finite and positive."""
    ladder = tuple(float(v) for v in ladder)
    if len(ladder) < 2 or not all(math.isfinite(v) and v > 0 for v in ladder):
        raise ValueError("lambda ladder needs at least two finite positive rungs")
    if any(nxt >= prev for nxt, prev in zip(ladder[1:], ladder[:-1])):
        raise ValueError("lambda ladder must be strictly decreasing")
    return ladder


def _quotients(
    f: IVF, xbar: np.ndarray, directions: np.ndarray, ladder: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray, Optional[Exception]]:
    """gH difference quotients ``(1/lam) * (F(xbar + lam*h) gH- F(xbar))`` of
    ``f`` along each row ``h`` of ``directions``, one per rung ``lam``.

    The base point and every rung of every direction are stacked, in the
    order of the per-rung walk, and evaluated in one ``f.values`` call.
    Returns the endpoints of the quotients, shape ``(j, len(ladder))``, for
    the leading ``j`` directions that evaluate cleanly, and the error that
    the walk meets first in direction ``j`` (None when ``j`` is every
    direction): ``OutOfDomain`` at the first point outside the domain of
    ``f`` (no later point is evaluated), the endpoint errors of
    ``IVF.values`` at the first point that has one, or ``NonConvergent`` at
    the first rung where the base or the step is infinite.
    """
    k, m = len(directions), len(ladder)
    if xbar.shape != (f.dim,) or directions.shape[1] not in (1, f.dim):
        # points that do not stack: the walk raises at the base (OutOfDomain)
        # or at its first rung (OutOfDomain, or numpy's broadcast error)
        f(xbar)
        f(xbar + ladder[0] * directions[0])
        raise ValueError(f"directions of length {directions.shape[1]} at a point of dimension {f.dim}")
    lams = np.asarray(ladder)
    steps = xbar + lams[:, None] * directions[:, None, :]
    points = np.concatenate([xbar[None, :], steps.reshape(k * m, f.dim)])
    n, error = len(points), None
    if f.domain is not None:
        inside = f.domain.inside(points)
        if not inside.all():
            n = int(np.argmin(inside))
            error = _outside_domain(points[n], f.label)
    try:
        lo, hi = f.values(points[:n]) if n else (np.empty(0), np.empty(0))
    except (InvalidEndpoints, EndpointOrderViolation):
        # the walk meets the point that raises first, one point at a time
        lo, hi = np.empty(n), np.empty(n)
        for i in range(n):
            try:
                (lo[i],), (hi[i],) = f.values(points[i : i + 1])
            except (InvalidEndpoints, EndpointOrderViolation) as exc:
                n, error = i, exc
                break
    scale = np.array([1.0 / lam for lam in ladder])
    finite = np.isfinite(lo[:n]) & np.isfinite(hi[:n])
    # where 1/lam overflows, the walk's first direction meets an infinite quotient
    finite[1 : m + 1] &= np.isfinite(scale[: max(n - 1, 0)])
    if not finite.all():
        # the first rung, if the walk reaches one, where base or step is infinite
        bad = 1 if not finite[0] else int(np.argmin(finite))
        if bad < n:
            n = bad
            error = NonConvergent(f"{f.label!r} takes an infinite value near {xbar.tolist()}")
    j = k if error is None else max(n - 1, 0) // m
    if j == 0:
        return np.empty((0, m)), np.empty((0, m)), error
    with np.errstate(all="ignore"):  # a difference may overflow, silently as in floats
        dlo = lo[1 : 1 + j * m].reshape(j, m) - lo[0]
        dhi = hi[1 : 1 + j * m].reshape(j, m) - hi[0]
        return scale * np.minimum(dlo, dhi), scale * np.maximum(dlo, dhi), error


def _derivatives(f: IVF, xbar, directions, ladder: Sequence[float], tol: float):
    """Yield ``(value, residual)`` of the derivative of ``f`` at ``xbar``
    along each row of ``directions`` in turn, from one ``_quotients`` call;
    raises what the per-rung walk of each direction raises, when the caller
    reads that far: a bad ladder or tolerance, an error from evaluation, or
    ``NonConvergent`` where the last two quotients differ by ``tol`` or more.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if not len(directions):
        return
    ladder = _checked_ladder(ladder)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and non-negative")
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    qlo, qhi, error = _quotients(f, xbar, directions, ladder)
    for lo, hi in zip(qlo, qhi):
        value = Interval(lo[-1], hi[-1])
        residual = gh_dist(Interval(lo[-2], hi[-2]), value)
        if residual >= tol:
            raise NonConvergent(
                f"quotients still differ by {residual:g} at lambda={ladder[-1]:g}"
            )
        yield value, residual
    if error is not None:
        raise error


def gateaux_derivative(
    f: IVF,
    xbar,
    h,
    ladder: Sequence[float] = DEFAULT_LAMBDA_LADDER,
    tol: float = 1e-6,
) -> DirectionalDerivative:
    """One-sided gH-difference quotient limit of ``f`` at ``xbar`` along ``h``;
    the last two quotients must be closer than ``tol``, finite and >= 0."""
    h = np.asarray(h, dtype=float).reshape(-1)
    value, residual = next(_derivatives(f, xbar, h[None, :], ladder, tol))
    return DirectionalDerivative(
        base_point=tuple(np.asarray(xbar, dtype=float).reshape(-1).tolist()),
        direction=tuple(h.tolist()),
        value=value,
        lambda_ladder=tuple(float(v) for v in ladder),
        residual=residual,
    )


@dataclass(frozen=True)
class LinearIVFApprox:
    """Linear interval-valued map known through its action on directions."""

    dim: int
    action: Callable[[np.ndarray], Interval]

    def __call__(self, x) -> Interval:
        return self.action(np.asarray(x, dtype=float).reshape(-1))


def linear_map(coefficients: Sequence[Interval]) -> LinearIVFApprox:
    """Map ``h -> sum_i h_i * C_i`` built from interval coefficients."""
    coeffs = tuple(coefficients)

    def action(h: np.ndarray) -> Interval:
        out = scalar_mul(float(h[0]), coeffs[0])
        for hi, c in zip(h[1:], coeffs[1:]):
            out = add(out, scalar_mul(float(hi), c))
        return out

    return LinearIVFApprox(dim=len(coeffs), action=action)


def gateaux_map(
    f: IVF,
    xbar,
    ladder: Sequence[float] = DEFAULT_LAMBDA_LADDER,
    tol: float = 1e-6,
) -> "LinearIVFApprox":
    """The full derivative map ``h -> derivative value`` at a point.

    The theory requires this map to be a bounded linear interval-valued map;
    run :func:`bounded_linear_probe` on the result to test that requirement
    instead of assuming it (use a probe tolerance above the quotient residual).
    """
    xbar = np.asarray(xbar, dtype=float).reshape(-1)

    def action(h: np.ndarray) -> Interval:
        return gateaux_derivative(f, xbar, h, ladder=ladder, tol=tol).value

    return LinearIVFApprox(dim=f.dim, action=action)


@lru_cache(maxsize=64)
def unit_sphere_samples(dim: int, count: int, seed: int) -> np.ndarray:
    """Deterministic unit directions, always including the +-coordinate axes."""
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    extra = max(0, count - len(axes))
    if extra:
        axes = np.vstack([axes, _halton_directions(dim, extra, seed)[0]])
    axes.setflags(write=False)
    return axes


def operator_norm(g: LinearIVFApprox, sphere_samples: np.ndarray) -> float:
    """Max sampled value norm over unit directions: a lower bound of the sup."""
    best = 0.0
    for h in np.atleast_2d(sphere_samples):
        best = max(best, norm(g(h)))
    return best


@dataclass(frozen=True)
class NormAxiomsReport:
    homogeneity_gap: float
    subadditivity_excess: float

    @property
    def ok(self) -> bool:
        return self.homogeneity_gap == 0.0 and self.subadditivity_excess <= 0.0

    def to_json(self) -> dict:
        return {
            "homogeneity_gap": self.homogeneity_gap,
            "subadditivity_excess": self.subadditivity_excess,
            "ok": self.ok,
        }


def norm_axioms_check(
    g1: LinearIVFApprox,
    g2: LinearIVFApprox,
    gamma: float,
    samples: np.ndarray,
) -> NormAxiomsReport:
    """Absolute homogeneity and subadditivity of the operator norm on shared samples."""
    scaled = LinearIVFApprox(g1.dim, lambda h: scalar_mul(gamma, g1.action(h)))
    summed = LinearIVFApprox(g1.dim, lambda h: add(g1.action(h), g2.action(h)))
    n1 = operator_norm(g1, samples)
    n2 = operator_norm(g2, samples)
    homogeneity_gap = abs(operator_norm(scaled, samples) - abs(gamma) * n1)
    subadditivity_excess = operator_norm(summed, samples) - (n1 + n2)
    return NormAxiomsReport(homogeneity_gap, subadditivity_excess)


def bounded_linear_probe(
    g: LinearIVFApprox, samples: np.ndarray, tol: float = 1e-9
) -> tuple[bool, float]:
    """Linearity residuals plus the smallest sampled bound constant.

    Additivity is checked in the gH sense, ``G(x+y) ominus_gH G(x) = G(y)``,
    which is the form interval coefficient maps satisfy (plain set addition
    over-counts width across sign changes).  Returns ``(True, C)`` when
    additivity and homogeneity residuals stay below ``tol`` over the sample
    set, otherwise ``(False, nan)``.
    """
    pts = np.atleast_2d(samples)
    residual = 0.0
    for i in range(len(pts)):
        x = pts[i]
        y = pts[(i + 1) % len(pts)]
        residual = max(residual, gh_dist(gh_sub(g(x + y), g(x)), g(y)))
        for c in (2.0, -1.0, 0.5):
            residual = max(residual, gh_dist(g(c * x), scalar_mul(c, g(x))))
        if residual >= tol:
            return False, math.nan
    bound = 0.0
    for x in pts:
        speed = float(np.linalg.norm(x))
        if speed > 0:
            bound = max(bound, norm(g(x)) / speed)
    return True, bound


def stationarity_check(
    f: IVF,
    xbar,
    directions: np.ndarray,
    ladder: Sequence[float] = DEFAULT_LAMBDA_LADDER,
    tol: float = 1e-6,
) -> bool:
    """All sampled directional derivatives vanish in norm up to ``tol``."""
    return all(norm(value) <= tol for value, _ in _derivatives(f, xbar, directions, ladder, tol))

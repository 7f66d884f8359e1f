"""Directional derivatives of interval-valued functions and linear-map norms.

The derivative at a point along a direction is the one-sided limit of scaled
gH-difference quotients, estimated down a decreasing lambda ladder.  A result
is accepted only when the last two quotients agree below the convergence
tolerance, and that final gap is reported as the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import InfiniteOperand, NonConvergent
from .interval import Interval, add, gh_dist, gh_sub, norm, scalar_mul
from .ivf import IVF, _halton_directions

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


def gateaux_derivative(
    f: IVF,
    xbar,
    h,
    ladder: Sequence[float] = DEFAULT_LAMBDA_LADDER,
    tol: float = 1e-6,
) -> DirectionalDerivative:
    """One-sided gH-difference quotient limit of ``f`` at ``xbar`` along ``h``;
    the last two quotients must be closer than ``tol``, finite and >= 0."""
    ladder = _checked_ladder(ladder)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and non-negative")
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    h = np.asarray(h, dtype=float).reshape(-1)
    base = f(xbar)
    quotients = []
    try:
        for lam in ladder:
            step = f(xbar + lam * h)
            quotients.append(scalar_mul(1.0 / lam, gh_sub(step, base)))
    except InfiniteOperand as exc:
        raise NonConvergent(
            f"{f.label!r} takes an infinite value near {xbar.tolist()}"
        ) from exc
    residual = gh_dist(quotients[-2], quotients[-1])
    if residual >= tol:
        raise NonConvergent(
            f"quotients still differ by {residual:g} at lambda={ladder[-1]:g}"
        )
    return DirectionalDerivative(
        base_point=tuple(xbar.tolist()),
        direction=tuple(h.tolist()),
        value=quotients[-1],
        lambda_ladder=ladder,
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
    for h in np.atleast_2d(directions):
        d = gateaux_derivative(f, xbar, h, ladder=ladder, tol=tol)
        if norm(d.value) > tol:
            return False
    return True

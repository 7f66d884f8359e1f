"""Finite-horizon analysis of interval sequences.

Every answer here is evidence gathered from finitely many terms: verdicts
carry the horizon and tolerance they were computed with, and "converges" means
"no counterexample up to the horizon", never a proof about the infinite tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InfiniteTerm, NotMonotone, Unbounded
from .interval import Interval

__all__ = [
    "DEFAULT_HORIZON",
    "DEFAULT_TOL",
    "IntervalSequence",
    "LimitKind",
    "LimitVerdict",
    "check_convergence",
    "check_divergence",
    "endpointwise_limit",
    "is_monotone_increasing",
    "is_bounded_above",
    "monotone_limit",
    "tail_infima",
    "tail_suprema",
    "liminf_seq",
    "limsup_seq",
]

DEFAULT_HORIZON = 10_000
DEFAULT_TOL = 1e-8

# Endpoint growth heuristics for flagging divergence from finite evidence: an
# endpoint is treated as escaping to +-inf when its magnitude at the full
# horizon exceeds the floor and keeps growing by at least the factor relative
# to the half horizon.
DIVERGENCE_FLOOR = 1e3
DIVERGENCE_GROWTH_FACTOR = 1.5


@dataclass(frozen=True)
class IntervalSequence:
    """Sequence of intervals given by a 1-based index function."""

    term: Callable[[int], Interval]
    label: str = ""


class LimitKind(Enum):
    CONVERGES = "converges"
    DIVERGES_POS_INF = "diverges_pos_inf"
    DIVERGES_NEG_INF = "diverges_neg_inf"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class LimitVerdict:
    """Finite-evidence verdict about the limit of a sequence.

    ``settled_from`` is the smallest index from which the defining condition
    held through the horizon, when one exists.
    """

    kind: LimitKind
    limit: Optional[Interval]
    horizon: int
    tolerance: float
    settled_from: Optional[int] = None

    def to_json(self) -> dict:
        from .interval import interval_to_json

        return {
            "kind": self.kind.value,
            "limit": None if self.limit is None else interval_to_json(self.limit),
            "horizon": self.horizon,
            "tolerance": self.tolerance,
            "settled_from": self.settled_from,
        }


def _endpoint_arrays(seq: IntervalSequence, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    lo = np.empty(horizon)
    hi = np.empty(horizon)
    for n in range(1, horizon + 1):
        t = seq.term(n)
        lo[n - 1] = t.lo
        hi[n - 1] = t.hi
    return lo, hi


def check_convergence(
    seq: IntervalSequence, limit: Interval, eps: float, horizon: int
) -> LimitVerdict:
    """Check whether the tail stays within ``eps`` of ``limit`` in gH-norm."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    lo, hi = _endpoint_arrays(seq, horizon)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise InfiniteTerm(f"sequence {seq.label!r} has an infinite term within the horizon")
    dist = np.maximum(np.abs(lo - limit.lo), np.abs(hi - limit.hi))
    bad = np.nonzero(dist >= eps)[0]
    if bad.size and bad[-1] == horizon - 1:
        return LimitVerdict(LimitKind.UNDETERMINED, None, horizon, eps)
    settled = 1 if bad.size == 0 else int(bad[-1]) + 2
    return LimitVerdict(LimitKind.CONVERGES, limit, horizon, eps, settled_from=settled)


def check_divergence(
    seq: IntervalSequence, thresholds: Sequence[float], horizon: int
) -> LimitVerdict:
    """Witness-based divergence check over a ladder of positive thresholds.

    Divergence to +inf needs, for every threshold ``a``, some index from which
    all terms strictly dominate ``[a, a]``; to -inf, the mirrored condition.
    """
    if not thresholds or any(a <= 0 for a in thresholds):
        raise ValueError("thresholds must be positive")
    lo, hi = _endpoint_arrays(seq, horizon)

    def settle_index(cond: np.ndarray) -> Optional[int]:
        # smallest m with cond[n] true for all n in [m, horizon], if any
        bad = np.nonzero(~cond)[0]
        if bad.size and bad[-1] == cond.size - 1:
            return None
        return 1 if bad.size == 0 else int(bad[-1]) + 2

    def ladder_witness(conds: list[np.ndarray]) -> Optional[int]:
        marks = [settle_index(c) for c in conds]
        return None if any(m is None for m in marks) else max(marks)

    strict_above = [
        (lo >= a) & (hi >= a) & ((lo > a) | (hi > a)) for a in thresholds
    ]
    m_up = ladder_witness(strict_above)
    if m_up is not None:
        return LimitVerdict(
            LimitKind.DIVERGES_POS_INF, None, horizon, max(thresholds), settled_from=m_up
        )
    strict_below = [
        (lo <= -a) & (hi <= -a) & ((lo < -a) | (hi < -a)) for a in thresholds
    ]
    m_down = ladder_witness(strict_below)
    if m_down is not None:
        return LimitVerdict(
            LimitKind.DIVERGES_NEG_INF, None, horizon, max(thresholds), settled_from=m_down
        )
    return LimitVerdict(LimitKind.UNDETERMINED, None, horizon, max(thresholds))


def endpointwise_limit(
    seq: IntervalSequence, horizon: int = DEFAULT_HORIZON, tol: float = DEFAULT_TOL
) -> LimitVerdict:
    """Estimate the limit from Cauchy behavior of both endpoint tails.

    The tail window is the second half of the horizon; if either endpoint
    oscillates beyond ``tol`` there, the verdict is undetermined.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    lo, hi = _endpoint_arrays(seq, horizon)
    start = max(0, horizon // 2 - 1)
    tail_lo, tail_hi = lo[start:], hi[start:]

    def oscillation(tail: np.ndarray) -> float:
        if np.all(tail == tail[0]):
            return 0.0
        span = float(np.max(tail) - np.min(tail))
        return math.inf if math.isnan(span) else span

    if oscillation(tail_lo) > tol or oscillation(tail_hi) > tol:
        return LimitVerdict(LimitKind.UNDETERMINED, None, horizon, tol)
    est = Interval(float(lo[-1]), float(hi[-1]))
    return LimitVerdict(LimitKind.CONVERGES, est, horizon, tol, settled_from=start + 1)


def is_monotone_increasing(seq: IntervalSequence, horizon: int) -> bool:
    """Pairwise dominance monotonicity over the horizon."""
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    lo, hi = _endpoint_arrays(seq, horizon)
    return bool(np.all(np.diff(lo) >= 0) and np.all(np.diff(hi) >= 0))


def is_bounded_above(seq: IntervalSequence, bound: Interval, horizon: int) -> bool:
    """Every term up to the horizon is dominated by ``bound``."""
    lo, hi = _endpoint_arrays(seq, horizon)
    return bool(np.all(lo <= bound.lo) and np.all(hi <= bound.hi))


def monotone_limit(
    seq: IntervalSequence, horizon: int = DEFAULT_HORIZON, tol: float = DEFAULT_TOL
) -> Interval:
    """Limit estimate for a bounded monotone increasing sequence.

    Such a sequence converges to its supremum, so the supremum of the terms up
    to the horizon (their last element) is returned.  Sustained growth in the
    second half of the horizon is incompatible with a finite supremum and
    raises :class:`Unbounded`.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    lo, hi = _endpoint_arrays(seq, horizon)
    if not (np.all(np.diff(lo) >= 0) and np.all(np.diff(hi) >= 0)):
        raise NotMonotone(f"sequence {seq.label!r} is not dominance-monotone")
    mid = horizon // 2
    first = max(abs(lo[mid - 1] - lo[0]), abs(hi[mid - 1] - hi[0]))
    second = max(abs(lo[-1] - lo[mid - 1]), abs(hi[-1] - hi[mid - 1]))
    if second > tol and second >= 0.5 * first:
        raise Unbounded(
            f"sequence {seq.label!r} grew by {second:g} over the second half of the horizon"
        )
    return Interval(float(lo[-1]), float(hi[-1]))


def _suffix_min(values: np.ndarray) -> np.ndarray:
    return np.minimum.accumulate(values[::-1])[::-1]


def _suffix_max(values: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(values[::-1])[::-1]


def tail_infima(seq: IntervalSequence, horizon: int) -> list[Interval]:
    """Derived sequence of tail infima over ``k in [n, horizon]`` for each n."""
    lo, hi = _endpoint_arrays(seq, horizon)
    slo, shi = _suffix_min(lo), _suffix_min(hi)
    return [Interval(float(a), float(b)) for a, b in zip(slo, shi)]


def tail_suprema(seq: IntervalSequence, horizon: int) -> list[Interval]:
    """Derived sequence of tail suprema over ``k in [n, horizon]`` for each n."""
    lo, hi = _endpoint_arrays(seq, horizon)
    slo, shi = _suffix_max(lo), _suffix_max(hi)
    return [Interval(float(a), float(b)) for a, b in zip(slo, shi)]


def _escapes(full: float, half: float, upward: bool) -> bool:
    if not math.isfinite(full):
        return (full > 0) == upward
    if upward:
        return full >= DIVERGENCE_FLOOR and full >= DIVERGENCE_GROWTH_FACTOR * half
    return full <= -DIVERGENCE_FLOOR and full <= DIVERGENCE_GROWTH_FACTOR * half


def _limit_of_tail_stat(
    seq: IntervalSequence, horizon: int, suffix_stat: Callable[[np.ndarray], np.ndarray],
    upward: bool,
) -> Interval:
    lo, hi = _endpoint_arrays(seq, horizon)
    cut = max(1, horizon // 2)
    est_lo = float(suffix_stat(lo)[cut - 1])
    est_hi = float(suffix_stat(hi)[cut - 1])

    # cross-horizon growth: recompute at half horizon and compare per endpoint
    half = max(1, horizon // 2)
    hcut = max(1, half // 2)
    half_lo = float(suffix_stat(lo[:half])[hcut - 1])
    half_hi = float(suffix_stat(hi[:half])[hcut - 1])
    if _escapes(est_lo, half_lo, upward):
        est_lo = math.inf if upward else -math.inf
    if _escapes(est_hi, half_hi, upward):
        est_hi = math.inf if upward else -math.inf
    # lo <= hi in every term, so each statistic of lo is at most that of hi.
    # Finite estimates keep that order; only an escape can break it, and then
    # the escaping endpoint decides: lo escaping up lifts hi with it, hi
    # escaping down takes lo with it.
    if upward:
        return Interval(est_lo, max(est_lo, est_hi))
    return Interval(min(est_lo, est_hi), est_hi)


def liminf_seq(seq: IntervalSequence, horizon: int = DEFAULT_HORIZON) -> Interval:
    """Limit of the tail-infima sequence; escaping endpoints become -inf.

    Each endpoint keeps its own estimate. Since ``lo <= hi`` in every term,
    an upper endpoint that escapes to -inf takes the lower one with it: terms
    ``[-1e12, -n]`` and ``[-1e7 - n, -n]`` give ``[-inf, -inf]``.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return _limit_of_tail_stat(seq, horizon, _suffix_min, upward=False)


def limsup_seq(seq: IntervalSequence, horizon: int = DEFAULT_HORIZON) -> Interval:
    """Limit of the tail-suprema sequence; escaping endpoints become +inf.

    Each endpoint keeps its own estimate. Since ``lo <= hi`` in every term,
    a lower endpoint that escapes to +inf lifts the upper one with it: terms
    ``[n, 1e7 + n]`` and ``[n, 1e12]`` give ``[inf, inf]``.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return _limit_of_tail_stat(seq, horizon, _suffix_max, upward=True)

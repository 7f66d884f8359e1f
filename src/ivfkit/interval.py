"""Closed intervals, the extended completion, dominance order, and norm.

The value type is a single frozen class.  An interval with both endpoints
finite is an element of the base space; endpoints are allowed to be ``+-inf``
so the two extended elements ``[-inf,-inf]`` and ``[+inf,+inf]`` (and mixed
forms such as ``[-inf, 0]``) are representable.  Use :func:`make` when finite
endpoints must be enforced.

All operations are pure functions over immutable values and are safe to call
from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Union

from .errors import EmptyFamily, InfiniteOperand, InvalidEndpoints

__all__ = [
    "Interval",
    "OrderRelation",
    "ZERO",
    "POS_INF",
    "NEG_INF",
    "make",
    "add",
    "add_scalar",
    "minkowski_sub",
    "gh_sub",
    "gh_sub_scalar",
    "scalar_mul",
    "norm",
    "gh_dist",
    "classify",
    "preceq",
    "prec",
    "prec_strict",
    "incomparable",
    "nprec",
    "npreceq",
    "inf_family",
    "sup_family",
    "format_interval",
    "parse_interval",
    "interval_to_json",
    "interval_from_json",
]

_INF = float("inf")


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval ``[lo, hi]`` with ``lo <= hi``; NaN endpoints are rejected.

    Infinite endpoints are permitted (the extended completion); operations
    that are only defined on finite intervals raise :class:`InfiniteOperand`.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = float(self.lo)
        hi = float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise InvalidEndpoints(f"NaN endpoint in [{self.lo}, {self.hi}]")
        if lo > hi:
            raise InvalidEndpoints(f"reversed endpoints [{lo}, {hi}]")
        # normalize -0.0 so text/JSON forms are canonical
        object.__setattr__(self, "lo", 0.0 if lo == 0 else lo)
        object.__setattr__(self, "hi", 0.0 if hi == 0 else hi)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    @property
    def is_pos_inf(self) -> bool:
        """True for the extended element ``[+inf, +inf]``."""
        return self.lo == _INF and self.hi == _INF

    @property
    def is_neg_inf(self) -> bool:
        """True for the extended element ``[-inf, -inf]``."""
        return self.lo == -_INF and self.hi == -_INF

    def __repr__(self) -> str:
        return format_interval(self)


ZERO = Interval(0.0, 0.0)
POS_INF = Interval(_INF, _INF)
NEG_INF = Interval(-_INF, -_INF)


def make(lo: float, hi: float) -> Interval:
    """Construct a finite interval, rejecting non-finite or reversed endpoints."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidEndpoints(f"non-finite endpoint in [{lo}, {hi}]")
    return Interval(lo, hi)


def _ext_add(a: float, b: float) -> float:
    out = a + b
    if math.isnan(out):
        raise InfiniteOperand("indeterminate sum -inf + +inf")
    return out


def add(a: Interval, b: Interval) -> Interval:
    """Endpointwise sum; ``[+inf,+inf]`` absorbs, ``-inf + +inf`` is an error."""
    return Interval(_ext_add(a.lo, b.lo), _ext_add(a.hi, b.hi))


def add_scalar(a: Interval, c: float) -> Interval:
    """Shift both endpoints by a finite real."""
    if not math.isfinite(c):
        raise InfiniteOperand(f"scalar shift by non-finite value {c}")
    return Interval(a.lo + c, a.hi + c)


def minkowski_sub(a: Interval, b: Interval) -> Interval:
    """Set difference ``[a.lo - b.hi, a.hi - b.lo]`` (not an inverse of add)."""
    if not (a.is_finite and b.is_finite):
        raise InfiniteOperand("minkowski_sub requires finite intervals")
    return Interval(a.lo - b.hi, a.hi - b.lo)


def gh_sub(a: Interval, b: Interval) -> Interval:
    """Generalized Hukuhara difference: sorted pair of endpoint differences.

    Satisfies ``gh_sub(a, a) == [0, 0]`` for every finite interval.
    """
    if not (a.is_finite and b.is_finite):
        raise InfiniteOperand("gh_sub requires finite intervals")
    dlo = a.lo - b.lo
    dhi = a.hi - b.hi
    return Interval(min(dlo, dhi), max(dlo, dhi))


def gh_sub_scalar(a: Interval, c: float) -> Interval:
    """``gh_sub`` against the degenerate interval ``[c, c]``."""
    if not math.isfinite(c):
        raise InfiniteOperand(f"gh_sub_scalar with non-finite value {c}")
    return gh_sub(a, Interval(c, c))


def scalar_mul(mu: float, a: Interval) -> Interval:
    """Scale by a finite real; a negative factor swaps the endpoints."""
    if not math.isfinite(mu):
        raise InfiniteOperand(f"scalar_mul by non-finite factor {mu}")
    if mu >= 0:
        return Interval(mu * a.lo, mu * a.hi)
    return Interval(mu * a.hi, mu * a.lo)


def norm(a: Interval) -> float:
    """Max of absolute endpoint values; ``inf`` when an endpoint is infinite."""
    return max(abs(a.lo), abs(a.hi))


def gh_dist(a: Interval, b: Interval) -> float:
    """Distance ``norm(gh_sub(a, b))``, extended to infinite endpoints.

    Matching infinite endpoints contribute zero; a mismatch (one side finite,
    or opposite signs) makes the distance ``inf``.  On finite intervals this
    equals ``norm(gh_sub(a, b))`` exactly.
    """
    dlo = 0.0 if a.lo == b.lo else abs(a.lo - b.lo)
    dhi = 0.0 if a.hi == b.hi else abs(a.hi - b.hi)
    if math.isnan(dlo) or math.isnan(dhi):
        return _INF
    return max(dlo, dhi)


class OrderRelation(Enum):
    """Total classification of an ordered pair under the dominance order."""

    DOMINATES_STRICTLY = "dominates_strictly"  # both endpoints strictly smaller
    DOMINATES_WEAKLY = "dominates_weakly"      # dominates, distinct, one endpoint tied
    DOMINATES_EQUAL = "dominates_equal"        # identical intervals
    DOMINATED_BY = "dominated_by"              # the reverse pair dominates
    INCOMPARABLE = "incomparable"              # endpoints cross strictly


def preceq(a: Interval, b: Interval) -> bool:
    """Dominance ``a`` over ``b``: both endpoints of ``a`` are <= those of ``b``."""
    return a.lo <= b.lo and a.hi <= b.hi


def prec(a: Interval, b: Interval) -> bool:
    """Strict dominance: ``preceq`` and the intervals differ."""
    return a.lo <= b.lo and a.hi <= b.hi and (a.lo < b.lo or a.hi < b.hi)


def prec_strict(a: Interval, b: Interval) -> bool:
    """Both endpoints of ``a`` strictly below those of ``b``.

    Stronger than :func:`prec`, which tolerates one tied endpoint.  The
    neighborhood law ``norm(gh_sub(a, b)) < eps`` is equivalent to the
    two-sided sandwich in THIS relation; with :func:`prec` the equivalence
    fails exactly when an endpoint gap equals ``eps``.
    """
    return a.lo < b.lo and a.hi < b.hi


def incomparable(a: Interval, b: Interval) -> bool:
    """Neither dominates: the endpoints cross strictly."""
    return (a.lo < b.lo and a.hi > b.hi) or (a.lo > b.lo and a.hi < b.hi)


def nprec(a: Interval, b: Interval) -> bool:
    """``b`` is not dominated by ``a``: either ``preceq(b, a)`` or incomparable."""
    return preceq(b, a) or incomparable(a, b)


def npreceq(a: Interval, b: Interval) -> bool:
    """Negation of ``preceq(a, b)``."""
    return a.lo > b.lo or a.hi > b.hi


def classify(a: Interval, b: Interval) -> OrderRelation:
    """Classify the pair; exactly one variant holds for any two intervals."""
    if a.lo == b.lo and a.hi == b.hi:
        return OrderRelation.DOMINATES_EQUAL
    if a.lo <= b.lo and a.hi <= b.hi:
        if a.lo < b.lo and a.hi < b.hi:
            return OrderRelation.DOMINATES_STRICTLY
        return OrderRelation.DOMINATES_WEAKLY
    if b.lo <= a.lo and b.hi <= a.hi:
        return OrderRelation.DOMINATED_BY
    return OrderRelation.INCOMPARABLE


def inf_family(family: Iterable[Interval]) -> Interval:
    """Componentwise infimum of a nonempty collection of intervals.

    The result need not belong to the collection and may have infinite
    endpoints when the collection does.
    """
    lo = _INF
    hi = _INF
    empty = True
    for item in family:
        empty = False
        if item.lo < lo:
            lo = item.lo
        if item.hi < hi:
            hi = item.hi
    if empty:
        raise EmptyFamily("infimum of an empty family")
    return Interval(lo, hi)


def sup_family(family: Iterable[Interval]) -> Interval:
    """Componentwise supremum of a nonempty collection of intervals."""
    lo = -_INF
    hi = -_INF
    empty = True
    for item in family:
        empty = False
        if item.lo > lo:
            lo = item.lo
        if item.hi > hi:
            hi = item.hi
    if empty:
        raise EmptyFamily("supremum of an empty family")
    return Interval(lo, hi)


def _format_endpoint(x: float) -> str:
    if x == _INF:
        return "inf"
    if x == -_INF:
        return "-inf"
    return repr(x)


def format_interval(a: Interval) -> str:
    """Canonical text form ``[lo,hi]`` with ``inf``/``-inf`` tokens."""
    return f"[{_format_endpoint(a.lo)},{_format_endpoint(a.hi)}]"


def parse_interval(text: str) -> Interval:
    """Parse the canonical text form produced by :func:`format_interval`."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise InvalidEndpoints(f"expected '[lo,hi]', got {text!r}")
    parts = body[1:-1].split(",")
    if len(parts) != 2:
        raise InvalidEndpoints(f"expected two endpoints, got {text!r}")
    return Interval(_parse_endpoint(parts[0]), _parse_endpoint(parts[1]))


def _parse_endpoint(token: str) -> float:
    word = token.strip().lower()
    if word in ("inf", "+inf"):
        return _INF
    if word == "-inf":
        return -_INF
    try:
        return float(word)
    except ValueError as exc:
        raise InvalidEndpoints(f"bad endpoint token {token!r}") from exc


def interval_to_json(a: Interval) -> dict:
    """JSON form ``{"lo": number | "-inf", "hi": number | "+inf"}``."""
    lo: Union[float, str] = "-inf" if a.lo == -_INF else ("+inf" if a.lo == _INF else a.lo)
    hi: Union[float, str] = "+inf" if a.hi == _INF else ("-inf" if a.hi == -_INF else a.hi)
    return {"lo": lo, "hi": hi}


def interval_from_json(obj: dict) -> Interval:
    def endpoint(v: Union[float, str]) -> float:
        if isinstance(v, str):
            return _parse_endpoint(v)
        return float(v)

    return Interval(endpoint(obj["lo"]), endpoint(obj["hi"]))

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ivfkit.errors import InfiniteTerm, NotMonotone, Unbounded
from ivfkit.interval import POS_INF, Interval, gh_dist, preceq
from ivfkit.sequences import (
    IntervalSequence,
    LimitKind,
    check_convergence,
    check_divergence,
    endpointwise_limit,
    is_bounded_above,
    is_monotone_increasing,
    liminf_seq,
    limsup_seq,
    monotone_limit,
    tail_infima,
    tail_suprema,
)

harmonic = IntervalSequence(lambda n: Interval(1.0 / n, 1.0), "harmonic")
constant = IntervalSequence(lambda n: Interval(2.0, 3.0), "constant")
linear_growth = IntervalSequence(lambda n: Interval(float(n), float(n + 1)), "linear-growth")
monotone_halving = IntervalSequence(lambda n: Interval(1.0 - 1.0 / n, 2.0), "monotone-halving")


def alternating_term(n: int) -> Interval:
    if n % 2 == 1:
        return Interval(1.0 / n**2, 1.0 / n**2 + 1.0)
    return Interval(float(n), float(n**2 + 1))


alternating = IntervalSequence(alternating_term, "alternating")


class TestConvergence:
    def test_harmonic_converges(self):
        v = check_convergence(harmonic, Interval(0, 1), eps=1e-3, horizon=2000)
        assert v.kind is LimitKind.CONVERGES
        assert v.limit == Interval(0, 1)
        assert v.settled_from == 1001

    def test_constant_converges_immediately(self):
        v = check_convergence(constant, Interval(2, 3), eps=1e-12, horizon=50)
        assert v.kind is LimitKind.CONVERGES and v.settled_from == 1

    def test_growing_sequence_undetermined(self):
        v = check_convergence(linear_growth, Interval(0, 1), eps=1.0, horizon=100)
        assert v.kind is LimitKind.UNDETERMINED

    def test_infinite_term_rejected(self):
        bad = IntervalSequence(lambda n: POS_INF if n == 3 else Interval(0, 1), "bad")
        with pytest.raises(InfiniteTerm):
            check_convergence(bad, Interval(0, 1), eps=0.1, horizon=10)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            check_convergence(constant, Interval(2, 3), eps=0.0, horizon=10)
        with pytest.raises(ValueError):
            check_convergence(constant, Interval(2, 3), eps=0.1, horizon=0)


class TestDivergence:
    def test_linear_growth_diverges(self):
        v = check_divergence(linear_growth, [1, 10, 50], horizon=100)
        assert v.kind is LimitKind.DIVERGES_POS_INF
        assert v.settled_from == 50  # [50,51] already strictly dominates [50,50]

    def test_downward(self):
        seq = IntervalSequence(lambda n: Interval(-2.0 * n, -n), "down")
        v = check_divergence(seq, [1, 10], horizon=100)
        assert v.kind is LimitKind.DIVERGES_NEG_INF

    def test_bounded_undetermined(self):
        v = check_divergence(constant, [1, 10], horizon=100)
        assert v.kind is LimitKind.UNDETERMINED


class TestEndpointwise:
    def test_harmonic(self):
        v = endpointwise_limit(harmonic, horizon=2000, tol=1e-3)
        assert v.kind is LimitKind.CONVERGES
        assert gh_dist(v.limit, Interval(0, 1)) < 1e-3

    def test_constant_exact(self):
        v = endpointwise_limit(constant, horizon=100, tol=1e-12)
        assert v.kind is LimitKind.CONVERGES and v.limit == Interval(2, 3)

    def test_oscillating_lower_endpoint(self):
        seq = IntervalSequence(lambda n: Interval((-1.0) ** n, 2.0), "osc")
        v = endpointwise_limit(seq, horizon=500, tol=0.5)
        assert v.kind is LimitKind.UNDETERMINED


class TestMonotone:
    def test_monotone_halving(self):
        assert is_monotone_increasing(monotone_halving, horizon=500)
        assert is_bounded_above(monotone_halving, Interval(1, 2), horizon=500)

    def test_constant_is_monotone(self):
        assert is_monotone_increasing(constant, horizon=10)

    def test_harmonic_is_not_monotone(self):
        # the lower endpoint decreases, so pairwise dominance fails
        assert not is_monotone_increasing(harmonic, horizon=10)

    def test_monotone_limit_value(self):
        got = monotone_limit(monotone_halving, horizon=10_000, tol=1e-8)
        assert gh_dist(got, Interval(1, 2)) < 1e-3

    def test_monotone_limit_constant(self):
        assert monotone_limit(constant, horizon=100) == Interval(2, 3)

    def test_monotone_limit_unbounded(self):
        with pytest.raises(Unbounded):
            monotone_limit(linear_growth, horizon=1000)

    def test_monotone_limit_requires_monotonicity(self):
        with pytest.raises(NotMonotone):
            monotone_limit(harmonic, horizon=100)


class TestLimInfSup:
    def test_alternating_liminf(self):
        got = liminf_seq(alternating, horizon=10_000)
        assert gh_dist(got, Interval(0, 1)) < 1e-6

    def test_alternating_limsup_escapes(self):
        assert limsup_seq(alternating, horizon=10_000) == POS_INF

    def test_constant(self):
        assert liminf_seq(constant, horizon=200) == Interval(2, 3)
        assert limsup_seq(constant, horizon=200) == Interval(2, 3)

    def test_endpoint_estimates_are_not_swapped(self):
        # lo <= hi in every term: lo escaping up lifts hi with it, hi escaping
        # down takes lo with it, and the other escapes leave the other endpoint
        # its own estimate
        inf = math.inf
        cases = [
            (limsup_seq, lambda n: Interval(float(n), 1e7 + n), Interval(inf, inf)),
            (limsup_seq, lambda n: Interval(float(n), 1e12), Interval(inf, inf)),
            (limsup_seq, lambda n: Interval(-1e12, float(n)), Interval(-1e12, inf)),
            (liminf_seq, lambda n: Interval(-1e7 - n, -float(n)), Interval(-inf, -inf)),
            (liminf_seq, lambda n: Interval(-1e12, -float(n)), Interval(-inf, -inf)),
            (liminf_seq, lambda n: Interval(-float(n), 1e12), Interval(-inf, 1e12)),
        ]
        for stat, term, expected in cases:
            assert stat(IntervalSequence(term, "s"), horizon=10_000) == expected

    def test_tail_infima_monotone(self):
        tails = tail_infima(alternating, horizon=400)
        assert all(preceq(a, b) for a, b in zip(tails, tails[1:]))

    def test_tail_suprema_antitone(self):
        tails = tail_suprema(alternating, horizon=400)
        assert all(preceq(b, a) for a, b in zip(tails, tails[1:]))

    @given(
        st.lists(
            st.tuples(st.floats(-10, 10), st.floats(0, 5)), min_size=4, max_size=60
        )
    )
    def test_liminf_preceq_limsup(self, pairs):
        terms = [Interval(a, a + w) for a, w in pairs]
        seq = IntervalSequence(lambda n: terms[(n - 1) % len(terms)], "cycle")
        lo = liminf_seq(seq, horizon=len(terms) * 4)
        hi = limsup_seq(seq, horizon=len(terms) * 4)
        assert preceq(lo, hi)

    def test_endpoint_decomposition_oracle(self):
        # scalar oracle: plain python min/max over the same finite tail
        horizon, cut = 800, 400
        los = [alternating_term(n).lo for n in range(1, horizon + 1)]
        his = [alternating_term(n).hi for n in range(1, horizon + 1)]
        want_inf = Interval(min(los[cut - 1 :]), min(his[cut - 1 :]))
        assert liminf_seq(alternating, horizon=horizon) == want_inf


class TestMonotoneLimitMatchesConvergence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_monotone_bounded(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            l1 = rng.uniform(-5, 5)
            g1, g2 = rng.uniform(0.1, 2, size=2)
            q = rng.uniform(0.3, 0.9)
            # keep lower <= upper for every index, including the fastest rung n=1
            l2 = l1 + rng.uniform(0, 3) + max(0.0, g2 - g1) * q

            def term(n, l1=l1, l2=l2, g1=g1, g2=g2, q=q):
                return Interval(l1 - g1 * q**n, l2 - g2 * q**n)

            seq = IntervalSequence(term, "generated")
            limit = monotone_limit(seq, horizon=200, tol=1e-6)
            v = check_convergence(seq, limit, eps=1e-6, horizon=200)
            assert v.kind is LimitKind.CONVERGES

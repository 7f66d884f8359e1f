import math

import numpy as np
import pytest

from ivfkit.calculus import (
    DEFAULT_LAMBDA_LADDER,
    LinearIVFApprox,
    bounded_linear_probe,
    gateaux_derivative,
    gateaux_map,
    linear_map,
    norm_axioms_check,
    operator_norm,
    stationarity_check,
    unit_sphere_samples,
)
from ivfkit.errors import NonConvergent
from ivfkit.interval import Interval, gh_dist, norm, scalar_mul
from ivfkit.ivf import IVF

from reference import quadratic_pair


def linear_pair():
    # value [1,2]*x as an endpoint pair
    return IVF(
        1,
        lambda P: np.minimum(P[:, 0], 2 * P[:, 0]),
        lambda P: np.maximum(P[:, 0], 2 * P[:, 0]),
        "linear-pair",
    )


def constant_ivf():
    return IVF(1, lambda P: np.full(P.shape[0], 1.0), lambda P: np.full(P.shape[0], 2.0), "constant")


def endpoint_difference_oracle(f, xbar, h, lam=1e-9):
    """Independent check: sorted one-sided endpoint difference quotients."""
    a = f(np.add(xbar, np.multiply(lam, h)))
    b = f(xbar)
    dlo = (a.lo - b.lo) / lam
    dhi = (a.hi - b.hi) / lam
    return Interval(min(dlo, dhi), max(dlo, dhi))


class TestGateauxDerivative:
    def test_quadratic_at_one(self):
        d = gateaux_derivative(quadratic_pair(), (1.0,), (1.0,))
        assert gh_dist(d.value, Interval(2, 4)) <= 1e-4
        oracle = endpoint_difference_oracle(quadratic_pair(), (1.0,), (1.0,))
        assert gh_dist(d.value, oracle) <= 1e-4

    def test_quadratic_at_zero(self):
        d = gateaux_derivative(quadratic_pair(), (0.0,), (1.0,))
        assert norm(d.value) <= 1e-6

    def test_linear_exact_at_origin(self):
        d = gateaux_derivative(linear_pair(), (0.0,), (1.0,))
        assert d.value == Interval(1, 2)
        assert d.residual == 0.0
        d = gateaux_derivative(linear_pair(), (0.0,), (-1.0,))
        assert d.value == Interval(-2, -1)

    def test_linear_away_from_origin(self):
        # float cancellation at tiny steps leaves sub-1e-6 noise
        d = gateaux_derivative(linear_pair(), (0.3,), (1.0,))
        assert gh_dist(d.value, Interval(1, 2)) <= 1e-6

    def test_positive_homogeneity_in_direction(self):
        # residual gate is absolute, so widen it for the scaled direction
        f = quadratic_pair()
        d1 = gateaux_derivative(f, (1.0,), (1.0,))
        d3 = gateaux_derivative(f, (1.0,), (3.0,), tol=1e-4)
        assert gh_dist(d3.value, scalar_mul(3.0, d1.value)) <= 1e-3

    def test_residual_shrinks_linearly(self):
        d = gateaux_derivative(quadratic_pair(), (1.0,), (1.0,))
        assert d.residual <= 10 * d.lambda_ladder[-2]

    def test_nonconvergent(self):
        # endpoint field with unbounded oscillation in the quotient
        wild = IVF(
            1,
            lambda P: np.where(P[:, 0] != 0, np.abs(P[:, 0]) * np.sin(1 / P[:, 0]) - 2, -2.0),
            lambda P: np.full(P.shape[0], 3.0),
            "wild",
        )
        with pytest.raises(NonConvergent):
            gateaux_derivative(wild, (0.0,), (1.0,))

    @pytest.mark.xfail(strict=True, raises=NonConvergent, reason="ROADMAP item 5")
    def test_smooth_catalog_derivative_converges(self):
        # the last rung of the ladder sits in roundoff noise: today the
        # quotients differ by 3.16e-6 at lambda 1e-8
        from ivfkit.catalog import get_function

        d = gateaux_derivative(get_function("paper-levelset").ivf, (1.0, 1.0), (0.0, 1.0))
        assert gh_dist(d.value, Interval(6 * math.e, 8 * math.e)) <= 1e-4

    def test_bad_ladder(self):
        with pytest.raises(ValueError):
            gateaux_derivative(quadratic_pair(), (1.0,), (1.0,), ladder=(1e-2,))
        with pytest.raises(ValueError):
            gateaux_derivative(quadratic_pair(), (1.0,), (1.0,), ladder=(1e-3, 1e-2))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-6])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        # a NaN tolerance would accept any residual: paper-levelset at (1, 1)
        # along (0, 1) does not converge at the default tolerance
        from ivfkit.catalog import get_function

        f = get_function("paper-levelset").ivf
        with pytest.raises(NonConvergent):
            gateaux_derivative(f, (1.0, 1.0), (0.0, 1.0), tol=1e-6)
        with pytest.raises(ValueError):
            gateaux_derivative(f, (1.0, 1.0), (0.0, 1.0), tol=tol)
        # zero is a valid tolerance that no residual is below
        with pytest.raises(NonConvergent):
            gateaux_derivative(get_function("constant").ivf, (0.3,), (1.0,), tol=0.0)


class TestOperatorNorm:
    def test_interval_coefficient(self):
        g = linear_map([Interval(1, 2)])
        assert operator_norm(g, np.array([[1.0], [-1.0]])) == 2.0

    def test_zero_map(self):
        g = linear_map([Interval(0, 0)])
        assert operator_norm(g, np.array([[1.0], [-1.0]])) == 0.0

    def test_scaled_degenerate(self):
        g = LinearIVFApprox(1, lambda h: scalar_mul(3 * float(h[0]), Interval(1, 1)))
        assert operator_norm(g, np.array([[1.0], [-1.0]])) == 3.0

    def test_monotone_in_samples(self):
        g = linear_map([Interval(1, 2), Interval(-1, 1)])
        small = unit_sphere_samples(2, 4, seed=3)
        large = unit_sphere_samples(2, 64, seed=3)
        assert operator_norm(g, large) >= operator_norm(g, small)

    def test_sphere_includes_axes(self):
        samples = unit_sphere_samples(3, 10, seed=0)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            assert any(np.array_equal(row, e) for row in samples)
            assert any(np.array_equal(row, -e) for row in samples)


class TestNormAxioms:
    def test_negative_scaling(self):
        g = linear_map([Interval(1, 2)])
        rep = norm_axioms_check(g, g, gamma=-2.0, samples=np.array([[1.0], [-1.0]]))
        assert rep.ok and rep.homogeneity_gap == 0.0

    def test_zero_scaling(self):
        g = linear_map([Interval(1, 2)])
        rep = norm_axioms_check(g, g, gamma=0.0, samples=np.array([[1.0], [-1.0]]))
        assert rep.ok

    def test_subadditivity_equality_case(self):
        g = linear_map([Interval(1, 2)])
        rep = norm_axioms_check(g, g, gamma=1.0, samples=np.array([[1.0], [-1.0]]))
        assert rep.subadditivity_excess <= 0.0 and rep.ok

    def test_random_linear_fixtures(self):
        rng = np.random.default_rng(5)
        samples = unit_sphere_samples(2, 32, seed=11)
        for _ in range(20):
            a, b = sorted(rng.uniform(-3, 3, size=2))
            c, d = sorted(rng.uniform(-3, 3, size=2))
            g1 = linear_map([Interval(a, b), Interval(c, d)])
            g2 = linear_map([Interval(c, d), Interval(a, b)])
            rep = norm_axioms_check(g1, g2, gamma=float(rng.uniform(-4, 4)), samples=samples)
            assert rep.ok


class TestBoundedLinearProbe:
    def test_linear(self):
        g = linear_map([Interval(1, 2)])
        ok, bound = bounded_linear_probe(g, np.array([[1.0], [-1.0], [0.5], [2.0]]))
        assert ok and bound == 2.0

    def test_zero(self):
        g = linear_map([Interval(0, 0)])
        ok, bound = bounded_linear_probe(g, np.array([[1.0], [-1.0]]))
        assert ok and bound == 0.0

    def test_nonlinear_rejected(self):
        g = LinearIVFApprox(
            1, lambda h: Interval(float(h[0]) ** 2, float(h[0]) ** 2 + 1.0)
        )
        ok, bound = bounded_linear_probe(g, np.array([[1.0], [0.5]]))
        assert not ok and math.isnan(bound)

    def test_derivative_map_is_linear_where_smooth(self):
        # the derivative map of the quadratic pair at 1 acts like h*[2,4]
        g = gateaux_map(quadratic_pair(), (1.0,))
        ok, bound = bounded_linear_probe(
            g, np.array([[1.0], [-1.0], [0.5]]), tol=1e-6
        )
        assert ok and abs(bound - 4.0) <= 1e-6

    def test_derivative_map_nonlinear_at_kink(self):
        # |x| pair at 0: quotients converge but h -> [|h|, 2|h|] fails homogeneity
        f = IVF(1, lambda P: np.abs(P[:, 0]), lambda P: 2 * np.abs(P[:, 0]), "abs-pair")
        g = gateaux_map(f, (0.0,))
        ok, bound = bounded_linear_probe(g, np.array([[1.0], [-1.0]]), tol=1e-6)
        assert not ok and math.isnan(bound)


class TestStationarity:
    def test_quadratic(self):
        dirs = np.array([[1.0], [-1.0]])
        assert stationarity_check(quadratic_pair(), (0.0,), dirs)
        assert not stationarity_check(quadratic_pair(), (1.0,), dirs)

    def test_constant(self):
        dirs = np.array([[1.0], [-1.0]])
        assert stationarity_check(constant_ivf(), (0.7,), dirs)

    def test_at_grid_argmin(self):
        from ivfkit.ivf import Box, SampleGrid, argmin_over

        f = quadratic_pair()
        grid = SampleGrid(Box(((-1.0, 1.0),)), (401,))
        winners = argmin_over(f, grid, tol=1e-9)
        assert len(winners) == 1
        assert stationarity_check(f, winners[0], np.array([[1.0], [-1.0]]))

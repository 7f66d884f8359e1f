import dataclasses
import math

import numpy as np
import pytest

from ivfkit.calculus import unit_sphere_samples
from ivfkit.errors import (
    EmptyGrid,
    EndpointOrderViolation,
    InvalidEndpoints,
    OutOfDomain,
    UnknownIdentifier,
)
from ivfkit.interval import POS_INF, Interval, gh_dist, inf_family, preceq
from ivfkit.ivf import (
    IVF,
    Box,
    ContinuityReport,
    ProbeParams,
    SampleGrid,
    add_ivf,
    argmin_over,
    continuity_report,
    endpoint_lsc_equivalence,
    indicator,
    infimum_over,
    is_gh_continuous_at,
    is_gh_lsc_at,
    is_gh_usc_at,
    is_proper_probe,
    level_bounded_probe,
    level_member,
    level_member_mask,
    lower_limit,
    _gh_gap,
    _grid_distances,
    _grid_points_at,
    _grid_values,
    _grid_window,
    _halton_directions,
    _memo_hit,
    _slabs,
    _window_grid_values,
    _window_to_grid,
    _window_values,
    sample_level_set,
    unit_ball_points,
    upper_limit,
)

import reference
from reference import outcome, quadratic_pair, same_bits

PARAMS = ProbeParams()


def constant_ivf(lo=1.0, hi=2.0, dim=1):
    return IVF(
        dim,
        lambda P, v=lo: np.full(P.shape[0], v),
        lambda P, v=hi: np.full(P.shape[0], v),
        "constant",
    )


def sin_oscillation():
    def lo(P):
        x1, x2 = P[:, 0], P[:, 1]
        s = np.sin(1.0 / x1)
        return np.where(x1 * x2 != 0, np.minimum(s, 2 * s) + np.cos(x2) ** 2, -2.0)

    def hi(P):
        x1, x2 = P[:, 0], P[:, 1]
        s = np.sin(1.0 / x1)
        return np.where(x1 * x2 != 0, np.maximum(s, 2 * s) + np.cos(x2) ** 2, -1.0)

    return IVF(2, lo, hi, "sin-oscillation")


def rational_exponential():
    def lo(P):
        x1, x2 = P[:, 0], P[:, 1]
        return np.where(x1 * x2 != 0, np.abs(x1 * x2) / (2 * x1**2 + x2**2), 0.0)

    def hi(P):
        x1, x2 = P[:, 0], P[:, 1]
        return np.where(x1 * x2 != 0, np.exp(np.abs(6 * x1 * x2)) / (x1**2 + x2**2), 0.0)

    return IVF(2, lo, hi, "rational-exponential")


def level_set_example():
    return IVF(
        2,
        lambda P: P[:, 0] ** 2 + 3 * np.exp(P[:, 1] ** 2),
        lambda P: 2 * P[:, 0] ** 2 + 4 * np.exp(P[:, 1] ** 2),
        "level-set-example",
    )


def axis_unbounded_below():
    def lo(P):
        x1 = P[:, 0]
        return np.where(x1 != 0, -1.0 / np.abs(x1), -math.inf)

    def hi(P):
        x1, x2 = P[:, 0], P[:, 1]
        return np.where(x1 != 0, np.exp(-1.0 / np.abs(x1) + x2**2), 0.0)

    return IVF(2, lo, hi, "axis-unbounded-below")


def proper_example():
    return IVF(
        2,
        lambda P: P[:, 0],
        lambda P: np.exp(P[:, 0]) + P[:, 1] ** 2,
        "proper-example",
    )


def step_upper():
    return IVF(
        1,
        lambda P: np.full(P.shape[0], -1.0),
        lambda P: np.where(P[:, 0] <= 0, 1.0, 0.0),
        "step-upper",
    )


class TestBoxAndGrid:
    def test_box_validation(self):
        with pytest.raises(InvalidEndpoints):
            Box(((1.0, 0.0),))
        with pytest.raises(InvalidEndpoints):
            Box(((0.0, math.inf),))

    def test_box_inside_is_contains_row_by_row(self):
        # closed bounds, NaN outside, and only the shared leading axes
        # compared, as a zip over the point and the bounds compares them
        box = Box(((0.0, 1.0), (-2.0, -1.0)))
        points = np.array([[0.0, -1.0], [1.0, -2.0], [0.5, -0.5], [-0.1, -1.5],
                           [np.nan, -1.5], [0.5, np.nan], [1.0, -1.0]])
        mask = box.inside(points)
        assert mask.tolist() == [True, True, False, False, False, False, True]
        assert mask.tolist() == [box.contains(p) for p in points]
        assert box.contains([0.5]) and not box.contains([2.0])
        assert box.contains([0.5, -1.5, 99.0]) and not box.contains([0.5, 0.0, 0.0])

    def test_grid_lexicographic(self):
        grid = SampleGrid(Box(((0.0, 1.0), (0.0, 2.0))), (2, 3))
        pts = grid.points()
        expected = [
            [0, 0], [0, 1], [0, 2],
            [1, 0], [1, 1], [1, 2],
        ]
        assert np.allclose(pts, expected)

    def test_grid_shell(self):
        grid = SampleGrid(Box(((0.0, 1.0), (0.0, 1.0))), (4, 4))
        shell = grid.shell_mask()
        assert shell.sum() == 12  # 16 points, 4 interior
        assert grid.size == 16

    def test_resolution_validation(self):
        with pytest.raises(EmptyGrid):
            SampleGrid(Box(((0.0, 1.0),)), (1,))

    def test_grid_coordinates_must_be_finite(self):
        # the lerp of each axis overflows on a box near the largest doubles;
        # the grid refuses it without a numpy warning
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"overflows at resolution \[11\]"):
                SampleGrid(Box(((-1e308, 1e308),)), (11,))
            with pytest.raises(ValueError, match="overflows"):
                SampleGrid(Box(((0.0, 1.0), (-1e308, 1e308))), (3, 5))
            grid = SampleGrid(Box(((-1e308, 1e308),)), (2,))
        assert grid.axes()[0].tolist() == [-1e308, 1e308]

    def test_ball_points_deterministic_and_inside(self):
        a = unit_ball_points(2, 256, seed=7)
        b = unit_ball_points(2, 256, seed=7)
        assert a is b or np.array_equal(a, b)
        assert np.all(np.linalg.norm(a, axis=1) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("count", [1, 512, 513])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_sampler_contract(self, dim, count):
        ball = unit_ball_points(dim, count, seed=7)
        sphere = unit_sphere_samples(dim, count, seed=7)
        assert ball.shape == (count, dim)
        assert np.isfinite(ball).all() and np.isfinite(sphere).all()
        assert np.all(np.linalg.norm(ball, axis=1) <= 1.0)
        # recompute past the cache: the same seed gives the same array
        assert np.array_equal(ball, unit_ball_points.__wrapped__(dim, count, 7))
        assert np.array_equal(sphere, unit_sphere_samples.__wrapped__(dim, count, 7))
        assert not np.array_equal(ball, unit_ball_points(dim, count, seed=8))
        axes = np.vstack([np.eye(dim), -np.eye(dim)])
        assert np.array_equal(sphere[: 2 * dim], axes)
        assert np.allclose(np.linalg.norm(sphere, axis=1), 1.0)
        if len(sphere) > 2 * dim:
            assert not np.array_equal(sphere, unit_sphere_samples(dim, count, seed=8))

    @pytest.mark.parametrize("dim, base", [(1, 3), (2, 5)])
    def test_halton_coordinate_stratified(self, dim, base):
        # digit permutations keep the Halton strata: the first base**3 points
        # fill every cell of width base**-3 exactly once
        _, u = _halton_directions(dim, base**3, seed=7)
        assert sorted(np.floor(u * base**3).astype(int)) == list(range(base**3))


    def test_grid_memo_is_read_only_and_outside_equality(self):
        box = Box(((-1.0, 1.0), (0.0, 2.0)))
        grid, twin = SampleGrid(box, (5, 7)), SampleGrid(box, (5, 7))
        f = IVF(2, lambda P: P[:, 0] + P[:, 1], lambda P: P[:, 0] + 2 * P[:, 1], "plane")
        lo, hi = _grid_values(f, grid)
        assert _grid_values(f, grid)[0] is lo
        # the memo does not hash the function, so unhashable fields work too
        class Field:
            __hash__ = None

            def __call__(self, P):
                return P[:, 0] - 10.0

        g = IVF(2, Field(), Field(), "unhashable")
        assert infimum_over(g, grid) == Interval(-11.0, -11.0)
        assert not lo.flags.writeable and not hi.flags.writeable
        with pytest.raises(ValueError):
            lo[0] = 0.0
        assert np.array_equal(lo, f.values(grid.points())[0])
        assert grid == twin and hash(grid) == hash(twin)
        assert "memo" not in repr(grid)

        # the axes are built once with the grid, read-only, outside equality
        axes = grid.axes()
        assert grid.axes() is axes
        for ax, (a, b), r in zip(axes, box.bounds, grid.resolution):
            assert not ax.flags.writeable
            with pytest.raises(ValueError):
                ax[0] = 0.0
            # a fresh build in the lerp form, bit for bit
            k = np.arange(r, dtype=float)
            fresh = (a * (r - 1 - k) + b * k) / (r - 1)
            fresh[0], fresh[-1] = a, b
            assert fresh.tobytes() == ax.tobytes()
        assert axes[0][2] == 0.0  # the midpoint of a symmetric axis is exactly zero
        compared = {fd.name for fd in dataclasses.fields(SampleGrid) if fd.compare or fd.hash}
        assert compared == {"box", "resolution"}
        assert "_axes" not in repr(grid) and "array" not in repr(grid)
        twin = dataclasses.replace(grid)
        assert twin == grid and hash(twin) == hash(grid) and twin.axes() is not axes
        assert all(a.tobytes() == b.tobytes() for a, b in zip(twin.axes(), axes))

    @pytest.mark.parametrize("res", [(9,), (7, 5), (4, 5, 3)])
    def test_grid_lookups_match_the_points_exactly(self, res):
        # distances by broadcasting the axes and points by index, bit for bit
        # against the enumerated points
        box = Box(tuple((-1.5 + 0.1 * d, 2.0 - 0.3 * d) for d in range(len(res))))
        grid = SampleGrid(box, res)
        pts = grid.points()
        center = np.linspace(0.3, -0.7, len(res))
        assert same_bits(_grid_distances(grid, center), reference.distances(pts, center))
        flat = np.array([0, grid.size - 1, grid.size // 2, 1])
        assert np.array_equal(_grid_points_at(grid, flat), pts[flat])
        assert _grid_points_at(grid, np.arange(0)).shape == (0, len(res))

    @pytest.mark.parametrize("res", [(9,), (7, 5), (4, 5, 3)])
    def test_points_enumerate_the_axes_lexicographically(self, res):
        grid = SampleGrid(Box(tuple((-1.0 - d, 2.0 + d) for d in range(len(res)))), res)
        mesh = np.meshgrid(*grid.axes(), indexing="ij")
        ref = np.stack([m.ravel(order="C") for m in mesh], axis=-1)
        pts = grid.points()
        assert pts.shape == (grid.size, len(res)) and np.array_equal(pts, ref)

    @pytest.mark.parametrize("res", [(9,), (7, 5), (4, 5, 3), (40, 33)])
    def test_window_holds_every_point_of_the_ball(self, res):
        # radii taken from the model's distances put points exactly on the
        # ball's boundary; the window must hold each point with r <= radius
        box = Box(tuple((-1.5 + 0.1 * d, 2.0 - 0.3 * d) for d in range(len(res))))
        grid = SampleGrid(box, res)
        pts = grid.points()
        rng = np.random.default_rng(len(res))
        for _ in range(50):
            center = pts[rng.integers(grid.size)] + rng.normal(0.0, 0.2, len(res)) * rng.integers(2)
            r = reference.distances(pts, center)
            radius = float(r[rng.integers(grid.size)]) * rng.choice([1.0, 0.5, 1.5])
            window = _grid_window(grid, center, radius)
            inside = np.zeros(res, dtype=bool)
            inside[window] = True
            assert inside.ravel()[r <= radius].all()
            # and no point off the ball's bounding box
            assert not inside.ravel()[r > math.sqrt(len(res)) * radius + 1e-12].any()
            # and its entries map back to the grid in enumeration order
            flat = _window_to_grid(grid, window, np.arange(int(inside.sum())))
            assert np.array_equal(flat, np.flatnonzero(inside))
            assert np.array_equal(_window_values(grid, r, window), r[flat])
            assert np.array_equal(_grid_distances(grid, center, window), r[flat])

    def test_window_of_a_non_finite_radius_is_the_grid(self):
        grid = SampleGrid(Box(((0.0, 1.0), (-1.0, 1.0))), (5, 6))
        for radius in (math.inf, math.nan):
            assert _grid_window(grid, np.zeros(2), radius) == (slice(0, 5), slice(0, 6))

    def test_gh_gap_rules(self):
        inf = math.inf
        lo = np.array([1.0, inf, -inf, 3.0, inf])
        hi = np.array([2.0, inf, 5.0, 4.0, 1.0])
        # equal endpoints are 0 apart, also at infinity; NaN reads +inf
        assert _gh_gap(lo, hi, inf, inf).tolist() == [inf, 0.0, inf, inf, inf]
        assert _gh_gap(lo, hi, 1.0, 2.0).tolist() == [0.0, inf, inf, 2.0, inf]
        assert _gh_gap(np.array([np.nan]), np.array([0.0]), 0.0, 0.0).tolist() == [inf]


def _route_of(f, grid, monkeypatch):
    """'mesh' or 'points': how ``_grid_values`` evaluates ``f`` on ``grid``."""
    calls = []
    values = IVF.values
    monkeypatch.setattr(IVF, "values", lambda g, pts: calls.append(g) or values(g, pts))
    _grid_values(f, grid)
    monkeypatch.setattr(IVF, "values", values)
    return "points" if calls else "mesh"


def _ultimate_base(a):
    while a.base is not None:
        a = a.base
    return a


class TestMeshRoute:
    """Expression-defined functions are evaluated on a grid's open mesh, with
    the bits and the errors of ``IVF.values`` on the grid's points."""

    @pytest.mark.parametrize("label", [
        "paper-lsc-sin", "paper-endpoint-rational", "paper-levelset", "paper-argmin",
        "paper-proper", "quadratic", "constant", "abs-pair", "step-upper", "linear-pair",
        "plateau",
    ])
    def test_catalog_entries_match_the_points_route(self, label, monkeypatch):
        from ivfkit.catalog import get_function

        entry = get_function(label)
        for n in (2, 7, 8, 251):
            grid = SampleGrid(entry.box, (n,) * entry.ivf.dim)
            assert _route_of(entry.ivf, grid, monkeypatch) == "mesh"
            got = outcome(lambda: _grid_values(entry.ivf, grid))
            assert got == outcome(lambda: reference.grid_values(entry.ivf, grid)), (label, n)

    @pytest.mark.parametrize("texts", [
        ("x1", "exp(x1) + x2^2 + x3"), ("min(x1, x2, x3)", "max(x1, x2, x3)"),
        ("1/-0 + 0 * x2", "inf + x1"), ("2", "inf"), ("piecewise(x3 > 0, x1, -x2^2)", "3"),
        ("x2 * x3", "x2 * x3"),
    ])
    @pytest.mark.parametrize("res", [(2, 2, 2), (3, 4, 5), (6, 5, 2)])
    def test_three_dimensional_expressions_match(self, texts, res):
        from ivfkit.catalog import ivf_from_expressions

        f = ivf_from_expressions(*texts, label="solid", dim=3)
        grid = SampleGrid(Box(((-1.0, 1.0), (-2.0, 2.0), (-0.5, 0.5))), res)
        assert outcome(lambda: _grid_values(f, grid)) == outcome(lambda: reference.grid_values(f, grid))

    @pytest.mark.parametrize("texts, dim, res, error", [
        # dimension mismatch
        (("x1", "x1 + 1"), 2, (3, 4, 2), OutOfDomain),
        # x3 on a 2-D grid
        (("x3", "x3 + 1"), 2, (3, 4), UnknownIdentifier),
        # NaN: the first bad point in enumeration order is (-1, 0)
        (("x1*0+1", "x2/x2"), 2, (11, 11), InvalidEndpoints),
        (("0 * sin(1/x2) + x1", "x1 + 1"), 2, (5, 5), InvalidEndpoints),
        # NaN is named before a reversed pair
        (("x1", "piecewise(x1 > 0, 0/0, x1 - 1)"), 1, (5,), InvalidEndpoints),
        # lower > upper, first where x2 > x1
        (("x2", "x1"), 2, (4, 5), EndpointOrderViolation),
        (("1", "x1 * x2"), 2, (6, 6), EndpointOrderViolation),
    ])
    def test_errors_match_the_points_route(self, texts, dim, res, error):
        from ivfkit.catalog import ivf_from_expressions

        f = ivf_from_expressions(*texts, label="cli-expr", dim=dim)
        bounds = ((-1.0, 1.0), (-1.0, 1.0), (0.0, 1.0))[: len(res)]
        mesh = outcome(lambda: _grid_values(f, SampleGrid(Box(bounds), res)))
        assert mesh == outcome(lambda: reference.grid_values(f, SampleGrid(Box(bounds), res)))
        assert mesh[0] is error
        if texts == ("x1*0+1", "x2/x2"):
            assert mesh[1] == "'cli-expr' produced NaN at [-1.0, 0.0]"

    @pytest.mark.parametrize("lower, upper, lo_field, hi_field, error", [
        ("inf", "inf", lambda x: np.inf + 0 * x, lambda x: np.inf + 0 * x, None),
        ("-inf", "-inf", lambda x: -np.inf + 0 * x, lambda x: -np.inf + 0 * x, None),
        ("-inf", "x1", lambda x: -np.inf + 0 * x, lambda x: x, None),
        ("x1", "inf", lambda x: x, lambda x: np.inf + 0 * x, None),
        ("inf", "-inf", lambda x: np.inf + 0 * x, lambda x: -np.inf + 0 * x,
         (EndpointOrderViolation, "'pair': lower > upper at [-1.0]")),
        # reversed from x1 = -1 on, NaN from x1 = 0.5 on: NaN is named first
        ("piecewise(x1 > 0, 0/0, x1)", "x1 - 1", lambda x: np.where(x > 0, np.nan, x),
         lambda x: x - 1, (InvalidEndpoints, "'pair' produced NaN at [0.5]")),
    ])
    def test_infinite_and_reversed_endpoints(self, lower, upper, lo_field, hi_field, error):
        # an expression pair and a lambda pair, on both routes of the grid
        # memo, through IVF.values and through the model
        from ivfkit.catalog import ivf_from_expressions

        box = Box(((-1.0, 1.0),))
        x = SampleGrid(box, (5,)).points()[:, 0]
        pairs = [
            ivf_from_expressions(lower, upper, label="pair", dim=1),
            IVF(1, lambda P: lo_field(P[:, 0]), lambda P: hi_field(P[:, 0]), "pair"),
        ]
        want = outcome(lambda: (lo_field(x), hi_field(x))) if error is None else error
        for f in pairs:
            for evaluate in (lambda: _grid_values(f, SampleGrid(box, (5,))),
                             lambda: f.values(SampleGrid(box, (5,)).points()),
                             lambda: reference.grid_values(f, SampleGrid(box, (5,)))):
                assert outcome(evaluate) == want

    @pytest.mark.parametrize("texts", [
        ("x1", "exp(x1) + x2^2"), ("x1^2 + x2", "2 * x1^2 + x2"), ("1", "2"),
        ("x1^2", "x1^2"), ("x2", "x2 + 1"),
    ])
    def test_memo_arrays_are_read_only_and_own_their_data(self, texts):
        from ivfkit.catalog import ivf_from_expressions

        f = ivf_from_expressions(*texts, dim=2)
        grid = SampleGrid(Box(((-1.0, 1.0), (0.0, 2.0))), (5, 7))
        for v in _grid_values(f, grid):
            assert v.shape == (grid.size,) and v.flags.c_contiguous
            assert not v.flags.writeable
            with pytest.raises(ValueError):
                v[0] = 0.0
            # a buffer of exactly its own size: no broadcast, no window
            # into a larger array
            assert _ultimate_base(v).nbytes == v.nbytes
        # one-dimensional: a value that is the axis itself
        g = ivf_from_expressions("x1", "x1 + 1")
        line = SampleGrid(Box(((0.0, 1.0),)), (9,))
        lo, _ = _grid_values(g, line)
        assert not lo.flags.writeable and _ultimate_base(lo).nbytes == lo.nbytes

    def test_other_functions_take_the_points_route(self, monkeypatch):
        import dataclasses

        from ivfkit.catalog import get_function, ivf_from_expressions
        from ivfkit.ekeland import perturbed

        grid = SampleGrid(Box(((-1.0, 1.0), (0.0, 2.0))), (5, 7))
        f = ivf_from_expressions("x1^2", "x1^2 + x2", label="bowl")
        assert _route_of(f, grid, monkeypatch) == "mesh"
        assert _route_of(dataclasses.replace(f, label="renamed"), grid, monkeypatch) == "mesh"
        others = [
            dataclasses.replace(f, lower=lambda P: f.lower(P)),
            dataclasses.replace(f, upper=lambda P: f.upper(P)),
            add_ivf(f, f),
            perturbed(f, 0.5, (0.0, 0.0)),
            indicator(lambda P: P[:, 0] > 0, 2),
            IVF(2, lambda P: P[:, 0], lambda P: P[:, 0] + P[:, 1], "plane"),
        ]
        for g in others:
            assert _route_of(g, grid, monkeypatch) == "points", g.label
        # the routes agree where both apply
        rerouted = dataclasses.replace(f, lower=lambda P: f.lower(P))
        assert all(same_bits(a, b) for a, b in zip(_grid_values(rerouted, grid), _grid_values(f, grid)))
        # a 2-D entry from the catalog on the grids of an evp sweep
        entry = get_function("paper-levelset")
        assert _route_of(entry.ivf, SampleGrid(entry.box, (251, 251)), monkeypatch) == "mesh"

    def test_endpoint_fields_decide_the_route(self, monkeypatch):
        # an IVF is its two endpoint fields: replacing one is seen by every
        # route, and two expression fields take the mesh route however the
        # IVF was built
        from ivfkit.catalog import get_function
        from ivfkit.expr import ExprField, parse_expr

        quadratic = get_function("quadratic").ivf
        grid = SampleGrid(Box(((-2.0, 2.0),)), (41,))
        steeper = dataclasses.replace(quadratic, upper=ExprField(parse_expr("3*x1^2")))
        assert steeper(1.0) == Interval(1, 3)
        assert _route_of(steeper, grid, monkeypatch) == "mesh"
        assert infimum_over(steeper, grid) == Interval(0, 0)
        for five in (ExprField(parse_expr("5")), lambda P: np.full(len(P), 5.0)):
            raised = dataclasses.replace(quadratic, lower=five)
            with pytest.raises(EndpointOrderViolation):
                raised(1.0)
            with pytest.raises(EndpointOrderViolation):
                infimum_over(raised, SampleGrid(grid.box, grid.resolution))
        built = IVF(1, ExprField(parse_expr("abs(x1)")), ExprField(parse_expr("2*abs(x1) + x1^2")))
        assert _route_of(built, grid, monkeypatch) == "mesh"
        pointwise = IVF(1, lambda P: built.lower(P), lambda P: built.upper(P))
        assert _route_of(pointwise, grid, monkeypatch) == "points"
        mesh = _grid_values(built, SampleGrid(grid.box, grid.resolution))
        assert all(same_bits(a, b) for a, b in zip(mesh, _grid_values(pointwise, grid)))
        assert outcome(lambda: mesh) == outcome(lambda: reference.grid_values(built, grid))


def _expression_labels():
    from ivfkit.catalog import catalog
    from ivfkit.expr import ExprField

    return sorted(
        e.label for e in catalog()
        if isinstance(e.ivf.lower, ExprField) and isinstance(e.ivf.upper, ExprField)
    )


def _windows(grid):
    """Windows of ``grid`` to read: empty ones, ones on the box's edges and
    corners, a one-point one, an inner one and the whole grid."""
    res = grid.resolution
    whole = tuple(slice(0, r) for r in res)
    return [
        tuple(slice(0, 0) for _ in res),
        (slice(1, 1),) + whole[1:],
        tuple(slice(0, min(2, r)) for r in res),
        tuple(slice(max(0, r - 3), r) for r in res),
        (slice(0, 1),) + tuple(slice(r - 1, r) for r in res[1:]),
        tuple(slice(r // 2, r // 2 + 1) for r in res),
        tuple(slice(r // 4, max(r // 4 + 1, 3 * r // 4)) for r in res),
        whole,
    ]


def _slab_reads_match_the_model(f, grid_of):
    """Every read of ``f`` on a fresh grid from ``grid_of()`` -- its minima,
    properness, windows, values, and minima again -- gives the model's bits
    on other fresh ones, or its error; returns the model's minima.  No read
    asks for the grid's points, and on a grid of more than one slab the
    memo holds no values until a window of more than one slab is read."""
    import ivfkit.ivf as ivf

    grid = grid_of()
    windows = _windows(grid)
    want = [outcome(lambda: reference.infimum_over(f, grid_of())),
            outcome(lambda: reference.is_proper_probe(f, grid_of()))]
    want += [outcome(lambda: reference.window_values(f, grid_of(), w)) for w in windows]
    want += [outcome(lambda: reference.grid_values(f, grid_of())), want[0]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SampleGrid, "points", None)
        got = [outcome(lambda: infimum_over(f, grid)), outcome(lambda: is_proper_probe(f, grid))]
        built = grid.size <= ivf._SLAB_POINTS
        for window in windows:
            got.append(outcome(lambda: _window_grid_values(f, grid, window)))
            built = built or math.prod(w.stop - w.start for w in window) > ivf._SLAB_POINTS
            if got[0][0] == "ok":
                assert (_memo_hit(f, grid)[1] is not None) == built, window
        got += [outcome(lambda: _grid_values(f, grid)), outcome(lambda: infimum_over(f, grid))]
    assert got == want
    return want[0]


def test_empty_windows_evaluate_nothing(monkeypatch):
    from ivfkit import expr
    from ivfkit.catalog import ivf_from_expressions

    calls = []
    original = expr.eval_expr
    monkeypatch.setattr(expr, "eval_expr", lambda node, pts: calls.append(1) or original(node, pts))
    f = ivf_from_expressions("x1^2", "x1^2 + x2", label="bowl")
    for res in ((5, 7), (301, 301)):
        grid = SampleGrid(Box(((-1.0, 1.0), (0.0, 2.0))), res)
        infimum_over(f, grid)
        del calls[:]
        for window in [(slice(0, 0), slice(0, res[1])), (slice(2, 2), slice(3, 3)),
                       (slice(1, 4), slice(5, 5))]:
            lo, hi = _window_grid_values(f, grid, window)
            assert lo.shape == hi.shape == (0,) and lo.dtype == hi.dtype == float
        assert calls == []
    # the whole grid is still checked first: errors name its first bad point
    g = ivf_from_expressions("x1*0+1", "x2/x2", label="nan", dim=2)
    for res in ((11, 11), (301, 301)):
        grid = SampleGrid(Box(((-1.0, 1.0), (-1.0, 1.0))), res)
        with pytest.raises(InvalidEndpoints, match=r"produced NaN at \[-1.0, 0.0\]"):
            _window_grid_values(g, grid, (slice(3, 3), slice(0, res[1])))


# (resolution, slab points): 2, odd and even points per axis; slabs of one
# point, of part of a row, of whole rows and of the whole grid
SLABBED_GRIDS = [
    ((2,), 1), ((9,), 4), ((10,), 3), ((10,), 10),
    ((2, 2), 1), ((7, 5), 4), ((8, 6), 12), ((9, 9), 81), ((4, 6), 7),
    ((2, 2, 2), 3), ((5, 4, 3), 7), ((4, 6, 5), 30), ((3, 5, 4), 1), ((3, 3, 7), 40),
]


def _error_box(res):
    return Box(((-1.0, 1.0), (-1.0, 1.0), (0.0, 1.0))[: len(res)])


# (texts, dim, resolution, slab points, error) of a grid evaluation that fails
SLAB_ERRORS = [
    # NaN first at x1 = 0.6, in a later slab
    (("x1*0+1", "piecewise(x1 > 0.5, 0/0, 2)"), 2, (11, 11), 11, InvalidEndpoints),
    # reversed from x1 = -1 on, NaN from x1 = 0.6 on: NaN is named first
    (("piecewise(x1 < -0.5, 3, 0)", "piecewise(x1 > 0.5, 0/0, 2)"), 2, (11, 11), 22,
     InvalidEndpoints),
    (("x1", "piecewise(x1 > 0.4, 0/0, x1 - 1)"), 1, (11,), 3, InvalidEndpoints),
    # reversed only in a later slab, first at (0.6, -1)
    (("piecewise(x1 > 0.5, 3, 0)", "2"), 2, (11, 11), 11, EndpointOrderViolation),
    # reversed where x2 > x1 in every slab but the first
    (("x2", "x1"), 2, (4, 5), 3, EndpointOrderViolation),
    # NaN deep in a 3-D grid, in a slab of part of a row
    (("x1 + x2 + x3", "piecewise(x3 > 0.5, 0/0, 5)"), 3, (3, 4, 5), 2, InvalidEndpoints),
    # x3 on a 2-D grid, in the branch taken only in a later slab
    (("piecewise(x1 > 0.5, x3, 0)", "1"), 2, (11, 11), 11, UnknownIdentifier),
    (("x1", "x1 + 1"), 2, (3, 4, 2), 2, OutOfDomain),
]


class TestSlabs:
    """On a grid of more than ``_SLAB_POINTS`` points, the minima of any
    function come from slabs and its windows are evaluated on their own,
    with the bits and the errors of the whole grid."""

    @pytest.mark.parametrize("res, slab", SLABBED_GRIDS)
    def test_slabs_tile_the_grid_in_enumeration_order(self, res, slab, monkeypatch):
        import ivfkit.ivf as ivf

        monkeypatch.setattr(ivf, "_SLAB_POINTS", slab)
        index = np.arange(math.prod(res)).reshape(res)
        slabs = list(_slabs(res))
        tiled = np.concatenate([index[w].ravel() for w in slabs])
        assert np.array_equal(tiled, np.arange(index.size))
        assert all(index[w].size <= slab for w in slabs)

    @pytest.mark.parametrize("label", _expression_labels())
    def test_catalog_entries_match_the_full_mesh(self, label, monkeypatch):
        import ivfkit.ivf as ivf
        from ivfkit.catalog import get_function

        entry = get_function(label)
        dim = entry.ivf.dim
        # the slab size in use, just above and below it, and small slabs
        above = (2, ivf._SLAB_POINTS // 2 + 1) if dim == 2 else (ivf._SLAB_POINTS + 1,)
        sizes = [(above, None), ((131, 131) if dim == 2 else (20000,), None)]
        sizes += [(res, slab) for res, slab in SLABBED_GRIDS if len(res) == dim]
        for res, slab in sizes:
            with monkeypatch.context() as mp:
                if slab is not None:
                    mp.setattr(ivf, "_SLAB_POINTS", slab)
                _slab_reads_match_the_model(entry.ivf, lambda: SampleGrid(entry.box, res))

    @pytest.mark.parametrize("texts", [
        ("x1", "exp(x1) + x2^2 + x3"), ("min(x1, x2, x3)", "max(x1, x2, x3)"),
        ("1/-0 + 0 * x2", "inf + x1"), ("2", "inf"), ("piecewise(x3 > 0, x1, -x2^2)", "3"),
        ("-x2 * 0", "abs(x2 * x3)"), ("-abs(x1 * x3)", "abs(x2)"),
    ])
    def test_three_dimensional_expressions_match(self, texts, monkeypatch):
        import ivfkit.ivf as ivf
        from ivfkit.catalog import ivf_from_expressions

        f = ivf_from_expressions(*texts, label="solid", dim=3)
        box = Box(((-1.0, 1.0), (-2.0, 2.0), (-0.5, 0.5)))
        for res, slab in SLABBED_GRIDS:
            if len(res) == 3:
                monkeypatch.setattr(ivf, "_SLAB_POINTS", slab)
                _slab_reads_match_the_model(f, lambda: SampleGrid(box, res))

    def test_random_pairs_match_the_full_mesh(self):
        from hypothesis import given, settings, strategies as st

        from ivfkit.catalog import ivf_from_expressions
        from ivfkit.expr import ast_to_text
        from test_expr import expr_trees

        import ivfkit.ivf as ivf

        box = Box(((-1.0, 1.0), (-2.0, 2.0), (-0.5, 0.5)))

        @settings(max_examples=60, deadline=None)
        @given(st.tuples(expr_trees(), expr_trees()), st.sampled_from([1, 3, 7, 13]))
        def check(pair, slab):
            f = ivf_from_expressions(*(ast_to_text(n) for n in pair), label="pair", dim=3)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ivf, "_SLAB_POINTS", slab)
                _slab_reads_match_the_model(f, lambda: SampleGrid(box, (4, 3, 5)))

        check()

    @pytest.mark.parametrize("texts, dim, res, slab, error", SLAB_ERRORS)
    def test_errors_match_the_full_mesh(self, texts, dim, res, slab, error, monkeypatch):
        import ivfkit.ivf as ivf
        from ivfkit.catalog import ivf_from_expressions

        monkeypatch.setattr(ivf, "_SLAB_POINTS", slab)
        f = ivf_from_expressions(*texts, label="cli-expr", dim=dim)
        want = _slab_reads_match_the_model(f, lambda: SampleGrid(_error_box(res), res))
        assert want[0] is error
        if texts[0] == "x1*0+1":
            assert want[1] == "'cli-expr' produced NaN at [0.6, -1.0]"

    @pytest.mark.parametrize("texts, dim, res, slab, error", SLAB_ERRORS)
    def test_lambda_errors_match_the_points(self, texts, dim, res, slab, error, monkeypatch):
        import ivfkit.ivf as ivf
        from ivfkit.catalog import ivf_from_expressions

        monkeypatch.setattr(ivf, "_SLAB_POINTS", slab)
        f = ivf_from_expressions(*texts, dim=dim)
        pair = IVF(dim, lambda P: f.lower(P), lambda P: f.upper(P), "cli-expr")
        want = _slab_reads_match_the_model(pair, lambda: SampleGrid(_error_box(res), res))
        assert want[0] is error
        if texts[0] == "x1*0+1":
            assert want[1] == "'cli-expr' produced NaN at [0.6, -1.0]"

    def test_values_are_built_on_request_and_keep_the_minima(self, monkeypatch):
        import ivfkit.ivf as ivf
        from ivfkit.catalog import get_function

        monkeypatch.setattr(ivf, "_SLAB_POINTS", 100)
        entry = get_function("paper-levelset")
        grid = SampleGrid(entry.box, (31, 31))
        inf = infimum_over(entry.ivf, grid)
        hit = _memo_hit(entry.ivf, grid)
        assert hit[1] is None and hit[2] is None and hit[3] == inf
        # a window of more than one slab reads every value, once
        _window_grid_values(entry.ivf, grid, (slice(0, 11), slice(0, 11)))
        lo, hi = _grid_values(entry.ivf, grid)
        assert _memo_hit(entry.ivf, grid)[3] is inf
        assert _grid_values(entry.ivf, grid)[0] is lo
        assert not lo.flags.writeable and not hi.flags.writeable
        # other functions are reduced in slabs too, with exact minima
        g = IVF(2, lambda P: P[:, 0] ** 2, lambda P: P[:, 0] ** 2 + 1, "lambda")
        inf = infimum_over(g, grid)
        assert _memo_hit(g, grid)[1] is None
        assert reference.canonical(inf) == reference.canonical(reference.infimum_over(g, grid))

    @pytest.mark.parametrize("res, slab", SLABBED_GRIDS)
    def test_other_functions_match_their_points(self, res, slab, monkeypatch):
        import ivfkit.ivf as ivf
        from ivfkit.catalog import ivf_from_expressions

        dim = len(res)
        box = Box(((-1.0, 1.0), (-2.0, 2.0), (-0.5, 0.5))[:dim])
        pair = IVF(
            dim,
            lambda P: np.sin(3 * P[:, 0]) - P[:, -1] ** 2,
            lambda P: np.sin(3 * P[:, 0]) + np.abs(P).sum(axis=1),
            "lambda",
        )
        others = [
            pair,
            add_ivf(pair, ivf_from_expressions("x1", "x1 + 1", dim=dim)),
            indicator(lambda P: P[:, 0] * P[:, -1] > 0, dim),
        ]
        monkeypatch.setattr(ivf, "_SLAB_POINTS", slab)
        for f in others:
            _slab_reads_match_the_model(f, lambda: SampleGrid(box, res))

    def test_other_functions_evaluate_each_point_once(self, monkeypatch):
        import ivfkit.ivf as ivf
        from ivfkit.ekeland import global_min

        monkeypatch.setattr(ivf, "_SLAB_POINTS", 100)
        box = Box(((-1.0, 1.0), (0.0, 2.0)))
        readers = [
            lambda f, g: infimum_over(f, g),
            lambda f, g: argmin_over(f, g, 1e-9),
            lambda f, g: sample_level_set(f, Interval(0.5, 1.5), g),
            lambda f, g: global_min(f, g, 1e-9),
        ]
        for read in readers:
            seen = []

            def lower(P):
                seen.append(P.copy())
                return P[:, 0] ** 2

            f = IVF(2, lower, lambda P: P[:, 0] ** 2 + P[:, 1], "counted")
            grid = SampleGrid(box, (31, 31))
            read(f, grid)
            read(f, grid)
            evaluated = np.concatenate(seen)
            assert len(evaluated) == grid.size
            assert np.array_equal(np.unique(evaluated, axis=0), np.unique(grid.points(), axis=0))


class TestEvaluation:
    def test_proper_example_value(self):
        assert proper_example()((0.0, 0.0)) == Interval(0, 1)

    def test_indicator_values(self):
        ind = indicator(lambda P: np.linalg.norm(P, axis=1) <= 1.0, dim=2)
        assert ind((0.5, 0.0)) == Interval(0, 0)
        assert ind((2.0, 0.0)) == POS_INF

    def test_quadratic_value(self):
        assert quadratic_pair()((1.0,)) == Interval(1, 2)

    def test_endpoint_order_violation(self):
        broken = IVF(1, lambda P: P[:, 0], lambda P: -P[:, 0], "broken")
        with pytest.raises(EndpointOrderViolation):
            broken((1.0,))

    def test_out_of_domain(self):
        f = IVF(
            1,
            lambda P: P[:, 0],
            lambda P: P[:, 0] + 1,
            "boxed",
            domain=Box(((0.0, 1.0),)),
        )
        with pytest.raises(OutOfDomain):
            f((2.0,))

    def test_nan_rejected(self):
        bad = IVF(1, lambda P: P[:, 0] * np.nan, lambda P: P[:, 0], "nan")
        with pytest.raises(InvalidEndpoints):
            bad((1.0,))

    @pytest.mark.parametrize("call", ["infimum_over", "argmin_over", "point", "values"])
    def test_scalar_endpoint_fields_are_rejected(self, call):
        # fields must return one value per point; a scalar is not broadcast
        f = IVF(1, lambda P: 1.0, lambda P: 2.0, "scalar")
        grid = SampleGrid(Box(((0.0, 1.0),)), (5,))
        calls = {
            "infimum_over": (lambda: infimum_over(f, grid), 5),
            "argmin_over": (lambda: argmin_over(f, grid, 1e-9), 5),
            "point": (lambda: f([0.2]), 1),
            "values": (lambda: f.values(np.array([[0.1], [0.2]])), 2),
        }
        evaluate, n = calls[call]
        with pytest.raises(InvalidEndpoints) as exc:
            evaluate()
        assert str(exc.value) == (
            f"'scalar': endpoint fields returned shapes () and () for {n} points, "
            f"expected ({n},)"
        )


class TestLimits:
    def test_sin_lower_limit_at_origin(self):
        got = lower_limit(sin_oscillation(), (0.0, 0.0), PARAMS)
        assert gh_dist(got, Interval(-2, -1)) <= 1e-3

    def test_constant_limits(self):
        c = constant_ivf()
        assert lower_limit(c, (0.3,), PARAMS) == Interval(1, 2)
        assert upper_limit(c, (0.3,), PARAMS) == Interval(1, 2)

    def test_quadratic_limits_near_one(self):
        f = quadratic_pair()
        assert gh_dist(lower_limit(f, (1.0,), PARAMS), Interval(1, 2)) <= 1e-3
        assert gh_dist(upper_limit(f, (1.0,), PARAMS), Interval(1, 2)) <= 1e-3

    def test_lower_preceq_upper(self):
        for f, x in [
            (quadratic_pair(), (0.7,)),
            (constant_ivf(), (0.0,)),
            (level_set_example(), (0.4, -0.2)),
        ]:
            assert preceq(lower_limit(f, x, PARAMS), upper_limit(f, x, PARAMS))


class TestSemicontinuity:
    def test_sin_is_lsc_not_usc(self):
        f = sin_oscillation()
        assert is_gh_lsc_at(f, (0.0, 0.0), PARAMS)
        assert not is_gh_usc_at(f, (0.0, 0.0), PARAMS)
        assert not is_gh_continuous_at(f, (0.0, 0.0), PARAMS)

    def test_rational_is_lsc(self):
        assert is_gh_lsc_at(rational_exponential(), (0.0, 0.0), PARAMS)

    def test_constant_everywhere(self):
        c = constant_ivf()
        assert is_gh_lsc_at(c, (0.1,), PARAMS)
        assert is_gh_usc_at(c, (0.1,), PARAMS)
        assert is_gh_continuous_at(c, (0.1,), PARAMS)

    def test_step_upper_not_lsc_but_usc(self):
        f = step_upper()
        assert not is_gh_lsc_at(f, (0.0,), PARAMS)
        assert is_gh_usc_at(f, (0.0,), PARAMS)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 5")
    def test_steep_affine_function_is_continuous(self):
        # today the smallest ball (radius 1.6e-4) moves the endpoints by
        # 0.016, against a tol of 1e-3, so lsc and usc read False
        from ivfkit.catalog import ivf_from_expressions

        report = continuity_report(ivf_from_expressions("100*x1", "100*x1 + 1"), (0.3,))
        assert report.lsc and report.usc and report.continuous

    def test_report_cross_check(self):
        rep = continuity_report(quadratic_pair(), (1.0,), PARAMS)
        assert rep.continuous and rep.eps_delta_ok and rep.cross_check_agrees
        rep = continuity_report(sin_oscillation(), (0.0, 0.0), PARAMS)
        assert not rep.continuous and not rep.eps_delta_ok and rep.cross_check_agrees

    def test_endpoint_equivalence_on_rational(self):
        rep = endpoint_lsc_equivalence(rational_exponential(), (0.0, 0.0), PARAMS)
        assert rep.interval_route and rep.lower_endpoint_lsc and rep.upper_endpoint_lsc
        assert rep.agrees

    def test_endpoint_equivalence_on_step(self):
        rep = endpoint_lsc_equivalence(step_upper(), (0.0,), PARAMS)
        assert not rep.interval_route and not rep.upper_endpoint_lsc
        assert rep.agrees

    def test_endpoint_equivalence_constant(self):
        rep = endpoint_lsc_equivalence(constant_ivf(), (0.2,), PARAMS)
        assert rep.interval_route and rep.agrees

    def test_endpoint_equivalence_respects_domain(self):
        # scalar and interval probes both clip their balls: sqrt is NaN left of 0
        root = lambda P: np.sqrt(P[:, 0])
        f = IVF(1, root, lambda P: root(P) + 1.0, "sqrt", domain=Box(((0.0, 1.0),)))
        assert continuity_report(f, (0.0,), PARAMS).lsc
        rep = endpoint_lsc_equivalence(f, (0.0,), PARAMS)
        assert rep.interval_route and rep.lower_endpoint_lsc and rep.upper_endpoint_lsc
        assert rep.agrees


class TestSums:
    def test_pointwise_sum(self):
        s = add_ivf(quadratic_pair(), constant_ivf())
        assert s((1.0,)) == Interval(2, 4)

    def test_pos_inf_absorbs(self):
        ind = indicator(lambda P: np.abs(P[:, 0]) <= 1.0, dim=1)
        s = add_ivf(ind, quadratic_pair())
        assert s((0.5,)) == Interval(0.25, 0.5)
        assert s((1.5,)) == POS_INF

    def test_sum_of_lsc_is_lsc(self):
        s = add_ivf(sin_oscillation(), rational_exponential())
        assert is_gh_lsc_at(s, (0.0, 0.0), PARAMS)

    def test_liminf_sum_superadditive(self):
        # sampled realization of: liminf F1 + liminf F2 dominates-into liminf(F1+F2)
        f1, f2 = quadratic_pair(), constant_ivf()
        x = (0.6,)
        lhs = inf_family(
            [
                Interval(
                    lower_limit(f1, x, PARAMS).lo + lower_limit(f2, x, PARAMS).lo,
                    lower_limit(f1, x, PARAMS).hi + lower_limit(f2, x, PARAMS).hi,
                )
            ]
        )
        rhs = lower_limit(add_ivf(f1, f2), x, PARAMS)
        assert lhs.lo <= rhs.lo + 1e-9 and lhs.hi <= rhs.hi + 1e-9

    def test_limsup_sum_subadditive(self):
        # dual direction: limsup of the sum sits below the sum of limsups
        f1, f2 = quadratic_pair(), step_upper()
        x = (0.4,)
        u1 = upper_limit(f1, x, PARAMS)
        u2 = upper_limit(f2, x, PARAMS)
        s = upper_limit(add_ivf(f1, f2), x, PARAMS)
        assert s.lo <= u1.lo + u2.lo + 1e-9 and s.hi <= u1.hi + u2.hi + 1e-9

    @pytest.mark.parametrize(
        "make1, make2",
        [
            (quadratic_pair, step_upper),
            (quadratic_pair, constant_ivf),
            (level_set_example, level_set_example),
        ],
    )
    def test_infimum_superadditivity_on_grid(self, make1, make2):
        f1, f2 = make1(), make2()
        if f1.dim == 1:
            grid = SampleGrid(Box(((-1.0, 1.0),)), (101,))
        else:
            grid = SampleGrid(Box(((-1.0, 1.0), (-1.0, 1.0))), (21, 21))
        a = infimum_over(f1, grid)
        b = infimum_over(f2, grid)
        s = infimum_over(add_ivf(f1, f2), grid)
        assert a.lo + b.lo <= s.lo and a.hi + b.hi <= s.hi


class TestLevelSets:
    def test_membership_matches_analytic_reduction(self):
        f = level_set_example()
        alpha = Interval(-1, 10)
        grid = SampleGrid(Box(((-3.0, 3.0), (-3.0, 3.0))), (100, 100))
        pts = grid.points()
        got = level_member_mask(f, alpha, pts)
        want = pts[:, 0] ** 2 + 2 * np.exp(pts[:, 1] ** 2) < 5
        assert np.array_equal(got, want)

    def test_membership_at_equal_value(self):
        f = constant_ivf(0.0, 1.0)
        assert level_member(f, Interval(0, 1), (0.5,))

    def test_dominated_alpha_members_everywhere(self):
        f = constant_ivf(0.0, 1.0)
        grid = SampleGrid(Box(((-1.0, 1.0),)), (11,))
        assert len(sample_level_set(f, Interval(5, 6), grid)) == grid.size

    def test_infinite_value_not_member(self):
        ind = indicator(lambda P: np.abs(P[:, 0]) <= 1.0, dim=1)
        assert not level_member(ind, Interval(0, 5), (2.0,))
        assert level_member(ind, Interval(0, 5), (0.5,))

    def test_level_bounded_quadratic(self):
        f = quadratic_pair()
        grid = SampleGrid(Box(((-5.0, 5.0),)), (201,))
        reports = level_bounded_probe(f, [Interval(1, 2), Interval(4, 9)], grid)
        assert all(r.bounded_evidence for r in reports)
        assert all(r.member_count > 0 for r in reports)

    def test_level_unbounded_constant(self):
        f = constant_ivf(0.0, 0.0)
        grid = SampleGrid(Box(((-5.0, 5.0),)), (21,))
        (report,) = level_bounded_probe(f, [Interval(1, 1)], grid)
        assert report.member_count == grid.size
        assert not report.bounded_evidence

    def test_paper_alpha_is_bounded(self):
        f = level_set_example()
        grid = SampleGrid(Box(((-3.0, 3.0), (-3.0, 3.0))), (60, 60))
        (report,) = level_bounded_probe(f, [Interval(-1, 10)], grid)
        assert report.bounded_evidence and report.member_count > 0


class TestMinimization:
    def test_quadratic_argmin(self):
        f = quadratic_pair()
        grid = SampleGrid(Box(((-1.0, 1.0),)), (4001,))
        assert gh_dist(infimum_over(f, grid), Interval(0, 0)) <= 1e-3
        points = argmin_over(f, grid, tol=1e-6)
        assert len(points) >= 1
        assert np.all(np.abs(points) <= 1e-3)

    def test_constant_argmin_everywhere(self):
        f = constant_ivf()
        grid = SampleGrid(Box(((-1.0, 1.0),)), (11,))
        assert len(argmin_over(f, grid, tol=0.0)) == grid.size

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_argmin_tolerance_must_be_finite_and_non_negative(self, tol):
        # a NaN tolerance would return no point at all
        with pytest.raises(ValueError):
            argmin_over(quadratic_pair(), SampleGrid(Box(((-1.0, 1.0),)), (11,)), tol)

    def test_axis_function_infimum_and_argmin(self):
        f = axis_unbounded_below()
        grid = SampleGrid(Box(((-2.0, 2.0), (-2.0, 2.0))), (41, 41))
        assert infimum_over(f, grid) == Interval(-math.inf, 0.0)
        points = argmin_over(f, grid, tol=1e-12)
        assert len(points) == 41
        assert np.all(points[:, 0] == 0.0)

    def test_proper_probe(self):
        grid2 = SampleGrid(Box(((-2.0, 2.0), (-2.0, 2.0))), (21, 21))
        assert is_proper_probe(axis_unbounded_below(), grid2)
        assert is_proper_probe(proper_example(), grid2)
        empty = indicator(lambda P: np.zeros(P.shape[0], dtype=bool), dim=1)
        grid1 = SampleGrid(Box(((-1.0, 1.0),)), (11,))
        assert not is_proper_probe(empty, grid1)

    def test_argmin_of_improper_is_empty(self):
        empty = indicator(lambda P: np.zeros(P.shape[0], dtype=bool), dim=1)
        grid = SampleGrid(Box(((-1.0, 1.0),)), (11,))
        assert len(argmin_over(empty, grid, tol=1.0)) == 0

    def test_attainment_when_probes_pass(self):
        # lsc + level-bounded + proper functions attain their sampled minimum
        f = quadratic_pair()
        grid = SampleGrid(Box(((-2.0, 2.0),)), (4001,))
        assert is_proper_probe(f, grid)
        assert is_gh_lsc_at(f, (0.25,), PARAMS)
        reports = level_bounded_probe(f, [Interval(1, 2)], grid)
        assert all(r.bounded_evidence for r in reports)
        assert len(argmin_over(f, grid, tol=1e-6)) >= 1


class TestSequentialCharacterization:
    def test_quadratic(self):
        f = quadratic_pair()
        ll = lower_limit(f, (1.0,), PARAMS)
        tails = []
        for d in (1.0, -1.0, 0.7, -0.3):
            tails.append(f((1.0 + d * 0.5**24,)))
        assert gh_dist(inf_family(tails), ll) <= 5e-3

    def test_axis_discontinuity(self):
        # coordinate-axis sequences reach the low branch; their limit matches
        f = sin_oscillation()
        ll = lower_limit(f, (0.0, 0.0), PARAMS)
        along_axis = f((0.0, 0.5**20))
        assert gh_dist(along_axis, ll) <= 1e-3

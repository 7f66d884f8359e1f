import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from reference import grid_values, outcome, same_bits

from ivfkit.errors import ParseError, UnknownIdentifier
from ivfkit.expr import (
    Binary,
    Call,
    Compare,
    Num,
    Piecewise,
    Unary,
    Var,
    ExprField,
    ast_to_text,
    eval_expr,
    max_var_index,
    parse_expr,
)


def ev(text, *points):
    return eval_expr(parse_expr(text), np.array(points, dtype=float))


class TestParsing:
    def test_zero(self):
        assert parse_expr("0") == Num(0.0)

    def test_precedence(self):
        assert parse_expr("1 + 2 * 3") == Binary(
            "+", Num(1.0), Binary("*", Num(2.0), Num(3.0))
        )

    def test_power_right_associative(self):
        got = parse_expr("2 ^ 3 ^ 2")
        assert got == Binary("^", Num(2.0), Binary("^", Num(3.0), Num(2.0)))
        assert eval_expr(got, np.zeros((1, 1)))[0] == 512.0

    def test_unary_minus_binds_below_power(self):
        assert ev("-2 ^ 2", [0.0])[0] == -4.0
        assert ev("(-2) ^ 2", [0.0])[0] == 4.0

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x1 + (")
        assert err.value.position == 6

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("1 2")

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            parse_expr("foo(x1)")
        with pytest.raises(UnknownIdentifier):
            parse_expr("y + 1")

    def test_guard_must_compare(self):
        with pytest.raises(ParseError):
            parse_expr("piecewise(x1, 1, 2)")

    def test_inf_constant(self):
        assert parse_expr("-inf") == Unary("-", Num(math.inf))

    # text of each shape nested n levels deep, and the offset named one
    # level deeper than the parser accepts
    NESTED = {
        "parentheses": (lambda n: "(" * (n - 1) + "x1" + ")" * (n - 1), 100),
        "calls": (lambda n: "sin(" * (n - 1) + "x1" + ")" * (n - 1), 400),
        "sums": (lambda n: "+".join(["x1"] * n), 299),
        "products": (lambda n: "*".join(["x1"] * n), 299),
        "powers": (lambda n: "^".join(["x1"] * n), 299),
        "negations": (lambda n: "-" * (n - 1) + "x1", 99),
    }

    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_nesting_is_bounded(self, shape):
        # 100 levels parse, compile, hash and render; deeper text is a
        # ParseError at an offset, never a RecursionError
        text, offset = self.NESTED[shape]
        node = parse_expr(text(100))
        assert eval_expr(node, np.full((1, 1), 0.5)).shape == (1,)
        assert hash(node) == hash(parse_expr(text(100))) and ast_to_text(node)
        for n in (101, 2000):
            with pytest.raises(ParseError) as err:
                parse_expr(text(n))
            assert err.value.position == offset
            assert str(err.value) == f"expression nested deeper than 100 levels at offset {offset}"


class TestEvaluation:
    def test_hand_value(self):
        # sin(1/x1) + cos(x2)^2 at (2/pi, 0) is sin(pi/2) + 1 = 2
        got = ev("sin(1/x1) + cos(x2)^2", [2.0 / math.pi, 0.0])
        assert got[0] == pytest.approx(2.0, abs=1e-12)

    def test_piecewise_axis_guard(self):
        text = "piecewise(x1 * x2 != 0, sin(1/x1), -2)"
        vals = ev(text, [0.0, 0.0], [2.0 / math.pi, 1.0])
        assert vals[0] == -2.0
        assert vals[1] == pytest.approx(1.0)

    def test_piecewise_discards_dead_branch(self):
        # dead branch divides by zero; the guard routes around it
        vals = ev("piecewise(x1 != 0, 1/x1, 0)", [0.0], [2.0])
        assert vals[0] == 0.0 and vals[1] == 0.5

    def test_min_max(self):
        assert ev("min(x1, 2 * x1, 3)", [-1.0])[0] == -2.0
        assert ev("max(x1, 0 - x1)", [-4.0])[0] == 4.0

    def test_abs_exp(self):
        assert ev("exp(abs(x1))", [-1.0])[0] == pytest.approx(math.e)

    def test_variable_out_of_range(self):
        with pytest.raises(UnknownIdentifier):
            ev("x3", [1.0, 2.0])

    def test_max_var_index(self):
        assert max_var_index(parse_expr("x1 + exp(x4) * x2")) == 4
        assert max_var_index(parse_expr("3 + 4")) == 0

    def test_expr_field(self):
        fld = ExprField(parse_expr("x1 ^ 2"))
        assert np.allclose(fld(np.array([[1.0], [3.0]])), [1.0, 9.0])


def _where(guard, then, other):
    return np.where(guard, then, other)


# written-out numpy for the endpoints of every expression-defined catalog entry
# (indicator-segment is built from Python lambdas, not expressions)
CATALOG_FORMULAS = {
    "paper-lsc-sin": (
        lambda x, y: _where(x * y != 0, np.minimum(np.sin(1 / x), 2 * np.sin(1 / x)) + np.cos(y) ** 2, -2),
        lambda x, y: _where(x * y != 0, np.maximum(np.sin(1 / x), 2 * np.sin(1 / x)) + np.cos(y) ** 2, -1),
    ),
    "paper-endpoint-rational": (
        lambda x, y: _where(x * y != 0, np.abs(x * y) / (2 * x**2 + y**2), 0),
        lambda x, y: _where(x * y != 0, np.exp(np.abs(6 * x * y)) / (x**2 + y**2), 0),
    ),
    "paper-levelset": (
        lambda x, y: x**2 + 3 * np.exp(y**2),
        lambda x, y: 2 * x**2 + 4 * np.exp(y**2),
    ),
    "paper-argmin": (
        lambda x, y: _where(x != 0, -1 / np.abs(x), -np.inf),
        lambda x, y: _where(x != 0, np.exp(-1 / np.abs(x) + y**2), 0),
    ),
    "paper-proper": (lambda x, y: x, lambda x, y: np.exp(x) + y**2),
    "quadratic": (lambda x: x**2, lambda x: 2 * x**2),
    "constant": (lambda x: np.full(x.shape, 1.0), lambda x: np.full(x.shape, 2.0)),
    "abs-pair": (lambda x: np.abs(x), lambda x: 2 * np.abs(x)),
    "step-upper": (lambda x: np.full(x.shape, -1.0), lambda x: _where(x <= 0, 1, 0)),
    "linear-pair": (lambda x: np.minimum(x, 2 * x), lambda x: np.maximum(x, 2 * x)),
    "plateau": (
        lambda x: np.maximum(np.abs(x) - 1, 0),
        lambda x: 2 * np.maximum(np.abs(x) - 1, 0),
    ),
}


class TestCompiled:
    def test_formula_table_covers_the_catalog(self):
        from ivfkit.catalog import catalog

        assert set(CATALOG_FORMULAS) == {e.label for e in catalog()} - {"indicator-segment"}

    @pytest.mark.parametrize("label", sorted(CATALOG_FORMULAS))
    def test_catalog_expressions_match_numpy_to_one_ulp(self, label):
        from ivfkit.catalog import get_function
        from ivfkit.ivf import SampleGrid

        entry = get_function(label)
        # an odd grid holds the axes, where the piecewise guards switch
        grid = SampleGrid(entry.box, (41,) * entry.ivf.dim)
        rng = np.random.default_rng(3)
        lows = np.array([a for a, _ in entry.box.bounds])
        highs = np.array([b for _, b in entry.box.bounds])
        pts = np.vstack([grid.points(), rng.uniform(lows, highs, (200, entry.ivf.dim))])
        with np.errstate(all="ignore"):
            for fld, formula in zip((entry.ivf.lower, entry.ivf.upper), CATALOG_FORMULAS[label]):
                got = fld(pts)
                want = np.asarray(formula(*pts.T), dtype=float)
                assert got.shape == want.shape == (len(pts),)
                close = (got == want) | (np.abs(got - want) <= np.spacing(np.abs(want)))
                assert close.all(), pts[~close][:5]

    @pytest.mark.parametrize("text, value", [("2", [2.0, 2.0, 2.0]), ("inf", [math.inf] * 3)])
    def test_constant_expression_is_an_array(self, text, value):
        got = ev(text, [0.5, 1.0], [-1.0, 0.0], [0.0, 0.0])
        assert isinstance(got, np.ndarray) and got.tolist() == value

    def test_piecewise_of_constants_is_an_array(self):
        got = ev("piecewise(x1 > 0, 1, -1)", [2.0], [-3.0], [0.0])
        assert isinstance(got, np.ndarray) and got.tolist() == [1.0, -1.0, -1.0]

    def test_constant_subtrees_fold_to_numpy_scalars(self):
        from ivfkit.expr import _compile

        assert type(_compile(parse_expr("2 * 3 + 1 / 0"))) is np.float64
        assert _compile(parse_expr("2 * 3 + 1 / 0")) == math.inf
        assert callable(_compile(parse_expr("(1 + 2) * x1")))
        assert ev("(1 + 2) * x1 ^ (4 / 2)", [2.0])[0] == 12.0

    def test_variable_out_of_range_after_compiling(self):
        ev("x2 + 1", [1.0, 2.0])
        with pytest.raises(UnknownIdentifier):
            ev("x3", [1.0, 2.0])
        with pytest.raises(UnknownIdentifier):
            ev("x2 + 1", [1.0])


def _expression_entries():
    from ivfkit.catalog import catalog

    return sorted(
        e.label for e in catalog()
        if isinstance(e.ivf.lower, ExprField) and isinstance(e.ivf.upper, ExprField)
    )


class TestJoint:
    """One pass over a tuple of nodes equals one ``eval_expr`` call per node."""

    def test_expression_entries_are_the_formula_table(self):
        assert _expression_entries() == sorted(CATALOG_FORMULAS)

    @pytest.mark.parametrize("label", sorted(CATALOG_FORMULAS))
    @pytest.mark.parametrize("where", ["grid-501", "ball-513", "point"])
    def test_joint_matches_separate_endpoints(self, label, where):
        from ivfkit.catalog import get_function
        from ivfkit.ivf import SampleGrid, unit_ball_points

        f = get_function(label).ivf
        box = get_function(label).box
        if where == "grid-501":
            pts = SampleGrid(box, (501,) * f.dim).points()
        else:
            ball = box.center + 0.3 * unit_ball_points(f.dim, 512, 7)
            pts = np.vstack([box.center[None, :], ball])
            pts = pts if where == "ball-513" else pts[5:6]
        lo, hi = eval_expr((f.lower.node, f.upper.node), pts)
        # bit for bit, which np.array_equal on the uint64 views checks
        assert same_bits(lo, f.lower(pts)) and same_bits(hi, f.upper(pts))
        assert lo.shape == hi.shape == (len(pts),)

    @given(st.deferred(lambda: st.tuples(expr_trees(), expr_trees())))
    def test_random_pairs_match_separate_calls(self, pair):
        few = np.array([[0.5, -1.5, 2.0], [0.0, 0.0, 0.0], [-3.0, 0.25, 1e-3], [7.0, 2.0, -0.5]])
        many = np.tile(few, (32, 1))
        with np.errstate(all="ignore"):
            for pts in (few, many):
                joint = eval_expr(pair, pts)
                assert len(joint) == 2
                for node, got in zip(pair, joint):
                    assert same_bits(got, eval_expr(node, pts))
                    # the bits do not depend on how many points there are
                    assert same_bits(got[: len(few)], eval_expr(node, few))

    def test_shared_subtree_is_computed_once(self, monkeypatch):
        from ivfkit import expr

        calls = []

        def exp(x, *out):
            calls.append(len(x))
            return np.exp(x, *out)

        monkeypatch.setitem(expr._UNARY_CALLS, "exp", exp)
        expr._compile.cache_clear()
        try:
            lo, hi = parse_expr("x1^2 + 3 * exp(x2^2)"), parse_expr("2 * x1^2 + 4 * exp(x2^2)")
            pts = np.array([[0.5, 1.0], [1.0, 2.0], [0.0, -1.0]])
            got = eval_expr((lo, hi), pts)
            assert calls == [3]
            assert np.array_equal(got[0], pts[:, 0] ** 2 + 3 * np.exp(pts[:, 1] ** 2))
            assert np.array_equal(got[1], 2 * pts[:, 0] ** 2 + 4 * np.exp(pts[:, 1] ** 2))
        finally:
            expr._compile.cache_clear()

    def test_unknown_variable_still_raises(self):
        pair = (parse_expr("x1 + x2"), parse_expr("x3"))
        eval_expr(pair[:1], np.ones((2, 2)))
        with pytest.raises(UnknownIdentifier):
            eval_expr(pair, np.ones((2, 2)))

    @pytest.mark.parametrize("texts", [("1", "x1"), ("x1", "inf"), ("1", "2"), ("2", "2")])
    def test_constant_endpoint_is_an_array(self, texts):
        nodes = tuple(parse_expr(t) for t in texts)
        # points with no coordinates still give one value per point
        for pts in (np.array([[0.5], [1.0], [-2.0]]), np.ones((3, 0))):
            if max(map(max_var_index, nodes)) > pts.shape[1]:
                continue
            got = eval_expr(nodes, pts)
            for t, g in zip(texts, got):
                assert isinstance(g, np.ndarray) and g.shape == (3,)
                assert np.array_equal(g, ev(t, *pts.tolist()))

    def test_intermediates_do_not_touch_the_points(self):
        for n in (2, 65):
            pts = np.random.default_rng(n).normal(size=(n, 2))
            before = pts.copy()
            got = eval_expr((parse_expr("-x1"), parse_expr("abs(x2) + sin(x1) * 2")), pts)
            assert np.array_equal(pts, before)
            assert np.array_equal(got[1], np.abs(pts[:, 1]) + np.sin(pts[:, 0]) * 2)

    def test_values_reach_eval_expr(self, monkeypatch):
        from ivfkit import expr
        from ivfkit.catalog import get_function, ivf_from_expressions

        seen = []
        original = expr.eval_expr

        def counted(node, points):
            seen.append((type(node).__name__, len(points)))
            return original(node, points)

        monkeypatch.setattr(expr, "eval_expr", counted)
        pts = np.zeros((4, 2))
        get_function("paper-levelset").ivf.values(pts)
        ivf_from_expressions("x1", "2 * abs(x1) + x2").values(pts)
        assert seen == [("tuple", 4), ("tuple", 4)]

    def test_sign_of_zero_survives_the_compile_cache(self):
        from ivfkit.expr import _compile

        pos = Binary("/", Num(1.0), Num(0.0))
        neg = Binary("/", Num(1.0), Num(-0.0))
        assert Num(0.0) != Num(-0.0) and hash(Num(0.0)) == hash(Num(-0.0))
        for order in ((pos, neg), (neg, pos)):
            _compile.cache_clear()
            got = [eval_expr(node, [[1.0]])[0] for node in order]
            assert got == ([math.inf, -math.inf] if order[0] is pos else [-math.inf, math.inf])
        _compile.cache_clear()
        # subtree sharing inside one program keeps the two zeros apart too
        x_pos = Binary("/", Var(1), Num(0.0))
        x_neg = Binary("/", Var(1), Num(-0.0))
        assert [v.tolist() for v in eval_expr((x_pos, x_neg), [[1.0]])] == [[math.inf], [-math.inf]]


class TestProgramsByIdentity:
    """``eval_expr`` finds a compiled program by the identity of its tree, or
    of each tree of a tuple, and sends a tree seen for the first time to
    ``_compile``."""

    def test_signed_zero_trees_keep_separate_programs(self, monkeypatch):
        from ivfkit import expr

        for zero_first in (0.0, -0.0):
            monkeypatch.setattr(expr, "_BY_IDENTITY", {})
            expr._compile.cache_clear()
            first = Binary("/", Var(1), Num(zero_first))
            second = Binary("/", Var(1), Num(-zero_first))
            assert first != second and hash(first) == hash(second)
            for node in (first, second, first, second):
                want = math.copysign(math.inf, math.copysign(1.0, node.right.value))
                assert eval_expr(node, [[1.0]]).tolist() == [want]
            assert expr._BY_IDENTITY[id(first)][1] is not expr._BY_IDENTITY[id(second)][1]
        expr._compile.cache_clear()

    def test_a_replaced_field_reads_its_new_tree(self):
        import dataclasses

        from ivfkit.catalog import ivf_from_expressions
        from ivfkit.interval import Interval
        from ivfkit.ivf import Box, SampleGrid, infimum_over

        f = ivf_from_expressions("x1", "x1 + 1")
        pts = np.array([[0.5], [2.0]])
        assert f.values(pts)[1].tolist() == [1.5, 3.0]
        g = dataclasses.replace(f, upper=ExprField(parse_expr("x1 + 2")))
        assert g.values(pts)[1].tolist() == [2.5, 4.0]
        assert f.values(pts)[1].tolist() == [1.5, 3.0]
        grid = SampleGrid(Box(((0.0, 1.0),)), (3,))
        assert infimum_over(f, grid) == Interval(0.0, 1.0)
        assert infimum_over(g, grid) == Interval(0.0, 2.0)

    def test_a_slabbed_infimum_compiles_once_per_function(self, monkeypatch):
        from ivfkit import expr
        from ivfkit.catalog import ivf_from_expressions
        from ivfkit.ivf import Box, SampleGrid, _slabs, infimum_over

        compiled = []
        original = expr._compile
        monkeypatch.setattr(expr, "_compile", lambda node: compiled.append(node) or original(node))
        grid = SampleGrid(Box(((-1.0, 1.0), (-1.0, 1.0))), (301, 301))
        assert len(list(_slabs(grid.resolution))) > 1
        for texts in (("x1^2 + sin(x2)", "x1^2 + sin(x2) + 1"), ("abs(x1)", "abs(x1) + x2^2")):
            f = ivf_from_expressions(*texts)
            del compiled[:]
            infimum_over(f, grid)
            assert len(compiled) == 1
            # later calls, on points or on a mesh, compile nothing
            f.values(np.zeros((3, 2)))
            infimum_over(f, SampleGrid(grid.box, (5, 5)))
            assert len(compiled) == 1


# grids with 2, an odd and an even number of points per axis, in 1, 2 and 3
# dimensions; odd axes of symmetric boxes hold 0, where axis guards switch
MESH_RESOLUTIONS = [(2,), (7,), (8,), (2, 2), (7, 5), (8, 6), (2, 9, 4), (5, 4, 3)]


def _mesh_grid(res):
    from ivfkit.ivf import Box, SampleGrid

    bounds = [(-1.0, 1.0), (-2.0, 2.0), (-0.5, 1.5)]
    return SampleGrid(Box(tuple(bounds[: len(res)])), res)


def _on_mesh(node, grid):
    """``eval_expr`` on the grid's open mesh, broadcast and raveled in
    enumeration order, one array per root."""
    got = eval_expr(node, np.ix_(*grid.axes()))
    got = got if isinstance(node, tuple) else (got,)
    return tuple(np.broadcast_to(v, grid.resolution).ravel() for v in got)


def _vars(node):
    if isinstance(node, Var):
        return {node.index}
    if isinstance(node, Num):
        return set()
    children = {
        Unary: lambda n: (n.operand,), Binary: lambda n: (n.left, n.right),
        Compare: lambda n: (n.left, n.right), Call: lambda n: n.args,
        Piecewise: lambda n: (n.guard, n.then, n.other),
    }[type(node)](node)
    return set().union(*(_vars(c) for c in children))


def _mesh_shape(node, res):
    """The shape of a value on an open mesh: the product of the axes it
    depends on, or the whole mesh for a constant."""
    used = _vars(node) or set(range(1, len(res) + 1))
    if len(res) == 1:
        return res
    return tuple(r if d + 1 in used else 1 for d, r in enumerate(res))


MESH_CASES = [
    "x1", "x2", "2", "inf", "1/-0", "1/0 + x1 * 0", "piecewise(x1 > 0, 1, -1)",
    "min(x1, x2, x3)", "max(x2, 1, x1)", "exp(x3^2) + x1", "sin(1/x1) + cos(x2)^2",
    "piecewise(x1 * x2 != 0, abs(x1 * x2) / (2 * x1^2 + x2^2), 0)", "x1^x2 - x3",
]


class TestMesh:
    """An open mesh gives the bits of the points it spans, in enumeration order."""

    @pytest.mark.parametrize("label", sorted(CATALOG_FORMULAS))
    def test_catalog_expressions_match_the_points(self, label):
        from ivfkit.catalog import get_function
        from ivfkit.ivf import SampleGrid

        entry = get_function(label)
        node = (entry.ivf.lower.node, entry.ivf.upper.node)
        for res in MESH_RESOLUTIONS:
            if len(res) != entry.ivf.dim:
                continue
            grid = SampleGrid(entry.box, res)
            pts = grid.points()
            want = eval_expr(node, pts)
            for got, ref in zip(_on_mesh(node, grid), want):
                assert same_bits(got, ref), (label, res)
            for endpoint, ref in zip(node, want):
                assert same_bits(_on_mesh(endpoint, grid)[0], ref), (label, res)

    @pytest.mark.parametrize("text", MESH_CASES)
    def test_named_cases_match_the_points(self, text):
        node = parse_expr(text)
        for res in MESH_RESOLUTIONS:
            if max_var_index(node) > len(res):
                continue
            grid = _mesh_grid(res)
            with np.errstate(all="ignore"):
                (got,) = _on_mesh(node, grid)
                assert same_bits(got, eval_expr(node, grid.points())), res
            # each value lives on the axes it depends on
            value = eval_expr(node, np.ix_(*grid.axes()))
            assert value.shape == _mesh_shape(node, res)

    @given(st.deferred(lambda: st.tuples(expr_trees(), expr_trees())))
    def test_random_pairs_match_the_points(self, pair):
        for res in ((2, 3, 2), (5, 4, 3)):
            grid = _mesh_grid(res)
            with np.errstate(all="ignore"):
                want = eval_expr(pair, grid.points())
                values = eval_expr(pair, np.ix_(*grid.axes()))
                for node, value, got, ref in zip(pair, values, _on_mesh(pair, grid), want):
                    assert same_bits(got, ref)
                    assert value.shape == _mesh_shape(node, res)

    @given(st.deferred(lambda: st.tuples(expr_trees(), expr_trees())))
    def test_random_functions_take_either_route_alike(self, pair):
        # the same bits, or the same error with the same message, as the
        # model's separate endpoint calls on the grid's points
        from ivfkit.catalog import ivf_from_expressions
        from ivfkit.ivf import _grid_values

        f = ivf_from_expressions(*(ast_to_text(node) for node in pair), label="pair", dim=3)
        grid = _mesh_grid((4, 3, 5))
        assert outcome(lambda: _grid_values(f, grid)) == outcome(lambda: grid_values(f, grid))

    def test_subtrees_run_on_their_axes(self, monkeypatch):
        from ivfkit import expr

        sizes = []

        def exp(x, *out):
            sizes.append(np.size(x))
            return np.exp(x, *out)

        monkeypatch.setitem(expr._UNARY_CALLS, "exp", exp)
        expr._compile.cache_clear()
        try:
            grid = _mesh_grid((7, 5))
            pair = (parse_expr("x1^2 + 3 * exp(x2^2)"), parse_expr("2 * x1^2 + 4 * exp(x2^2)"))
            got = eval_expr(pair, np.ix_(*grid.axes()))
            # exp(x2^2) runs once, on the five values of x2
            assert sizes == [5] and [v.shape for v in got] == [(7, 5), (7, 5)]
        finally:
            expr._compile.cache_clear()

    def test_unknown_variable_raises_as_on_points(self):
        grid = _mesh_grid((3, 4))
        for text in ("x3", "x1 + x3", "1 + 0 * x3"):
            errors = []
            for where in (np.ix_(*grid.axes()), grid.points()):
                with pytest.raises(UnknownIdentifier) as info:
                    eval_expr(parse_expr(text), where)
                errors.append(str(info.value))
            assert errors[0] == errors[1] == "x3 out of range for dimension 2"

    def test_mesh_arrays_are_never_written(self):
        grid = _mesh_grid((70, 3))
        mesh = np.ix_(*grid.axes())
        before = [a.copy() for a in mesh]
        eval_expr((parse_expr("-x1"), parse_expr("abs(x2) + sin(x1) * 2")), mesh)
        assert all(np.array_equal(a, b) for a, b in zip(mesh, before))

    def test_a_mesh_of_lists_is_converted(self):
        got = eval_expr(parse_expr("x1 * 10 + x2"), ([[1.0], [2.0]], [[3.0, 4.0]]))
        assert got.tolist() == [[13.0, 14.0], [23.0, 24.0]]


def expr_trees(dim=3):
    """Expression trees in the variables ``x1`` to ``x{dim}``.  The
    tokenizer only emits non-negative literals (unary minus wraps
    negatives), so parser-reachable trees never hold a negative Num."""
    leaves = st.one_of(
        st.builds(Num, st.floats(0, 100).map(float)),
        st.builds(Var, st.integers(1, dim)),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Unary, st.just("-"), children),
            st.builds(Binary, st.sampled_from("+-*/^"), children, children),
            st.builds(Call, st.just("sin"), st.tuples(children)),
            st.builds(Call, st.just("abs"), st.tuples(children)),
            st.builds(
                Call, st.just("min"), st.tuples(children, children)
            ),
            st.builds(
                Piecewise,
                st.builds(Compare, st.sampled_from(["<", "<=", "!=", "=="]), children, children),
                children,
                children,
            ),
        ),
        max_leaves=25,
    )


class TestRoundTrip:
    @given(expr_trees())
    def test_pretty_print_reparses_equal(self, tree):
        assert parse_expr(ast_to_text(tree)) == tree

    @pytest.mark.parametrize(
        "text",
        [
            "sin(1/x1) + cos(x2)^2",
            "piecewise(x1 * x2 != 0, min(sin(1/x1), 2*sin(1/x1)) + cos(x2)^2, -2)",
            "-x1 ^ 2 - -3",
            "max(1, 2, x1)",
        ],
    )
    def test_examples_round_trip(self, text):
        tree = parse_expr(text)
        assert parse_expr(ast_to_text(tree)) == tree

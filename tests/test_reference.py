"""Whole verdicts of the library against the naive model in ``reference.py``,
on random functions and on the catalog: the same JSON, or the same error with
the same message."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from reference import outcome
from test_expr import expr_trees

import ivfkit.ivf as ivf
from ivfkit import cli
from ivfkit.calculus import (
    DEFAULT_LAMBDA_LADDER,
    gateaux_derivative,
    stationarity_check,
    unit_sphere_samples,
)
from ivfkit.catalog import catalog, ivf_from_expressions
from ivfkit.ekeland import EkelandInput, evp_search, verify_certificate
from ivfkit.expr import Binary, Call, Num, ast_to_text
from ivfkit.errors import EndpointOrderViolation, InvalidEndpoints, NonConvergent, OutOfDomain
from ivfkit.interval import Interval
from ivfkit.ivf import (
    IVF,
    Box,
    ProbeParams,
    SampleGrid,
    argmin_over,
    continuity_report,
    endpoint_lsc_equivalence,
    infimum_over,
    is_proper_probe,
    level_bounded_probe,
    lower_limit,
    sample_level_set,
    upper_limit,
)

# per dimension: the largest search resolution per axis (up to about 2k
# points) and the largest verify resolution
MAX_RES = {1: 400, 2: 45, 3: 13}
MAX_VERIFY_RES = {1: 801, 2: 61, 3: 17}
# built once: a strategy is validated on its first draw
TREE_PAIRS = {dim: st.tuples(expr_trees(dim), expr_trees(dim)) for dim in MAX_RES}


@st.composite
def boxes(draw, dim):
    bounds = []
    for _ in range(dim):
        kind = draw(st.sampled_from(["symmetric", "near", "far"]))
        if kind == "symmetric":
            a = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))  # the midpoint axis holds 0
            bounds.append((-a, a))
        else:
            lo = draw(st.floats(-3.0, 1.0))
            if kind == "far":  # coordinates round more coarsely than near the origin
                lo += draw(st.sampled_from([1e3, -2.5e4, 1e6]))
            bounds.append((lo, lo + draw(st.floats(0.25, 4.0))))
    return Box(tuple(bounds))


@st.composite
def cases(draw):
    dim = draw(st.integers(1, 3))
    if draw(st.integers(0, 3)):
        lower, gap = draw(TREE_PAIRS[dim])
    else:
        # a constant function: every point ties with x0 = xbar inside the ball
        lower, gap = (Num(draw(st.sampled_from([0.0, 0.1, 1.0, 3.7, 1e3]))) for _ in range(2))
    box = draw(boxes(dim))
    res = tuple(draw(st.integers(2, MAX_RES[dim])) for _ in range(dim))
    grid = SampleGrid(box, res)
    xbar = grid.points()[draw(st.integers(0, grid.size - 1))]
    where = draw(st.sampled_from(["on the grid", "off the grid", "in the box"]))
    if where == "off the grid":
        xbar = xbar + grid.spacing() * np.array([draw(st.floats(-0.5, 0.5)) for _ in range(dim)])
    elif where == "in the box":
        xbar = np.array([draw(st.floats(a, b)) for a, b in box.bounds])
    alpha_lo = draw(st.floats(-3.0, 5.0))
    delta = float(10 ** draw(st.floats(-2.0, 1.5)))
    tol = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.1, "boundary"]))
    if tol == "boundary":
        # a grid point on the rim of the ball within which points tie with xbar
        rim = grid.points()[draw(st.integers(0, grid.size - 1))]
        tol = delta * float(np.linalg.norm(rim - xbar)) or 1e-9
    return {
        "dim": dim,
        # upper = lower + abs(gap), so lower <= upper unless a value is NaN
        "texts": (ast_to_text(lower), ast_to_text(Binary("+", lower, Call("abs", (gap,))))),
        "box": box,
        "res": res,
        "verify_res": tuple(min(2 * r - 1, MAX_VERIFY_RES[dim]) for r in res),
        # a few grids above the slab size, patched down
        "slab": draw(st.sampled_from([None, None, None, 5, 64, 300])),
        "xbar": tuple(float(v) for v in xbar),
        "eps_scale": draw(st.sampled_from([0.5, 1.01, 2.0, 10.0])),
        "eps_floor": draw(st.sampled_from([1e-9, 1e-3, 0.1])),
        "eps_ratio": draw(st.sampled_from([0.1, 3.0])),
        "delta": delta,
        "delta_ratio": draw(st.sampled_from([0.5, 4.0])),
        "tol": tol,
        "probe_at": "xbar" if draw(st.booleans()) else tuple(
            draw(st.floats(a, b)) for a, b in box.bounds
        ),
        "probe": ProbeParams(
            samples_per_ball=draw(st.sampled_from([1, 16, 64])),
            seed=draw(st.integers(0, 9)),
            tol=draw(st.sampled_from([1e-9, 1e-3, 0.1])),
        ),
        "alpha": Interval(alpha_lo, alpha_lo + draw(st.sampled_from([0.0, 0.5, 3.0]))),
        "gateaux": draw(st.booleans()),
    }


def eps_of(f, case):
    """An eps for the hypothesis ``F(xbar) < inf F + eps``: the gap between
    ``F(xbar)`` and the infimum, scaled, so that most cases reach a
    certificate; 1 where the model gives no finite gap."""
    try:
        inf = reference.infimum_over(f, SampleGrid(case["box"], case["res"]))
        value = reference.value(f, case["xbar"])
    except Exception:  # the verdicts below raise it on both sides
        return 1.0
    eps = max(value.lo - inf.lo, value.hi - inf.hi, 0.0) * case["eps_scale"] + case["eps_floor"]
    return eps if np.isfinite(eps) else 1.0


def sweep_argv(case, eps):
    lower, upper = case["texts"]
    return [
        "evp", f"--lower={lower}", f"--upper={upper}", f"--dim={case['dim']}",
        "--xbar=" + ",".join(repr(v) for v in case["xbar"]),
        f"--eps={eps!r},{eps * case['eps_ratio']!r}",
        f"--delta={case['delta']!r},{case['delta'] * case['delta_ratio']!r}",
        "--box=" + ",".join(f"{a!r}:{b!r}" for a, b in case["box"].bounds),
        "--res=" + ",".join(map(str, case["res"])),
        "--verify-res=" + ",".join(map(str, case["verify_res"])),
        f"--tol={case['tol']!r}",
    ] + (["--gateaux"] if case["gateaux"] else [])


# the default ladder at its default tolerance, and a short coarse ladder
LADDERS = ((DEFAULT_LAMBDA_LADDER, 1e-6), ((0.5, 0.05, 0.005), None))


def compare_derivatives(f, at, seed, coarse_tol):
    """The derivative along one seeded direction and the stationarity check
    along several, library against model, on each of ``LADDERS`` (the coarse
    one at ``coarse_tol``); yields each verdict's kind and outcome, the name
    of its error or, for a stationarity check that returns, its answer."""
    directions = unit_sphere_samples(f.dim, 2 * f.dim + 1, seed)
    for ladder, tol in LADDERS:
        tol = coarse_tol if tol is None else tol
        for kind, lib, model in [
            ("derivative", lambda: gateaux_derivative(f, at, directions[-1], ladder, tol),
             lambda: reference.gateaux_derivative(f, at, directions[-1], ladder, tol)),
            ("stationary", lambda: stationarity_check(f, at, directions, ladder, tol),
             lambda: reference.stationarity_check(f, at, directions, ladder, tol)),
        ]:
            got = outcome(lib)
            assert got == outcome(model), (kind, at, ladder)
            if got[0] != "ok":
                yield kind, got[0].__name__
            else:
                yield kind, got[1] if kind == "stationary" else "ok"


def compare(case, capsys, counts):
    """Every verdict on one case, library against model."""
    f = ivf_from_expressions(*case["texts"], label="pair", dim=case["dim"])
    box, tol = case["box"], case["tol"]
    grid = SampleGrid(box, case["res"])  # the library's, kept across verdicts with its memo
    fresh = lambda: SampleGrid(box, case["res"])  # noqa: E731

    def same(lib, model):
        """What both give: ``"ok"`` and the canonical result, or the name of
        the error and its message."""
        got = outcome(lib)
        assert got == outcome(model)
        return ("ok" if got[0] == "ok" else got[0].__name__), got[1]

    alphas = [case["alpha"], Interval(-np.inf, case["alpha"].hi)]
    counts["grid " + same(lambda: infimum_over(f, grid),
                          lambda: reference.infimum_over(f, fresh()))[0]] += 1
    same(lambda: is_proper_probe(f, grid), lambda: reference.is_proper_probe(f, fresh()))
    same(lambda: argmin_over(f, grid, tol), lambda: reference.argmin_over(f, fresh(), tol))
    same(lambda: sample_level_set(f, alphas[0], grid),
         lambda: reference.sample_level_set(f, alphas[0], fresh()))
    same(lambda: level_bounded_probe(f, alphas, grid),
         lambda: reference.level_bounded_probe(f, alphas, fresh()))

    at = case["xbar"] if case["probe_at"] == "xbar" else case["probe_at"]
    params = case["probe"]
    same(lambda: lower_limit(f, at, params), lambda: reference.lower_limit(f, at, params))
    same(lambda: upper_limit(f, at, params), lambda: reference.upper_limit(f, at, params))
    counts["probe " + same(lambda: continuity_report(f, at, params),
                           lambda: reference.continuity_report(f, at, params))[0]] += 1
    same(lambda: endpoint_lsc_equivalence(f, at, params),
         lambda: reference.endpoint_lsc_equivalence(f, at, params))
    for kind, outcome_of in compare_derivatives(f, at, params.seed, params.tol):
        counts[f"{kind} {outcome_of}"] += 1

    eps = eps_of(f, case)
    inp = EkelandInput(f=f, xbar=case["xbar"], eps=eps, delta=case["delta"], box=box, grid=grid, tol=tol)
    searched = same(lambda: evp_search(inp), lambda: reference.evp_search(inp))[0]
    counts["search " + searched] += 1
    if searched == "ok":
        cert = evp_search(inp)
        counts["x0 off xbar"] += cert.x0 != cert.xbar
        counts["ties"] += bool(cert.ties)
        fine = SampleGrid(box, case["verify_res"])
        verified = same(lambda: verify_certificate(f, cert, fine, inp.delta, tol),
                        lambda: reference.verify_certificate(f, cert, fine, inp.delta, tol))
        counts["verified " + verified[1]] += 1

    argv = sweep_argv(case, eps)
    got = cli.main(argv), *capsys.readouterr()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_sweep_cell", reference.sweep_cell)
        want = cli.main(argv), *capsys.readouterr()
    assert got == want and (got[1] or got[2])
    counts[f"sweep exit {got[0]}"] += 1


def test_random_functions_match_the_model(capsys):
    counts = Counter()

    @settings(max_examples=150, deadline=None)
    @given(cases())
    def check(case):
        with pytest.MonkeyPatch.context() as mp:
            if case["slab"] is not None:
                mp.setattr(ivf, "_SLAB_POINTS", case["slab"])
                counts["slabbed"] += SampleGrid(case["box"], case["res"]).size > case["slab"]
            compare(case, capsys, counts)

    check()
    # the examples reach every outcome, most of them a certificate
    assert counts["search ok"] >= 80 and counts["verified true"] >= 80 and counts["verified false"] >= 1
    assert counts["ties"] >= 20 and counts["x0 off xbar"] >= 15
    assert counts["search HypothesisViolated"] >= 10 and counts["search EmptyArgmin"] >= 5
    assert counts["search InvalidEndpoints"] >= 10 and counts["grid InvalidEndpoints"] >= 1
    assert counts["slabbed"] >= 40 and counts["sweep exit 0"] >= 50 and counts["sweep exit 1"] >= 50
    assert counts["derivative ok"] >= 150 and counts["derivative NonConvergent"] >= 20
    assert counts["stationary true"] >= 100 and counts["stationary false"] >= 30
    assert counts["stationary NonConvergent"] >= 20 and counts["stationary InvalidEndpoints"] >= 1


def _catalog_functions():
    """Label -> (function, box, probe point): every catalog entry, and a
    square-root pair whose domain clips the probe balls."""
    root = lambda P: np.sqrt(P[:, 0])  # noqa: E731
    out = {e.label: (e.ivf, e.box, e.probe_point) for e in catalog()}
    out["sqrt-on-domain"] = (
        IVF(1, root, lambda P: root(P) + 1.0, "sqrt", domain=Box(((0.0, 1.0),))),
        Box(((0.0, 1.0),)),
        (0.0,),
    )
    return out


@pytest.mark.parametrize("label", sorted(_catalog_functions()))
def test_catalog_verdicts_match_the_model(label):
    # grid verdicts on the entry's box, and probes with the default ball
    # ladder at its probe point and at seeded points of its box
    f, box, probe_point = _catalog_functions()[label]
    grid = SampleGrid(box, (401,) if f.dim == 1 else (41, 41))
    alphas = [Interval(0.0, 1.0), Interval(-1.0, 10.0)]
    for lib, model in [
        (infimum_over, reference.infimum_over),
        (is_proper_probe, reference.is_proper_probe),
        (lambda f, g: argmin_over(f, g, 1e-6), lambda f, g: reference.argmin_over(f, g, 1e-6)),
        (lambda f, g: level_bounded_probe(f, alphas, g),
         lambda f, g: reference.level_bounded_probe(f, alphas, g)),
    ]:
        assert outcome(lambda: lib(f, grid)) == outcome(lambda: model(f, grid))
    rng = np.random.default_rng(17)
    lows, highs = (np.array(b) for b in zip(*box.bounds))
    params = ProbeParams()
    for k, at in enumerate([probe_point] + [tuple(rng.uniform(lows, highs)) for _ in range(4)]):
        for name in ("lower_limit", "upper_limit", "continuity_report", "endpoint_lsc_equivalence"):
            got = outcome(lambda: getattr(ivf, name)(f, at, params))
            assert got == outcome(lambda: getattr(reference, name)(f, at, params)), (name, at)
        for _ in compare_derivatives(f, at, seed=k, coarse_tol=1e-3):
            pass


def _lambda_pairs():
    """Label -> (function, box): endpoint pairs of Python functions, smooth,
    kinked, oscillating, stepping, infinite or NaN on part of the box, and
    with a domain."""
    x = lambda P: P[:, 0]  # noqa: E731
    pairs = [
        reference.quadratic_pair(),
        IVF(1, lambda P: np.minimum(x(P), 2 * x(P)), lambda P: np.maximum(x(P), 2 * x(P)), "linear"),
        IVF(1, lambda P: np.abs(x(P)), lambda P: 2 * np.abs(x(P)), "abs-pair"),
        IVF(1, lambda P: np.where(x(P) != 0, np.abs(x(P)) * np.sin(1 / x(P)) - 2, -2.0),
            lambda P: np.full(len(P), 3.0), "wild"),
        IVF(1, lambda P: np.floor(4 * x(P)), lambda P: np.floor(4 * x(P)) + 1, "steps"),
        IVF(1, lambda P: np.where(x(P) > 0.5, np.inf, x(P)),
            lambda P: np.where(x(P) > 0.5, np.inf, x(P) + 1), "top-above-half"),
        IVF(1, lambda P: np.log(x(P)), lambda P: np.log(x(P)) + 1, "log"),
        IVF(1, lambda P: np.sqrt(x(P)), lambda P: np.sqrt(x(P)) + 1, "sqrt",
            domain=Box(((0.0, 1.0),))),
        IVF(2, lambda P: x(P) * P[:, 1], lambda P: x(P) * P[:, 1] + P[:, 1] ** 2, "saddle-2d",
            domain=Box(((-1.0, 1.0), (-0.5, 0.5)))),
    ]
    return {f.label: (f, f.domain or Box(((-1.0, 1.0),) * f.dim)) for f in pairs}


@pytest.mark.parametrize("label", sorted(_lambda_pairs()))
def test_lambda_pair_derivatives_match_the_model(label):
    # seeded points of a slightly larger box than the function's, so some
    # bases and rungs fall outside its domain
    f, box = _lambda_pairs()[label]
    rng = np.random.default_rng(23)
    lows, highs = (np.array(b) for b in zip(*box.bounds))
    seen = Counter()
    for k in range(30):
        at = tuple(rng.uniform(lows - 0.1, highs + 0.1))
        seen.update(outcome for _, outcome in compare_derivatives(f, at, seed=k, coarse_tol=1e-3))
    assert seen["ok"] + seen["true"] + seen["false"] >= 1, seen


def _planted(lower, upper, label, domain=None):
    return IVF(1, lambda P: lower(P[:, 0]), lambda P: upper(P[:, 0]), label, domain=domain)


UNIT = Box(((0.0, 1.0),))
# (function, point, directions, ladder, what the walk raises first or returns)
PLANTED = {
    "base outside the domain": (
        _planted(np.sqrt, lambda x: np.sqrt(x) + 1, "sqrt", UNIT), (-0.1,), [[1.0]], None,
        OutOfDomain),
    "NaN at the base": (
        _planted(lambda x: x / x, lambda x: x + 1, "nan-at-0"), (0.0,), [[1.0]], None,
        InvalidEndpoints),
    "a rung outside the domain after a NaN rung": (
        _planted(lambda x: np.where((x > 0.55) & (x < 0.65), np.nan, x), lambda x: x + 1,
                 "nan-band", UNIT),
        (0.5,), [[1.0], [-10.0]], None, InvalidEndpoints),
    "NaN after an infinite rung": (
        _planted(lambda x: np.where(x > 1.05, np.inf, np.where(x > 1.005, np.nan, x)),
                 lambda x: np.where(x > 1.05, np.inf, x + 1), "inf-then-nan"),
        (1.0,), [[1.0]], None, NonConvergent),
    "a reversed pair at a middle rung": (
        _planted(lambda x: np.where((x > 1.0005) & (x < 1.005), x + 2, x), lambda x: x + 1,
                 "reversed-band"),
        (1.0,), [[1.0]], None, EndpointOrderViolation),
    "an infinite base": (
        _planted(lambda x: np.where(x == 0, -np.inf, x), lambda x: x + 1, "inf-base"),
        (0.0,), [[1.0]], None, NonConvergent),
    "an infinite base, then a rung outside the domain": (
        _planted(lambda x: np.where(x == 0, -np.inf, x), lambda x: x + 1, "inf-base",
                 Box(((0.0, 0.05),))),
        (0.0,), [[1.0]], None, OutOfDomain),
    "an early False before a NonConvergent direction": (
        _planted(lambda x: np.where(x < 1, np.inf, x), lambda x: np.where(x < 1, np.inf, x + 1),
                 "top-below-1"),
        (1.0,), [[1.0], [-1.0]], None, False),
    "a NonConvergent direction before a False one": (
        _planted(lambda x: np.where(x < 1, np.inf, x), lambda x: np.where(x < 1, np.inf, x + 1),
                 "top-below-1"),
        (1.0,), [[-1.0], [1.0]], None, NonConvergent),
    "a rung whose reciprocal overflows": (
        reference.quadratic_pair(), (1.0,), [[1.0]], (0.1, 1e-320), NonConvergent),
    "a direction of another dimension at a 1-D point": (
        reference.quadratic_pair(), (1.0,), [[1.0, 0.0]], None, OutOfDomain),
    "a direction of another dimension inside a 1-D domain": (
        _planted(np.sqrt, lambda x: np.sqrt(x) + 1, "sqrt", UNIT), (0.5,), [[1.0, 0.0]], None,
        OutOfDomain),
    "a direction that does not broadcast against a 2-D point": (
        IVF(2, lambda P: P[:, 0] * 0, lambda P: P[:, 1] * 0 + 1, "flat-2d"), (0.0, 0.0),
        [[1.0, 0.0, 0.0]], None, ValueError),
    "a field that returns a scalar": (
        IVF(1, lambda P: 1.0, lambda P: 2.0, "scalar"), (0.0,), [[1.0]], None, InvalidEndpoints),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_derivative_errors_match_the_model(name):
    # each case plants what the per-rung walk meets first; the stacked
    # evaluation must raise the same error, with the same message
    f, at, directions, ladder, first = PLANTED[name]
    ladder = ladder or DEFAULT_LAMBDA_LADDER
    got = outcome(lambda: stationarity_check(f, at, np.array(directions), ladder))
    assert got == outcome(lambda: reference.stationarity_check(f, at, np.array(directions), ladder))
    assert got == ("ok", "false") if first is False else got[0] is first, got
    got = outcome(lambda: gateaux_derivative(f, at, directions[0], ladder))
    assert got == outcome(lambda: reference.gateaux_derivative(f, at, directions[0], ladder))

import math

import numpy as np
import pytest

from ivfkit.ekeland import (
    EkelandCertificate,
    EkelandInput,
    evp_gateaux,
    evp_search,
    global_min,
    level_bound_lemma_check,
    perturbed,
    verify_certificate,
)
from ivfkit.errors import (
    EmptyArgmin,
    HypothesisViolated,
    ImproperFunction,
    InvalidEndpoints,
    OutOfDomain,
)
from ivfkit.interval import Interval, gh_dist, gh_sub, nprec, prec, preceq, scalar_mul
from ivfkit.ivf import (
    IVF,
    Box,
    SampleGrid,
    _grid_values,
    add_ivf,
    argmin_over,
    indicator,
    infimum_over,
)

BOX = Box(((-2.0, 2.0),))
GRID = SampleGrid(BOX, (4001,))


def quadratic_pair():
    return IVF(1, lambda P: P[:, 0] ** 2, lambda P: 2 * P[:, 0] ** 2, "quadratic")


def constant_ivf(lo=0.0, hi=0.0):
    return IVF(
        1,
        lambda P: np.full(P.shape[0], lo),
        lambda P: np.full(P.shape[0], hi),
        "constant",
    )


def plateau_pair():
    def ramp(P):
        return np.maximum(np.abs(P[:, 0]) - 1.0, 0.0)

    return IVF(1, lambda P: ramp(P), lambda P: 2 * ramp(P), "plateau")


def quadratic_input(eps=0.01, delta=1.0, xbar=0.05, tol=1e-9):
    return EkelandInput(
        f=quadratic_pair(), xbar=(xbar,), eps=eps, delta=delta, box=BOX, grid=GRID, tol=tol
    )


class TestGlobalMin:
    def test_quadratic(self):
        inf, points = global_min(quadratic_pair(), GRID, tol=1e-6)
        assert gh_dist(inf, Interval(0, 0)) <= 1e-3
        assert len(points) >= 1 and np.all(np.abs(points) <= 1e-3)

    def test_constant(self):
        f = constant_ivf(1.0, 2.0)
        grid = SampleGrid(BOX, (11,))
        inf, points = global_min(f, grid, tol=0.0)
        assert inf == Interval(1, 2) and len(points) == grid.size

    def test_indicator_plus_distance(self):
        ind = indicator(lambda P: np.abs(P[:, 0]) <= 1.0, dim=1)
        dist = IVF(1, lambda P: np.abs(P[:, 0]), lambda P: np.abs(P[:, 0]), "dist")
        f = add_ivf(ind, dist)
        grid = SampleGrid(BOX, (401,))
        inf, points = global_min(f, grid, tol=1e-12)
        assert inf == Interval(0, 0)
        assert len(points) == 1 and points[0][0] == 0.0

    def test_improper_rejected(self):
        empty = indicator(lambda P: np.zeros(P.shape[0], dtype=bool), dim=1)
        with pytest.raises(ImproperFunction):
            global_min(empty, SampleGrid(BOX, (11,)), tol=1.0)


class TestPerturbed:
    def test_cone_only(self):
        f = perturbed(constant_ivf(), 1.0, (0.0,))
        assert f((2.0,)) == Interval(2, 2)

    def test_exact_at_center(self):
        f = perturbed(quadratic_pair(), 3.0, (0.7,))
        assert f((0.7,)) == quadratic_pair()((0.7,))

    def test_quadratic_shift(self):
        f = perturbed(quadratic_pair(), 1.0, (0.0,))
        assert f((1.0,)) == Interval(2, 3)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            perturbed(quadratic_pair(), 0.0, (0.0,))


class TestEvpSearch:
    def test_quadratic_certificate(self):
        cert = evp_search(quadratic_input())
        assert cert.valid
        assert cert.dist_x0_xbar < cert.eps / cert.delta
        assert preceq(cert.value_x0, cert.value_xbar)
        assert cert.violations == ()

    def test_xbar_is_perturbed_minimizer(self):
        # the cone kink dominates the small slope at xbar, so x0 == xbar exactly
        cert = evp_search(quadratic_input())
        assert cert.x0 == cert.xbar
        assert cert.dist_x0_xbar == 0.0

    def test_xbar_at_global_minimum(self):
        cert = evp_search(quadratic_input(xbar=0.0))
        assert cert.x0 == (0.0,) and cert.dist_x0_xbar == 0.0 and cert.valid

    def test_hypothesis_violated(self):
        # F(xbar) is nowhere near the infimum at this eps
        with pytest.raises(HypothesisViolated):
            evp_search(quadratic_input(eps=0.001, xbar=1.0))

    def test_sweep_monotone_distance_bound(self):
        bounds = []
        for delta in (0.5, 1.0, 2.0):
            cert = evp_search(quadratic_input(delta=delta))
            assert cert.valid
            bounds.append(cert.dist_bound)
        assert bounds == sorted(bounds, reverse=True)

    def test_split_endpoint_minimizers_raise_empty_argmin(self):
        # away from the kink the two perturbed endpoints bottom out at
        # different points, so no sample is near both componentwise minima
        with pytest.raises(EmptyArgmin):
            evp_search(quadratic_input(eps=0.6, delta=0.5, xbar=0.5))

    @pytest.mark.xfail(strict=True, raises=EmptyArgmin, reason="ROADMAP item 6")
    @pytest.mark.parametrize("xbar, delta", [(0.5, 0.1), (0.5, 0.3), (0.6, 0.05), (0.5, 0.01)])
    def test_split_endpoint_minimizers_return_certificates(self, xbar, delta):
        # the endpoint minimizers sit at 0.3 and 0.7; today stage 1 finds no
        # point near both minima of the cone and raises EmptyArgmin
        from ivfkit.catalog import ivf_from_expressions

        f = ivf_from_expressions("(x1 - 0.3)^2", "(x1 - 0.7)^2 + 2", label="split")
        box = Box(((-1.0, 2.0),))
        inp = EkelandInput(
            f=f, xbar=(xbar,), eps=0.5, delta=delta, box=box, grid=SampleGrid(box, (3001,))
        )
        cert = evp_search(inp)
        assert cert.dist_bound_ok and cert.descent_ok

    def test_plateau_reports_ties(self):
        inp = EkelandInput(
            f=plateau_pair(),
            xbar=(0.5,),
            eps=0.1,
            delta=1.0,
            box=BOX,
            grid=GRID,
            tol=0.01,
        )
        cert = evp_search(inp)
        assert cert.x0 == (0.5,)
        assert cert.ties  # plateau neighbors tie at tolerance scale
        assert cert.warnings
        assert cert.uniqueness_ok  # strict conclusion still holds pointwise

    def test_stage1_subset_of_bounded_region(self):
        # stage-1 winners live in the region the distance-cone level bound carves out
        inp = quadratic_input()
        cert = evp_search(inp)
        inf_f = infimum_over(inp.f, inp.grid)
        alpha = Interval(cert.value_x0.lo + 2 * inp.tol, cert.value_x0.hi + 2 * inp.tol)
        radius_bound = scalar_mul(1.0 / inp.delta, gh_sub(alpha, inf_f))
        r = abs(cert.x0[0] - inp.xbar[0])
        assert nprec(radius_bound, Interval(r, r))


class TestVerification:
    def test_verify_on_finer_grid(self):
        inp = quadratic_input()
        cert = evp_search(inp)
        fine = SampleGrid(BOX, (40001,))
        assert verify_certificate(inp.f, cert, fine, inp.delta, inp.tol)

    def test_tampered_certificate_fails(self):
        inp = quadratic_input()
        cert = evp_search(inp)
        moved = EkelandCertificate(
            **{**cert.__dict__, "x0": (cert.x0[0] + 0.5,)}
        )
        assert not verify_certificate(inp.f, moved, GRID, inp.delta, inp.tol)

    def test_every_check_runs_when_the_distance_fails(self):
        # the descent check still evaluates F(x0) when x0 is too far from
        # xbar, so an x0 outside the domain is named, not just refused
        inp = quadratic_input()
        cert = evp_search(inp)
        f = IVF(1, inp.f.lower, inp.f.upper, "boxed", domain=Box(((-1.0, 1.0),)))
        moved = EkelandCertificate(**{**cert.__dict__, "x0": (1.5,)})
        with pytest.raises(OutOfDomain):
            verify_certificate(f, moved, GRID, inp.delta, inp.tol)

    def test_larger_delta_keeps_distance_bound(self):
        inp = quadratic_input()
        cert = evp_search(inp)
        # loosening the trade-off rate only loosens the distance bound
        assert verify_certificate(inp.f, cert, GRID, inp.delta, inp.tol)
        assert cert.dist_x0_xbar < cert.eps / (inp.delta * 2) or cert.dist_x0_xbar == 0.0


class TestEvpGateaux:
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_derivative_bound(self, delta):
        cert, bound = evp_gateaux(
            quadratic_input(delta=delta), directions=np.array([[1.0], [-1.0]])
        )
        assert cert.valid
        assert bound <= delta + 1e-3

    def test_large_delta_trivial(self):
        cert, bound = evp_gateaux(
            quadratic_input(delta=2.0), directions=np.array([[1.0], [-1.0]])
        )
        assert bound <= 2.0 + 1e-3


class TestLevelBoundLemma:
    def test_paper_region_in_2d(self):
        grid = SampleGrid(Box(((-3.0, 3.0), (-3.0, 3.0))), (101, 101))
        assert level_bound_lemma_check((0.0, 0.0), Interval(1, 2), grid)

    def test_degenerate_zero(self):
        grid = SampleGrid(Box(((-1.0, 1.0),)), (21,))
        assert level_bound_lemma_check((0.0,), Interval(0, 0), grid)
        # only the center belongs
        pts = grid.points()
        r = np.abs(pts[:, 0])
        members = (r <= 0.0) | ((0.0 < r) & (r < 0.0))
        assert members.sum() == 1

    def test_degenerate_radius_three(self):
        grid = SampleGrid(Box(((-4.0, 4.0),)), (81,))
        assert level_bound_lemma_check((0.0,), Interval(3, 3), grid)


# -- windowed scan and stage 1 against full-grid references -------------------


def full_grid_scan(f, x0, delta, grid, tie_tol, pts=None):
    """The strict-minimality scan over every grid point, as it was before the
    scan was restricted to a window: the reference for the windowed scan."""
    v0 = f(x0)
    pts = grid.points() if pts is None else pts
    lo, hi = _grid_values(f, grid)
    r = np.linalg.norm(pts - x0[None, :], axis=1)
    off = r > 0
    plo = lo + delta * r
    phi = hi + delta * r
    dominated = (v0.lo <= plo) & (v0.hi <= phi) & ((v0.lo < plo) | (v0.hi < phi))
    bad = off & ~dominated
    with np.errstate(all="ignore"):
        gap = np.maximum(np.abs(plo - v0.lo), np.abs(phi - v0.hi))
    tie = off & dominated & (gap <= tie_tol)
    return int(off.sum()), pts[bad], pts[tie]


def assert_same_scan(got, want):
    checked, violations, ties = got
    assert checked == want[0]
    for points, ref in ((violations, want[1]), (ties, want[2])):
        assert len(points) == len(ref)
        assert all(type(p) is tuple for p in points)
        assert np.array_equal(np.array(points, dtype=float).reshape(ref.shape), ref)


def full_grid_stage1(f, grid, xbar, value_xbar, delta, tol, pts):
    """Stage 1 of the search over every grid point plus ``xbar``."""
    from ivfkit.ivf import _gh_gap

    lo, hi = _grid_values(f, grid)
    pool_lo = np.append(lo, value_xbar.lo)
    pool_hi = np.append(hi, value_xbar.hi)
    shift = delta * np.append(np.linalg.norm(pts - xbar[None, :], axis=1), 0.0)
    cone_lo, cone_hi = pool_lo + shift, pool_hi + shift
    near = np.flatnonzero(
        _gh_gap(cone_lo, cone_hi, float(cone_lo.min()), float(cone_hi.min())) <= tol
    )
    if len(near) == 0:
        return None
    return np.vstack([pts, xbar[None, :]])[near], pool_lo[near], pool_hi[near]


def stage1_witness(inp):
    """The witness of stage 1 of the search, before refinement."""
    from ivfkit.ekeland import _pick_witness, _stage1_near_set

    xbar = np.asarray(inp.xbar, dtype=float)
    near, lo, hi = _stage1_near_set(
        inp.f, inp.grid, xbar, inp.f(xbar), infimum_over(inp.f, inp.grid), inp.delta, inp.tol
    )
    return near[_pick_witness(near, lo, hi, xbar, inp.tol)]


def cone_argmin_refinement(inp, x0):
    """The refinement evaluating the cone ``perturbed(F, delta, xbar)`` as a
    function of its own: its argmin over each local grid, the witness among
    those points from values of ``F`` at them, and a move when the cone at the
    witness strictly dominates into the cone at ``x0``."""
    from ivfkit.ekeland import REFINEMENT_RESOLUTION, REFINEMENT_ROUNDS, _pick_witness

    f = inp.f
    xbar = np.asarray(inp.xbar, dtype=float)
    cone = perturbed(f, inp.delta, xbar)
    spacing = inp.grid.spacing()
    for _ in range(REFINEMENT_ROUNDS):
        local = Box(tuple((float(c - s), float(c + s)) for c, s in zip(x0, spacing)))
        local_grid = SampleGrid(local.intersect(inp.box), (REFINEMENT_RESOLUTION,) * f.dim)
        local_c = argmin_over(cone, local_grid, inp.tol)
        if len(local_c):
            candidate = local_c[_pick_witness(local_c, *f.values(local_c), xbar, inp.tol)]
            if prec(cone(candidate), cone(x0)):
                x0 = candidate
        spacing = spacing / 10.0
    return x0


def minus_inf_on_part():
    from ivfkit.catalog import ivf_from_expressions

    return ivf_from_expressions(
        "piecewise(x1 < -0.5, -inf, x1^2 + x2^2)", "x1^2 + x2^2 + 1", label="minus-inf-part"
    )


def _window_functions():
    """Label -> (function, box): every catalog entry, plus one whose lower
    endpoint is -inf on part of the box."""
    from ivfkit.catalog import catalog

    out = {e.label: (e.ivf, e.box) for e in catalog()}
    out["minus-inf-part"] = (minus_inf_on_part(), Box(((-1.0, 1.0), (-1.0, 1.0))))
    return out


WINDOW_LABELS = sorted(_window_functions())
WINDOW_RESOLUTIONS = (11, 41, 101, 257)
WINDOW_DELTAS = (1e-6, 0.01, 0.5, 2.0, 100.0)
WINDOW_TOLS = (1e-12, 1e-9, 1e-3, 0.5)


def _window_centers(f, grid, pts, rng):
    """Two grid points (the grid argmin of the lower endpoint and a random
    one) and the same two moved off the grid by a fraction of the spacing."""
    lo, _ = _grid_values(f, grid)
    on = [pts[int(np.argmin(lo))], pts[int(rng.integers(grid.size))]]
    off = [p + grid.spacing() * rng.uniform(-0.5, 0.5, p.shape) for p in on]
    return on + off


@pytest.mark.parametrize("label", WINDOW_LABELS)
def test_windowed_scan_matches_full_grid_scan(label):
    from ivfkit.ekeland import _strict_minimality_scan

    f, box = _window_functions()[label]
    rng = np.random.default_rng(11)
    cases = 0
    for res in WINDOW_RESOLUTIONS:
        grid = SampleGrid(box, (res,) * f.dim)
        pts = grid.points()
        for x0 in _window_centers(f, grid, pts, rng):
            for delta in WINDOW_DELTAS:
                for tol in WINDOW_TOLS:
                    assert_same_scan(
                        _strict_minimality_scan(f, x0, f(x0), delta, grid, tol),
                        full_grid_scan(f, x0, delta, grid, tol, pts),
                    )
                    cases += 1
    assert cases == len(WINDOW_RESOLUTIONS) * 4 * len(WINDOW_DELTAS) * len(WINDOW_TOLS)


@pytest.mark.parametrize("label", WINDOW_LABELS)
def test_windowed_stage1_matches_full_grid(label):
    from ivfkit.ekeland import _pick_witness, _stage1_near_set

    f, box = _window_functions()[label]
    rng = np.random.default_rng(12)
    for res in WINDOW_RESOLUTIONS:
        grid = SampleGrid(box, (res,) * f.dim)
        pts = grid.points()
        inf_f = infimum_over(f, grid)
        for xbar in _window_centers(f, grid, pts, rng):
            value_xbar = f(xbar)
            for delta in WINDOW_DELTAS:
                for tol in WINDOW_TOLS:
                    want = full_grid_stage1(f, grid, xbar, value_xbar, delta, tol, pts)
                    if want is None:
                        with pytest.raises(EmptyArgmin):
                            _stage1_near_set(f, grid, xbar, value_xbar, inf_f, delta, tol)
                        continue
                    got = _stage1_near_set(f, grid, xbar, value_xbar, inf_f, delta, tol)
                    for g, w in zip(got, want):
                        assert np.array_equal(g, w), (res, xbar, delta, tol)
                    assert np.array_equal(
                        got[0][_pick_witness(*got, xbar, tol)],
                        want[0][_pick_witness(*want, xbar, tol)],
                    )


def test_window_falls_back_to_the_whole_grid():
    from ivfkit.ekeland import _cone_radius
    from ivfkit.ivf import _grid_window

    grid = SampleGrid(Box(((-1.0, 1.0), (-1.0, 1.0))), (41, 41))
    whole = (slice(0, 41), slice(0, 41))
    f = minus_inf_on_part()
    # an infinite lower endpoint among the grid values
    assert _cone_radius(f((0.0, 0.0)), infimum_over(f, grid), 1e-9, 1.0) == math.inf
    assert _cone_radius(Interval(math.inf, math.inf), Interval(0, 0), 1e-9, 1.0) == math.inf
    # a ball larger than the box
    assert _grid_window(grid, np.zeros(2), 10.0) == whole
    radius = _cone_radius(Interval(1, 2), Interval(0, 0), 1e-9, 1e-6)
    assert radius > 1e6 and _grid_window(grid, np.zeros(2), radius) == whole


def test_random_scans_match_full_grid_scan():
    # random quadratic bowls with offsets, on random boxes and resolutions
    from ivfkit.catalog import ivf_from_expressions
    from ivfkit.ekeland import _strict_minimality_scan

    rng = np.random.default_rng(13)
    for _ in range(120):
        dim = int(rng.integers(1, 4))
        a, b, c = (float(v) for v in rng.uniform(0.1, 3.0, 3))
        terms = " + ".join(f"{a!r} * (x{i + 1} - {c!r})^2" for i in range(dim))
        f = ivf_from_expressions(terms, f"{b!r} + 2 * ({terms})", dim=dim)
        lows = rng.uniform(-2.0, 0.0, dim)
        box = Box(tuple((float(lo), float(lo + rng.uniform(0.5, 4.0))) for lo in lows))
        grid = SampleGrid(box, tuple(int(r) for r in rng.integers(2, 60 if dim < 3 else 15, dim)))
        x0 = grid.points()[int(rng.integers(grid.size))]
        if rng.random() < 0.5:
            x0 = x0 + rng.normal(0.0, 0.3, dim)
        delta = float(10 ** rng.uniform(-3, 2))
        tol = float(10 ** rng.uniform(-12, 0))
        assert_same_scan(
            _strict_minimality_scan(f, x0, f(x0), delta, grid, tol), full_grid_scan(f, x0, delta, grid, tol)
        )


def test_ties_on_the_ball_boundary_survive_rounding():
    # constant functions with tol = delta * (distance of a grid point), so the
    # ball passes through grid points that tie with x0 at exactly tol, up to
    # rounding; the window's padding keeps every one the full scan finds
    from ivfkit.ekeland import _strict_minimality_scan
    from ivfkit.ivf import _grid_distances

    rng = np.random.default_rng(14)
    for _ in range(1000):
        dim = int(rng.integers(1, 3))
        c1 = float(rng.choice([0.0, 1.0, -3.7, 1e3, 0.1]))
        c2 = c1 + float(rng.choice([0.0, 0.5, 2.0]))
        f = constant_ivf(c1, c2) if dim == 1 else IVF(
            2, lambda P, c=c1: np.full(len(P), c), lambda P, c=c2: np.full(len(P), c)
        )
        lows = rng.uniform(-3.0, 1.0, dim)
        box = Box(tuple((float(a), float(a + rng.uniform(0.1, 5.0))) for a in lows))
        grid = SampleGrid(box, tuple(int(r) for r in rng.integers(3, 40, dim)))
        x0 = grid.points()[int(rng.integers(grid.size))]
        if rng.random() < 0.5:
            x0 = x0 + rng.normal(0.0, 1e-3, dim)
        delta = float(10 ** rng.uniform(-2, 2))
        tol = delta * float(_grid_distances(grid, x0)[int(rng.integers(grid.size))])
        if rng.random() < 0.3:
            tol = float(np.nextafter(tol, rng.choice([-math.inf, math.inf])))
        if tol > 0:
            assert_same_scan(
                _strict_minimality_scan(f, x0, f(x0), delta, grid, tol),
                full_grid_scan(f, x0, delta, grid, tol),
            )


# -- refinement through the grid memo ------------------------------------------


@pytest.mark.parametrize("label", WINDOW_LABELS)
def test_refinement_matches_the_cone_argmin_reference(label):
    # the search reads each local grid's values of F from its memo and adds
    # the distances; the reference evaluates the cone as an IVF of its own
    f, box = _window_functions()[label]
    rng = np.random.default_rng(15)
    compared = 0
    for res in (21, 41):
        grid = SampleGrid(box, (res,) * f.dim)
        pts = grid.points()
        inf_f = infimum_over(f, grid)
        lo, hi = _grid_values(f, grid)
        finite = np.flatnonzero(np.isfinite(lo) & np.isfinite(hi))
        if not inf_f.is_finite:
            inp = EkelandInput(
                f=f, xbar=tuple(pts[finite[0]]), eps=1.0, delta=1.0, box=box, grid=grid
            )
            with pytest.raises(HypothesisViolated):
                evp_search(inp)
            return
        for _ in range(10):
            xbar = pts[int(rng.choice(finite))]
            if rng.random() < 0.5:
                xbar = box.clip(xbar + grid.spacing() * rng.uniform(-0.5, 0.5, f.dim))
            value_xbar = f(xbar)
            if not value_xbar.is_finite:
                continue
            eps = max(value_xbar.lo - inf_f.lo, value_xbar.hi - inf_f.hi, 0.0) + 0.5
            delta = float(10 ** rng.uniform(-1, 2))
            tol = float(rng.choice([1e-9, 1e-3]))
            inp = EkelandInput(
                f=f, xbar=tuple(xbar), eps=eps, delta=delta, box=box, grid=grid, tol=tol
            )
            try:
                x0 = stage1_witness(inp)
            except EmptyArgmin:
                with pytest.raises(EmptyArgmin):
                    evp_search(inp)
                continue
            want = cone_argmin_refinement(inp, x0)
            got = evp_search(inp).x0
            assert np.array(got).tobytes() == want.tobytes(), (res, tuple(xbar), delta, tol)
            compared += 1
    assert compared >= 6


def counted_bowl(calls):
    """A non-expression 2-D IVF whose fields append the size of each call."""

    def bowl(scale):
        def field(P):
            calls.append(len(P))
            return scale * ((P[:, 0] - 0.3) ** 2 + (P[:, 1] + 0.2) ** 2)

        return field

    return IVF(2, bowl(1.0), bowl(2.0), "counted bowl")


def test_sweep_evaluates_each_grid_once_and_few_single_points():
    from collections import Counter

    from ivfkit.ekeland import REFINEMENT_RESOLUTION, REFINEMENT_ROUNDS

    calls = []
    f = counted_bowl(calls)
    box = Box(((-1.0, 1.0), (-1.0, 1.0)))
    grid, fine = SampleGrid(box, (31, 31)), SampleGrid(box, (61, 61))
    local_size = REFINEMENT_RESOLUTION ** 2
    cells = 0
    for eps in (0.05, 0.2):
        for delta in (0.5, 2.0):
            inp = EkelandInput(f=f, xbar=(0.35, -0.15), eps=eps, delta=delta, box=box, grid=grid)
            cert = evp_search(inp)
            assert cert.valid and verify_certificate(f, cert, fine, delta, inp.tol)
            cells += 1
    sizes = Counter(calls)
    # each evaluation calls both fields once
    assert set(sizes) == {1, grid.size, fine.size, local_size}
    assert sizes[grid.size] == 2 and sizes[fine.size] == 2
    assert sizes[local_size] == 2 * cells * REFINEMENT_ROUNDS
    assert sizes[1] <= 2 * cells * 4


def descent(P):
    return -P[:, 0]


def dip_inside(P):
    # a dip on [0.9, 1] that the search grid misses, and a shelf past 1
    x = P[:, 0]
    return np.where((x >= 0.9) & (x <= 1.0), -2.0, np.where(x > 1.0, -1.0, 0.0))


@pytest.mark.parametrize(
    "field, grid_hi, xbar, delta, tol",
    [
        (descent, 1.0, 0.9, 0.5, 1e-9),  # the cone's minimum lies outside the domain
        (descent, 2.0, 0.9, 0.5, 1e-9),  # so does the stage-1 witness
        (descent, 1.0, 1.0, 1.5, 0.2),  # a witness outside the domain that is not taken
        (dip_inside, 2.0, 0.0, 0.1, 1e-9),  # a stage-1 witness outside, a witness inside
    ],
)
def test_refinement_candidate_outside_the_domain_raises(field, grid_hi, xbar, delta, tol):
    # the local grids reach past the right end of the domain of F
    f = IVF(1, field, field, "descent", domain=Box(((-1.0, 1.0),)))
    grid = SampleGrid(Box(((-2.0, grid_hi),)), (11,))
    inp = EkelandInput(
        f=f, xbar=(xbar,), eps=1.5, delta=delta, box=Box(((-2.0, 2.0),)), grid=grid, tol=tol
    )
    with pytest.raises(OutOfDomain) as want:
        cone_argmin_refinement(inp, stage1_witness(inp))
    with pytest.raises(OutOfDomain) as got:
        evp_search(inp)
    assert str(got.value) == str(want.value)
    assert f"outside the domain of 'descent+{delta:g}*dist'" in str(got.value)


def nan_gap_functions():
    """x^2, but NaN on (0.03, 0.05): off the search grid, on a local grid."""
    from ivfkit.catalog import ivf_from_expressions

    def field(P):
        x = P[:, 0]
        return np.where((x > 0.03) & (x < 0.05), np.nan, x * x)

    text = "piecewise(x1 > 0.03, piecewise(x1 < 0.05, inf - inf, x1^2), x1^2)"
    return [IVF(1, field, field, "nan-gap"), ivf_from_expressions(text, text, label="nan-gap")]


@pytest.mark.parametrize("route", ["points", "mesh"])
def test_nan_on_a_local_grid_names_the_same_point(route):
    f = nan_gap_functions()[route == "mesh"]
    grid = SampleGrid(BOX, (11,))
    inp = EkelandInput(f=f, xbar=(0.0,), eps=0.1, delta=1.0, box=BOX, grid=grid)
    with pytest.raises(InvalidEndpoints) as want:
        cone_argmin_refinement(inp, stage1_witness(inp))
    with pytest.raises(InvalidEndpoints) as got:
        evp_search(inp)
    # the reference names the cone 'nan-gap+1*dist'; the search names F itself
    assert str(want.value).startswith("'nan-gap+1*dist' produced NaN at ")
    assert str(got.value) == "'nan-gap' produced NaN at " + str(want.value).split(" at ")[1]

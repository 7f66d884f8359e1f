import json

import pytest

import reference
from ivfkit.cli import main, run_selftest


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys):
    code, out, _ = run_cli(args, capsys)
    return code, json.loads(out)


class TestEval:
    def test_catalog_function(self, capsys):
        code, report = run_json(["eval", "--fn", "paper-proper", "--at", "0,0"], capsys)
        assert code == 0
        assert report["verdict"]["value"] == {"lo": 0.0, "hi": 1.0}

    def test_expression_pair(self, capsys):
        code, report = run_json(
            ["eval", "--lower", "x1^2", "--upper", "2*x1^2", "--at", "1"], capsys
        )
        assert code == 0
        assert report["verdict"]["value"] == {"lo": 1.0, "hi": 2.0}

    def test_unknown_label(self, capsys):
        code, out, err = run_cli(["eval", "--fn", "nope", "--at", "0"], capsys)
        assert code == 1 and "no catalog function" in err

    def test_domain_error_is_reported(self, capsys):
        code, out, err = run_cli(
            ["derivative", "--fn", "paper-argmin", "--at", "0,0", "--dir", "1,0"],
            capsys,
        )
        assert code == 1
        assert json.loads(err)["error"] in ("NonConvergent", "InfiniteOperand")


class TestProbe:
    def test_paper_sin_probe(self, capsys):
        code, report = run_json(["probe", "--fn", "paper-lsc-sin", "--at", "0,0"], capsys)
        assert code == 0
        v = report["verdict"]
        assert v["lsc"] is True and v["usc"] is False
        assert v["liminf"] == {"lo": -2.0, "hi": -1.0}


class TestLevelset:
    def test_member_count_matches_reduction(self, capsys):
        code, report = run_json(
            [
                "levelset", "--fn", "paper-levelset", "--alpha", "[-1,10]",
                "--box", "-3:3,-3:3", "--res", "100,100",
            ],
            capsys,
        )
        assert code == 0
        assert report["verdict"]["bounded_evidence"] is True
        assert report["verdict"]["member_count"] > 0

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            [
                "levelset", "--fn", "quadratic", "--alpha", "[1,2]",
                "--box", "-2:2", "--res", "41", "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "x1"


class TestArgmin:
    def test_quadratic(self, capsys):
        code, report = run_json(
            ["argmin", "--fn", "quadratic", "--box", "-1:1", "--res", "401"], capsys
        )
        assert code == 0
        assert report["verdict"]["infimum"] == {"lo": 0.0, "hi": 0.0}
        assert report["verdict"]["argmin_count"] == 1


class TestDerivative:
    def test_quadratic_value(self, capsys):
        code, report = run_json(
            ["derivative", "--fn", "quadratic", "--at", "1", "--dir", "1"], capsys
        )
        assert code == 0
        v = report["verdict"]["value"]
        assert abs(v["lo"] - 2.0) <= 1e-4 and abs(v["hi"] - 4.0) <= 1e-4


class TestEvp:
    def test_sweep_exit_zero(self, capsys):
        code, report = run_json(
            [
                "evp", "--fn", "quadratic", "--xbar", "0.05",
                "--eps", "0.01,0.1", "--delta", "0.5,1",
                "--box", "-2:2", "--res", "2001",
            ],
            capsys,
        )
        assert code == 0
        assert report["verdict"] == {"all_ok": True, "cells": 4}

    def test_hypothesis_violation_surfaces(self, capsys):
        code, out, err = run_cli(
            [
                "evp", "--fn", "quadratic", "--xbar", "1.5",
                "--eps", "0.001", "--delta", "1",
                "--box", "-2:2", "--res", "201",
            ],
            capsys,
        )
        assert code == 1
        assert json.loads(err)["error"] == "HypothesisViolated"

    def test_sweep_evaluates_each_grid_once(self, capsys, monkeypatch):
        # a 2x2 sweep evaluates F once on the search grid and once on the
        # verify grid, on their open meshes; the allowance per cell covers
        # the three refinement grids of 21^dim points and the single-point
        # evaluations
        import numpy as np

        from ivfkit import expr
        from ivfkit.ivf import SampleGrid

        seen, materialized = [], []
        evaluate, points = expr.eval_expr, SampleGrid.points

        def counted(node, pts):
            # the points of an open mesh are the points of its broadcast
            seen.append(np.broadcast(*pts).size if type(pts) is tuple else len(pts))
            return evaluate(node, pts)

        def counted_points(grid):
            materialized.append(grid.resolution)
            return points(grid)

        monkeypatch.setattr(expr, "eval_expr", counted)
        monkeypatch.setattr(SampleGrid, "points", counted_points)
        res, verify_res, dim, cells = 61, 121, 2, 4
        code, report = run_json(
            [
                "evp", "--fn", "paper-levelset", "--xbar", "0.1,0.1",
                "--eps", "0.3,0.8", "--delta", "1.2,2", "--box", "-3:3,-3:3",
                "--res", f"{res},{res}", "--verify-res", f"{verify_res},{verify_res}",
            ],
            capsys,
        )
        assert code == 0 and report["verdict"] == {"all_ok": True, "cells": cells}
        allowance = cells * (3 * 21**dim + 50)
        assert res**dim + verify_res**dim <= sum(seen) <= res**dim + verify_res**dim + allowance
        # both big grids are evaluated on their meshes, never materialized
        assert (res, res) not in materialized and (verify_res, verify_res) not in materialized

    def test_sweep_peak_traced_memory(self, tmp_path):
        # a 2x2 sweep on 251^2 and 501^2 grids reduces both in slabs and
        # holds no full-grid value array: 0.7 MB traced at its peak, where
        # the 4 MB of endpoint values of the verify grid alone took 7 MB
        import tracemalloc

        argv = [
            "evp", "--fn=paper-lsc-sin", "--xbar=0.0,0.3", "--eps=0.3,0.8",
            "--delta=1.2,2", "--box=-1.0:1.0,-1.0:1.0", "--res=251,251",
            "--verify-res=501,501", f"--out={tmp_path / 'evp.json'}",
        ]
        assert main(argv) == 0  # compile caches and imports are set up once
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            [
                "evp", "--fn", "quadratic", "--xbar", "0.05",
                "--eps", "0.01", "--delta", "1",
                "--box", "-2:2", "--res", "2001", "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert "eps" in header and "uniqueness_violations" in header


# sweeps of 2-3 eps x 2-3 deltas with one delta repeated, over 1-D and 2-D
# catalog entries; the last three raise at a later cell
SWEEPS = [
    ["--fn=quadratic", "--xbar=0.05", "--eps=0.01,0.1,0.05", "--delta=0.5,1,0.5",
     "--box=-2:2", "--res=2001", "--verify-res=4001"],
    ["--fn=plateau", "--xbar=0.5", "--eps=0.1,0.3", "--delta=0.5,1,0.5", "--tol=0.01",
     "--box=-3:3", "--res=601", "--verify-res=1201"],
    ["--fn=constant", "--xbar=0", "--eps=0.5,1", "--delta=1,2,1", "--tol=1e-3",
     "--box=-1:1", "--res=201", "--verify-res=401"],
    ["--fn=abs-pair", "--xbar=0.1", "--eps=0.5,1,0.3", "--delta=3,0.5,3",
     "--box=-1:1", "--res=201", "--verify-res=401"],
    ["--fn=paper-levelset", "--xbar=0.1,0.1", "--eps=0.3,0.8,0.5", "--delta=1.2,2,1.2",
     "--box=-3:3,-3:3", "--res=61,61", "--verify-res=121,121"],
    ["--fn=paper-proper", "--xbar=-1.99,0", "--eps=0.5,1", "--delta=2.5,1.2,2.5",
     "--box=-2:2,-1:1", "--res=101,101", "--verify-res=201,201"],
    ["--fn=paper-lsc-sin", "--xbar=0,0.3", "--eps=0.3,0.8", "--delta=1.2,2,1.2",
     "--box=-1:1,-1:1", "--res=101,101", "--verify-res=201,201"],
    ["--fn=quadratic", "--xbar=0.05", "--eps=0.01,0.001", "--delta=0.5,1,0.5",
     "--box=-2:2", "--res=2001"],
    ["--fn=quadratic", "--xbar=0.5", "--eps=0.6,0.9", "--delta=2,0.5,2",
     "--box=-2:2", "--res=2001", "--verify-res=4001"],
    ["--lower=(x1-0.3)^2", "--upper=(x1-0.7)^2+2", "--xbar=0.5", "--eps=0.5,0.7",
     "--delta=3,0.3,3", "--box=-1:2", "--res=3001"],
]


class TestEvpSweepReuse:
    """Each delta of a sweep is searched and verified once; every cell and
    every error match the model's search and verification of each cell."""

    @pytest.mark.parametrize("form", [[], ["--gateaux"], ["--format=csv"]],
                             ids=["json", "gateaux", "csv"])
    @pytest.mark.parametrize("sweep", SWEEPS, ids=lambda argv: argv[0].split("=")[1])
    def test_sweep_matches_the_per_cell_reference(self, sweep, form, capsys, monkeypatch):
        from ivfkit import cli

        argv = ["evp", *sweep, *form]
        got = run_cli(argv, capsys)
        monkeypatch.setattr(cli, "_sweep_cell", reference.sweep_cell)
        want = run_cli(argv, capsys)
        assert got == want
        assert want[1] or want[2]  # a report or an error line, not nothing

    def test_sweep_searches_each_delta_once(self, capsys, monkeypatch):
        from ivfkit import ekeland, ivf

        local = (ekeland.REFINEMENT_RESOLUTION,) * 2
        reads = []
        window_eval = ivf._window_eval

        def counted(f, grid, window):
            if grid.resolution == local:
                reads.append(window)
            return window_eval(f, grid, window)

        monkeypatch.setattr(ivf, "_window_eval", counted)
        code, report = run_json(
            [
                "evp", "--fn=paper-levelset", "--xbar=0.1,0.1", "--eps=0.3,0.8,0.5",
                "--delta=1.2,2", "--box=-3:3,-3:3", "--res=61,61", "--verify-res=121,121",
            ],
            capsys,
        )
        assert code == 0 and report["verdict"] == {"all_ok": True, "cells": 6}
        # both deltas refine on the same local grids, read once
        assert len(reads) == ekeland.REFINEMENT_ROUNDS

    def test_hypothesis_fails_at_a_later_eps(self, capsys):
        code, out, err = run_cli(
            [
                "evp", "--fn", "quadratic", "--xbar", "0.05", "--eps", "0.01,0.001",
                "--delta", "0.5,1", "--box", "-2:2", "--res", "2001",
            ],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == (
            '{"error": "HypothesisViolated", "message": "F(xbar)=[0.0025000000000000005,'
            '0.005000000000000001] is not strictly within eps=0.001 of the sampled '
            'infimum [0.0,0.0]"}\n'
        )

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 7")
    def test_tie_evidence_stays_bounded_as_the_grid_refines(self, tmp_path):
        # every grid point ties with x0; today the report lists each one, so
        # it grows tenfold with the grid: 100,191 and 1,009,195 bytes
        sizes = []
        for res in (2001, 20001):
            out = tmp_path / f"evp-{res}.json"
            assert main([
                "evp", "--fn=constant", "--xbar=0", "--eps=0.5", "--delta=1e-9",
                "--tol=1e-3", "--box=-1:1", f"--res={res}", f"--out={out}",
            ]) == 0
            sizes.append(out.stat().st_size)
        assert abs(sizes[1] - sizes[0]) <= 2048


class _MeshCounter:
    """Counts, for every point of each watched grid, the ``eval_expr`` calls
    whose open mesh covers it; an (N, dim) array of points is not a mesh."""

    def __init__(self, monkeypatch, grids):
        import numpy as np

        from ivfkit import expr

        self.grids = grids
        self.counts = [np.zeros(g.resolution, dtype=int) for g in grids]
        evaluate = expr.eval_expr

        def counted(node, pts):
            if type(pts) is tuple:
                self._add([np.ravel(a) for a in pts])
            return evaluate(node, pts)

        monkeypatch.setattr(expr, "eval_expr", counted)

    def _add(self, axes):
        import numpy as np

        for grid, counts in zip(self.grids, self.counts):
            window = []
            for ax, a in zip(grid.axes(), axes):
                start = int(np.searchsorted(ax, a[0])) if len(a) else 0
                if len(a) == 0 or ax[start:start + len(a)].tobytes() != a.tobytes():
                    break
                window.append(slice(start, start + len(a)))
            else:
                counts[tuple(window)] += 1


class TestGridEvaluations:
    """No point of a grid of more than one slab is evaluated twice, except
    inside the windows that stage 1 and the strict-minimality scan read."""

    BOX = "-3:3,-3:3"

    def grid(self, res):
        from ivfkit.ivf import Box, SampleGrid

        return SampleGrid(Box(((-3.0, 3.0), (-3.0, 3.0))), (res, res))

    @pytest.mark.parametrize("argv", [
        ["argmin", "--fn=paper-levelset", f"--box={BOX}", "--res=131,131"],
        ["levelset", "--fn=paper-levelset", "--alpha=[-1,10]", f"--box={BOX}", "--res=131,131"],
    ])
    def test_grid_commands_evaluate_each_point_once(self, argv, capsys, monkeypatch):
        import ivfkit.ivf as ivf

        grid = self.grid(131)
        assert grid.size > ivf._SLAB_POINTS
        counter = _MeshCounter(monkeypatch, [grid])
        code, _ = run_json(argv, capsys)
        assert code == 0 and (counter.counts[0] == 1).all()

    def test_entry_check_evaluates_each_point_once(self, monkeypatch):
        import dataclasses

        from ivfkit.catalog import check_function_entry, get_function
        from ivfkit.ivf import ProbeParams

        entry = dataclasses.replace(get_function("paper-levelset"), min_grid_resolution=(131, 131))
        counter = _MeshCounter(monkeypatch, [self.grid(131)])
        records = check_function_entry(entry, ProbeParams())
        names = [r["check"].split("/")[-1] for r in records]
        assert {"proper", "infimum", "level-bounded", "argmin"} <= set(names)
        assert all(r["ok"] for r in records) and (counter.counts[0] == 1).all()

    def test_global_min_evaluates_each_point_once(self, monkeypatch):
        from ivfkit.catalog import get_function
        from ivfkit.ekeland import global_min

        grid = self.grid(131)
        counter = _MeshCounter(monkeypatch, [grid])
        inf, points = global_min(get_function("paper-levelset").ivf, grid, tol=1e-6)
        assert len(points) >= 1 and (counter.counts[0] == 1).all()

    def test_sweep_evaluates_points_outside_its_windows_once(self, capsys, monkeypatch):
        import numpy as np

        from ivfkit import ekeland

        grids = [self.grid(131), self.grid(181)]
        counter = _MeshCounter(monkeypatch, grids)
        windows = []
        grid_window = ekeland._grid_window

        def recorded(grid, center, radius):
            window = grid_window(grid, center, radius)
            windows.append((grid.resolution, window))
            return window

        monkeypatch.setattr(ekeland, "_grid_window", recorded)
        code, report = run_json(
            [
                "evp", "--fn=paper-levelset", "--xbar=0.1,0.1", "--eps=0.3,0.8",
                "--delta=1.2,2", f"--box={self.BOX}", "--res=131,131", "--verify-res=181,181",
            ],
            capsys,
        )
        assert code == 0 and report["verdict"] == {"all_ok": True, "cells": 4}
        for grid, counts in zip(grids, counter.counts):
            cover = np.zeros(grid.resolution, dtype=int)
            for res, window in windows:
                if res == grid.resolution:
                    cover[window] += 1
            assert cover.any() and (counts >= 1).all()
            assert (counts <= 1 + cover).all() and (counts[cover == 0] == 1).all()

    def test_nested_sweep_evaluates_each_verify_point_once(self, capsys, monkeypatch):
        # the search grid's axes are every other point of the verify grid's,
        # so one slab pass over the verify grid gives the minima of both:
        # the search grid is read in its windows only, never in full
        import numpy as np

        import ivfkit.ivf as ivf
        from ivfkit import ekeland

        search_grid, verify_grid = self.grid(131), self.grid(261)
        assert ivf._nested_strides(search_grid, verify_grid) == (2, 2)
        counter = _MeshCounter(monkeypatch, [search_grid, verify_grid])
        windows = []
        grid_window = ekeland._grid_window

        def recorded(grid, center, radius):
            window = grid_window(grid, center, radius)
            windows.append((grid.resolution, window))
            return window

        monkeypatch.setattr(ekeland, "_grid_window", recorded)
        code, report = run_json(
            [
                "evp", "--fn=paper-levelset", "--xbar=0.1,0.1", "--eps=0.3,0.8",
                "--delta=1.2,2", f"--box={self.BOX}", "--res=131,131", "--verify-res=261,261",
            ],
            capsys,
        )
        assert code == 0 and report["verdict"] == {"all_ok": True, "cells": 4}
        search_cover, verify_cover = (np.zeros(g.resolution, dtype=int) for g in counter.grids)
        for res, window in windows:
            if res == search_grid.resolution:
                search_cover[window] += 1
                # the mesh of a one-point window lies on the verify grid too
                if all(w.stop - w.start == 1 for w in window):
                    verify_cover[tuple(2 * w.start for w in window)] += 1
            else:
                verify_cover[window] += 1
        search, verify = counter.counts
        assert search_cover.any() and verify_cover.any()
        assert (search <= search_cover).all() and (search[search_cover == 0] == 0).all()
        assert (verify >= 1).all()
        assert (verify <= 1 + verify_cover).all() and (verify[verify_cover == 0] == 1).all()


# malformed command lines: exit 2 (usage) or 1 (domain), never a traceback
MALFORMED = [
    (["eval", "--fn", "quadratic", "--at=1,x"], 2),
    (["argmin", "--fn", "quadratic", "--box=1:-1", "--res", "11"], 2),
    (["probe", "--fn", "quadratic", "--at", "0", "--deltas", "0.1,0.2"], 2),
    (["derivative", "--fn", "quadratic", "--at", "0", "--dir", "1", "--ladder", "1"], 2),
    (["eval", "--fn", "quadratic", "--at", "0", "--config"], 2),
    (["eval", "--at", "0"], 2),
    (["evp", "--fn", "quadratic"], 2),
    (["nosuchcommand"], 2),
    (["--config", "/nonexistent/x.cfg", "eval", "--at", "0"], 2),
    # numeric options must be finite and positive
    (["argmin", "--fn", "quadratic", "--box=-1:1", "--res", "11", "--tol", "nan"], 2),
    (["probe", "--fn", "quadratic", "--at", "0", "--tol", "nan"], 2),
    (["probe", "--fn", "quadratic", "--at", "0", "--deltas", "0.5,nan"], 2),
    (["derivative", "--fn", "quadratic", "--at", "1", "--dir", "1", "--ladder", "0.1,nan"], 2),
    (["evp", "--fn=quadratic", "--xbar=0.05", "--eps=nan", "--delta=1", "--box=-2:2", "--res=101"], 2),
    (["evp", "--fn=quadratic", "--xbar=0.05", "--eps=0.1", "--delta=1", "--box=-2:2", "--res=101",
      "--tol=nan"], 2),
    (["evp", "--fn=quadratic", "--xbar=0.05", "--eps=0.1", "--delta=inf", "--box=-2:2", "--res=101"], 2),
    (["seq", "--label", "paper-seq-harmonic", "--eps", "nan"], 2),
    # points must be finite, and so must every grid coordinate
    (["probe", "--fn", "quadratic", "--at", "inf"], 2),
    (["eval", "--fn", "paper-proper", "--at", "0,nan"], 2),
    (["derivative", "--fn", "quadratic", "--at", "1", "--dir", "-inf"], 2),
    (["evp", "--fn=quadratic", "--xbar=nan", "--eps=0.1", "--delta=1", "--box=-2:2", "--res=101"], 2),
    (["argmin", "--fn", "quadratic", "--box=-1e308:1e308", "--res", "11"], 2),
    (["evp", "--fn=quadratic", "--xbar=0", "--eps=0.1", "--delta=1", "--box=-1e308:1e308",
      "--res=2", "--verify-res=11"], 2),
    # too few grid points is the grid's own error
    (["argmin", "--fn", "quadratic", "--box=-1:1", "--res", "0"], 1),
    (["argmin", "--fn", "quadratic", "--box=-1:1", "--res", "-3"], 1),
    (["eval", "--fn", "quadratic", "--at", "1,2"], 1),
    (["derivative", "--fn", "quadratic", "--at", "1", "--dir", "1,0"], 1),
    (["derivative", "--fn", "paper-levelset", "--at", "1,1", "--dir", "1,0,0"], 1),
    (["eval", "--fn", "no-such-label", "--at", "0"], 1),
    (["eval", "--lower", "x1 +", "--upper", "x1", "--at", "0"], 1),
    # expressions nested too deep to parse
    (["eval", "--lower", "(" * 200 + "x1" + ")" * 200, "--upper", "x1", "--at", "0"], 1),
    (["eval", "--lower", "sin(" * 164 + "x1" + ")" * 164, "--upper", "x1", "--at", "0"], 1),
    (["eval", "--lower", "+".join(["x1"] * 800), "--upper", "x1", "--at", "0"], 1),
]


def _argv_id(v):
    return " ".join(a if len(a) <= 40 else a[:20] + "..." for a in v) if isinstance(v, list) else str(v)


@pytest.mark.parametrize("argv, code", MALFORMED, ids=_argv_id)
def test_malformed_input_exits_with_one_line_of_json(argv, code):
    import os
    import subprocess
    import sys

    import ivfkit

    src = os.path.dirname(os.path.dirname(ivfkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "ivfkit.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert set(err) == {"error", "message"} and err["message"]
    assert (err["error"] == "UsageError") == (code == 2)


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main builds the parser on its first call and reuses it: a usage error
    # in between leaves it as it was, and reports stay byte-identical
    from ivfkit import cli

    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._shared_parser.cache_clear()
    try:
        argv = ["evp", "--fn", "quadratic", "--xbar", "0.05", "--eps", "0.01",
                "--delta", "1", "--box", "-2:2", "--res", "401", "--gateaux"]
        first = run_cli(argv, capsys)
        for bad, code in MALFORMED:
            if code != 2:
                continue
            got, out, err = run_cli(bad, capsys)
            assert got == 2 and out == "", bad
            assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "UsageError"
        assert run_cli(argv, capsys) == first and first[0] == 0
        assert built == [1]
    finally:
        cli._shared_parser.cache_clear()
    # build_parser stays public and gives a parser of its own
    assert "build_parser" in cli.__all__ and cli.build_parser() is not cli._shared_parser()


class TestSeq:
    def test_eps_option(self, capsys):
        code, report = run_json(["seq", "--label", "paper-seq-harmonic", "--eps", "0.01"], capsys)
        assert code == 0 and report["inputs"]["eps"] == 0.01

    def test_harmonic(self, capsys):
        code, report = run_json(["seq", "--label", "paper-seq-harmonic"], capsys)
        assert code == 0
        checks = {e["check"]: e for e in report["evidence"]}
        assert checks["convergence"]["kind"] == "converges"
        assert checks["limsup"]["value"]["hi"] == 1.0


class TestConfigFile:
    def test_defaults_from_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fn = quadratic\nat = 1\n")
        code, report = run_json(["--config", str(cfg), "eval"], capsys)
        assert code == 0
        assert report["verdict"]["value"] == {"lo": 1.0, "hi": 2.0}

    def test_cli_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fn = quadratic\nat = 1\n")
        code, report = run_json(["--config", str(cfg), "eval", "--at", "0"], capsys)
        assert code == 0
        assert report["verdict"]["value"] == {"lo": 0.0, "hi": 0.0}

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_switches_from_file(self, capsys, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"fn = quadratic\ngateaux = {value}\ntimestamp={value}\n")
        code, report = run_json(
            ["--config", str(cfg), "evp", "--xbar", "0.05", "--eps", "0.01",
             "--delta", "1", "--box", "-2:2", "--res", "401"],
            capsys,
        )
        assert code == 0
        assert (report["evidence"][0]["gateaux_bound"] is not None) == (value == "true")
        assert ("timestamp" in report) == (value == "true")

    @pytest.mark.parametrize("line", ["gateaux = yes", "timestamp=1", "gateaux="])
    def test_switch_needs_true_or_false(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"fn = quadratic\n{line}\n")
        code, out, err = run_cli(["--config", str(cfg), "eval", "--at", "0"], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "UsageError"

    def test_missing_config(self, capsys):
        code, _, _ = run_cli(["--config", "/nonexistent/x.cfg", "eval", "--at", "0"], capsys)
        assert code == 2


class TestSelftest:
    def test_passes(self):
        ok, records = run_selftest(seed=7)
        assert ok
        assert all(r["ok"] for r in records)
        assert len(records) > 100

    def test_covers_paper_examples(self):
        _, records = run_selftest(seed=7)
        names = {r["check"] for r in records}
        required = {
            "interval/gh-sub-shrinking-n2",
            "interval/inf-family-shrinking",
            "interval/sup-family-squeezed",
            "interval/finite-pair-bounds",
            "seq/paper-seq-harmonic/converges",
            "seq/paper-seq-alternating/liminf",
            "seq/paper-seq-alternating/limsup",
            "fn/paper-lsc-sin/semicontinuity",
            "fn/paper-lsc-sin/liminf",
            "fn/paper-endpoint-rational/endpoint-equivalence",
            "fn/paper-argmin/infimum",
            "fn/paper-proper/proper",
            "levelset/analytic-reduction",
            "lemma/distance-cone-region",
            "evp/quadratic-eps0.01-delta1",
        }
        missing = required - names
        assert not missing, missing

    def test_deterministic_reports(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["selftest", "--out", str(out1)]) == 0
        assert main(["selftest", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

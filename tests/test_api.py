"""Top-level package surface stays importable and wired together."""

import os
import subprocess
import sys

import ivfkit


def test_core_names_exported():
    a = ivfkit.Interval(0, 1)
    assert ivfkit.norm(ivfkit.gh_sub(a, a)) == 0.0
    assert ivfkit.classify(a, a) is ivfkit.OrderRelation.DOMINATES_EQUAL
    assert ivfkit.parse_interval(ivfkit.format_interval(a)) == a


def test_workflow_through_top_level():
    import numpy as np

    f = ivfkit.IVF(1, lambda P: P[:, 0] ** 2, lambda P: 2 * P[:, 0] ** 2, "q")
    grid = ivfkit.SampleGrid(ivfkit.Box(((-1.0, 1.0),)), (201,))
    inf, points = ivfkit.global_min(f, grid, tol=1e-9)
    assert inf == ivfkit.Interval(0, 0) and len(points) == 1
    d = ivfkit.gateaux_derivative(f, (1.0,), (1.0,))
    assert ivfkit.gh_dist(d.value, ivfkit.Interval(2, 4)) <= 1e-4
    assert ivfkit.get_function("quadratic").ivf.dim == 1
    assert len(ivfkit.catalog()) == 12


def test_version():
    assert ivfkit.__version__


def test_runs_without_scipy():
    # numpy is the only third-party runtime dependency
    code = (
        "import sys; sys.modules['scipy'] = None; import ivfkit.cli\n"
        "from ivfkit import continuity_report, get_function\n"
        "assert continuity_report(get_function('quadratic').ivf, (1.0,)).continuous"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ivfkit.__file__))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

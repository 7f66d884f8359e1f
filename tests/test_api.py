"""Top-level package surface stays importable and wired together."""

import ast
import os
import pathlib
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


def test_probes_and_derivatives_do_not_import_numpy_random():
    # the sampler draws its permutations from the standard library, so no
    # process that probes pays for importing numpy.random
    code = (
        "import sys; import ivfkit.cli\n"
        "from ivfkit import continuity_report, gateaux_derivative, get_function\n"
        "from ivfkit.cli import run_selftest\n"
        "assert run_selftest()[0]\n"
        "f = get_function('paper-levelset').ivf\n"
        "assert continuity_report(f, (0.3, 0.2)).continuous\n"
        "gateaux_derivative(f, (0.3, 0.2), (0.6, 0.8))\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ivfkit.__file__))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_guard_sees_a_dead_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom typing import Optional\n" \
             "def f(x: Optional[int]):\n    return sys.argv\n"
    assert unused_imports(source) == ["os (line 2)"]


def test_no_unused_imports_in_modules():
    # __init__.py is left out: its imports are the package's re-exports
    package = pathlib.Path(ivfkit.__file__).parent
    found = {
        path.name: unused
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for unused in [unused_imports(path.read_text(encoding="utf-8"))]
        if unused
    }
    assert found == {}


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (functions, classes, assignments) defined in
    ``sources``, a map from module name to source, that no name, attribute
    or import alias in any of them reads."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(name, module, node.lineno) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.alias):
                read.add(n.name)
    return sorted(f"{name} ({module}, line {line})" for name, module, line in defined
                  if name not in read)


def test_dead_private_names_guard_sees_a_dead_name():
    sources = {
        "a": "_LIMIT = 64\n_used = 1\ndef _helper():\n    return _used\n"
             "class _Kept: pass\ndef _dead(): pass\n",
        "b": "from a import _helper\nimport a\nprint(a._Kept, _helper())\n",
    }
    assert dead_private_names(sources) == ["_LIMIT (a, line 1)", "_dead (a, line 6)"]


def test_no_dead_private_names_in_modules():
    package = pathlib.Path(ivfkit.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert dead_private_names(sources) == []

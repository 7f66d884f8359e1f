"""The golden report corpus: command lines, their recorded outputs, and the
comparison that replays them.

``tests/golden/corpus.json`` holds, for each command line, the exit code,
stdout, stderr and warnings of ``ivfkit.cli.main`` run in process, together
with the numpy version and CPU features of the machine that recorded them.
``tests/test_golden.py`` runs every line again and compares.  On the
recording machine (same numpy, same CPU features) it compares bytes; on any
other it compares every non-float field exactly and floats to
``ULP_TOLERANCE`` units in the last place.

Regenerate, only when a change moves report bits on purpose::

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import platform
import struct
import sys
import warnings
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"
ULP_TOLERANCE = 4


# -- the command lines --------------------------------------------------------


def _text(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _box(box) -> str:
    return ",".join(f"{a!r}:{b!r}" for a, b in box.bounds)


def command_lines() -> list[list[str]]:
    """Every subcommand on every catalog entry, at its probe point or on a
    small box; the README's lines; sweeps in each output form; error lines."""
    from ivfkit.catalog import catalog, sequence_catalog

    lines = []
    for e in catalog():
        fn, at, box = f"--fn={e.label}", f"--at={_text(e.probe_point)}", f"--box={_box(e.box)}"
        res = "--res=" + ",".join(["41"] if e.ivf.dim == 1 else ["21", "21"])
        alpha = e.level_alphas[0]
        lines += [
            ["eval", fn, at],
            ["probe", fn, at],
            ["derivative", fn, at, "--dir=" + _text([1.0] + [0.0] * (e.ivf.dim - 1))],
            ["levelset", fn, f"--alpha=[{alpha.lo!r},{alpha.hi!r}]", box, res],
            ["argmin", fn, box, res],
            ["evp", fn, f"--xbar={_text(e.probe_point)}", "--eps=5", "--delta=1", box, res,
             "--verify-res=" + ",".join(["81"] * e.ivf.dim)],
        ]
    lines += [["seq", f"--label={s.label}"] for s in sequence_catalog()]
    lines += [
        # the README
        ["eval", "--fn", "paper-proper", "--at", "0,0"],
        ["probe", "--fn", "paper-lsc-sin", "--at", "0,0"],
        ["levelset", "--fn", "paper-levelset", "--alpha", "[-1,10]", "--box", "-3:3,-3:3",
         "--res", "100,100"],
        ["argmin", "--fn", "quadratic", "--box", "-1:1", "--res", "4001"],
        ["derivative", "--fn", "quadratic", "--at", "1", "--dir", "1"],
        ["evp", "--fn", "quadratic", "--xbar", "0.05", "--eps", "0.01", "--delta", "1",
         "--box", "-2:2", "--res", "4001", "--gateaux", "--verify-res", "40001"],
        ["evp", "--fn", "quadratic", "--xbar", "0.05", "--eps", "0.01,0.1", "--delta", "0.5,1",
         "--box", "-2:2", "--res", "4001", "--verify-res", "40001"],
        ["seq", "--label", "paper-seq-alternating"],
        ["selftest"],
        ["selftest", "--seed", "3"],
        # sweeps and point lists in each output form
        ["evp", "--fn=paper-levelset", "--xbar=0,0", "--eps=5,10", "--delta=1,2",
         "--box=-3:3,-3:3", "--res=41,41", "--verify-res=81,81"],
        ["evp", "--fn=paper-levelset", "--xbar=0,0", "--eps=5,10", "--delta=1,2",
         "--box=-3:3,-3:3", "--res=41,41", "--format=csv"],
        ["evp", "--fn=paper-proper", "--xbar=0.1,0.1", "--eps=5", "--delta=1,2",
         "--box=-2:2,-2:2", "--res=41,41", "--gateaux", "--format=csv"],
        ["evp", "--fn=abs-pair", "--xbar=0.2", "--eps=0.5,1", "--delta=1", "--box=-2:2",
         "--res=401", "--gateaux", "--verify-res=801"],
        ["levelset", "--fn=paper-argmin", "--alpha=[-1,1]", "--box=-2:2,-2:2", "--res=11,11",
         "--format=csv"],
        ["argmin", "--fn=abs-pair", "--box=-2:2", "--res=41", "--format=csv"],
        ["probe", "--lower=x1^2", "--upper=x1^2 + abs(x2)", "--at=0.5,0", "--deltas=0.1,0.01",
         "--samples=64", "--seed=3"],
        ["derivative", "--lower=x1*x2", "--upper=x1*x2 + 1", "--at=1,2", "--dir=0,1",
         "--ladder=0.1,0.01,0.001"],
        # error lines
        ["eval", "--fn", "quadratic", "--at=1,x"],
        ["argmin", "--fn", "quadratic", "--box=1:-1", "--res", "11"],
        ["probe", "--fn", "quadratic", "--at", "0", "--deltas", "0.1,0.2"],
        ["probe", "--fn", "quadratic", "--at", "0", "--tol", "nan"],
        ["evp", "--fn=quadratic", "--xbar=0.05", "--eps=nan", "--delta=1", "--box=-2:2",
         "--res=101"],
        ["eval", "--fn", "quadratic", "--at", "1,2"],
        ["eval", "--fn", "no-such-label", "--at", "0"],
        ["eval", "--lower", "x1 +", "--upper", "x1", "--at", "0"],
        ["eval", "--lower", "x1", "--upper", "x1 - 1", "--at", "0"],
        ["derivative", "--fn=paper-levelset", "--at=1,1", "--dir=0,1"],
        ["evp", "--fn=quadratic", "--xbar=1.5", "--eps=0.01", "--delta=1", "--box=-2:2",
         "--res=101"],
    ]
    return lines


# -- running one command line -------------------------------------------------


def run(argv: list[str]) -> dict:
    """Exit code, stdout, stderr and warning messages of one in-process run."""
    from ivfkit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(list(argv))
    return {
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }


def machine() -> dict:
    """What the bits of a report depend on besides the code."""
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_features__

    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
    }


# -- comparing ----------------------------------------------------------------


def _ordinal(x: float) -> int:
    """Position of ``x`` among the doubles, so that neighbours differ by 1."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def ulps(a: float, b: float) -> int:
    if math.isnan(a) and math.isnan(b):
        return 0
    if math.isnan(a) or math.isnan(b):
        return sys.maxsize
    return abs(_ordinal(a) - _ordinal(b))


def _parsed(stream: str, text: str):
    """A stream as a tree: JSON reports and error lines by their JSON, CSV
    by its rows of cells."""
    lines = text.splitlines()
    try:
        if stream == "stderr":
            return [json.loads(line) for line in lines]
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    return [[_cell(cell) for cell in row] for row in csv.reader(lines)]


def _cell(text: str):
    """A CSV cell as a float, a list of floats (a point ``a;b``) or its text."""
    try:
        return [float(v) for v in text.split(";")] if ";" in text else float(text)
    except ValueError:
        return text


def first_difference(want, got, path: str, ulp_tolerance: int = 0):
    """``(path, detail)`` of the first place where ``got`` differs from
    ``want``, walking in order; floats within ``ulp_tolerance`` agree.
    None when they agree everywhere."""
    if isinstance(want, float) and isinstance(got, float):
        d = ulps(want, got)
        if d > ulp_tolerance or (ulp_tolerance == 0 and repr(want) != repr(got)):
            return path, f"{want!r} != {got!r} ({d} ulp)"
        return None
    if type(want) is not type(got):
        return path, f"{want!r} != {got!r}"
    if isinstance(want, dict):
        for key in sorted(set(want) | set(got)):
            if key not in want or key not in got:
                return f"{path}.{key}", "missing" if key not in got else "unexpected"
            hit = first_difference(want[key], got[key], f"{path}.{key}", ulp_tolerance)
            if hit:
                return hit
        return None
    if isinstance(want, list):
        for i, (a, b) in enumerate(zip(want, got)):
            hit = first_difference(a, b, f"{path}[{i}]", ulp_tolerance)
            if hit:
                return hit
        if len(want) != len(got):
            return f"{path}[{min(len(want), len(got))}]", f"length {len(want)} != {len(got)}"
        return None
    return None if want == got else (path, f"{want!r} != {got!r}")


def compare(case: dict, got: dict, exact: bool):
    """The first mismatch of one replayed case as text, or None."""
    for stream in ("exit", "stdout", "stderr", "warnings"):
        want, have = case[stream], got[stream]
        if exact and want == have:
            continue
        if stream in ("stdout", "stderr"):
            want, have = _parsed(stream, want), _parsed(stream, have)
        hit = first_difference(want, have, stream, 0 if exact else ULP_TOLERANCE)
        if hit:
            return f"{' '.join(case['argv'])}: {hit[0]}: {hit[1]}"
        if exact:
            return f"{' '.join(case['argv'])}: {stream} differs in bytes only"
    return None


def write() -> None:
    cases = [{"argv": argv, **run(argv)} for argv in command_lines()]
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps({"machine": machine(), "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {CORPUS}")


if __name__ == "__main__":
    write()

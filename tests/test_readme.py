"""The README's examples, run as written.

Python blocks run in order in one namespace, as a reader would paste them.
An expression statement with a comment on its last line must show the
commented result: its repr (or str) with whitespace dropped, and for a
comment starting with ``~`` the same text with every number within 1e-3.
Commentary after ``  --`` or ``: `` is not part of the result.  Every
``ivfkit`` line of a bash block runs in process and must exit 0.
"""

import ast
import io
import math
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from ivfkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCK = re.compile(r"```(\w+)\n(.*?)```", re.S)
_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def _blocks(language):
    return [body for lang, body in _BLOCK.findall(README.read_text(encoding="utf-8"))
            if lang == language]


def _command_lines():
    out = []
    for body in _blocks("bash"):
        for line in body.replace("\\\n", " ").splitlines():
            if line.startswith("ivfkit "):
                out.append(shlex.split(line)[1:])
    return out


def _comments(source):
    """Comment text of each line of ``source`` that has one, by line number."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {t.start[0]: t.string[1:].strip() for t in tokens if t.type == tokenize.COMMENT}


def _shows(value, expected):
    approx = expected.startswith("~")
    want = re.sub(r"\s+", "", expected.lstrip("~"))
    for shown in (repr(value), str(value)):
        shown = re.sub(r"\s+", "", shown)
        if not approx and shown == want:
            return True
        if approx and _NUMBER.sub("#", shown) == _NUMBER.sub("#", want):
            pairs = zip(_NUMBER.findall(shown), _NUMBER.findall(want))
            if all(math.isclose(float(a), float(b), rel_tol=1e-3) for a, b in pairs):
                return True
    return False


def test_python_blocks_show_their_commented_results():
    namespace = {}
    checked = 0
    for body in _blocks("python"):
        comments = _comments(body)
        for node in ast.parse(body).body:
            code = ast.get_source_segment(body, node)
            comment = comments.get(node.end_lineno)
            if not (isinstance(node, ast.Expr) and comment):
                exec(compile(code, str(README), "exec"), namespace)
                continue
            expected = re.split(r"\s+--\s|:\s", comment, maxsplit=1)[0].strip()
            value = eval(compile(code, str(README), "eval"), namespace)
            assert _shows(value, expected), (code, expected, value)
            checked += 1
    assert checked >= 10


def _ids(lines):
    """Each line's subcommand, numbered from its second use on."""
    seen = {}
    out = []
    for argv in lines:
        seen[argv[0]] = seen.get(argv[0], 0) + 1
        out.append(argv[0] if seen[argv[0]] == 1 else f"{argv[0]}-{seen[argv[0]]}")
    return out


@pytest.mark.parametrize("argv", _command_lines(), ids=_ids(_command_lines()))
def test_command_lines_exit_zero(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err

"""Tiny expression language for scalar endpoint fields.

Supported nodes: numeric constants (including ``inf``), variables ``x1..xN``,
``+ - * / ^``, unary minus, ``abs``, ``sin``, ``cos``, ``exp``, ``min``,
``max``, and ``piecewise(guard, then, else)`` whose guard is a comparison of
two subexpressions.  The function set is frozen; there are no user plugins.

Evaluation is vectorized over an ``(N, dim)`` array of points.  Each tree is
compiled once into nested closures over numpy ufuncs: constants stay numpy
scalars (so ``x1^2`` squares instead of raising to an array of exponents), and
constant subtrees are folded at compile time.  Both branches of a piecewise
are evaluated everywhere, so they may produce non-finite intermediates that
the selected branch discards.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .errors import ParseError, UnknownIdentifier

__all__ = [
    "Num",
    "Var",
    "Unary",
    "Binary",
    "Compare",
    "Call",
    "Piecewise",
    "ExprAST",
    "parse_expr",
    "ast_to_text",
    "eval_expr",
    "max_var_index",
    "compile_field",
]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "ExprAST"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "ExprAST"
    right: "ExprAST"


@dataclass(frozen=True)
class Compare:
    op: str
    left: "ExprAST"
    right: "ExprAST"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["ExprAST", ...]


@dataclass(frozen=True)
class Piecewise:
    guard: Compare
    then: "ExprAST"
    other: "ExprAST"


ExprAST = Union[Num, Var, Unary, Binary, Compare, Call, Piecewise]

_FUNCTIONS = {"abs": 1, "sin": 1, "cos": 1, "exp": 1, "min": 2, "max": 2}
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<cmp>==|!=|<=|>=|<|>)"
    r"|(?P<op>[-+*/^(),]))"
)


@dataclass
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[at]!r}", at)
        if m.lastgroup is not None:
            out.append(_Token(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}", tok.pos, expected=(text,))
        return self.advance()

    def parse(self) -> ExprAST:
        node = self.arith()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def arith(self) -> ExprAST:
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            node = Binary(op, node, self.term())
        return node

    def term(self) -> ExprAST:
        node = self.factor()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            node = Binary(op, node, self.factor())
        return node

    def factor(self) -> ExprAST:
        if self.peek().text == "-":
            self.advance()
            return Unary("-", self.factor())
        return self.power()

    def power(self) -> ExprAST:
        base = self.atom()
        if self.peek().text == "^":
            self.advance()
            return Binary("^", base, self.factor())
        return base

    def atom(self) -> ExprAST:
        tok = self.peek()
        if tok.text == "(":
            self.advance()
            node = self.arith()
            self.expect(")")
            return node
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            self.advance()
            return self.named(tok)
        raise ParseError(
            f"expected a value, got {tok.text or 'end of input'!r}",
            tok.pos,
            expected=("number", "identifier", "("),
        )

    def named(self, tok: _Token) -> ExprAST:
        name = tok.text
        if name == "inf":
            return Num(float("inf"))
        if name == "piecewise":
            self.expect("(")
            guard = self.comparison()
            self.expect(",")
            then = self.arith()
            self.expect(",")
            other = self.arith()
            self.expect(")")
            return Piecewise(guard, then, other)
        if name in _FUNCTIONS:
            self.expect("(")
            args = [self.arith()]
            while self.peek().text == ",":
                self.advance()
                args.append(self.arith())
            self.expect(")")
            arity = _FUNCTIONS[name]
            if (arity == 1 and len(args) != 1) or (arity == 2 and len(args) < 2):
                raise ParseError(f"wrong number of arguments to {name}", tok.pos)
            return Call(name, tuple(args))
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            idx = int(m.group(1))
            if idx < 1:
                raise UnknownIdentifier(f"variable indices start at x1, got {name}")
            return Var(idx)
        raise UnknownIdentifier(f"unknown identifier {name!r} at offset {tok.pos}")

    def comparison(self) -> Compare:
        left = self.arith()
        tok = self.peek()
        if tok.kind != "cmp":
            raise ParseError(
                "piecewise guard needs a comparison", tok.pos,
                expected=("==", "!=", "<", "<=", ">", ">="),
            )
        self.advance()
        right = self.arith()
        return Compare(tok.text, left, right)


def parse_expr(text: str) -> ExprAST:
    """Parse expression text; raises :class:`ParseError` with the offset."""
    return _Parser(text).parse()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _render(node: ExprAST, context: int) -> str:
    if isinstance(node, Num):
        return "inf" if node.value == float("inf") else repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Unary):
        body = f"-{_render(node.operand, 4)}"
        return f"({body})" if context > 3 else body
    if isinstance(node, Binary):
        p = _PREC[node.op]
        if node.op == "^":
            body = f"{_render(node.left, p + 1)} ^ {_render(node.right, p)}"
        else:
            body = f"{_render(node.left, p)} {node.op} {_render(node.right, p + 1)}"
        return f"({body})" if context > p else body
    if isinstance(node, Compare):
        return f"{_render(node.left, 1)} {node.op} {_render(node.right, 1)}"
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(_render(a, 1) for a in node.args)})"
    if isinstance(node, Piecewise):
        parts = (_render(node.guard, 0), _render(node.then, 1), _render(node.other, 1))
        return f"piecewise({', '.join(parts)})"
    raise TypeError(f"not an expression node: {node!r}")


def ast_to_text(node: ExprAST) -> str:
    """Render to text that re-parses to a structurally equal tree."""
    return _render(node, 0)


def eval_expr(node: ExprAST, points: np.ndarray) -> np.ndarray:
    """Evaluate on an (N, dim) array of points, returning an (N,) array."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    code = _compile(node)
    with np.errstate(all="ignore"):
        if callable(code):
            return code(pts)
        return np.full(pts.shape[0], code)


_BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    # the operator, not np.power: an ndarray raised to a scalar 2 is squared
    "^": operator.pow,
}
_COMPARE = {
    "==": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}
_UNARY_CALLS = {"abs": np.abs, "sin": np.sin, "cos": np.cos, "exp": np.exp}


def _lift(op: Callable, *parts):
    """``op`` over compiled parts: folded to a constant now when every part is
    one, else a closure over the points."""
    if not any(callable(p) for p in parts):
        with np.errstate(all="ignore"):
            out = op(*parts)
        return out[()] if isinstance(out, np.ndarray) else out
    fns = [p if callable(p) else (lambda pts, c=p: c) for p in parts]
    return lambda pts: op(*[fn(pts) for fn in fns])


@lru_cache(maxsize=256)
def _compile(node: ExprAST):
    """A closure from an (N, dim) array to the node's (N,) values, or a numpy
    scalar when the node is constant."""
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        col = node.index - 1

        def var(pts: np.ndarray) -> np.ndarray:
            if col >= pts.shape[1]:
                raise UnknownIdentifier(
                    f"x{node.index} out of range for dimension {pts.shape[1]}"
                )
            return pts[:, col]

        return var
    if isinstance(node, Unary):
        return _lift(operator.neg, _compile(node.operand))
    if isinstance(node, Binary):
        return _lift(_BINARY[node.op], _compile(node.left), _compile(node.right))
    if isinstance(node, Compare):
        return _lift(_COMPARE[node.op], _compile(node.left), _compile(node.right))
    if isinstance(node, Call):
        args = [_compile(a) for a in node.args]
        if node.fn in _UNARY_CALLS:
            return _lift(_UNARY_CALLS[node.fn], args[0])
        fold = np.minimum if node.fn == "min" else np.maximum
        out = args[0]
        for a in args[1:]:
            out = _lift(fold, out, a)
        return out
    if isinstance(node, Piecewise):
        return _lift(
            np.where, _compile(node.guard), _compile(node.then), _compile(node.other)
        )
    raise TypeError(f"not an expression node: {node!r}")


def max_var_index(node: ExprAST) -> int:
    """Largest variable index referenced, 0 for constant expressions."""
    if isinstance(node, Var):
        return node.index
    if isinstance(node, Num):
        return 0
    if isinstance(node, Unary):
        return max_var_index(node.operand)
    if isinstance(node, (Binary, Compare)):
        return max(max_var_index(node.left), max_var_index(node.right))
    if isinstance(node, Call):
        return max(max_var_index(a) for a in node.args)
    if isinstance(node, Piecewise):
        return max(
            max_var_index(node.guard),
            max_var_index(node.then),
            max_var_index(node.other),
        )
    raise TypeError(f"not an expression node: {node!r}")


def compile_field(node: ExprAST):
    """Wrap an AST as a vectorized scalar field for interval-valued functions."""

    def fld(pts: np.ndarray) -> np.ndarray:
        return eval_expr(node, pts)

    return fld

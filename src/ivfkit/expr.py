"""Tiny expression language for scalar endpoint fields.

Supported nodes: numeric constants (including ``inf``), variables ``x1..xN``,
``+ - * / ^``, unary minus, ``abs``, ``sin``, ``cos``, ``exp``, ``min``,
``max``, and ``piecewise(guard, then, else)`` whose guard is a comparison of
two subexpressions.  The function set is frozen; there are no user plugins.

Evaluation is vectorized over an ``(N, dim)`` array of points, or over an
open mesh: a tuple of ``dim`` arrays that broadcast against each other, such
as ``np.ix_(*grid.axes())`` for a tensor-product grid.  On a mesh a variable
reads its array and every later step broadcasts, so each subtree is computed
on the product of the axes it depends on (``sin(1/x1)`` on the values of
``x1`` alone) and only the steps that mix variables run on every point.  A
value has the shape its variables' arrays broadcast to; a constant value
fills the whole mesh.

A tree, or a tuple of trees such as the two endpoints of a function, is
compiled once, and found again by the identity of each tree, into
straight-line code over numpy ufuncs in which each
distinct subtree is one step, so a subtree the endpoints share
(``exp(x2^2)``) is computed once per call.  Constants stay numpy scalars (so
``x1^2`` squares instead of raising to an array of exponents), constant
subtrees are folded at compile time, every step allocates its result, and an
intermediate is dropped after its last use.  The same code runs on points and
on a mesh; only the two steps that read the input tell them apart.  Every
value has the bits it has when each tree is evaluated on its own, on points
or on a mesh.  Both branches of a piecewise are evaluated everywhere, so they
may produce non-finite intermediates that the selected branch discards.
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
    "ExprField",
]


@dataclass(frozen=True)
class Num:
    """A constant.  Two are equal when their values have the same bits, so
    ``Num(0.0) != Num(-0.0)``: ``1/0`` and ``1/-0`` differ, and compiled code
    and shared subtrees, keyed on nodes, keep the sign of zero."""

    value: float

    def __eq__(self, other):
        if type(other) is not Num:
            return NotImplemented
        return float(self.value).hex() == float(other.value).hex()


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


# Deepest nesting ``parse_expr`` accepts, both of the parser (groups --
# parentheses, arguments, branches -- and unary minus or exponents open
# around a point of the text) and of the tree it builds; deeper text raises
# ParseError.  The parser recurses per level of the one, and every walk of
# a tree (compiling, hashing, rendering) per level of the other; under
# Python's default limit of 1000 frames the parser gave out at 164 nested
# calls, and a tree at 328 levels.
_MAX_DEPTH = 100


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
        self.nesting = 0  # groups, unary minus and exponents open
        self.depths: dict[int, int] = {}  # id of each inner node built -> its depth

    def enter(self, tok: _Token) -> None:
        """Open one more level of nesting at ``tok``; the caller closes it."""
        if self.nesting == _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels", tok.pos)
        self.nesting += 1

    def built(self, node: ExprAST, tok: _Token, *children: ExprAST) -> ExprAST:
        """``node``, made at ``tok`` from ``children``, once its depth is
        within ``_MAX_DEPTH``; a child not built here is a leaf."""
        depth = 1 + max(self.depths.get(id(c), 1) for c in children)
        if depth > _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels", tok.pos)
        self.depths[id(node)] = depth
        return node

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
        # every group -- the whole text, parentheses, arguments, branches --
        # starts here
        self.enter(self.peek())
        node = self.term()
        while self.peek().text in ("+", "-"):
            tok = self.advance()
            right = self.term()
            node = self.built(Binary(tok.text, node, right), tok, node, right)
        self.nesting -= 1
        return node

    def term(self) -> ExprAST:
        node = self.factor()
        while self.peek().text in ("*", "/"):
            tok = self.advance()
            right = self.factor()
            node = self.built(Binary(tok.text, node, right), tok, node, right)
        return node

    def factor(self) -> ExprAST:
        tok = self.peek()
        if tok.text == "-":
            self.advance()
            self.enter(tok)
            operand = self.factor()
            self.nesting -= 1
            return self.built(Unary("-", operand), tok, operand)
        return self.power()

    def power(self) -> ExprAST:
        base = self.atom()
        tok = self.peek()
        if tok.text == "^":
            self.advance()
            self.enter(tok)
            exponent = self.factor()
            self.nesting -= 1
            return self.built(Binary("^", base, exponent), tok, base, exponent)
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
            return self.built(Piecewise(guard, then, other), tok, guard, then, other)
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
            return self.built(Call(name, tuple(args)), tok, *args)
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
        return self.built(Compare(tok.text, left, right), tok, left, right)


def parse_expr(text: str) -> ExprAST:
    """Parse expression text; raises :class:`ParseError` with the offset,
    also for text nested deeper than 100 levels."""
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


def eval_expr(
    node: Union[ExprAST, tuple[ExprAST, ...]], points
) -> Union[np.ndarray, tuple[np.ndarray, ...]]:
    """Evaluate on an (N, dim) array of points, returning an (N,) array.

    ``points`` may also be an open mesh, a tuple of ``dim`` arrays that
    broadcast against each other.  A value then has the shape that the arrays
    of its variables broadcast to, and a constant the shape of the whole
    mesh; broadcast to the whole mesh, it holds the bits that evaluating on
    the mesh's points gives.

    ``node`` may also be a tuple of nodes: they are evaluated in one pass that
    computes each distinct subtree once, and a tuple of arrays returns.

    The compiled program is found by the identity of ``node``, or of each
    node of the tuple, so a call hashes no tree; a node seen for the first
    time goes through ``_compile``.
    """
    key = tuple(map(id, node)) if isinstance(node, tuple) else id(node)
    hit = _BY_IDENTITY.get(key)
    if hit is None:
        if len(_BY_IDENTITY) == _BY_IDENTITY_SIZE:
            del _BY_IDENTITY[next(iter(_BY_IDENTITY))]
        hit = _BY_IDENTITY[key] = (node, _compile(node))
    code = hit[1]
    if type(points) is tuple:
        points = tuple(np.asarray(a, dtype=float) for a in points)
    else:
        points = np.asarray(points, dtype=float)
        if points.ndim < 2:
            points = np.atleast_2d(points)
    with np.errstate(all="ignore"):
        if not isinstance(code, _Program):
            return _full(points, code)
        return code(points)


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


class _Ref(int):
    """A value computed per call: the points (-1) or the output of step k."""


_POINTS = _Ref(-1)


# The two steps that read the input, an (N, dim) array or an open mesh.
def _column(points, col: int) -> np.ndarray:
    mesh = type(points) is tuple
    dim = len(points) if mesh else points.shape[1]
    if col >= dim:
        raise UnknownIdentifier(f"x{col + 1} out of range for dimension {dim}")
    return points[col] if mesh else points[:, col]


def _full(points, value) -> np.ndarray:
    shape = np.broadcast(*points).shape if type(points) is tuple else points.shape[0]
    return np.full(shape, value)


def _fold(op: Callable, *parts):
    with np.errstate(all="ignore"):
        out = op(*parts)
    return out[()] if isinstance(out, np.ndarray) else out


def _ops(node: ExprAST) -> list[tuple[Callable, tuple]]:
    """The operations computing ``node`` from its children, in order; each
    after the first also takes the previous one's result (``min``/``max``
    of more than two arguments)."""
    if isinstance(node, Unary):
        return [(operator.neg, (node.operand,))]
    if isinstance(node, Binary):
        return [(_BINARY[node.op], (node.left, node.right))]
    if isinstance(node, Compare):
        return [(_COMPARE[node.op], (node.left, node.right))]
    if isinstance(node, Call) and node.fn in _UNARY_CALLS:
        return [(_UNARY_CALLS[node.fn], node.args)]
    if isinstance(node, Call):
        fold = np.minimum if node.fn == "min" else np.maximum
        return [(fold, node.args[:2])] + [(fold, (a,)) for a in node.args[2:]]
    if isinstance(node, Piecewise):
        return [(np.where, (node.guard, node.then, node.other))]
    raise TypeError(f"not an expression node: {node!r}")


def _emit(node: ExprAST, code: list, seen: dict):
    """The value of ``node``: a numpy scalar when it is constant, else the
    ``_Ref`` of the step computing it, appended to ``code`` as
    ``(op, parts)`` unless ``seen`` already holds an equal subtree."""
    hit = seen.get(node)
    if hit is not None:
        return hit
    if isinstance(node, Num):
        out = np.float64(node.value)
    elif isinstance(node, Var):
        code.append((_column, (_POINTS, node.index - 1)))
        out = _Ref(len(code) - 1)
    else:
        out = None
        for op, children in _ops(node):
            parts = ([] if out is None else [out]) + [_emit(c, code, seen) for c in children]
            if any(isinstance(p, _Ref) for p in parts):
                code.append((op, tuple(parts)))
                out = _Ref(len(code) - 1)
            else:
                out = _fold(op, *parts)
    seen[node] = out
    return out


def _bind(fn: Callable, args: tuple[int, ...]) -> Callable:
    """``fn`` of the values in slots ``args``, as a function of the slot list."""
    if len(args) == 1:
        (a,) = args
        return lambda s: fn(s[a])
    if len(args) == 2:
        a, b = args
        return lambda s: fn(s[a], s[b])
    a, b, c = args
    return lambda s: fn(s[a], s[b], s[c])


def _plan(code: list, values: list) -> tuple[list, list, tuple[int, ...]]:
    """Slots, steps and root slots of the code.

    Slot 0 holds the points or the open mesh, and each constant operand sits
    in a slot of its own.  A step ``(run, out, dead)`` stores ``run(slots)``
    in a new slot ``out``, then empties the ``dead`` slots, whose values it
    read last, so no intermediate outlives its last use.
    """
    last = {}
    for k, (_, parts) in enumerate(code):
        for p in parts:
            if isinstance(p, _Ref):
                last[p] = k
    for v in values:
        last[v] = len(code)
    slots: list = [None]
    at = {_POINTS: 0}
    steps = []
    for k, (op, parts) in enumerate(code):
        args = []
        for p in parts:
            if isinstance(p, _Ref):
                args.append(at[p])
            else:
                args.append(len(slots))
                slots.append(p)
        at[_Ref(k)] = out = len(slots)
        slots.append(None)
        dead = {at[p] for p in parts if isinstance(p, _Ref) and p >= 0 and last[p] == k}
        steps.append((_bind(op, tuple(args)), out, tuple(sorted(dead))))
    return slots, steps, tuple(at[v] for v in values)


class _Program:
    """Straight-line code computing the values of one or several roots from
    an (N, dim) array or an open mesh.  It returns a tuple of arrays when
    compiled from a tuple of nodes (``many``), else the one array.
    """

    __slots__ = ("slots", "steps", "roots", "many")

    def __init__(self, code: list, values: list, many: bool):
        self.slots, self.steps, self.roots = _plan(code, values)
        self.many = many

    def __call__(self, points):
        s = self.slots.copy()
        s[0] = points
        for run, out, dead in self.steps:
            s[out] = run(s)
            for i in dead:
                s[i] = None
        return tuple([s[i] for i in self.roots]) if self.many else s[self.roots[0]]


_BY_IDENTITY_SIZE = 256
# ``eval_expr``'s programs by the ids of their nodes, oldest first, at most
# _BY_IDENTITY_SIZE; each entry holds its nodes, so no id in a key can be
# reused by another object while the entry lives.
_BY_IDENTITY: dict = {}


@lru_cache(maxsize=_BY_IDENTITY_SIZE)
def _compile(node):
    """A numpy scalar when ``node`` is constant, else a ``_Program`` from an
    (N, dim) array, or an open mesh, to the node's values.  A tuple of nodes
    compiles into one program returning a tuple with a value per node,
    sharing equal subtrees.
    """
    roots = node if isinstance(node, tuple) else (node,)
    code: list = []
    seen: dict = {}
    values = [_emit(r, code, seen) for r in roots]
    if roots is not node and not isinstance(values[0], _Ref):
        return values[0]
    for i, v in enumerate(values):
        if not isinstance(v, _Ref):
            code.append((_full, (_POINTS, v)))
            values[i] = _Ref(len(code) - 1)
    return _Program(code, values, many=roots is node)


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


class ExprField:
    """An AST as a vectorized scalar field for interval-valued functions:
    calling it with an (N, dim) array or an open mesh is
    ``eval_expr(node, ...)``.  An ``IVF`` whose two endpoint fields are
    ``ExprField``s evaluates both trees in one pass, also on a grid's open
    mesh."""

    __slots__ = ("node",)

    def __init__(self, node: ExprAST):
        self.node = node

    def __call__(self, points):
        return eval_expr(self.node, points)

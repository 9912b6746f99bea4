"""A small arithmetic-expression language for user-defined formulas.

The grammar is a subset of Python expression syntax with ``^`` for powers,
enforced as a whitelist over Python's own expression parser (``ast``):
decimal numbers (``2``, ``.5``, ``1.``, ``1e-3``), names, ``+ - * / ^``,
unary ``+`` and ``-``, parentheses, and calls of a known function on one
argument.  ``^`` is right-associative and binds tighter than unary minus, so
``-x1^2`` is ``-(x1^2)``.  Anything else fails at parse, among it ``**``,
names that are Python keywords (``not``, ``lambda``, ``None``, ...),
comparisons, attributes, keyword arguments, and hexadecimal, underscored or
complex literals.  Nothing is evaluated or compiled by Python.  An
expression may nest at most ``MAX_DEPTH`` levels deep, so that evaluating,
differentiating and printing it stay well inside Python's recursion limit.

Known functions: ``log`` (natural), ``exp``, ``sin``, ``cos``, ``sqrt``,
``abs``, ``sign``.  Known constants: ``e``, ``pi``.  The unicode operator
glyphs ``×``, ``÷`` and ``−`` are accepted as aliases for ``*``, ``/``, ``-``.

Expressions evaluate vectorized over numpy arrays and support exact symbolic
differentiation (powers must have constant exponents to be differentiable).
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExpressionError

_FUNCTIONS = {
    "log": np.log,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sign": np.sign,
}

_CONSTANTS = {"e": math.e, "pi": math.pi}

# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float

    def ev(self, env):
        return self.value

    def diff(self, var):
        return Num(0.0)

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var:
    name: str

    def ev(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise ExpressionError(f"unknown variable {self.name!r}") from None

    def diff(self, var):
        return Num(1.0) if self.name == var else Num(0.0)

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object

    def ev(self, env):
        a, b = self.left.ev(env), self.right.ev(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        return np.power(a, b)

    def diff(self, var):
        u, v = self.left, self.right
        du, dv = u.diff(var), v.diff(var)
        if self.op in "+-":
            return _bin(self.op, du, dv)
        if self.op == "*":
            return _bin("+", _bin("*", du, v), _bin("*", u, dv))
        if self.op == "/":
            num = _bin("-", _bin("*", du, v), _bin("*", u, dv))
            return _bin("/", num, _bin("*", v, v))
        # power: constant exponent only
        if not isinstance(v, Num):
            raise ExpressionError("cannot differentiate a power with non-constant exponent")
        c = v.value
        return _bin("*", _bin("*", Num(c), _bin("^", u, Num(c - 1.0))), du)

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object

    def ev(self, env):
        return _FUNCTIONS[self.fn](self.arg.ev(env))

    def diff(self, var):
        u = self.arg
        du = u.diff(var)
        if self.fn == "log":
            outer = _bin("/", Num(1.0), u)
        elif self.fn == "exp":
            outer = self
        elif self.fn == "sin":
            outer = Call("cos", u)
        elif self.fn == "cos":
            outer = _bin("*", Num(-1.0), Call("sin", u))
        elif self.fn == "sqrt":
            outer = _bin("/", Num(0.5), self)
        elif self.fn == "abs":
            outer = Call("sign", u)
        else:
            raise ExpressionError(f"cannot differentiate {self.fn!r}")
        return _bin("*", outer, du)

    def __str__(self):
        return f"{self.fn}({self.arg})"


def _bin(op, left, right):
    """Build a BinOp with light constant folding to keep derivatives small."""
    if isinstance(left, Num) and isinstance(right, Num):
        return Num(BinOp(op, left, right).ev({}))
    if op == "*":
        if (isinstance(left, Num) and left.value == 0.0) or (
            isinstance(right, Num) and right.value == 0.0
        ):
            return Num(0.0)
        if isinstance(left, Num) and left.value == 1.0:
            return right
        if isinstance(right, Num) and right.value == 1.0:
            return left
    if op in "+-" and isinstance(right, Num) and right.value == 0.0:
        return left
    if op == "+" and isinstance(left, Num) and left.value == 0.0:
        return right
    if op == "^" and isinstance(right, Num):
        if right.value == 1.0:
            return left
        if right.value == 0.0:
            return Num(1.0)
    return BinOp(op, left, right)


MAX_DEPTH = 100  # most levels of nesting, counted on Python's parse tree

# the grammar's number literals; Python's parser also reads 0x1F, 1_0 and 1j
_NUMBER_RE = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?")
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def parse(text: str):
    """Parse ``text`` into an AST node; raise ExpressionError on bad input."""
    if not isinstance(text, str):
        raise ExpressionError(f"expected an expression string, got {type(text).__name__}")
    text = text.replace("×", "*").replace("÷", "/").replace("−", "-")
    text = " ".join(text.split())  # Python's parser rejects newlines and indents
    if not text:
        raise ExpressionError("empty expression")
    # "**" would pass as a power, and Python's tokenizer drops a comment and
    # a trailing comma in a call without leaving a node to reject
    for bad in ("**", "#", ","):
        if bad in text:
            raise ExpressionError(f"unexpected {bad!r}")
    text = text.replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError) as exc:  # older Pythons: ValueError on a null byte
        raise ExpressionError(f"invalid expression: {getattr(exc, 'msg', exc)}") from None
    except (RecursionError, MemoryError):  # Python's parser gives up on deep nesting
        raise ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels") from None
    _check_depth(tree.body)
    return _convert(tree.body, text.encode())


def _check_depth(node) -> None:
    """Raise ExpressionError if a path from ``node`` down Python's parse tree
    passes more than ``MAX_DEPTH`` expression nodes; walks without recursion."""
    stack = [(node, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels")
        stack.extend((child, depth + 1) for child in ast.iter_child_nodes(node)
                     if isinstance(child, ast.expr))


def _convert(node, source: bytes):
    """The expression node for ``node`` of Python's parse tree of the
    one-line UTF-8 ``source``, if it is in the grammar; raises
    ExpressionError otherwise."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _bin(_BINOPS[type(node.op)], _convert(node.left, source),
                    _convert(node.right, source))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        inner = _convert(node.operand, source)
        return inner if isinstance(node.op, ast.UAdd) else _bin("*", Num(-1.0), inner)
    # the node's slice of the one-line source is what ast.get_source_segment
    # returns, which costs more as it splits lines per call.  Python
    # NFKC-normalises identifiers ("ｘ1" parses as x1), so a name must be its
    # own source text, and a call must start with its function's name, which
    # also rules out "(sin)(x1)"
    src = source[node.col_offset:node.end_col_offset].decode()
    if isinstance(node, ast.Call):
        fn = node.func
        if (isinstance(fn, ast.Name) and fn.id in _FUNCTIONS and src.startswith(fn.id)
                and len(node.args) == 1 and not node.keywords):
            return Call(fn.id, _convert(node.args[0], source))
    elif isinstance(node, ast.Name) and src == node.id and node.id not in _FUNCTIONS:
        return Num(_CONSTANTS[node.id]) if node.id in _CONSTANTS else Var(node.id)
    elif isinstance(node, ast.Constant) and _NUMBER_RE.fullmatch(src):
        return Num(float(src))
    raise ExpressionError(f"unsupported expression {src!r}")


def evaluate(node, env) -> np.ndarray:
    """Evaluate an AST under a variable environment (numpy-vectorized)."""
    return node.ev(env)


def substitute(node, mapping):
    """Replace Var nodes by ASTs from ``mapping`` (used to expand e.g. r = |x|)."""
    if isinstance(node, Var) and node.name in mapping:
        return mapping[node.name]
    if isinstance(node, BinOp):
        return _bin(node.op, substitute(node.left, mapping), substitute(node.right, mapping))
    if isinstance(node, Call):
        return Call(node.fn, substitute(node.arg, mapping))
    return node


def free_variables(node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, BinOp):
        return free_variables(node.left) | free_variables(node.right)
    if isinstance(node, Call):
        return free_variables(node.arg)
    return set()

"""Closed expression language for coefficients, densities and Lyapunov candidates.

The grammar is fixed: decimal constants, coordinates ``x1 .. xd``, the binary
operators ``+ - * /``, powers with constant exponent (``^`` or ``**``), the
functions ``exp``, ``ln``, ``sqrt``, ``erf``, ``norm2(x)`` (squared Euclidean
norm of the full point), the piecewise primitives ``max`` / ``min``, and the
branch select ``selge(a, b, p, q)``, which writes an indicator such as
``selge(1, norm2(x), 1, 0)`` (the unit ball's).  There are no user-defined
functions, so symbolic differentiation is total on the smooth part of the
grammar.  Each node type is a frozen dataclass: its children are
its ``Expr``-valued fields, in order, and an operator's spelling is its
class's ``symbol`` (infix) or ``name`` (function call), so :func:`children`,
the parser and the printer all read the grammar off the node classes.

Differentiating through ``max``/``min`` requires the caller to pass
``piecewise=True`` and produces ``selge`` nodes (= ``p`` where ``a >= b``,
else ``q``).  At exact ties the first branch wins, matching the convention
that piecewise candidates like ``max(norm2(x), N0^2)`` are differentiated
from their max-branch.

Evaluation compiles expressions once into a :class:`Program`: one generated
Python function with one assignment per unique subexpression of a whole set
(hash-consed, so shared subterms of drifts and derivatives run once), in
topological order, each the numpy operation of its node type.  It takes the
coordinate columns of a point batch, or one point as Python floats, with the
same bits.  :func:`evaluate` compiles a one-off program for a single call.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np
import scipy.special

__all__ = [
    "ExprError",
    "ExprSyntaxError",
    "DomainError",
    "NonDifferentiableError",
    "Expr",
    "Const",
    "Coord",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Exp",
    "Ln",
    "Sqrt",
    "Erf",
    "Norm2",
    "Max",
    "Min",
    "SelGe",
    "parse_expr",
    "to_source",
    "differentiate",
    "gradient",
    "eval_expr",
    "evaluate",
    "Program",
    "columns",
    "batched",
    "coord",
    "add",
    "sub",
    "mul",
    "div",
    "powc",
]


class ExprError(Exception):
    """Base class for expression language errors."""


class ExprSyntaxError(ExprError):
    """Raised by the parser; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DomainError(ExprError):
    """Evaluation hit a point outside the domain of a subexpression."""

    def __init__(self, message: str, node: "Expr", point=None):
        super().__init__(message)
        self.node = node
        self.point = point


class NonDifferentiableError(ExprError):
    """A max/min node sits on the differentiation path and no piecewise flag was given."""


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True)
class Expr:
    """Base node; all concrete nodes are frozen dataclasses (safe to share)."""

    symbol = None
    name = None


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Coord(Expr):
    axis: int  # 0-based


@dataclass(frozen=True)
class _Binary(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class _Unary(Expr):
    arg: Expr


class Add(_Binary):
    symbol = "+"


class Sub(_Binary):
    symbol = "-"


class Mul(_Binary):
    symbol = "*"


class Div(_Binary):
    symbol = "/"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: float  # constant (rational) exponent


class Exp(_Unary):
    name = "exp"


class Ln(_Unary):
    name = "ln"


class Sqrt(_Unary):
    name = "sqrt"


class Erf(_Unary):
    name = "erf"


@dataclass(frozen=True)
class Norm2(Expr):
    """Squared Euclidean norm of the full coordinate vector."""


class Max(_Binary):
    name = "max"


class Min(_Binary):
    name = "min"


@dataclass(frozen=True)
class SelGe(Expr):
    """Branch select: ``then`` where ``a >= b``, else ``orelse``; what
    :func:`differentiate` makes of max/min nodes, and how to write an indicator."""

    name = "selge"
    a: Expr
    b: Expr
    then: Expr
    orelse: Expr


def children(e: Expr) -> tuple:
    """The node's ``Expr``-valued dataclass fields (``__match_args__``), in order."""
    return tuple(c for c in (getattr(e, f) for f in e.__match_args__) if isinstance(c, Expr))


def walk(e: Expr) -> Iterator[Expr]:
    yield e
    for c in children(e):
        yield from walk(c)


# ---------------------------------------------------------------------------
# smart constructors (light constant folding keeps derivatives readable)


def coord(axis: int) -> Coord:
    return Coord(axis)


def _is_const(e: Expr, v: Optional[float] = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def powc(base: Expr, exponent: float) -> Expr:
    if exponent == 1.0:
        return base
    if exponent == 0.0:
        return Const(1.0)
    if isinstance(base, Const):
        return Const(float(base.value) ** exponent)
    return Pow(base, float(exponent))


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<pow>\*\*|\^)
  | (?P<op>[-+*/(),])
  | (?P<ws>\s+)
""",
    re.VERBOSE,
)

_INFIX = {cls.symbol: cls for cls in (Add, Sub, Mul, Div)}
_FUNCTIONS = {cls.name: cls for cls in (Exp, Ln, Sqrt, Erf, Max, Min, SelGe)}


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(src: str) -> list:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            text = m.group()
            if kind == "pow":
                kind = "op"
                text = "^"
            tokens.append(_Token(kind, text, pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, tokens, dimension: int):
        self.tokens = tokens
        self.i = 0
        self.d = dimension

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {t.text!r}", t.offset)
        return t

    # expr := term (('+'|'-') term)*
    def expr(self) -> Expr:
        node = self.term()
        while self.peek().text in ("+", "-"):
            node = _INFIX[self.next().text](node, self.term())
        return node

    # term := unary (('*'|'/') unary)*
    def term(self) -> Expr:
        node = self.unary()
        while self.peek().text in ("*", "/"):
            node = _INFIX[self.next().text](node, self.unary())
        return node

    # unary := '-' unary | power
    def unary(self) -> Expr:
        if self.peek().text == "-":
            t = self.next()
            inner = self.unary()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Mul(Const(-1.0), inner)
        return self.power()

    # power := atom ('^' exponent)?
    def power(self) -> Expr:
        base = self.atom()
        if self.peek().text == "^":
            self.next()
            exponent = self.exponent()
            return Pow(base, exponent)
        return base

    def exponent(self) -> float:
        # constant exponent: number, signed number, or parenthesized p/q
        t = self.peek()
        neg = False
        if t.text == "-":
            self.next()
            neg = True
            t = self.peek()
        if t.kind == "num":
            self.next()
            val = float(t.text)
        elif t.text == "(":
            self.next()
            val = self._const_arith()
            self.expect(")")
        else:
            raise ExprSyntaxError("exponent must be a numeric constant", t.offset)
        return -val if neg else val

    def _const_arith(self) -> float:
        t = self.next()
        neg = False
        if t.text == "-":
            neg = True
            t = self.next()
        if t.kind != "num":
            raise ExprSyntaxError("exponent must be a numeric constant", t.offset)
        val = float(t.text)
        if self.peek().text == "/":
            self.next()
            den = self.next()
            if den.kind != "num":
                raise ExprSyntaxError("exponent must be a numeric constant", den.offset)
            if float(den.text) == 0.0:
                raise ExprSyntaxError("exponent divides by zero", den.offset)
            val = val / float(den.text)
        return -val if neg else val

    def atom(self) -> Expr:
        t = self.next()
        if t.kind == "num":
            return Const(float(t.text))
        if t.kind == "name":
            if t.text == "norm2":
                return self.norm2()
            if t.text in _FUNCTIONS:
                return self.call(t)
            m = re.fullmatch(r"x(\d+)", t.text)
            if m:
                idx = int(m.group(1))
                if idx < 1 or idx > self.d:
                    raise ExprSyntaxError(
                        f"coordinate {t.text} out of range for dimension {self.d}", t.offset
                    )
                return Coord(idx - 1)
            raise ExprSyntaxError(f"unknown function or symbol {t.text!r}", t.offset)
        if t.text == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprSyntaxError(f"unexpected token {t.text!r}", t.offset)

    def norm2(self) -> Expr:
        self.expect("(")
        t = self.next()
        if t.text != "x":
            raise ExprSyntaxError("norm2 takes the full point: norm2(x)", t.offset)
        self.expect(")")
        return Norm2()

    def call(self, tok: _Token) -> Expr:
        cls = _FUNCTIONS[tok.text]
        self.expect("(")
        args = [self.expr()]
        while self.peek().text == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        arity = len(cls.__match_args__)
        if len(args) != arity:
            raise ExprSyntaxError(f"{tok.text} takes {arity} argument(s), got {len(args)}", tok.offset)
        return cls(*args)


def parse_expr(src: str, dimension: int) -> Expr:
    """Parse ``src`` into an AST; coordinates must be ``x1 .. x<dimension>``.

    Raises :class:`ExprSyntaxError` with the byte offset on malformed input,
    out-of-range coordinates, or unknown function names.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    parser = _Parser(_tokenize(src), dimension)
    try:
        node = parser.expr()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", 0) from None
    tail = parser.peek()
    if tail.kind != "end":
        raise ExprSyntaxError(f"trailing input {tail.text!r}", tail.offset)
    return node


# ---------------------------------------------------------------------------
# printer


def _fmt_float(v: float) -> str:
    if v == math.inf:
        return "1e400"  # not expected; keep printable
    r = repr(float(v))
    return r


def to_source(e: Expr) -> str:
    """Canonical printer; ``parse_expr(to_source(t), d)`` reproduces ``t``."""
    if isinstance(e, Const):
        if math.copysign(1.0, e.value) < 0:  # -0.0 too: a bare "-0.0" parses as a negation
            return f"(-{_fmt_float(-e.value)})"
        return _fmt_float(e.value)
    if isinstance(e, Coord):
        return f"x{e.axis + 1}"
    if isinstance(e, Pow):
        base = to_source(e.base)
        if isinstance(e.base, Pow):
            base = f"({base})"
        if e.exponent < 0:
            return f"{base}^(-{_fmt_float(-e.exponent)})"
        return f"{base}^{_fmt_float(e.exponent)}"
    if isinstance(e, Norm2):
        return "norm2(x)"
    args = [to_source(c) for c in children(e)]
    if e.symbol is not None:
        return f"({f' {e.symbol} '.join(args)})"
    return f"{e.name}({', '.join(args)})"


# ---------------------------------------------------------------------------
# differentiation


def differentiate(e: Expr, axis: int, piecewise: bool = False) -> Expr:
    """Exact symbolic derivative along the 0-based ``axis``.

    max/min nodes on the differentiation path raise
    :class:`NonDifferentiableError` unless ``piecewise=True``, in which case
    branch derivatives are combined with a selector (ties take the first
    branch).
    """
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Coord):
        return Const(1.0 if e.axis == axis else 0.0)
    if isinstance(e, Add):
        return add(differentiate(e.left, axis, piecewise), differentiate(e.right, axis, piecewise))
    if isinstance(e, Sub):
        return sub(differentiate(e.left, axis, piecewise), differentiate(e.right, axis, piecewise))
    if isinstance(e, Mul):
        return add(
            mul(differentiate(e.left, axis, piecewise), e.right),
            mul(e.left, differentiate(e.right, axis, piecewise)),
        )
    if isinstance(e, Div):
        num = sub(
            mul(differentiate(e.left, axis, piecewise), e.right),
            mul(e.left, differentiate(e.right, axis, piecewise)),
        )
        return div(num, powc(e.right, 2.0))
    if isinstance(e, Pow):
        du = differentiate(e.base, axis, piecewise)
        return mul(mul(Const(e.exponent), powc(e.base, e.exponent - 1.0)), du)
    if isinstance(e, Exp):
        return mul(differentiate(e.arg, axis, piecewise), e)
    if isinstance(e, Ln):
        return div(differentiate(e.arg, axis, piecewise), e.arg)
    if isinstance(e, Sqrt):
        return div(differentiate(e.arg, axis, piecewise), mul(Const(2.0), e))
    if isinstance(e, Erf):
        gauss = Exp(mul(Const(-1.0), powc(e.arg, 2.0)))
        return mul(mul(Const(2.0 / math.sqrt(math.pi)), gauss), differentiate(e.arg, axis, piecewise))
    if isinstance(e, Norm2):
        return mul(Const(2.0), Coord(axis))
    if isinstance(e, Max):
        if not piecewise:
            raise NonDifferentiableError(
                "max node on differentiation path; pass piecewise=True to take branch derivatives"
            )
        da = differentiate(e.left, axis, piecewise)
        db = differentiate(e.right, axis, piecewise)
        if da == db:
            return da
        return SelGe(e.left, e.right, da, db)
    if isinstance(e, Min):
        if not piecewise:
            raise NonDifferentiableError(
                "min node on differentiation path; pass piecewise=True to take branch derivatives"
            )
        da = differentiate(e.left, axis, piecewise)
        db = differentiate(e.right, axis, piecewise)
        if da == db:
            return da
        # min selects the first branch at ties: value is `left` where right >= left
        return SelGe(e.right, e.left, da, db)
    if isinstance(e, SelGe):
        dthen = differentiate(e.then, axis, piecewise)
        dorelse = differentiate(e.orelse, axis, piecewise)
        if dthen == dorelse:
            return dthen
        return SelGe(e.a, e.b, dthen, dorelse)
    raise TypeError(f"unknown node {e!r}")


def gradient(e: Expr, dimension: int, piecewise: bool = False) -> list:
    return [differentiate(e, k, piecewise) for k in range(dimension)]


# ---------------------------------------------------------------------------
# evaluation: expressions compiled into CSE'd numpy programs


def batched(method):
    """Let a method written for ``(n, d)`` point batches also take one point ``(d,)``."""

    @functools.wraps(method)
    def wrapper(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            return method(self, pts[None, :])[0]
        return method(self, pts)

    return wrapper


# one source template per node type, over the names of its arguments; each
# calls the numpy (scipy) ufunc, never ``math`` or Python ``/``, so a Python
# float gives the bits of a one-element array: ``/`` raises on a zero divisor,
# and ``math.exp`` differs from ``np.exp`` in the last bit on some arguments
_TEMPLATES = {
    Add: "{} + {}",
    Sub: "{} - {}",
    Mul: "{} * {}",
    Div: "_np.divide({}, {})",
    Pow: "_np.power({}, {})",  # a negative base with a fractional exponent gives nan
    Exp: "_np.exp({})",
    Ln: "_np.log({})",
    Sqrt: "_np.sqrt({})",
    Erf: "_erf({})",
    Max: "_np.maximum({}, {})",
    Min: "_np.minimum({}, {})",
    SelGe: "_np.where({} >= {}, {}, {})",
}


@functools.lru_cache(maxsize=256)
def _compiled(source: str):
    """The code of a generated function: programs of one shape share it, and
    their constants differ only in the scope it runs in."""
    return compile(source, "<sdelab.expr.Program>", "exec")


class Program:
    """Expressions compiled once into one straight-line Python function.

    Structurally equal subexpressions are hash-consed into one node, and the
    unique nodes become one assignment each, in topological order, written
    from its node type's source template; a temporary is ``del``-ed after its
    last use, so a large batch holds no dead intermediates.  Constants are
    keyed by value *and* sign (``Const(0.0) == Const(-0.0)`` as dataclasses).
    The function is generated per dimension (``norm2`` reads it) on first use;
    it keeps no state between calls, so one program may serve several threads.

    :meth:`function` ``(d)`` is that function of ``(x1, .., xd)``: the
    coordinate columns ``(n,)`` of a point batch, or one point as Python
    floats; it returns one value per expression, with the same bits either
    way; a constant expression's value is a Python float either way.
    ``norm2`` is the in-order sum ``x1*x1 + ... + xd*xd`` in every d, so its
    bits do not depend on the host.  Calling the program evaluates under
    ``np.errstate(all="ignore")``: a single expression maps ``(n, d)`` points
    to ``(n,)``, a sequence of ``m`` expressions maps them to ``(n, m)``, and
    one point ``(d,)`` is taken as a batch of one.
    """

    def __init__(self, exprs: Union[Expr, Sequence[Expr]]):
        self._scalar = isinstance(exprs, Expr)
        self._consts: dict = {}  # name -> value
        self._code: list = []  # (name, node type, argument names) in topological order
        self._fns: dict = {}  # d -> generated function
        names: dict = {}  # structural key -> name

        def visit(e: Expr) -> str:
            if isinstance(e, Const):
                key = (Const, type(e.value), e.value, math.copysign(1.0, e.value))
            elif isinstance(e, Coord):
                return f"x{e.axis + 1}"
            elif isinstance(e, Pow):
                key = (Pow, visit(e.base), visit(Const(e.exponent)))
            else:
                key = (type(e), *(visit(c) for c in children(e)))
            if key not in names:
                name = names[key] = f"_{len(names)}"
                if isinstance(e, Const):
                    self._consts[name] = e.value
                else:
                    self._code.append((name, key[0], key[1:]))
            return names[key]

        self._outputs = tuple(visit(e) for e in ([exprs] if self._scalar else exprs))

    def function(self, d: int):
        fn = self._fns.get(d)
        if fn is None:
            fn = self._fns[d] = self._generate(d)
        return fn

    def _generate(self, d: int):
        last = {a: name for name, _, args in self._code for a in args}  # argument -> its last user
        temporaries = {name for name, _, _ in self._code} - set(self._outputs)
        coords = [f"x{k + 1}" for k in range(d)]
        lines = [f"def program({', '.join(coords)}):"]
        for name, kind, args in self._code:
            if kind is Norm2:  # in order: the same bits on floats, on columns and on every host
                src = " + ".join(f"{x} * {x}" for x in coords)
            else:
                src = _TEMPLATES[kind].format(*args)
            dead = [a for a in dict.fromkeys(args) if a in temporaries and last[a] == name]
            lines.append(f"    {name} = {src}" + (f"; del {', '.join(dead)}" if dead else ""))
        lines.append(f"    return ({''.join(o + ', ' for o in self._outputs)})")
        scope = {"_np": np, "_erf": scipy.special.erf, **self._consts}
        exec(_compiled("\n".join(lines)), scope)
        return scope["program"]

    @batched
    def __call__(self, pts: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            out = columns(self.function(pts.shape[1])(*pts.T), pts.shape[0])
        return out[:, 0] if self._scalar else out


def columns(values: Sequence, n: int) -> np.ndarray:
    """A program function's values at ``n`` points (columns, or Python floats
    where constant) as the columns of one ``(n, len(values))`` array."""
    out = np.empty((n, len(values)))
    for k, v in enumerate(values):
        out[:, k] = v
    return out


def evaluate(e: Expr, points: np.ndarray) -> np.ndarray:
    """Vectorized evaluation at ``points`` of shape ``(n, d)`` (or ``(d,)``).

    Out-of-domain points produce ``nan``/``inf`` entries (callers sample grids
    and must mask); use :func:`eval_expr` for strict scalar evaluation.
    Callers that evaluate the same expressions repeatedly hold a
    :class:`Program` instead.
    """
    return Program(e)(points)


def eval_expr(e: Expr, point) -> float:
    """Strict scalar evaluation; raises :class:`DomainError` with the offending node."""
    pt = np.asarray(point, dtype=float)
    if pt.ndim != 1:
        raise ValueError("eval_expr expects a single point")
    val = evaluate(e, pt)
    if not np.isfinite(val):
        bad = _locate_domain_failure(e, pt)
        raise DomainError(
            f"expression undefined at {pt.tolist()}: offending node {to_source(bad)}", bad, pt
        )
    return float(val)


def _locate_domain_failure(e: Expr, pt: np.ndarray) -> Expr:
    """Deepest node on a non-finite path: its children all evaluate finitely."""
    for c in children(e):
        if not np.isfinite(evaluate(c, pt)):
            return _locate_domain_failure(c, pt)
    return e


def fold_const(e: Expr) -> Expr:
    """``e``, or its value as a :class:`Const` when it mentions no coordinate."""
    for node in walk(e):
        if isinstance(node, (Coord, Norm2)):
            return e
    return Const(float(evaluate(e, np.zeros(1))))


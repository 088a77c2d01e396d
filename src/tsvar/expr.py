"""Closed expression language for Lagrangians in the variables t, y, v.

``t`` is the time slot, ``y`` the state slot and ``v`` the derivative slot
(either forward or backward difference quotient, depending on where the
expression is used).  The language is deliberately small so that partial
derivatives with respect to any of the three variables are exact:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' '-'? number)?
    base   := number | 't' | 'y' | 'v' | func '(' expr ')' | '(' expr ')' | '-' base
    func   := sin | cos | exp | ln | sqrt

Whitespace is insignificant; numbers are plain decimal literals; exponents
must be numeric constants and may be negative (``y^-0.5``, which ``to_text``
writes for the derivative of ``y^0.5``).  Precedence is the usual one (pow
binds tighter than unary minus, which binds tighter than '*'/'/', which bind
tighter than '+'/'-'); binary operators associate to the left.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Neg",
    "Call",
    "BinOp",
    "Pow",
    "Binding",
    "ExprSyntaxError",
    "DomainViolation",
    "parse",
    "evaluate",
    "eval_arrays",
    "differentiate",
    "to_text",
    "is_constant",
    "is_zero",
    "depends_on",
]

VARIABLES = ("t", "y", "v")
FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")


class ExprSyntaxError(ValueError):
    """Raised on malformed input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DomainViolation(ArithmeticError):
    """Raised when evaluation hits a point outside an operation's domain.

    ``offset`` is the source offset of the failing node and ``index`` the
    flat index of the first non-finite element of that node's value, or
    None when the value is a scalar."""

    def __init__(self, message: str, offset: int | None = None, index: int | None = None):
        where = "" if offset is None else f" (node at offset {offset})"
        super().__init__(message + where)
        self.reason = message
        self.offset = offset
        self.index = index


@dataclass(frozen=True)
class Expression:
    pass


@dataclass(frozen=True)
class Const(Expression):
    value: float
    span: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Var(Expression):
    name: str  # one of 't', 'y', 'v'
    span: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression
    span: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Call(Expression):
    fn: str  # one of FUNCTIONS
    arg: Expression
    span: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class BinOp(Expression):
    op: str  # '+', '-', '*', '/'
    left: Expression
    right: Expression
    span: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: float
    span: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Binding:
    """Point at which an expression is evaluated; all slots finite reals."""

    t: float
    y: float
    v: float

    def __post_init__(self):
        for name in ("t", "y", "v"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"binding slot {name!r} must be a finite real")


# ---------------------------------------------------------------------------
# Parsing


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?|\.\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(
                f"unexpected character {stripped[0]!r}", len(text) - len(stripped)
            )
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}", offset)
        return self.advance()

    def parse(self) -> Expression:
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {value!r}", offset)
        return e

    def expr(self) -> Expression:
        node = self.term()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.term(), span=offset)
            else:
                return node

    def term(self) -> Expression:
        node = self.factor()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinOp(value, node, self.factor(), span=offset)
            else:
                return node

    def factor(self) -> Expression:
        # '-' applies to the whole factor so that -t^2 == -(t^2).
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.factor(), span=offset)
        node = self.base()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            sign = 1.0
            if self.peek()[:2] == ("op", "-"):
                self.advance()
                sign = -1.0
            kind, value, num_offset = self.peek()
            if kind != "number":
                raise ExprSyntaxError("exponent must be a numeric constant", num_offset)
            self.advance()
            node = Pow(node, sign * float(value), span=offset)
        return node

    def base(self) -> Expression:
        kind, value, offset = self.advance()
        if kind == "number":
            return Const(float(value), span=offset)
        if kind == "ident":
            if value in VARIABLES:
                return Var(value, span=offset)
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg, span=offset)
            raise ExprSyntaxError(f"unknown identifier {value!r}", offset)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and value == "-":
            return Neg(self.base(), span=offset)
        raise ExprSyntaxError(f"unexpected token {value!r}" if value else "unexpected end of input", offset)


def parse(text: str) -> Expression:
    """Parse ``text`` into an expression tree."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation


def eval_arrays(e: Expression, t, y, v):
    """Evaluate ``e`` elementwise over numpy arrays (or scalars) t, y, v.

    Raises DomainViolation if any element hits a domain fault (division by
    zero, log of a non-positive number, square root of a negative number,
    fractional power of a negative base, overflow), naming the first node,
    in evaluation order, with a non-finite element and that element's index.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return {"t": t, "y": y, "v": v}[e.name]
    if isinstance(e, Neg):
        return -np.asarray(eval_arrays(e.arg, t, y, v))
    if isinstance(e, Call):
        arg = np.asarray(eval_arrays(e.arg, t, y, v), dtype=float)
        with np.errstate(all="ignore"):
            out = {
                "sin": np.sin,
                "cos": np.cos,
                "exp": np.exp,
                "ln": np.log,
                "sqrt": np.sqrt,
            }[e.fn](arg)
        _check_finite(out, e, e.fn)
        return out
    if isinstance(e, Pow):
        base = np.asarray(eval_arrays(e.base, t, y, v), dtype=float)
        with np.errstate(all="ignore"):
            out = np.power(base, e.exponent)
        _check_finite(out, e, "pow")
        return out
    if isinstance(e, BinOp):
        left = np.asarray(eval_arrays(e.left, t, y, v), dtype=float)
        right = np.asarray(eval_arrays(e.right, t, y, v), dtype=float)
        with np.errstate(all="ignore"):
            if e.op == "+":
                out = left + right
            elif e.op == "-":
                out = left - right
            elif e.op == "*":
                out = left * right
            else:
                out = left / right
        _check_finite(out, e, e.op)
        return out
    raise TypeError(f"not an expression node: {e!r}")


def _check_finite(out, node, opname):
    finite = np.isfinite(out)
    if not finite.all():
        index = None if finite.ndim == 0 else int(np.argmin(finite.ravel()))
        raise DomainViolation(f"domain violation in {opname!r}", node.span, index)


def evaluate(e: Expression, b: Binding) -> float:
    """Evaluate ``e`` at a single binding."""
    return float(eval_arrays(e, b.t, b.y, b.v))


# ---------------------------------------------------------------------------
# Folding constructors (used by differentiate; parse keeps trees verbatim)


def _const_of(e: Expression) -> float | None:
    return e.value if isinstance(e, Const) else None


def _fold_const(value: float) -> Expression | None:
    return Const(float(value)) if np.isfinite(value) else None


def _add(a: Expression, b: Expression) -> Expression:
    ca, cb = _const_of(a), _const_of(b)
    if ca is not None and cb is not None:
        folded = _fold_const(ca + cb)
        if folded is not None:
            return folded
    if ca == 0.0:
        return b
    if cb == 0.0:
        return a
    return BinOp("+", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    ca, cb = _const_of(a), _const_of(b)
    if ca is not None and cb is not None:
        folded = _fold_const(ca - cb)
        if folded is not None:
            return folded
    if cb == 0.0:
        return a
    if ca == 0.0:
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a: Expression, b: Expression) -> Expression:
    ca, cb = _const_of(a), _const_of(b)
    if ca is not None and cb is not None:
        folded = _fold_const(ca * cb)
        if folded is not None:
            return folded
    if ca == 0.0 or cb == 0.0:
        return Const(0.0)
    if ca == 1.0:
        return b
    if cb == 1.0:
        return a
    return BinOp("*", a, b)


def _div(a: Expression, b: Expression) -> Expression:
    ca, cb = _const_of(a), _const_of(b)
    if ca is not None and cb is not None and cb != 0.0:
        folded = _fold_const(ca / cb)
        if folded is not None:
            return folded
    if ca == 0.0:
        return Const(0.0)
    if cb == 1.0:
        return a
    return BinOp("/", a, b)


def _neg(a: Expression) -> Expression:
    ca = _const_of(a)
    if ca is not None:
        return Const(-ca)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _pow(base: Expression, exponent: float) -> Expression:
    if exponent == 0.0:
        return Const(1.0)
    if exponent == 1.0:
        return base
    cb = _const_of(base)
    if cb is not None:
        with np.errstate(all="ignore"):
            folded = _fold_const(cb**exponent)
        if folded is not None:
            return folded
    return Pow(base, exponent)


# ---------------------------------------------------------------------------
# Differentiation


def differentiate(e: Expression, var: str) -> Expression:
    """Exact partial derivative of ``e`` with respect to ``var``, folded."""
    if var not in VARIABLES:
        raise ValueError(f"unknown variable {var!r}; expected one of {VARIABLES}")
    return _diff(e, var)


def _diff(e: Expression, var: str) -> Expression:
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return _neg(_diff(e.arg, var))
    if isinstance(e, BinOp):
        da, db = _diff(e.left, var), _diff(e.right, var)
        if e.op == "+":
            return _add(da, db)
        if e.op == "-":
            return _sub(da, db)
        if e.op == "*":
            return _add(_mul(da, e.right), _mul(e.left, db))
        # quotient rule: (u/w)' = (u'w - u w') / w^2
        return _div(_sub(_mul(da, e.right), _mul(e.left, db)), _pow(e.right, 2.0))
    if isinstance(e, Pow):
        du = _diff(e.base, var)
        return _mul(_mul(Const(e.exponent), _pow(e.base, e.exponent - 1.0)), du)
    if isinstance(e, Call):
        du = _diff(e.arg, var)
        if e.fn == "sin":
            outer = Call("cos", e.arg)
        elif e.fn == "cos":
            outer = _neg(Call("sin", e.arg))
        elif e.fn == "exp":
            outer = Call("exp", e.arg)
        elif e.fn == "ln":
            return _div(du, e.arg)
        else:  # sqrt
            return _div(du, _mul(Const(2.0), Call("sqrt", e.arg)))
        return _mul(outer, du)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Queries and printing


def depends_on(e: Expression, var: str) -> bool:
    if isinstance(e, Var):
        return e.name == var
    if isinstance(e, Const):
        return False
    if isinstance(e, (Neg, Call)):
        return depends_on(e.arg, var)
    if isinstance(e, Pow):
        return depends_on(e.base, var)
    return depends_on(e.left, var) or depends_on(e.right, var)


def is_constant(e: Expression) -> bool:
    """True if ``e`` contains none of t, y, v."""
    return not any(depends_on(e, name) for name in VARIABLES)


def is_zero(e: Expression) -> bool:
    return isinstance(e, Const) and e.value == 0.0


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _format_number(x: float) -> str:
    # keep positional notation: the grammar has no exponent syntax
    if x == int(x) and abs(x) < 1e16:
        return repr(int(x))
    return np.format_float_positional(x, unique=True, trim="0")


def to_text(e: Expression) -> str:
    """Render ``e`` as a string that re-parses to an equivalent tree."""
    text, _ = _render(e)
    return text


def _render(e: Expression) -> tuple[str, int]:
    if isinstance(e, Const):
        if e.value < 0:
            return f"-{_format_number(-e.value)}", _PREC_NEG
        return _format_number(e.value), _PREC_ATOM
    if isinstance(e, Var):
        return e.name, _PREC_ATOM
    if isinstance(e, Call):
        inner, _ = _render(e.arg)
        return f"{e.fn}({inner})", _PREC_ATOM
    if isinstance(e, Neg):
        inner, prec = _render(e.arg)
        if prec < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}", _PREC_NEG
    if isinstance(e, Pow):
        inner, prec = _render(e.base)
        if prec < _PREC_ATOM:
            inner = f"({inner})"
        return f"{inner}^{_format_number(e.exponent)}", _PREC_POW
    if isinstance(e, BinOp):
        left, lp = _render(e.left)
        right, rp = _render(e.right)
        if e.op in "+-":
            mine = _PREC_ADD
            if lp < mine:
                left = f"({left})"
            if rp <= mine:  # left-associative: parenthesize right at equal precedence
                right = f"({right})"
        else:
            mine = _PREC_MUL
            if lp < mine:
                left = f"({left})"
            if rp <= mine:
                right = f"({right})"
        return f"{left} {e.op} {right}", mine
    raise TypeError(f"not an expression node: {e!r}")

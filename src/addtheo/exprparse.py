"""Recursive-descent parser for rational expressions over declared symbols.

Accepts rational literals (`3`, `1/2`), the declared variable names, the
operators `+ - * / ^` and parentheses; `^` takes a non-negative integer
exponent.  The result is an exact fraction of two polynomials.  Positions are
tracked for error messages.  A power past the largest total degree a monomial
field holds or past 2^16-bit coefficients is an error before it is computed,
as is a product, quotient, sum or difference whose cross products would pass
that degree, and a literal longer than int() reads (4300 digits).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ExprSyntaxError
from .poly import FIELD_BITS, MPoly

Q = Fraction

_OPS = set("+-*/^()")
_DIGITS = set("0123456789")
# nested parentheses and signs; each level takes five Python frames, so this
# stays far below the interpreter's recursion limit
_MAX_DEPTH = 100
_MAX_DEGREE = (1 << FIELD_BITS) - 1
_MAX_BITS = 1 << 16
_MAX_DIGITS = 4300


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text, line=1, column=1):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, line, column))
            i += 1
            column += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            if j - i > _MAX_DIGITS:
                raise ExprSyntaxError(f"literal longer than {_MAX_DIGITS} digits", line, column)
            tokens.append(_Token("int", int(text[i:j]), line, column))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, column))
            column += j - i
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("end", None, line, column))
    return tokens


def _times(a, b):
    """a*b, skipping a factor that is the constant one, as most denominators
    of a parse are."""
    if a.is_one():
        return b
    return a if b.is_one() else a * b


class _Frac:
    """Fraction of two MPoly values (no cancellation during parsing)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __add__(self, other):
        num = _times(self.num, other.den) + _times(other.num, self.den)
        return _Frac(num, _times(self.den, other.den))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        return _Frac(_times(self.num, other.num), _times(self.den, other.den))

    def __neg__(self):
        return _Frac(-self.num, self.den)

    def powi(self, k):
        return _Frac(self.num**k, self.den**k)


def _check_products(op, *pairs):
    """Raise at the operator before a product of the pairs passes the largest
    total degree a monomial field holds; a product with a constant cannot."""
    pairs = [(a, b) for a, b in pairs if not (a.is_constant() or b.is_constant())]
    if any(a.total_degree() + b.total_degree() > _MAX_DEGREE for a, b in pairs):
        raise ExprSyntaxError(
            f"operands of {op.kind!r} too large: past total degree {_MAX_DEGREE}",
            op.line, op.column,
        )


def _shown(tok, what="") -> str:
    return "end of input" if tok.kind == "end" else f"{what}{tok.value!r}"


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.variables = tuple(variables)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {_shown(tok)}", tok.line, tok.column
            )
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(
                f"unexpected trailing input {tok.value!r}", tok.line, tok.column
            )
        return value

    def expr(self):
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            _check_products(op, (value.num, rhs.den), (rhs.num, value.den), (value.den, rhs.den))
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.unary()
            if op.kind == "*":
                _check_products(op, (value.num, rhs.num), (value.den, rhs.den))
                value = value * rhs
            else:
                if rhs.num.is_zero():
                    raise ExprSyntaxError("division by zero", op.line, op.column)
                _check_products(op, (value.num, rhs.den), (value.den, rhs.num))
                value = value * _Frac(rhs.den, rhs.num)
        return value

    def unary(self):
        tok = self.peek()
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {_MAX_DEPTH} levels", tok.line, tok.column
            )
        if tok.kind in ("-", "+"):
            self.advance()
            value = self.unary()
            value = -value if tok.kind == "-" else value
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.advance()
            if tok.kind != "int":
                raise ExprSyntaxError(
                    "exponent must be a non-negative integer", tok.line, tok.column
                )
            k = tok.value
            for poly in (p for p in (base.num, base.den) if k > 1 and not p.is_one()):
                den = poly.content().denominator  # the common denominator; 1 for 0
                # the integers of poly^k stay below (terms * largest integer)^k
                size = max(len(poly), 1) * max(den, int(poly.max_norm() * den))
                if k * poly.total_degree() > _MAX_DEGREE or k * math.log2(size) >= _MAX_BITS:
                    raise ExprSyntaxError(
                        f"power too large: past total degree {_MAX_DEGREE} "
                        f"or {_MAX_BITS}-bit coefficients", tok.line, tok.column,
                    )
            return base.powi(k)
        return base

    def atom(self):
        tok = self.advance()
        if tok.kind == "int":
            return _Frac(
                MPoly.const(self.variables, tok.value),
                MPoly.const(self.variables, 1),
            )
        if tok.kind == "name":
            if tok.value not in self.variables:
                allowed = ", ".join(self.variables)
                raise ExprSyntaxError(
                    f"unknown symbol {tok.value!r} (allowed: {allowed})",
                    tok.line,
                    tok.column,
                )
            return _Frac(
                MPoly.var(self.variables, tok.value),
                MPoly.const(self.variables, 1),
            )
        if tok.kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise ExprSyntaxError(f"unexpected {_shown(tok, 'token ')}", tok.line, tok.column)


def parse_fraction(text, variables, line=1, column=1):
    """Parse an expression into an exact (numerator, denominator) pair."""
    tokens = _tokenize(text, line, column)
    parser = _Parser(tokens, variables)
    value = parser.parse()
    return value.num, value.den


def parse_polynomial(text, variables, line=1, column=1) -> MPoly:
    """Parse an expression that must reduce to a polynomial."""
    num, den = parse_fraction(text, variables, line, column)
    if not den.is_constant():
        raise ExprSyntaxError("expected a polynomial, found a denominator", line, column)
    return num * (1 / den.constant_value())

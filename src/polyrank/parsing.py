"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace between tokens is ignored)::

    expr    := ["+" | "-"] term { ("+" | "-") term }
    term    := factor { "*" factor }
    factor  := "-" factor | base
    base    := atom [ "^" natural ]
    atom    := rational | variable | "(" expr ")"
    rational:= natural [ "/" natural ]
    natural matches [0-9]+
    variable matches [A-Za-z][A-Za-z0-9]*

There is no general division operator: ``/`` only joins two integer
literals into a rational literal, and ``^`` only accepts a nonnegative
integer literal.  Implicit multiplication is a syntax error.  The
canonical printer (``str(Polynomial)``) emits text this grammar accepts,
so parse -> print -> parse is the identity, for literals of any length.
"""

from __future__ import annotations

import string
from fractions import Fraction
from operator import add

from .poly import Exponents, Polynomial, Scalar, VarSet, _as_scalar, _from_decimal


class ParseError(ValueError):
    """Syntax or name error in a polynomial expression, with its position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_OPERATORS = set("+-*^()/")
_DIGITS = set(string.digits)
_LETTERS = set(string.ascii_letters)
_NAME_CHARS = _LETTERS | _DIGITS


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch in _LETTERS:
            j = i
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Builds monomials directly: products and powers of single terms add
    and scale exponent vectors, and each sum collects its terms in one
    dict.  Only a product or power with a multi-term factor, such as
    ``(x1 + x2)^3``, takes polynomial arithmetic.

    ``term``, ``factor``, ``base`` and ``atom`` return either one term
    ``(exponents, coefficient)``, whose coefficient may be zero or a
    Fraction over 1, or a polynomial; ``expr`` sums them into a canonical
    polynomial.
    """

    def __init__(self, text: str, vars: VarSet):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = vars
        k = vars.k
        self.monomials = {name: tuple(int(i == j) for j in range(k)) for i, name in enumerate(vars.names)}

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, at = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text or 'end of input'!r}", at)
        self.advance()

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", at)
        return p

    def polynomial(self, value: tuple[Exponents, Scalar] | Polynomial) -> Polynomial:
        if isinstance(value, Polynomial):
            return value
        exponents, coeff = value
        return Polynomial(self.vars, {exponents: coeff})

    def expr(self) -> Polynomial:
        kind, text, _ = self.peek()
        negate = kind == "op" and text == "-"
        if kind == "op" and text in "+-":
            self.advance()
        terms: dict[Exponents, Scalar] = {}
        while True:
            value = self.term()
            for m, c in value.terms.items() if isinstance(value, Polynomial) else (value,):
                terms[m] = terms.get(m, 0) - c if negate else terms.get(m, 0) + c
            kind, text, _ = self.peek()
            if kind != "op" or text not in "+-":
                return Polynomial._raw(self.vars, {m: _as_scalar(c) for m, c in terms.items() if c})
            negate = text == "-"
            self.advance()

    def term(self) -> tuple[Exponents, Scalar] | Polynomial:
        p = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text != "*":
                return p
            self.advance()
            q = self.factor()
            if isinstance(p, tuple) and isinstance(q, tuple):
                p = (tuple(map(add, p[0], q[0])), p[1] * q[1])
            else:
                p = self.polynomial(p) * self.polynomial(q)

    def factor(self) -> tuple[Exponents, Scalar] | Polynomial:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            p = self.factor()
            return -p if isinstance(p, Polynomial) else (p[0], -p[1])
        return self.base()

    def base(self) -> tuple[Exponents, Scalar] | Polynomial:
        p = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            kind, text, at = self.peek()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer literal", at)
            self.advance()
            n = _from_decimal(text)
            if isinstance(p, Polynomial):
                return p ** n
            return tuple(e * n for e in p[0]), p[1] ** n
        return p

    def atom(self) -> tuple[Exponents, Scalar] | Polynomial:
        kind, text, at = self.advance()
        if kind == "int":
            value: Scalar = _from_decimal(text)
            k, t, at2 = self.peek()
            if k == "op" and t == "/":
                self.advance()
                k, t, at3 = self.peek()
                if k != "int":
                    raise ParseError("expected an integer denominator", at3)
                self.advance()
                denominator = _from_decimal(t)
                if denominator == 0:
                    raise ParseError("zero denominator in rational literal", at3)
                value = Fraction(value, denominator)
            return (0,) * self.vars.k, value
        if kind == "name":
            exponents = self.monomials.get(text)
            if exponents is None:
                raise ParseError(
                    f"unknown variable {text!r} (expected one of {', '.join(self.vars.names)})", at
                )
            return exponents, 1
        if kind == "op" and text == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected {text or 'end of input'!r}", at)


def parse(text: str, vars: VarSet) -> Polynomial:
    """Parse ``text`` into the canonical polynomial over ``vars``."""
    return _Parser(text, vars).parse()

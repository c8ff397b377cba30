"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a mapping from exponent vectors to nonzero rational
coefficients:

    x1*x3 + x2*x3^2   over (x1, x2, x3)   ->   {(1,0,1): 1, (0,1,2): 1}

Coefficients are arbitrary-precision rationals in lowest terms, so all
arithmetic, zero tests and equality checks are exact.  Integral values are
stored as plain ``int`` and general rationals as ``fractions.Fraction``;
the two interoperate exactly and agree on equality and hashing, while the
int fast path avoids a gcd normalization per ring operation.  The zero
polynomial is the empty term map.  Polynomials are immutable values: every
operation returns a fresh object and instances can be shared freely across
workers.

Term order is graded lexicographic with respect to the variable order of
the owning :class:`VarSet` (total degree first, ties broken left to right).
The canonical printer emits terms in descending graded-lex order, which
makes printing deterministic and round-trippable through the parser.

Products pick one of two kernels from the operands.  When the product's
exponent box has few enough positions ("slots") that packing both operands
and reading every slot back costs less than visiting every term pair
(``slots + |a| + |b| <= |a| * |b|``), the product is computed by Kronecker
substitution: each operand becomes one integer with a fixed number of bytes
per slot, the slot of an exponent vector being its value in the mixed
radix ``R_i = deg_i(a) + deg_i(b) + 1``; one big-integer multiply forms
every coefficient, and a bias of half a slot's range on every slot lets
signed coefficients be read back byte by byte.  Otherwise a loop over the
term pairs is cheaper.  Rational operands are scaled to integers by the
lcm of their denominators first and the product divided once at the end.

Exact division (:func:`exact_div`, the inner step of fraction-free
elimination) packs each monomial into one integer, total degree in the top
field and then x1 ... xk, so that integer order is graded-lex order.  The
remainder's leading term comes off a lazy max-heap of packed keys instead
of a rescan of the whole remainder, and a guard bit per field decides
divisibility by the divisor's leading term with one subtraction.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import product as _cartesian
from math import lcm
from operator import add as _add, mul as _mul
from typing import Iterable, Iterator, Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Exponents = tuple[int, ...]

#: Degree reported for the zero polynomial.  Using -inf instead of -1 keeps
#: ``degree + 1`` from silently producing a plausible-looking length.
NEG_INF = float("-inf")

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")


@dataclass(frozen=True)
class VarSet:
    """An ordered set of distinct variable names.

    The order is significant: it fixes the positions of exponent vectors and
    the column order of Jacobian matrices built downstream.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) < 1:
            raise ValueError("a variable set needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names!r}")
        for name in self.names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")

    @property
    def k(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r} (have {', '.join(self.names)})") from None

    def __contains__(self, name: object) -> bool:
        return name in self.names

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    @classmethod
    def of(cls, *names: str) -> "VarSet":
        return cls(tuple(names))


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def _as_scalar(value: Scalar) -> Scalar:
    """Normalize a rational: integral values are stored as plain int.

    int and Fraction interoperate exactly and agree on ``==`` and ``hash``,
    so mixing them in a term map is safe; keeping integers out of Fraction
    avoids a gcd normalization on every ring operation, which dominates the
    running time of large products.
    """
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


@lru_cache(maxsize=1024)
def _inverse(denominator: int, modulus: int) -> int:
    """denominator^-1 mod a prime ``modulus`` (cached: the denominators of
    one polynomial repeat across its terms and across evaluations)."""
    if denominator % modulus == 0:
        raise ZeroDivisionError(f"denominator {denominator} has no inverse modulo {modulus}")
    return pow(denominator, -1, modulus)


def _residue(value: Scalar, modulus: int) -> int:
    """``value`` mod a prime ``modulus``: a/b maps to a * b^-1."""
    value = _as_scalar(value)
    return value.numerator * _inverse(value.denominator, modulus) % modulus


def _ratio(numerator: Scalar, denominator: Scalar) -> Scalar:
    """Exact scalar quotient (never a float)."""
    q = Fraction(numerator) / Fraction(denominator)
    return q.numerator if q.denominator == 1 else q


def grlex_key(exponents: Exponents) -> tuple[int, Exponents]:
    """Graded-lex sort key: total degree first, then the exponent vector."""
    return (sum(exponents), exponents)


def _integral(terms: dict[Exponents, Scalar]) -> tuple[dict[Exponents, int], int]:
    """``(n, s)`` with ``terms == n / s``, n integral and s the lcm of the
    denominators; ``terms`` itself when it holds no Fraction."""
    if Fraction not in map(type, terms.values()):
        return terms, 1  # type: ignore[return-value]
    scale = lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (scale // c.denominator) for m, c in terms.items()}, scale


def _is_dense(a: dict[Exponents, Scalar], b: dict[Exponents, Scalar]) -> bool:
    """Whether Kronecker substitution does less work than the pair loop.

    The loop visits ``|a| * |b|`` term pairs; Kronecker substitution packs
    ``|a| + |b|`` terms and unpacks one slot per position of the product's
    exponent box, ``slots = R_1 * ... * R_k`` with ``R_i = deg_i(a) +
    deg_i(b) + 1``.  The count of slots stops once it exceeds the budget, so
    a sparse pair such as x1^100000000*x2 squared costs no more than a few
    comparisons.  The box holds every exponent of the product, and a sum
    set of |a| and |b| points of Z^k has at least ``|a| + |b| - 1`` points,
    so small operands are decided without looking at their exponents.
    """
    budget = len(a) * len(b) - len(a) - len(b)
    if budget < len(a) + len(b) - 1:
        return False
    slots = 1
    for da, db in zip(map(max, zip(*a)), map(max, zip(*b))):
        slots *= da + db + 1
        if slots > budget:
            return False
    return True


def _mul_sparse(a: dict[Exponents, int], b: dict[Exponents, int]) -> dict[Exponents, int]:
    """Product term map by a loop over all term pairs."""
    b_items = list(b.items())
    out: dict[Exponents, int] = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b_items:
            m = tuple(map(_add, ma, mb))
            s = get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                del out[m]
    return out


#: array typecode of an unsigned machine integer of each byte width.
_WORD_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}


def _mul_dense(a: dict[Exponents, int], b: dict[Exponents, int]) -> dict[Exponents, int]:
    """Product term map by Kronecker substitution (integer coefficients).

    Exponent vector m sits at slot ``sum(m_i * stride_i)`` of a mixed-radix
    number with radices ``R_i = deg_i(a) + deg_i(b) + 1`` (the last
    variable varies fastest, as in ``itertools.product``); since the
    product's exponents stay below the radices, adding slot indices adds
    exponent vectors without carries.  Each operand becomes one integer
    with ``width`` bytes per slot, its positive and negative coefficients
    written into two byte buffers and subtracted, and one big-integer
    product, which CPython computes by Karatsuba, holds every coefficient
    of the result.  A product coefficient sums at most ``min(|a|, |b|)``
    term pairs, so it is at most ``bound = min(|a|, |b|) * max|a_c| *
    max|b_c|`` in absolute value, and ``width`` leaves room for a sign bit
    above that.  Adding ``2^(8*width - 1)`` to every slot makes every slot
    nonnegative, which undoes the borrows negative slots took from the next
    one; the slots are then read back from the bytes and the bias taken off.
    """
    a_deg = list(map(max, zip(*a)))
    b_deg = list(map(max, zip(*b)))
    radices = [da + db + 1 for da, db in zip(a_deg, b_deg)]
    strides = [1] * len(radices)
    for i in range(len(radices) - 1, 0, -1):
        strides[i - 1] = strides[i] * radices[i]
    slots = strides[0] * radices[0]
    bound = min(len(a), len(b)) * max(map(abs, a.values())) * max(map(abs, b.values()))
    width = bound.bit_length() // 8 + 1
    if width <= 8:
        # a machine word per slot, so that array() reads the slots in C
        width = 1 << (width - 1).bit_length()
    bias = 1 << (8 * width - 1)
    packed = _kronecker_pack(a, a_deg, strides, width) * _kronecker_pack(b, b_deg, strides, width)
    packed += int.from_bytes(bias.to_bytes(width, "little") * slots, "little")
    data = packed.to_bytes(slots * width, "little")
    values: Sequence[int]
    if width in _WORD_TYPECODES:
        values = words = array(_WORD_TYPECODES[width], data)
        if sys.byteorder == "big":
            words.byteswap()
    else:
        values = [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]
    return {
        m: c - bias
        for m, c in zip(_cartesian(*map(range, radices)), values)
        if c != bias
    }


def _kronecker_pack(
    terms: dict[Exponents, int], degrees: list[int], strides: list[int], width: int
) -> int:
    """One integer holding ``terms``, ``width`` bytes per slot (see _mul_dense)."""
    size = (sum(map(_mul, degrees, strides)) + 1) * width
    positive = bytearray(size)
    negative = bytearray(size)
    for m, c in terms.items():
        i = sum(map(_mul, m, strides)) * width
        if c > 0:
            positive[i:i + width] = c.to_bytes(width, "little")
        else:
            negative[i:i + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(positive, "little") - int.from_bytes(negative, "little")


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("vars", "_terms", "_hash")

    def __init__(self, vars: VarSet, terms: Mapping[Exponents, Scalar]):
        clean: dict[Exponents, Scalar] = {}
        k = vars.k
        for exponents, coeff in terms.items():
            exponents = tuple(exponents)
            if len(exponents) != k:
                raise ValueError(f"exponent vector {exponents} has length {len(exponents)}, expected {k}")
            if any(e < 0 or not isinstance(e, int) for e in exponents):
                raise ValueError(f"exponents must be nonnegative integers, got {exponents}")
            coeff = _as_scalar(coeff)
            if coeff:
                acc = clean.get(exponents)
                total = coeff if acc is None else acc + coeff
                if total:
                    clean[exponents] = total
                else:
                    del clean[exponents]
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial instances are immutable")

    @classmethod
    def _raw(cls, vars: VarSet, terms: dict[Exponents, Scalar]) -> "Polynomial":
        """Wrap an already-canonical term map without re-validating it.

        Internal fast path for arithmetic: callers guarantee correct key
        lengths, nonnegative exponents, and no zero coefficients.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: VarSet) -> "Polynomial":
        return cls(vars, {})

    @classmethod
    def constant(cls, vars: VarSet, value: Scalar) -> "Polynomial":
        return cls(vars, {(0,) * vars.k: _as_fraction(value)})

    @classmethod
    def variable(cls, vars: VarSet, name: str) -> "Polynomial":
        i = vars.index(name)
        exponents = tuple(1 if j == i else 0 for j in range(vars.k))
        return cls(vars, {exponents: Fraction(1)})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, Scalar]:
        """The internal term map (int or Fraction values).  Treat as read-only."""
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def total_degree(self) -> int | float:
        if not self._terms:
            return NEG_INF
        return max(sum(m) for m in self._terms)

    def degree_in(self, name: str) -> int | float:
        """Largest exponent of ``name``; NEG_INF for the zero polynomial."""
        i = self.vars.index(name)
        if not self._terms:
            return NEG_INF
        return max(m[i] for m in self._terms)

    def involves(self, name: str) -> bool:
        i = self.vars.index(name)
        return any(m[i] for m in self._terms)

    def constant_term(self) -> Fraction:
        return Fraction(self._terms.get((0,) * self.vars.k, 0))

    def leading_term(self) -> tuple[Exponents, Scalar]:
        """Largest term in graded-lex order.  Raises on the zero polynomial."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        m = max(self._terms, key=grlex_key)
        return m, self._terms[m]

    # -- ring arithmetic ---------------------------------------------------

    def _coerce(self, other: object) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.vars != self.vars:
                raise ValueError(
                    f"mismatched variable sets: {self.vars.names} vs {other.vars.names}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.vars, other)
        return None

    def __add__(self, other: object) -> "Polynomial":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out = dict(self._terms)
        for m, c in q._terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial._raw(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.vars, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: object) -> "Polynomial":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other: object) -> "Polynomial":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other: object) -> "Polynomial":
        """Product of two polynomials, by one of two exact kernels.

        Rational operands are first scaled to integer term maps by the lcm
        of their denominators, and the integer product is divided by the
        two scales once at the end, so integral values come out as int and
        the others as Fraction in lowest terms.

        The kernel follows from the operands alone.  Let each variable have
        the radix ``R_i = deg_i(a) + deg_i(b) + 1``: the product's exponents
        fit in ``slots = R_1 * ... * R_k`` dense positions.  When
        ``slots + |a| + |b| <= |a| * |b|`` (:func:`_is_dense`), the product
        goes through Kronecker substitution (:func:`_mul_dense`), whose cost
        is one big-integer multiply plus linear work per term and per slot;
        otherwise the loop over term pairs (:func:`_mul_sparse`) is cheaper
        and never allocates a dense buffer.
        """
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        if not self._terms or not q._terms:
            return Polynomial.zero(self.vars)
        a, a_scale = _integral(self._terms)
        b, b_scale = _integral(q._terms)
        # iterate the smaller factor outside; hot path for everything above
        if len(a) > len(b):
            a, b = b, a
        out = _mul_dense(a, b) if _is_dense(a, b) else _mul_sparse(a, b)
        scale = a_scale * b_scale
        if scale != 1:
            for m, c in out.items():
                c = Fraction(c, scale)
                out[m] = c.numerator if c.denominator == 1 else c
        return Polynomial._raw(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial exponent must be a nonnegative integer, got {exponent!r}")
        result = Polynomial.constant(self.vars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- calculus and evaluation -------------------------------------------

    def partial(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to ``name``."""
        i = self.vars.index(name)
        out: dict[Exponents, Scalar] = {}
        for m, c in self._terms.items():
            e = m[i]
            if e:
                key = m[:i] + (e - 1,) + m[i + 1:]
                s = out.get(key, 0) + c * e
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Polynomial._raw(self.vars, out)

    def eval(self, point: Sequence[Scalar], modulus: int | None = None) -> Scalar:
        """Value at ``point`` (one value per variable, in order): the exact
        rational as a Fraction or, given a prime ``modulus`` p, its residue
        in [0, p).  Mod p every coefficient and coordinate a/b maps to
        a * b^-1 and powers use three-argument ``pow``, so no value grows
        with the degree; a denominator divisible by p raises
        ZeroDivisionError.
        """
        if len(point) != self.vars.k:
            raise ValueError(f"point has length {len(point)}, expected {self.vars.k}")
        vals = [_as_scalar(v) if modulus is None else _residue(v, modulus) for v in point]
        powers: list[dict[int, Scalar]] = [{} for _ in vals]
        total = 0
        for m, c in self._terms.items():
            if modulus is None or c.__class__ is int:
                term = c
            else:
                term = c.numerator * _inverse(c.denominator, modulus)
            for i, e in enumerate(m):
                if e:
                    cache = powers[i]
                    p = cache.get(e)
                    if p is None:
                        p = vals[i] ** e if modulus is None else pow(vals[i], e, modulus)
                        cache[e] = p
                    term *= p
            total += term
        # Terms are products of k residues: reducing the sum once is cheaper.
        return Fraction(total) if modulus is None else total % modulus

    __call__ = eval

    def substitute(self, bindings: Mapping[str, Scalar]) -> "Polynomial":
        """Fix some variables to rational values.

        The result lives over the same variable set and no longer involves
        the bound variables; binding every variable yields the constant
        polynomial with value ``self.eval(point)``.
        """
        positions = {self.vars.index(name): _as_scalar(v) for name, v in bindings.items()}
        if not positions:
            return self
        out: dict[Exponents, Scalar] = {}
        for m, c in self._terms.items():
            e = list(m)
            for i, val in positions.items():
                if e[i]:
                    c = c * val ** e[i]
                    e[i] = 0
            if not c:
                continue
            key = tuple(e)
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return Polynomial._raw(self.vars, out)

    # -- comparison and hashing --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.vars == other.vars and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.vars, other)
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.vars, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for m in sorted(self._terms, key=grlex_key, reverse=True):
            c = self._terms[m]
            factors = []
            for name, e in zip(self.vars.names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({', '.join(self.vars.names)}: {self})"


def project(p: Polynomial, names: Sequence[str]) -> Polynomial:
    """Re-express ``p`` over the sub-variable-set ``names`` (in that order).

    Raises if ``p`` involves a variable outside ``names``.
    """
    target = VarSet(tuple(names))
    positions = [p.vars.index(name) for name in target.names]
    keep = set(positions)
    out: dict[Exponents, Scalar] = {}
    for m, c in p.terms.items():
        for i, e in enumerate(m):
            if e and i not in keep:
                raise ValueError(
                    f"cannot project: polynomial involves {p.vars.names[i]!r}, which is being dropped"
                )
        out[tuple(m[i] for i in positions)] = c
    return Polynomial._raw(target, out)


def embed(p: Polynomial, target: VarSet) -> Polynomial:
    """View ``p`` as a polynomial over the larger variable set ``target``."""
    positions = [target.index(name) for name in p.vars.names]
    out: dict[Exponents, Scalar] = {}
    for m, c in p.terms.items():
        e = [0] * target.k
        for pos, exp in zip(positions, m):
            e[pos] = exp
        out[tuple(e)] = c
    return Polynomial._raw(target, out)


def exact_div(p: Polynomial, divisor: Polynomial) -> Polynomial:
    """Exact polynomial quotient ``p / divisor``; raises if not divisible.

    Leading-term division under the graded-lex order: whenever p is a true
    multiple of the divisor the leading term of the remainder stays divisible,
    so the loop terminates with remainder zero.

    Each monomial is packed into one integer: total degree in the top field,
    then x1 ... xk, each field ``deg.bit_length() + 1`` bits wide, where
    ``deg`` is the larger total degree of the operands.  Integer order is
    then graded-lex order, and adding or subtracting keys adds or subtracts
    exponent vectors.  The top bit of each field is a guard bit: the
    remainder's leading term is divisible by the divisor's exactly when
    subtracting the divisor's key from the remainder key with every guard
    bit set leaves every guard bit standing (no field borrowed).  The
    remainder is a dict from packed key to coefficient with a lazy max-heap
    of its keys; a popped key that has since cancelled out is skipped.

    Quotient terms come out in decreasing order, and an exact quotient q has
    ``trail(q) * trail(divisor) == trail(p)`` (trail: the least term), so a
    quotient key below ``key(trail(p)) - key(trail(divisor))`` proves the
    division inexact.  That stops ``x1^n / (2*x1 + 3)`` at its first step
    instead of after n quotient terms.
    """
    if divisor.vars != p.vars:
        raise ValueError("operands must share a variable set")
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero:
        return p
    k = p.vars.k
    # Every remainder term has total degree <= deg(p), and so has every
    # exponent; the divisor gets its own bound so that its keys fit too.
    deg = max(p.total_degree(), divisor.total_degree())
    width = deg.bit_length() + 1
    shifts = [width * (k - 1 - i) for i in range(k)]
    # each exponent counts once in its own field and once in the degree field
    weights = [(1 << (width * k)) | (1 << s) for s in shifts]
    guard = sum(1 << (width - 1 + width * i) for i in range(k + 1))

    def pack(m: Exponents) -> int:
        return sum(map(_mul, m, weights))

    div_items = sorted(((pack(m), c) for m, c in divisor.terms.items()), reverse=True)
    kd, cd = div_items[0]
    tail = div_items[1:]
    int_lead = type(cd) is int
    rem = {pack(m): c for m, c in p.terms.items()}
    least = min(rem) - div_items[-1][0]
    heap = [-key for key in rem]
    heapify(heap)
    get = rem.get
    quotient: list[tuple[int, Scalar]] = []
    while heap:
        kr = -heappop(heap)
        cr = get(kr)
        if cr is None:
            continue
        kq = (kr | guard) - kd
        if kq & guard != guard or kq ^ guard < least:
            raise ValueError("inexact polynomial division")
        kq ^= guard
        if int_lead and type(cr) is int and not cr % cd:
            cq = cr // cd
        else:
            cq = _ratio(cr, cd)
        quotient.append((kq, cq))
        del rem[kr]
        for kt, ct in tail:
            key = kq + kt
            c = get(key)
            if c is None:
                rem[key] = -cq * ct
                heappush(heap, -key)
            else:
                s = c - cq * ct
                if s:
                    rem[key] = s
                else:
                    del rem[key]
    mask = (1 << (width - 1)) - 1
    return Polynomial._raw(
        p.vars, {tuple((kq >> s) & mask for s in shifts): cq for kq, cq in quotient}
    )


def product(vars: VarSet, factors: Iterable[Polynomial]) -> Polynomial:
    """Product of a (possibly empty) sequence of polynomials over ``vars``."""
    result = Polynomial.constant(vars, 1)
    for f in factors:
        result = result * f
    return result

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
operation returns a fresh object.

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
term pairs is cheaper.  Rational operands are cleared to integers over
the lcm D of their denominators (:func:`_cleared`) and the product divided
by D once at the end (:func:`_over`): the package's one int/Fraction
boundary, which exact division, the image sweep and the moment-curve volume
count use too.

Exact division (:func:`exact_div`, the inner step of fraction-free
elimination) has two integer kernels, both given a primitive divisor.
Dense operands are packed the same way and divided with one big-integer
``divmod``, behind a cost gate (``_DIV_GATE``, the module's one tuned
constant) because CPython divides big integers in quadratic time.  Other
divisions pack each monomial into one integer, total degree in the top
field and then x1 ... xk, so that integer order is graded-lex order; the
remainder's leading term comes off a lazy max-heap of packed keys, and a
guard bit per field decides divisibility by the divisor's leading term with
one subtraction.
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
from math import gcd, lcm
from operator import add as _add, gt, mul as _mul
from typing import Collection, Iterable, Iterator, Mapping, Sequence, Union

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
    if isinstance(value, int):
        return value % modulus
    value = _as_scalar(value)
    return value.numerator * _inverse(value.denominator, modulus) % modulus


def _cleared(values: Collection[Scalar]) -> tuple[list[int], int]:
    """``(n, D)`` with ``values[i] == n[i] / D``, D the lcm of the
    denominators: the one way rationals enter integer arithmetic."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _over(numerator: Scalar, scale: int) -> Scalar:
    """The canonical scalar ``numerator / scale``: int when ``scale``
    divides ``numerator``, a Fraction in lowest terms otherwise; a Fraction
    ``numerator`` (a coordinate of a rational grid) is read the same way."""
    q, r = divmod(numerator, scale)
    return Fraction(numerator, scale) if r else q


def _integral(terms: dict[Exponents, Scalar]) -> tuple[dict[Exponents, int], int]:
    """``(n, s)`` with ``terms == n / s`` as by :func:`_cleared`;
    ``terms`` itself when it holds no Fraction."""
    if Fraction not in map(type, terms.values()):
        return terms, 1  # type: ignore[return-value]
    coeffs, scale = _cleared(terms.values())
    return dict(zip(terms, coeffs)), scale


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


def _slot_width(bound: int) -> int:
    """Bytes per Kronecker slot with ``bound < 2^(8*width - 1)``, rounded up
    to a machine word when one fits, so that array() moves the slots in C."""
    width = bound.bit_length() // 8 + 1
    return 1 << (width - 1).bit_length() if width <= 8 else width


def _box(degrees: Iterable[int]) -> tuple[list[int], list[int], int]:
    """``(radices, strides, slots)`` of the box of exponents up to ``degrees``."""
    radices = [d + 1 for d in degrees]
    strides = [1] * len(radices)
    for i in range(len(radices) - 1, 0, -1):
        strides[i - 1] = strides[i] * radices[i]
    return radices, strides, strides[0] * radices[0]


def _mul_dense(a: dict[Exponents, int], b: dict[Exponents, int]) -> dict[Exponents, int]:
    """Product term map by Kronecker substitution (integer coefficients).

    Exponent vector m sits at slot ``sum(m_i * stride_i)`` of a mixed-radix
    number with radices ``R_i = deg_i(a) + deg_i(b) + 1`` (the last
    variable varies fastest, as in ``itertools.product``); since the
    product's exponents stay below the radices, adding slot indices adds
    exponent vectors without carries.  Each operand becomes one integer
    with ``width`` bytes per slot (:func:`_kronecker_pack`), and one
    big-integer product, which CPython computes by Karatsuba, holds every
    coefficient of the result.  A product coefficient sums at most
    ``min(|a|, |b|)`` term pairs, so it is at most ``bound = min(|a|, |b|)
    * max|a_c| * max|b_c|`` in absolute value, and ``width`` leaves room
    for a sign bit above that (:func:`_kronecker_unpack` reads it back).
    """
    a_deg = list(map(max, zip(*a)))
    b_deg = list(map(max, zip(*b)))
    radices, strides, slots = _box(map(_add, a_deg, b_deg))
    bound = min(len(a), len(b)) * max(map(abs, a.values())) * max(map(abs, b.values()))
    width = _slot_width(bound)
    packed = _kronecker_pack(a, a_deg, strides, width) * _kronecker_pack(b, b_deg, strides, width)
    return _kronecker_unpack(packed, radices, slots, width)


def _kronecker_pack(
    terms: dict[Exponents, int], degrees: list[int], strides: list[int], width: int
) -> int:
    """One integer holding ``terms``, ``width`` bytes per slot (see
    _mul_dense): the buffers of positive and of negated negative
    coefficients, read as integers, subtracted."""
    size = sum(map(_mul, degrees, strides)) + 1
    code = _WORD_TYPECODES.get(width)
    if code is None:
        positive = bytearray(size * width)
        negative = bytearray(size * width)
        for m, c in terms.items():
            i = sum(map(_mul, m, strides)) * width
            if c > 0:
                positive[i:i + width] = c.to_bytes(width, "little")
            else:
                negative[i:i + width] = (-c).to_bytes(width, "little")
    else:
        positive = array(code, [0]) * size
        negative = array(code, [0]) * size
        for m, c in terms.items():
            if c > 0:
                positive[sum(map(_mul, m, strides))] = c
            else:
                negative[sum(map(_mul, m, strides))] = -c
        if sys.byteorder == "big":
            positive.byteswap()
            negative.byteswap()
    return int.from_bytes(positive, "little") - int.from_bytes(negative, "little")


def _kronecker_unpack(
    packed: int, radices: list[int], slots: int, width: int
) -> dict[Exponents, int]:
    """The term map in the box of ``radices``, coefficients in
    ``[-2^(8*width - 1), 2^(8*width - 1))``, whose packing is ``packed``;
    OverflowError if there is none.  A bias of ``2^(8*width - 1)`` on every
    slot undoes the borrows of negative slots; the slots are read back
    from the bytes and the bias taken off."""
    bias = 1 << (8 * width - 1)
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


#: Digits that one ``int``/``str`` conversion handles: below 640, the
#: smallest nonzero limit ``sys.set_int_max_str_digits`` accepts, so no
#: setting of that interpreter-wide limit can refuse one.
_CHUNK_DIGITS = 512
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(n: int) -> str:
    """``str(n)`` for an int of any length: a longer one is split by a
    power of ten into halves that are printed on their own."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half of n's digits: log10(2) > 3/10
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def _from_decimal(digits: str) -> int:
    """``int(digits)`` for a string of decimal digits of any length."""
    if len(digits) <= _CHUNK_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _from_decimal(digits[:-k]) * 10**k + _from_decimal(digits[-k:])


class _Powers(dict):
    """One variable's printed powers by exponent, from ``{0: "", 1: name}``
    on; each higher one is spelled on first use."""

    def __missing__(self, e: int) -> str:
        text = self[e] = f"{self[1]}^{_decimal(e)}"
        return text


@lru_cache(maxsize=64)
def _power_tables(names: tuple[str, ...]) -> list[_Powers]:
    """Each variable's :class:`_Powers`, shared by every printing."""
    return [_Powers({0: "", 1: name}) for name in names]


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
        return cls(vars, {(0,) * vars.k: value})

    @classmethod
    def variable(cls, vars: VarSet, name: str) -> "Polynomial":
        i = vars.index(name)
        exponents = tuple(1 if j == i else 0 for j in range(vars.k))
        return cls(vars, {exponents: 1})

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
            if not s:
                del out[m]
            elif s.__class__ is int or s.denominator != 1:
                out[m] = s
            else:
                out[m] = s.numerator
        return Polynomial._raw(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.vars, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: object) -> "Polynomial":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self._minus(q)

    def __rsub__(self, other: object) -> "Polynomial":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q._minus(self)

    def _minus(self, q: "Polynomial") -> "Polynomial":
        """``self - q`` without building ``-q`` (the loop of __add__)."""
        out = dict(self._terms)
        for m, c in q._terms.items():
            s = out.get(m, 0) - c
            if not s:
                del out[m]
            elif s.__class__ is int or s.denominator != 1:
                out[m] = s
            else:
                out[m] = s.numerator
        return Polynomial._raw(self.vars, out)

    def __mul__(self, other: object) -> "Polynomial":
        """Product of two polynomials, by one of two exact kernels.

        Rational operands are cleared to integer term maps (:func:`_integral`)
        and the integer product is divided once by both scales (:func:`_over`).

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
                out[m] = _over(c, scale)
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
        """Formal partial derivative with respect to ``name``.

        Terms with a positive exponent e in ``name`` map to distinct keys,
        so each c * e is written straight into the output (as ``int`` when
        integral).
        """
        i = self.vars.index(name)
        out: dict[Exponents, Scalar] = {}
        for m, c in self._terms.items():
            e = m[i]
            if e:
                c *= e
                if c.__class__ is not int and c.denominator == 1:
                    c = c.numerator
                out[m[:i] + (e - 1,) + m[i + 1:]] = c
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
            if not s:
                del out[key]
            elif s.__class__ is int or s.denominator != 1:
                out[key] = s
            else:
                out[key] = s.numerator
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

    def _format(self, scale: int = 1) -> str:
        """The terms of ``self / scale`` (``scale`` a positive int) in
        descending graded-lex order, e.g. ``-1/2*x1^2 + x2 - 3``, printed
        without forming the quotient: ``str`` is ``_format(1)``.

        Each distinct coefficient c is printed once, in lowest terms by one
        gcd of c's ``numerator`` and ``denominator`` times ``scale`` (an int
        is its own numerator, over 1), and looked up by the int or by that
        pair; each power of a variable is spelled once.  No Fraction
        arithmetic runs.
        """
        if not self._terms:
            return "0"
        powers, power = _power_tables(self.vars.names), _Powers.__getitem__
        shown: dict[object, tuple[str, str]] = {}
        pieces: list[str] = []
        # descending graded-lex: a stable sort by degree of the lex order
        for m in sorted(sorted(self._terms, reverse=True), key=sum, reverse=True):
            c = self._terms[m]
            key = c if c.__class__ is int else (c.numerator, c.denominator)
            text = shown.get(key)
            if text is None:
                num, den = c.numerator, c.denominator * scale
                g = gcd(num, den)
                sign, num, den = " - " if num < 0 else " + ", abs(num) // g, den // g
                text = shown[key] = (sign, f"{_decimal(num)}/{_decimal(den)}" if den != 1
                                      else "" if num == 1 else _decimal(num))
            sign, coeff = text
            body = "*".join(filter(None, map(power, powers, m)))
            pieces += (sign, f"{coeff}*{body}" if coeff and body else coeff or body or "1")
        pieces[0] = "-" if pieces[0] == " - " else ""
        return "".join(pieces)

    __str__ = _format

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


#: Kronecker division runs only when ``(slots - span) * span * width^2 <=
#: _DIV_GATE * |p| * |d|``: CPython's schoolbook division of a ``slots``-slot
#: dividend by a ``span``-slot divisor, ``width`` bytes a slot, against the
#: heap's term pairs.  Calibrated on 2 cores, Python 3.11.7, on the 168
#: divisions of exact rank of dense k = 3..5 polynomials with 2- to 200-bit
#: coefficients: up to 400 the kernel was faster on 99 of 100 (median 2.6x,
#: |p| <= 3,843), from 400 to 1,024 on 39 of 44 (median 1.17x), above that
#: on 1 of 24, and at 783 it took 1.8x the heap's time on a |p| = 91,313 step.
_DIV_GATE = 400


def exact_div(p: Polynomial, divisor: Polynomial) -> Polynomial:
    """Exact polynomial quotient ``p / divisor``; raises if not divisible.

    The operands are cleared to integers P and D (:func:`_integral`) and D
    is divided by its content c to a primitive D0.  By Gauss's lemma, D0
    divides P in Q[x] only with a quotient q in Z[x], so both kernels divide
    integers and a remainder at any step proves the division inexact.
    Dense operands that pass ``_DIV_GATE`` take one ``divmod`` of their
    Kronecker packings (:func:`_div_dense`); other divisions, and quotients
    the packing cannot prove, take leading-term division
    (:func:`_div_heap`).  The quotient is q * d_scale / (p_scale * c).
    """
    if divisor.vars != p.vars:
        raise ValueError("operands must share a variable set")
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero:
        return p
    a, p_scale = _integral(p._terms)
    b, d_scale = _integral(divisor._terms)
    content = gcd(*b.values())
    if content != 1:
        b = {m: c // content for m, c in b.items()}
    quotient = _div_dense(a, b) or _div_heap(a, b)
    scale = p_scale * content
    if scale != 1 or d_scale != 1:
        quotient = {m: _over(c * d_scale, scale) for m, c in quotient.items()}
    return Polynomial._raw(p.vars, quotient)


def _div_dense(a: dict[Exponents, int], b: dict[Exponents, int]) -> dict[Exponents, int] | None:
    """Integer quotient term map by Kronecker substitution, or None for the
    heap; ``b`` is primitive (see :func:`exact_div`).

    Both operands are packed over the box of a with slots wide enough for
    ``|b| * max|a|``.  Packing is a ring homomorphism and b divides a in
    Z[x] whenever it does in Q[x], so a nonzero remainder of the ``divmod``
    proves the division inexact.  The unpacked quotient q is kept only when
    ``deg_i(q) + deg_i(b) <= deg_i(a)`` and ``min(|q|, |b|) * max|q| *
    max|b|`` is below half a slot: then q * b and a lie in the box with
    equal packings, and balanced digits are unique, so q * b = a.
    """
    if not _is_dense(a, b):
        return None
    a_deg = list(map(max, zip(*a)))
    b_deg = list(map(max, zip(*b)))
    if any(map(gt, b_deg, a_deg)):
        return None
    width = _slot_width(len(b) * max(map(abs, a.values())))
    radices, strides, slots = _box(a_deg)
    span = sum(map(_mul, b_deg, strides)) + 1
    if (slots - span) * span * width * width > _DIV_GATE * len(a) * len(b):
        return None
    packed, remainder = divmod(_kronecker_pack(a, a_deg, strides, width),
                               _kronecker_pack(b, b_deg, strides, width))
    if remainder:
        raise ValueError("inexact polynomial division")
    try:
        quotient = _kronecker_unpack(packed, radices, slots, width)
    except OverflowError:
        return None
    bound = min(len(quotient), len(b)) * max(map(abs, quotient.values())) * max(map(abs, b.values()))
    q_deg = map(max, zip(*quotient))
    if bound.bit_length() >= 8 * width or any(map(gt, map(_add, q_deg, b_deg), a_deg)):
        return None
    return quotient


def _div_heap(p: dict[Exponents, int], divisor: dict[Exponents, int]) -> dict[Exponents, int]:
    """Integer quotient term map by leading-term division, ``divisor``
    primitive (see :func:`exact_div`); raises if not divisible.

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
    division inexact, as does a quotient coefficient with a remainder (an
    exact quotient is integral).  So ``x1^n / (2*x1 + 3)`` stops at its
    first step instead of after n quotient terms.
    """
    k = len(next(iter(p)))
    # Every remainder term has total degree <= deg(p), and so has every
    # exponent; the divisor gets its own bound so that its keys fit too.
    deg = max(max(map(sum, p)), max(map(sum, divisor)))
    width = deg.bit_length() + 1
    shifts = [width * (k - 1 - i) for i in range(k)]
    # each exponent counts once in its own field and once in the degree field
    weights = [(1 << (width * k)) | (1 << s) for s in shifts]
    guard = sum(1 << (width - 1 + width * i) for i in range(k + 1))

    def pack(m: Exponents) -> int:
        return sum(map(_mul, m, weights))

    div_items = sorted(((pack(m), c) for m, c in divisor.items()), reverse=True)
    kd, cd = div_items[0]
    tail = div_items[1:]
    rem = {pack(m): c for m, c in p.items()}
    least = min(rem) - div_items[-1][0]
    heap = [-key for key in rem]
    heapify(heap)
    get = rem.get
    quotient: list[tuple[int, int]] = []
    while heap:
        kr = -heappop(heap)
        cr = get(kr)
        if cr is None:
            continue
        kq = (kr | guard) - kd
        if kq & guard != guard or kq ^ guard < least:
            raise ValueError("inexact polynomial division")
        kq ^= guard
        cq, r = divmod(cr, cd)
        if r:
            raise ValueError("inexact polynomial division")
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
    return {tuple((kq >> s) & mask for s in shifts): cq for kq, cq in quotient}

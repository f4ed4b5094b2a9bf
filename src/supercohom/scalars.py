"""Exact scalar arithmetic over Q and the cyclotomic fields Q(zeta_m).

A scalar is stored as integer numerators over one positive common denominator
in the power basis 1, z, ..., z^(phi(m)-1), where z is a primitive m-th root
of unity; products are reduced modulo the m-th cyclotomic polynomial, and
every result is brought to lowest terms with one gcd.  Q is the conductor-1
case: Phi_1 = x - 1 gives it degree 1, zeta_1^k = 1, and the term loop of
serialize_scalar prints a rational as str(Fraction) does.  What still sets it
apart is the degree-1 arithmetic paths (which every field of degree 1 takes),
its text form ("rational", a FieldSpec distinct from cyclo(1)) and
parse_scalar's refusal of z.  Floats are refused: every value is exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import DivisionByZero, FieldMismatch, NotCyclotomic, ParseError


@dataclass(frozen=True)
class FieldSpec:
    kind: str  # "rational" | "cyclotomic"
    conductor: int = 1

    def __post_init__(self):
        if self.kind not in ("rational", "cyclotomic"):
            raise ValueError(f"unknown field kind: {self.kind!r}")
        if self.conductor < 1:
            raise ValueError("conductor must be a positive integer")
        if self.kind == "rational" and self.conductor != 1:
            raise ValueError("the rational field has conductor 1")

    @property
    def degree(self) -> int:
        return len(cyclotomic_poly(self.conductor)) - 1


RATIONAL = FieldSpec("rational")


@lru_cache(maxsize=None)
def cyclo(m: int) -> FieldSpec:
    return FieldSpec("cyclotomic", m)


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # Long division by a monic divisor; the remainder must vanish.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        out[i - dd] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    assert all(c == 0 for c in num[:dd]), "non-exact cyclotomic division"
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (constant term first) of the m-th cyclotomic polynomial.

    Phi_m = (x^m - 1) / prod Phi_d over proper divisors d of m, computed by
    exact integer long division (every intermediate divisor is monic).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = _poly_div_exact(num, list(cyclotomic_poly(d)))
    return tuple(num)


def _poly_mod(coeffs: list, m: int) -> list:
    # The remainder modulo Phi_m, padded to its degree.
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(deg + 1):
                coeffs[i - deg + j] -= c * phi[j]
    return coeffs[:deg] + [0] * (deg - len(coeffs))


class Scalar:
    """An element of Q or Q(zeta_m), always in canonical reduced form.

    ``num`` holds integer power-basis numerators and ``den`` their one
    positive common denominator, with gcd(den, *num) == 1; zero is all-zero
    numerators over 1.  The form is unique, so equality and hashing compare
    the fields directly.
    """

    __slots__ = ("spec", "num", "den")

    def __init__(self, spec: FieldSpec, coeffs):
        vals = []
        for c in coeffs:
            if isinstance(c, float):
                raise TypeError(f"floats are not exact scalars: {c!r}")
            vals.append(c if isinstance(c, (int, Fraction)) else Fraction(c))
        den = lcm(*[c.denominator for c in vals])
        num = [c.numerator * (den // c.denominator) for c in vals]
        num = _poly_mod(num, spec.conductor)  # Phi_m is monic: stays integral
        g = gcd(den, *num)
        _set_spec(self, spec)
        _set_num(self, tuple([n // g for n in num]))
        _set_den(self, den // g)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        den = self.den
        return tuple([Fraction(n, den) for n in self.num])

    # -- helpers -----------------------------------------------------------

    def _check(self, other: "Scalar"):
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise FieldMismatch(f"{self.spec} vs {other.spec}")

    def is_zero(self) -> bool:
        return not any(self.num)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar or other.spec is not self.spec:
            self._check(other)
        a, b, da, db = self.num, other.num, self.den, other.den
        if len(a) == 1:
            if da == db:
                n = a[0] + b[0]
                return _new(self.spec, (n,), 1) if da == 1 else _reduced1(self.spec, n, da)
            return _reduced1(self.spec, a[0] * db + b[0] * da, da * db)
        if da == db:
            out = [x + y for x, y in zip(a, b)]
            return _new(self.spec, tuple(out), 1) if da == 1 else _reduced(self.spec, out, da)
        return _reduced(self.spec, [x * db + y * da for x, y in zip(a, b)], da * db)

    def __sub__(self, other):
        if type(other) is not Scalar or other.spec is not self.spec:
            self._check(other)
        return self + (-other)

    def __neg__(self):
        return _new(self.spec, tuple([-x for x in self.num]), self.den)

    def __mul__(self, other):
        if type(other) is not Scalar or other.spec is not self.spec:
            self._check(other)
        a, b, den = self.num, other.num, self.den * other.den
        if len(a) == 1:
            n = a[0] * b[0]
            return _new(self.spec, (n,), 1) if den == 1 else _reduced1(self.spec, n, den)
        if not any(a[1:]):  # a rational factor scales the other one
            c = a[0]
            return _reduced(self.spec, [c * x for x in b], den)
        if not any(b[1:]):
            c = b[0]
            return _reduced(self.spec, [c * x for x in a], den)
        # The schoolbook product, then one reduction by the cached powers
        # z^k mod Phi_m.
        deg = len(a)
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        out = prod[:deg]
        for k, row in enumerate(_high_powers(self.spec.conductor), deg):
            c = prod[k]
            if c:
                for t, e in row:
                    out[t] += c * e
        return _reduced(self.spec, out, den)

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("scalar inverse of zero")
        if len(self.num) == 1:
            n = self.num[0]
            return _new(self.spec, (self.den,), n) if n > 0 else _new(self.spec, (-self.den,), -n)
        # a = num / den with num in Z[z].  The conjugates s_k(num), z -> z^k
        # for the units k != 1 mod m, multiply to c with num * c = N(num),
        # the norm: an integer, and positive, since Q(zeta_m) has no real
        # embedding for m > 2.  So 1 / a = den * c / N(num).
        spec, m = self.spec, self.spec.conductor
        c = one(spec)
        for k in range(2, m):
            if gcd(k, m) == 1:
                wide = [0] * m
                for i, x in enumerate(self.num):
                    wide[i * k % m] += x
                c = c * _new(spec, tuple(_poly_mod(wide, m)), 1)
        norm = (_new(spec, self.num, 1) * c).num[0]
        return _reduced(spec, [x * self.den for x in c.num], norm)

    def __truediv__(self, other):
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("scalar division by zero")
        return self * other.inverse()

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.num == other.num
            and self.den == other.den
            and (self.spec is other.spec or self.spec == other.spec)
        )

    def __hash__(self):
        return hash((self.spec, self.num, self.den))

    def __repr__(self):
        return f"Scalar({self.spec.kind}:{self.spec.conductor}, {serialize_scalar(self)!r})"

    def __str__(self):
        return serialize_scalar(self)


_set_spec = Scalar.spec.__set__
_set_num = Scalar.num.__set__
_set_den = Scalar.den.__set__


def _new(spec: FieldSpec, num: tuple, den: int) -> Scalar:
    # A Scalar from numerators and a denominator already in canonical form.
    x = object.__new__(Scalar)
    _set_spec(x, spec)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _reduced1(spec: FieldSpec, n: int, den: int) -> Scalar:
    # n / den in lowest terms, for den > 0.
    g = gcd(n, den)
    if g == 1:
        return _new(spec, (n,), den)
    return _new(spec, (n // g,), den // g)


def _reduced(spec: FieldSpec, num: list, den: int) -> Scalar:
    # num / den with the common factor of den and every numerator divided out.
    g = gcd(den, *num)
    if g == 1:
        return _new(spec, tuple(num), den)
    return _new(spec, tuple([n // g for n in num]), den // g)


@lru_cache(maxsize=None)
def _high_powers(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """z^k mod Phi_m for deg <= k <= 2 deg - 2, as sparse (index, int) rows.

    These are the powers a product of two reduced scalars reaches; Phi_m is
    monic with integer coefficients, so every row is integral.
    """
    deg = len(cyclotomic_poly(m)) - 1
    rows = (_poly_mod([0] * k + [1], m) for k in range(deg, 2 * deg - 1))
    return tuple(tuple((t, int(c)) for t, c in enumerate(row) if c) for row in rows)


class IntImage:
    """An exact map to Python ints of the Scalars that one check reads, for
    the checks whose only answer is whether some sparse sums of products
    vanish.  Such a check maps its tables once, adds up each sum as ints,
    and builds Scalars only to report a sum that does not vanish.

    D (den) is the lcm of the denominators of the scalars read, and a scalar
    with numerators a_k over e maps to its scaled numerators a_k * D / e.
    A product of f scalars then maps to D^f times the product.  A term with
    fewer than `factors` factors is multiplied by D, the image of 1, so every
    term of a sum carries D^factors.

    Over a field of degree 1 (Q, Q(zeta_1), Q(zeta_2)) the image is that one
    integer: a sum vanishes exactly when its image is 0, with no bound.

    Over Q(zeta_m) of degree d > 1 the image is sum_k (a_k D / e) B^k, with
    B = 2^bits, and it is read modulo N = Phi_m(B) (modulus).  Sending x to
    B is a ring map Z[x]/(Phi_m) -> Z/N, so a sum of products maps to r(B)
    mod N, with r its reduced form: power-basis coefficients, degree < d.
    Why that is exact: let A be the largest scaled numerator, or D if that
    is larger, E the largest entry of the _high_powers rows in size, and H
    the largest coefficient of Phi_m in size.  Reducing the product of two
    reduced elements with coefficients of size at most P and Q gives
    coefficients of size at most P Q c, c = d (1 + (d - 1) E): the schoolbook
    product has at most d P Q, and each of its d - 1 high powers adds that
    times one _high_powers row.  So one term of f factors reduces to
    coefficients of size at most A^f c^(f-1), and a sum of at most `terms`
    of them to coefficients of size at most K = terms A^f c^(f-1).  bits is
    the least with B > 2K + 2H.  Then N >= B^d - H (B^d - 1)/(B - 1) > 0 and
    |r(B)| <= K (B^d - 1)/(B - 1) < N/2, since 2K + H <= B - 1.  For r != 0
    with leading coefficient at B^t, |r(B)| >= B^t - K (B^t - 1)/(B - 1) > 0,
    since K < B - 1.  So r(B) = 0 mod N exactly when r = 0 (vanishes).
    The image of one scalar, as an int, has its scaled numerators as signed
    base-B digits, each less than B/2 in size, so over any field two scalars
    are equal exactly when their images are equal ints.

    The way back (back): the centred residue of r(B) mod N is r(B) itself,
    and its signed base-B digits are the coefficients of r, each less than
    B/2 in size; over D^factors they give the sum as a Scalar.

    A scalar of another field than spec raises FieldMismatch.  The image
    maps only the scalars it was built from (or others whose denominators
    divide D and whose numerators stay within A); its tables are dropped
    when the check returns.
    """

    __slots__ = ("spec", "den", "factors", "bits", "modulus")

    def __init__(self, spec: FieldSpec, scalars, factors: int, terms: int):
        tops: dict[int, int] = {}  # denominator -> the largest numerator over it, in size
        for c in scalars:
            if c.spec is not spec and c.spec != spec:
                raise FieldMismatch(f"{c.spec} vs {spec}")
            top = max(map(abs, c.num))
            if tops.get(c.den, -1) < top:
                tops[c.den] = top
        self.spec, self.factors = spec, factors
        self.den = den = lcm(*tops)
        self.bits = self.modulus = 0
        d = spec.degree
        if d > 1:
            m = spec.conductor
            a = max([den] + [top * (den // e) for e, top in tops.items()])
            e = max(abs(x) for row in _high_powers(m) for _, x in row)
            k = terms * a**factors * (d * (1 + (d - 1) * e)) ** (factors - 1)
            phi = cyclotomic_poly(m)
            self.bits = bits = (2 * k + 2 * max(map(abs, phi))).bit_length()
            self.modulus = sum(h << (bits * i) for i, h in enumerate(phi))

    def __call__(self, c: Scalar) -> int:
        s = self.den // c.den
        if not self.bits:
            return c.num[0] * s
        v = 0
        for a in reversed(c.num):
            v = (v << self.bits) + a * s
        return v

    def row(self, row: dict) -> dict:
        """A sparse {index: Scalar} row mapped entry by entry."""
        return {k: self(c) for k, c in row.items()}

    def vanishes(self, acc: dict) -> bool:
        """Whether every value of acc, a sparse row of image sums, is the
        image of 0."""
        n = self.modulus
        if n:
            return not any([v % n for v in acc.values()])
        return not any(acc.values())

    def back(self, v: int) -> Scalar:
        """The Scalar whose image, as a sum of terms of `factors` factors, is v."""
        digits = [v]
        n = self.modulus
        if n:
            v %= n
            if 2 * v > n:
                v -= n
            half, mask = 1 << (self.bits - 1), (1 << self.bits) - 1
            digits = []
            for _ in range(self.spec.degree):
                x = v & mask
                x = x - (mask + 1) if x >= half else x
                digits.append(x)
                v = (v - x) >> self.bits
        scale = self.den**self.factors
        return Scalar(self.spec, [Fraction(x, scale) for x in digits])


@lru_cache(maxsize=None)
def zero(spec: FieldSpec) -> Scalar:
    return Scalar(spec, [Fraction(0)])


@lru_cache(maxsize=None)
def one(spec: FieldSpec) -> Scalar:
    return Scalar(spec, [Fraction(1)] + [Fraction(0)] * (spec.degree - 1))


def scalar(spec: FieldSpec, value) -> Scalar:
    """Coerce an int, Fraction, or serialized string into the field."""
    if isinstance(value, Scalar):
        if value.spec != spec:
            raise FieldMismatch(f"{value.spec} vs {spec}")
        return value
    if isinstance(value, str):
        return parse_scalar(spec, value)
    return Scalar(spec, [value])


def root_of_unity(spec: FieldSpec, k: int) -> Scalar:
    """zeta_m^k in canonical form; the rational field only contains zeta_1 = 1."""
    if not isinstance(k, int):
        raise NotCyclotomic(f"exponent must be an integer, got {k!r}")
    k %= spec.conductor
    coeffs = [0] * (k + 1)
    coeffs[k] = 1
    return Scalar(spec, coeffs)


# -- text form --------------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?:"
    r"(?P<coeff>[+-]?\d+(?:/\d+)?)(?:\*z(?:\^(?P<exp1>\d+))?)?"
    r"|(?P<sign>[+-]?)z(?:\^(?P<exp2>\d+))?"
    r")$"
)
_SIGNED_TERMS = re.compile(r"(?=[+-])")  # split points before each sign


def parse_scalar(spec: FieldSpec, text: str) -> Scalar:
    """Parse "p/q" or "c0 + c1*z + c2*z^2 + ..." (whitespace-insensitive).

    A plain integer or p/q literal, at most one sign and q nonzero, is read
    with int(); every other text goes through _parse_terms.  str.split()
    drops the same Unicode whitespace as the regex \\s, and compiles nothing.

    The literal path gives the answer _parse_terms gives, sooner where it
    counts: every CLI call runs in a fresh process, and there parsing "1"
    and "-1" took a median of about 0.47 ms through _parse_terms and 0.12 ms
    here (50 forked children each, x86-64 Linux, CPython 3.11).
    """
    s = "".join(text.split())
    body = s[1:] if s[:1] in ("+", "-") else s
    num, slash, den = body.partition("/")
    if num.isascii() and num.isdigit() and (not slash or (den.isascii() and den.isdigit() and int(den))):
        p, q = int(num), int(den) if slash else 1
        g = gcd(p, q)
        return _new(spec, ((-p if s[0] == "-" else p) // g,) + (0,) * (spec.degree - 1), q // g)
    return _parse_terms(spec, text)


def _parse_terms(spec: FieldSpec, text: str) -> Scalar:
    """parse_scalar by splitting the text into signed terms, each matched by
    _TERM_RE and read as a Fraction.  A sign that no term follows, as in
    "1 - - 2" or "1-", is a bad term."""
    s = "".join(text.split())
    if not s:
        raise ParseError("empty scalar")
    pieces = _SIGNED_TERMS.split(s)
    if not pieces[0]:  # the empty piece before a leading sign
        del pieces[0]
    accum: dict[int, Fraction] = {}
    for piece in pieces:
        mt = _TERM_RE.match(piece)
        if not mt:
            raise ParseError(f"bad term {piece!r} in scalar {text!r}")
        if mt.group("coeff") is not None:
            try:
                coeff = Fraction(mt.group("coeff"))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in term {piece!r} of scalar {text!r}") from None
            exp = 0
            if piece.find("*z") >= 0:
                exp = int(mt.group("exp1")) if mt.group("exp1") else 1
        else:
            coeff = Fraction(-1 if mt.group("sign") == "-" else 1)
            exp = int(mt.group("exp2")) if mt.group("exp2") else 1
        accum[exp] = accum.get(exp, Fraction(0)) + coeff
    if spec.kind == "rational" and any(e != 0 for e in accum):
        raise ParseError(f"z is not an element of the rational field: {text!r}")
    m = spec.conductor
    coeffs = [Fraction(0)] * m
    for exp, c in accum.items():
        coeffs[exp % m] += c
    return Scalar(spec, coeffs)  # z^m = 1, and the constructor reduces modulo Phi_m


def serialize_scalar(x: Scalar) -> str:
    """Canonical text form; parse_scalar round-trips it bit-exactly."""
    terms = []
    for exp, c in enumerate(x.coeffs):
        if c == 0:
            continue
        if exp == 0:
            body = str(abs(c))
        else:
            zpart = "z" if exp == 1 else f"z^{exp}"
            body = zpart if abs(c) == 1 else f"{abs(c)}*{zpart}"
        terms.append((c < 0, body))
    if not terms:
        return "0"
    out = []
    for i, (neg, body) in enumerate(terms):
        if i == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)

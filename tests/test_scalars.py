from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supercohom.errors import DivisionByZero, FieldMismatch, ParseError
from supercohom.scalars import (
    RATIONAL,
    FieldSpec,
    Scalar,
    cyclo,
    cyclotomic_poly,
    one,
    parse_scalar,
    root_of_unity,
    scalar,
    serialize_scalar,
    zero,
)

from util import arith, scalar_mul_oracle


# Independent oracle: schoolbook polynomial long division over Fractions,
# written here so the frozen cyclotomic values do not depend on the library.
def poly_divide(num, den):
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i] / den[-1]
        out[i - (len(den) - 1)] = c
        for j, dj in enumerate(den):
            num[i - (len(den) - 1) + j] -= c * dj
    assert all(c == 0 for c in num[: len(den) - 1])
    return out


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def test_cyclotomic_poly_trivial_cases():
    assert cyclotomic_poly(1) == (-1, 1)  # x - 1
    assert cyclotomic_poly(2) == (1, 1)  # x + 1
    assert cyclotomic_poly(4) == (1, 0, 1)  # x^2 + 1


def test_cyclotomic_poly_m6_against_division_oracle():
    # Phi_6 = (x^6 - 1) / (Phi_1 * Phi_2 * Phi_3), carried out independently.
    phi1, phi2, phi3 = [-1, 1], [1, 1], [1, 1, 1]
    divisor = poly_mul(poly_mul(phi1, phi2), phi3)
    x6m1 = [-1, 0, 0, 0, 0, 0, 1]
    expected = tuple(int(c) for c in poly_divide(x6m1, divisor))
    assert expected == (1, -1, 1)  # x^2 - x + 1, frozen
    assert cyclotomic_poly(6) == expected


def test_cyclotomic_poly_products_recover_xm_minus_1():
    for m in (1, 2, 3, 4, 5, 6, 8, 12):
        prod = [Fraction(1)]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = poly_mul(prod, list(cyclotomic_poly(d)))
        target = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
        assert prod == target


def test_arith_examples():
    a = scalar(RATIONAL, Fraction(1, 2))
    b = scalar(RATIONAL, Fraction(1, 3))
    assert arith(a, b, "add") == scalar(RATIONAL, Fraction(5, 6))

    q4 = cyclo(4)
    i = root_of_unity(q4, 1)
    assert i * i == -one(q4)

    q5 = cyclo(5)
    total = zero(q5)
    for k in range(5):
        total = total + root_of_unity(q5, k)
    assert total.is_zero()


def test_root_of_unity_examples():
    q4 = cyclo(4)
    assert root_of_unity(q4, 2) == -one(q4)
    assert root_of_unity(q4, 5) == root_of_unity(q4, 1)

    # zeta_3^2 reduced mod x^2 + x + 1 is -1 - zeta_3.
    q3 = cyclo(3)
    assert root_of_unity(q3, 2) == Scalar(q3, [-1, -1])


def test_root_of_unity_rational_spec():
    assert root_of_unity(RATIONAL, 0) == one(RATIONAL)
    assert root_of_unity(RATIONAL, 7) == one(RATIONAL)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 12])
def test_mth_power_of_every_root_is_one(m):
    spec = cyclo(m)
    for k in range(m):
        z = root_of_unity(spec, k)
        acc = one(spec)
        for _ in range(m):
            acc = acc * z
        assert acc == one(spec)


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def scalars_in(m):
    spec = cyclo(m) if m > 1 else RATIONAL
    deg = spec.degree
    return st.lists(small_fractions, min_size=deg, max_size=deg).map(
        lambda cs: Scalar(spec, cs)
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 12])
def test_field_axioms(m):
    @given(scalars_in(m), scalars_in(m), scalars_in(m))
    def axioms(a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == one(a.spec)
            assert (b / a) * a == b

    axioms()


@pytest.mark.parametrize("m", [3, 4, 5, 8, 12])
def test_product_matches_long_division_oracle(m):
    # The product reduces through a cached table of z^k mod Phi_m; the
    # schoolbook product reduced by long division is the reference.
    @given(scalars_in(m), scalars_in(m))
    def prop(a, b):
        got = a * b
        assert got == scalar_mul_oracle(a, b)
        assert all(type(c) is Fraction for c in got.coeffs)
        assert len(got.coeffs) == a.spec.degree

    prop()


def test_division_by_zero():
    q4 = cyclo(4)
    with pytest.raises(DivisionByZero):
        one(q4) / zero(q4)
    with pytest.raises(DivisionByZero):
        zero(RATIONAL).inverse()


def test_field_mismatch_between_rational_and_conductor_one():
    # Same underlying field, deliberately distinct specs.
    with pytest.raises(FieldMismatch):
        one(RATIONAL) + one(cyclo(1))


def test_canonical_form_idempotence():
    q4 = cyclo(4)
    # z^3 fed in as a length-4 vector must reduce once and stay put.
    x = Scalar(q4, [0, 0, 0, 1])
    y = Scalar(q4, list(x.coeffs))
    assert x == y
    assert x == -root_of_unity(q4, 1)


@pytest.mark.parametrize("m", [1, 3, 4, 5, 8, 12])
def test_serialize_parse_round_trip(m):
    spec = cyclo(m) if m > 1 else RATIONAL

    @given(scalars_in(m))
    def round_trip(x):
        assert parse_scalar(spec, serialize_scalar(x)) == x

    round_trip()


def test_parser_accepts_whitespace_and_signs():
    q4 = cyclo(4)
    assert parse_scalar(q4, " 1/2 -  3*z ") == Scalar(q4, [Fraction(1, 2), -3])
    assert parse_scalar(q4, "-z") == -root_of_unity(q4, 1)
    assert parse_scalar(q4, "z^2") == -one(q4)
    assert parse_scalar(RATIONAL, "-7/3") == scalar(RATIONAL, Fraction(-7, 3))


def test_parser_rejects_garbage():
    with pytest.raises(ParseError):
        parse_scalar(RATIONAL, "")
    with pytest.raises(ParseError):
        parse_scalar(RATIONAL, "z")
    with pytest.raises(ParseError):
        parse_scalar(cyclo(4), "1 + q")


def test_serialization_examples():
    assert serialize_scalar(scalar(RATIONAL, Fraction(-7, 3))) == "-7/3"
    assert serialize_scalar(scalar(RATIONAL, 5)) == "5"
    q4 = cyclo(4)
    x = Scalar(q4, [Fraction(1, 2), Fraction(-3, 4)])
    assert serialize_scalar(x) == "1/2 - 3/4*z"
    assert serialize_scalar(zero(q4)) == "0"

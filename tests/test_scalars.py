from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supercohom.errors import DivisionByZero, FieldMismatch, ParseError
from supercohom.scalars import (
    RATIONAL,
    _parse_terms,
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

from util import (
    arith,
    fraction_scalar_add,
    fraction_scalar_inverse,
    fraction_scalar_mul,
    fraction_scalar_sub,
    regex_parse_scalar,
    scalar_mul_oracle,
)


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


def test_the_rational_field_is_the_conductor_one_case():
    # Phi_1 = x - 1 has degree 1 and zeta_1^k = 1, so Q needs no branch of
    # its own for either.
    assert FieldSpec("rational").degree == 1
    for k in (-3, 0, 5):
        assert root_of_unity(RATIONAL, k) == one(RATIONAL)


@given(st.fractions())
def test_a_rational_prints_as_its_fraction(q):
    assert serialize_scalar(scalar(RATIONAL, q)) == str(q)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 12])
def test_a_power_of_z_parses_to_that_root_of_unity(m):
    # Exponents at and above the degree, and at and above m, reduce as the
    # constructor reduces them.
    spec = cyclo(m)
    for k in range(3 * m):
        assert parse_scalar(spec, f"z^{k}") == root_of_unity(spec, k)


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


# -- integer numerators over one denominator, against the Fraction oracle ---------

ORACLE_FIELDS = [1, 3, 4, 5, 8, 12]


def mixed_scalars(m):
    """Dense, rational and zero scalars, with denominators that share factors."""
    spec = cyclo(m) if m > 1 else RATIONAL
    wide = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    dense = st.lists(wide, min_size=spec.degree, max_size=spec.degree)
    return st.one_of(dense, st.lists(wide, min_size=1, max_size=1), st.just([0])).map(
        lambda cs: Scalar(spec, cs)
    )


def assert_canonical(x):
    assert type(x.den) is int and x.den > 0
    assert all(type(n) is int for n in x.num)
    assert len(x.num) == x.spec.degree
    assert gcd(x.den, *x.num) == 1
    if x.is_zero():
        assert x.num == (0,) * x.spec.degree and x.den == 1


@pytest.mark.parametrize("m", ORACLE_FIELDS)
def test_arithmetic_matches_fraction_oracle(m):
    @given(mixed_scalars(m), mixed_scalars(m))
    def prop(a, b):
        spec = a.spec
        assert (a + b).coeffs == fraction_scalar_add(a.coeffs, b.coeffs)
        assert (a - b).coeffs == fraction_scalar_sub(a.coeffs, b.coeffs)
        assert (-a).coeffs == tuple(-c for c in a.coeffs)
        assert (a * b).coeffs == fraction_scalar_mul(spec, a.coeffs, b.coeffs)
        if not a.is_zero():
            inv = fraction_scalar_inverse(spec, a.coeffs)
            assert a.inverse().coeffs == inv
            assert (b / a).coeffs == fraction_scalar_mul(spec, b.coeffs, inv)

    prop()


@pytest.mark.parametrize("m", ORACLE_FIELDS)
def test_results_stay_canonical(m):
    rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)

    @given(mixed_scalars(m), mixed_scalars(m), rationals)
    def prop(a, b, q):
        r = Scalar(a.spec, [q])
        results = [a, a + b, a - b, -a, a * b, a + (-a), a - a, a * r, r * a, a * zero(a.spec)]
        if not a.is_zero():
            results += [a.inverse(), b / a, a / a]
        for x in results:
            assert_canonical(x)

    prop()


@pytest.mark.parametrize("m", ORACLE_FIELDS)
def test_equal_scalars_hash_equal(m):
    # Vector.__hash__ hashes its scalars, so equal values built by different
    # routes must hash alike.
    spec = cyclo(m) if m > 1 else RATIONAL
    few = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2)])
    tiny = st.lists(few, min_size=spec.degree, max_size=spec.degree).map(lambda cs: Scalar(spec, cs))

    @given(tiny, tiny, mixed_scalars(m))
    def prop(x, y, c):
        if x == y:
            assert hash(x) == hash(y)
        for same in ((x + c) - c, (x * c) / c if not c.is_zero() else x, Scalar(spec, x.coeffs)):
            assert same == x and hash(same) == hash(x)

    prop()


@pytest.mark.parametrize("m", ORACLE_FIELDS)
def test_serialize_parse_round_trip(m):
    spec = cyclo(m) if m > 1 else RATIONAL

    @given(mixed_scalars(m))
    def round_trip(x):
        text = serialize_scalar(x)
        assert parse_scalar(spec, text) == x
        assert serialize_scalar(parse_scalar(spec, text)) == text

    round_trip()


def test_floats_are_refused():
    with pytest.raises(TypeError, match="float"):
        scalar(RATIONAL, 0.1)
    with pytest.raises(TypeError, match="float"):
        Scalar(RATIONAL, [0.5])
    with pytest.raises(TypeError, match="float"):
        Scalar(cyclo(4), [1, 0.5])
    assert scalar(RATIONAL, Fraction(1, 10)) == parse_scalar(RATIONAL, "1/10")


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
    with pytest.raises(FieldMismatch):
        one(RATIONAL) - one(cyclo(1))


def test_canonical_form_idempotence():
    q4 = cyclo(4)
    # z^3 fed in as a length-4 vector must reduce once and stay put.
    x = Scalar(q4, [0, 0, 0, 1])
    y = Scalar(q4, list(x.coeffs))
    assert x == y
    assert x == -root_of_unity(q4, 1)


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


@pytest.mark.parametrize("text", ["1 - - 2", "z--z", "1-", "--1", "+-1", "1+", "-", "2*z + - 1"])
def test_parser_refuses_a_sign_that_no_term_follows(text):
    # Each lone sign used to be dropped, so "1 - - 2" read as -1, "z--z" as
    # 0, "1-" as 1, and "--1" and "+-1" as -1.
    with pytest.raises(ParseError, match="bad term"):
        parse_scalar(cyclo(4), text)


@pytest.mark.parametrize("m", [1, 4, 5])
@pytest.mark.parametrize(
    "text",
    ["-3", "+2/4", " 1 / 2 ", "0", "-0", "007", "0/5", "-6/4", "12345678901234567890/3",
     "1/0", "1//2", "--3", "+-3", "1_0", "\u00b2", "3/-4", "1/", "/2", "+", "", " "],
)
def test_plain_literal_fast_path_matches_the_term_parser(text, m):
    # Literals the int() path reads give the same scalar as the regex path,
    # and literals it declines raise exactly what that path raises.
    spec = RATIONAL if m == 1 else cyclo(m)
    assert outcome(parse_scalar, spec, text) == outcome(_parse_terms, spec, text)


def outcome(parse, spec, text):
    """The parsed scalar, or the type and text of what parsing raised."""
    try:
        return parse(spec, text)
    except Exception as exc:  # noqa: BLE001 - the raised type and text are compared
        return type(exc), str(exc)


WHITESPACE = "\t\n\u00a0\u2003\x1c "


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize(
    "text",
    ["\t1/2", "1\n/\u00a02", "-\u20033", "\x1c+\x1c7", "1\u00a02", "z\t+\n1", "2 *\u2003z^\x1c3",
     "\u00a0", "\x1c\t", "1/\u20030", "1\u200b2", "\u00a0-\u00a0z", "3/\n4 - z"],
)
def test_unicode_whitespace_is_dropped_as_the_regex_dropped_it(text, m):
    spec = RATIONAL if m == 1 else cyclo(m)
    assert outcome(parse_scalar, spec, text) == outcome(regex_parse_scalar, spec, text)


@given(st.text(alphabet="0123/+-*z^q" + WHITESPACE, max_size=12), st.sampled_from([1, 4, 5]))
def test_parser_matches_the_regex_oracle(text, m):
    # str.split() and the regex \s drop the same characters, so every text
    # gives the same scalar, or the same exception type and text.
    spec = RATIONAL if m == 1 else cyclo(m)
    assert outcome(parse_scalar, spec, text) == outcome(regex_parse_scalar, spec, text)


def test_serialization_examples():
    assert serialize_scalar(scalar(RATIONAL, Fraction(-7, 3))) == "-7/3"
    assert serialize_scalar(scalar(RATIONAL, 5)) == "5"
    q4 = cyclo(4)
    x = Scalar(q4, [Fraction(1, 2), Fraction(-3, 4)])
    assert serialize_scalar(x) == "1/2 - 3/4*z"
    assert serialize_scalar(zero(q4)) == "0"

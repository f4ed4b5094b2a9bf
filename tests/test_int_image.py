"""The integer image of scalars (scalars.IntImage) on which the identity
sweeps add up their sums.

Over Q(zeta_m) a scalar maps to sum_k a_k B^k, read modulo N = Phi_m(B): a
ring map, exact while B exceeds the bound of its docstring.  The properties
run over Q and over Q(zeta_m) for m = 3, 4, 5, 8, 12, where the bound and
Phi_m differ.
"""

import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supercohom.errors import FieldMismatch
from supercohom.scalars import (
    RATIONAL,
    IntImage,
    Scalar,
    cyclo,
    cyclotomic_poly,
    one,
    root_of_unity,
    scalar,
)

CYCLOTOMIC = [cyclo(3), cyclo(4), cyclo(5), cyclo(8), cyclo(12)]
FIELDS = [RATIONAL] + CYCLOTOMIC


def scalars_over(spec):
    """Dense, rational and zero scalars, with denominators that share factors."""
    wide = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    dense = st.lists(wide, min_size=spec.degree, max_size=spec.degree)
    return st.one_of(dense, st.lists(wide, min_size=1, max_size=1), st.just([0])).map(
        lambda cs: Scalar(spec, cs)
    )


def with_bits(image, bits):
    """A copy of image with B = 2^bits and N = Phi_m(B)."""
    short = copy.copy(image)
    short.bits = bits
    short.modulus = sum(h << (bits * k) for k, h in enumerate(cyclotomic_poly(image.spec.conductor)))
    return short


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_the_image_is_a_ring_map(spec):
    @given(scalars_over(spec), scalars_over(spec))
    def prop(a, b):
        image = IntImage(spec, [a, b, a + b, a * b], 2, 3)
        unit = image.den  # the image of 1
        assert image.vanishes({0: unit * image(a) + unit * image(b) - unit * image(a + b)})
        assert image.vanishes({0: image(a) * image(b) - unit * image(a * b)})
        assert image.vanishes({0: unit * image(a) - unit * image(b)}) == (a == b)

    prop()


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_the_way_back_returns_the_scalar(spec):
    @given(scalars_over(spec), scalars_over(spec), scalars_over(spec))
    def prop(a, b, c):
        single = IntImage(spec, [a], 1, 1)
        assert single.back(single(a)) == a
        image = IntImage(spec, [a, b, c], 2, 2)
        assert image.back(image(a) * image(b) + image.den * image(c)) == a * b + c

    prop()


@pytest.mark.parametrize("spec", CYCLOTOMIC, ids=str)
def test_a_sum_that_vanishes_only_modulo_phi_is_zero(spec):
    # Phi_m(z) = 0 as the terms h_k z^k (k < d, each times 1) and z z^(d-1):
    # the int sum of their images is Phi_m(B) = N, not 0.
    d = spec.degree
    z, top, o = root_of_unity(spec, 1), root_of_unity(spec, d - 1), one(spec)
    phi = cyclotomic_poly(spec.conductor)
    low = [scalar(spec, h) * root_of_unity(spec, k) for k, h in enumerate(phi[:-1])]
    image = IntImage(spec, low + [z, top, o], 2, d + 1)
    total = image(z) * image(top) + sum(image(c) * image(o) for c in low)
    assert total == image.modulus != 0
    assert image.vanishes({0: total})
    assert image.back(total).is_zero()


@pytest.mark.parametrize("spec", CYCLOTOMIC, ids=str)
def test_the_bound_carries_weight(spec):
    # One scalar of largest numerator K = 2^10 gives the bound K, and B is
    # the least power of two above 2K + 2H = 2K + 2, which is 4K.
    K = 2**10
    planted = Scalar(spec, [-K, 1])  # z - K, which is not 0
    image = IntImage(spec, [planted], 1, 1)
    assert 1 << image.bits == 4 * K
    assert not image.vanishes({0: image(planted)})
    # Below K + H the zero test breaks: at B = K the image of z - K is 0.
    short = with_bits(image, image.bits - 2)
    assert short.vanishes({0: short(planted)})
    # One bit short, B = 2K still exceeds K + H, so the zero test holds.  The
    # margin is for the way back, which needs B > 2K + H: the digits K of
    # K (1 + z + ... + z^(d-1)) reach B/2 there, and it comes back wrong.
    short = with_bits(image, image.bits - 1)
    assert not short.vanishes({0: short(planted)})
    flat = Scalar(spec, [K] * spec.degree)
    image = IntImage(spec, [flat], 1, 1)
    assert image.back(image(flat)) == flat
    short = with_bits(image, image.bits - 1)
    assert short.back(short(flat)) != flat


def test_a_scalar_of_another_field_is_refused():
    with pytest.raises(FieldMismatch):
        IntImage(RATIONAL, [one(RATIONAL), one(cyclo(4))], 1, 1)
    with pytest.raises(FieldMismatch):
        IntImage(cyclo(4), [one(cyclo(3))], 1, 1)

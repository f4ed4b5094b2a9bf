import random
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest

from supercohom.errors import DegreeMismatch, LengthMismatch
from supercohom.graded import (
    GradedBasis,
    MultilinearMap,
    Vector,
    canonicalize_tuple,
    superalt_basis,
    superalt_count,
)
from supercohom.scalars import RATIONAL, one, scalar

from util import (
    BASIS_22,
    PermSigns,
    act_permutation,
    invert_perm,
    koszul_count,
    koszul_sign,
    perm_sign,
    permutation_canonicalize,
    rand_multilinear,
    rand_vector,
    superalt_expand,
)


def compose(s, sp):
    # (s o sp)(i) = s(sp(i))
    return tuple(s[x] for x in sp)


def test_graded_basis_enforces_even_before_odd():
    with pytest.raises(ValueError):
        GradedBasis(("x", "a"), (1, 0))
    b = GradedBasis(("a", "x"), (0, 1))
    assert b.dims == (1, 1)


def test_koszul_count_examples():
    assert koszul_count((0, 1), (1, 1)) == 0  # identity
    assert koszul_count((1, 0), (1, 1)) == 1  # odd-odd swap
    assert koszul_count((1, 0), (0, 1)) == 0  # even-odd swap


def test_koszul_sign_examples():
    assert koszul_sign((1, 0), (1, 1)) == 1
    assert koszul_sign((1, 0), (0, 1)) == -1
    assert koszul_sign((0, 1, 2), (1, 1, 1)) == 1


def test_koszul_length_mismatch():
    with pytest.raises(LengthMismatch):
        koszul_count((0, 1), (1,))


def test_perm_signs_record():
    ps = PermSigns.of((1, 0), (1, 1))
    assert ps.k_count == 1
    assert ps.eps == perm_sign((1, 0)) * (-1)


def test_koszul_composition_law_exhaustive_s3():
    # eps(s o sp, X) = eps(s, X) * eps(sp, s^{-1} X) over all of S3 x S3 x {0,1}^3
    for s in permutations(range(3)):
        for sp in permutations(range(3)):
            for X in product((0, 1), repeat=3):
                lhs = koszul_sign(compose(s, sp), X)
                x_after_s = tuple(X[s[i]] for i in range(3))
                rhs = koszul_sign(s, X) * koszul_sign(sp, x_after_s)
                assert lhs == rhs, (s, sp, X)


def test_act_permutation_identity_and_involution():
    rng = random.Random(7)
    F = rand_multilinear(BASIS_22, RATIONAL, rng, arity=3)
    ident = (0, 1, 2)
    assert act_permutation(ident, F) == F
    tau = (1, 0, 2)
    assert act_permutation(tau, act_permutation(tau, F)) == F


def test_act_permutation_is_group_action_exhaustive_s3():
    rng = random.Random(11)
    F = rand_multilinear(BASIS_22, RATIONAL, rng, arity=3, parity=1)
    for s in permutations(range(3)):
        for sp in permutations(range(3)):
            lhs = act_permutation(compose(s, sp), F)
            rhs = act_permutation(s, act_permutation(sp, F))
            assert lhs == rhs, (s, sp)


def test_act_permutation_degree_mismatch():
    rng = random.Random(3)
    F = rand_multilinear(BASIS_22, RATIONAL, rng, arity=2)
    with pytest.raises(DegreeMismatch):
        act_permutation((0, 1, 2), F)


def brute_force_canonical(basis, n):
    # Oracle: enumerate all tuples and keep those in canonical order.
    d0, _ = basis.dims
    out = []
    for tup in product(range(len(basis)), repeat=n):
        ev = [i for i in tup if basis.parities[i] == 0]
        od = [i for i in tup if basis.parities[i] == 1]
        if list(tup) != ev + od:
            continue
        if any(a >= b for a, b in zip(ev, ev[1:])):
            continue
        if any(a > b for a, b in zip(od, od[1:])):
            continue
        out.append(tup)
    return sorted(out)


@pytest.mark.parametrize(
    "names,parities,n,count",
    [
        (("a", "b", "x", "y"), (0, 0, 1, 1), 1, 4),
        (("a", "b", "x", "y"), (0, 0, 1, 1), 2, 8),
        (("a",), (0,), 2, 0),
        (("a", "x"), (0, 1), 0, 1),
        (("a", "b", "c"), (0, 0, 0), 4, 0),
    ],
)
def test_superalt_basis_counts(names, parities, n, count):
    basis = GradedBasis(names, parities)
    tuples = superalt_basis(basis, n)
    assert len(tuples) == count
    assert tuples == brute_force_canonical(basis, n)
    d0, d1 = basis.dims
    assert superalt_count(d0, d1, n) == count


def test_vector_results_that_vanish_have_no_coordinates():
    v = Vector({0: one(RATIONAL), 2: scalar(RATIONAL, -3)})
    assert v.scale(scalar(RATIONAL, 0)) == Vector()
    assert (v + (-v)).coords == {}
    assert (v + Vector({0: -one(RATIONAL)})).coords == {2: scalar(RATIONAL, -3)}


def test_superalt_basis_larger_dims_match_formula():
    basis = GradedBasis(("a", "b", "c", "x", "y"), (0, 0, 0, 1, 1))
    for n in range(5):
        tuples = superalt_basis(basis, n)
        assert tuples == brute_force_canonical(basis, n) if n else tuples == [()]
        d0, d1 = basis.dims
        if n:
            assert len(tuples) == superalt_count(d0, d1, n)


def test_canonicalize_tuple():
    par = BASIS_22.parities
    assert canonicalize_tuple((1, 0), par) == ((0, 1), -1)  # even-even swap
    assert canonicalize_tuple((3, 2), par) == ((2, 3), 1)  # odd-odd swap
    assert canonicalize_tuple((2, 0), par) == ((0, 2), -1)  # odd past even
    assert canonicalize_tuple((0, 1, 0), par) is None  # repeated even
    assert canonicalize_tuple((2, 2), par) == ((2, 2), 1)  # repeated odd ok


@pytest.mark.parametrize("dims", [(2, 2), (3, 2)], ids=["(2|2)", "(3|2)"])
def test_canonicalize_tuple_matches_the_permutation_oracle(dims):
    # The closed form (-1)^(out-of-order pairs not both odd) against
    # sign(sigma) * (-1)^(inverted odd-odd pairs) of the stable sort sigma,
    # on every tuple of length at most 4.
    d0, d1 = dims
    par = (0,) * d0 + (1,) * d1
    for n in range(5):
        for tup in product(range(d0 + d1), repeat=n):
            assert canonicalize_tuple(tup, par) == permutation_canonicalize(tup, par), tup


def make_expanded(rng, n, parity=0):
    canon = superalt_basis(BASIS_22, n)
    coords = []
    for tup in canon:
        want = (parity + sum(BASIS_22.parities[i] for i in tup)) % 2
        coords.append(rand_vector(BASIS_22, RATIONAL, rng, parity=want, zero_bias=0.4))
    return superalt_expand(BASIS_22, n, coords, BASIS_22, parity), canon, coords


def test_superalt_expand_zero_and_odd_diagonal():
    canon = superalt_basis(BASIS_22, 2)
    zero_coords = [Vector() for _ in canon]
    F = superalt_expand(BASIS_22, 2, zero_coords, BASIS_22, 0)
    assert not F.components

    # Put a value only on the odd-odd diagonal tuple (2, 2).
    coords = [Vector() for _ in canon]
    i = canon.index((2, 2))
    coords[i] = Vector.basis(0, RATIONAL)
    G = superalt_expand(BASIS_22, 2, coords, BASIS_22, 0)
    assert G.at((2, 2)) == Vector.basis(0, RATIONAL)
    tau = (1, 0)
    assert act_permutation(tau, G) == G


def test_superalt_expand_invariant_under_all_permutations():
    rng = random.Random(23)
    for n in (2, 3):
        F, _, _ = make_expanded(rng, n, parity=n % 2)
        for s in permutations(range(n)):
            assert act_permutation(s, F) == F


def test_superalt_expand_restriction_is_identity():
    rng = random.Random(31)
    F, canon, coords = make_expanded(rng, 3)
    for tup, vec in zip(canon, coords):
        assert F.at(tup) == vec


def test_superalt_expand_wrong_length():
    with pytest.raises(LengthMismatch):
        superalt_expand(BASIS_22, 2, [Vector()], BASIS_22, 0)


def test_alternating_iff_expanded():
    # A map fixed by all adjacent transpositions must equal the expansion of
    # its canonical restriction; a generic map must not.
    rng = random.Random(41)
    F, canon, coords = make_expanded(rng, 2)
    G = rand_multilinear(BASIS_22, RATIONAL, rng, arity=2)
    fixed = all(act_permutation((1, 0), H) == H for H in (F,))
    assert fixed
    assert act_permutation((1, 0), G) != G  # generic: not super-alternating


def test_invert_perm():
    s = (2, 0, 1)
    assert invert_perm(s) == (1, 2, 0)
    assert compose(s, invert_perm(s)) == (0, 1, 2)

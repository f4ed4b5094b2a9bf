"""Tests for the graded Lie algebra of super-alternating maps.

An element of degree z is a (z+1)-cochain from the space to itself; a vector
is a 0-cochain."""

import random
from itertools import product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supercohom.cohomology import Cochain, cochain_basis, coboundary, is_equivariant
from supercohom.errors import (
    BasisMismatch,
    DegreeOutOfRange,
    OracleDisagreement,
    WrongBidegree,
)
from supercohom.graded import Vector, superalt_basis
from supercohom.nr_bracket import (
    bracket_to_element,
    circ,
    element_to_bracket,
    mc_check,
    nr_bracket,
)
from supercohom.scalars import RATIONAL, cyclo, scalar
from supercohom.superalgebra import (
    adjoint_module,
    bracket_eval,
    make_gl,
    make_sl,
    make_super_poincare,
    validate_superalgebra,
)

from util import (
    abelian_algebra,
    act_permutation,
    add_maps,
    gl11_mu1,
    gl11_swap_rep,
    heisenberg_algebra,
    rand_cochain,
    rand_instance,
    shuffles,
    star,
    two_circ_nr_bracket,
    value_at,
)

ONE = scalar(RATIONAL, 1)
MINUS = scalar(RATIONAL, -1)


def rand_element(rng, L, z, parity, zero_bias=0.3):
    """A random element of degree z: a (z+1)-cochain from L to L."""
    return rand_cochain(rng, L, adjoint_module(L), z + 1, parity, zero_bias=zero_bias)


def basis_cochain(L, j):
    """The basis vector e_j as a 0-cochain."""
    return Cochain(0, L.basis.parities[j], L.basis, L.basis, {((), j): ONE})


def basis_vec(i):
    return Vector({i: ONE})


# -- shuffles -----------------------------------------------------------------


def test_shuffle_set_one_two():
    assert shuffles(1, 2) == [(0, 1, 2), (1, 0, 2), (2, 0, 1)]


@pytest.mark.parametrize("p,q", [(0, 3), (2, 0), (1, 1), (2, 2), (3, 2)])
def test_shuffle_counts_and_block_monotonicity(p, q):
    sigmas = shuffles(p, q)
    assert len(sigmas) == comb(p + q, p)
    assert len(set(sigmas)) == len(sigmas)
    for s in sigmas:
        assert sorted(s) == list(range(p + q))
        assert list(s[:p]) == sorted(s[:p])
        assert list(s[p:]) == sorted(s[p:])


def test_shuffle_degenerate_blocks_are_identity():
    assert shuffles(0, 4) == [(0, 1, 2, 3)]
    assert shuffles(4, 0) == [(0, 1, 2, 3)]


# -- star ---------------------------------------------------------------------


def test_star_of_bracket_with_itself_is_nested_bracket():
    L = make_gl(1, 1)
    F0 = bracket_to_element(L)
    raw = star(F0, F0)
    assert raw.arity == 3 and raw.parity == 0
    for T in product(range(len(L.basis)), repeat=3):
        a, b, c = T
        want = bracket_eval(L, basis_vec(a), bracket_eval(L, basis_vec(b), basis_vec(c)))
        assert raw.at(T) == want


def test_star_even_second_factor_has_no_prefactor():
    rng = random.Random(11)
    L = abelian_algebra(2, 2)
    M = adjoint_module(L)
    F = rand_cochain(rng, L, M, 2, 1, 0.2)
    Fp = rand_cochain(rng, L, M, 2, 0, 0.2)
    raw = star(F, Fp)
    for T in product(range(len(L.basis)), repeat=3):
        inner = value_at(Fp, T[1:])
        want = Vector()
        for k, c in inner.coords.items():
            want = want + value_at(F, (T[0], k)).scale(c)
        assert raw.at(T) == want


def test_star_odd_second_factor_sign_flips_with_head_parity():
    L = make_gl(1, 1)
    # F(x, y) projects onto the coefficient of the second slot; F' picks out e12
    F = Cochain(2, 0, L.basis, L.basis, {((2, 3), 0): ONE})
    Fp = Cochain(1, 1, L.basis, L.basis, {((0,), 2): ONE})
    raw = star(F, Fp)
    # F(e12, e12) vanishes, so only the e21 head survives
    assert raw.at((2, 0)).is_zero()
    got = raw.at((3, 0))
    # F*(e21, e11): inner = F'(e11) = e12, head parity 1 -> -F(e21, e12)
    want = value_at(F, (3, 2)).scale(MINUS)
    assert got == want


def test_star_parity_is_additive():
    rng = random.Random(3)
    L = abelian_algebra(1, 2)
    for f1, f2 in product((0, 1), repeat=2):
        F = rand_element(rng, L, 1, f1, zero_bias=0.2)
        Fp = rand_element(rng, L, 0, f2, zero_bias=0.2)
        assert star(F, Fp).parity == (f1 + f2) % 2


def test_star_rejects_two_vector_strata_operands():
    L = make_gl(1, 1)
    v = rand_element(random.Random(1), L, -1, 0, zero_bias=0.0)
    w = rand_element(random.Random(2), L, -1, 1, zero_bias=0.0)
    with pytest.raises(DegreeOutOfRange):
        star(v, w)


# -- circ ---------------------------------------------------------------------


def test_circ_with_unary_first_factor_equals_star():
    rng = random.Random(5)
    L = make_gl(1, 1)
    M = adjoint_module(L)
    for parity in (0, 1):
        F = rand_cochain(rng, L, M, 1, parity, 0.2)
        Fp = bracket_to_element(L)
        out = circ(F, Fp)
        raw = star(F, Fp)
        for S in superalt_basis(L.basis, 2):
            assert value_at(out, S) == raw.at(S)


def test_circ_matches_twisted_action_shuffle_sum():
    rng = random.Random(17)
    L = abelian_algebra(2, 2)
    for z1, z2 in [(1, 0), (1, 1), (2, 1)]:
        F = rand_element(rng, L, z1, rng.randint(0, 1), zero_bias=0.2)
        Fp = rand_element(rng, L, z2, rng.randint(0, 1), zero_bias=0.2)
        raw = star(F, Fp)
        total = None
        for sigma in shuffles(z1, z2 + 1):
            acted = act_permutation(sigma, raw)
            total = acted if total is None else add_maps(total, acted)
        out = circ(F, Fp)
        for S in superalt_basis(L.basis, z1 + z2 + 1):
            assert value_at(out, S) == total.at(S)


def test_circ_output_is_superalternating():
    rng = random.Random(23)
    L = abelian_algebra(2, 2)
    F = rand_element(rng, L, 1, 1, zero_bias=0.2)
    Fp = rand_element(rng, L, 1, 0, zero_bias=0.2)
    out = circ(F, Fp)
    full = None
    for sigma in shuffles(1, 2):
        acted = act_permutation(sigma, star(F, Fp))
        full = acted if full is None else add_maps(full, acted)
    # adjacent transpositions must fix the shuffle sum
    for sigma in [(1, 0, 2), (0, 2, 1)]:
        assert act_permutation(sigma, full) == full
    assert out.arity == 3 and out.parity == 1


def test_circ_vector_second_factor_plugs_in():
    L = make_gl(1, 1)
    F0 = bracket_to_element(L)
    for j in range(len(L.basis)):
        pv = L.basis.parities[j]
        out = circ(F0, basis_cochain(L, j))
        assert (out.arity, out.parity) == (1, pv)
        for i in range(len(L.basis)):
            sign = MINUS if pv and L.basis.parities[i] else ONE
            want = bracket_eval(L, basis_vec(i), basis_vec(j)).scale(sign)
            assert value_at(out, (i,)) == want


def test_circ_vector_first_factor_collapses_to_zero():
    L = make_gl(1, 1)
    F0 = bracket_to_element(L)
    out = circ(basis_cochain(L, 2), F0)
    assert out.is_zero() and out.arity == 1


def test_circ_of_two_vectors_is_out_of_range():
    L = make_gl(1, 1)
    v = basis_cochain(L, 0)
    with pytest.raises(DegreeOutOfRange):
        circ(v, v)


def test_circ_rejects_mismatched_spaces():
    L = make_gl(1, 1)
    H = heisenberg_algebra()
    with pytest.raises(BasisMismatch):
        circ(bracket_to_element(L), bracket_to_element(H))


# -- the graded bracket -------------------------------------------------------


def test_bracket_square_is_twice_circ_for_bilinear_even():
    L = make_gl(1, 1)
    F0 = bracket_to_element(L)
    sq = nr_bracket(F0, F0)
    doubled = circ(F0, F0).scale(scalar(RATIONAL, 2))
    assert sq == doubled


@pytest.mark.parametrize("cyclotomic", [False, True], ids=["Q", "Q(zeta4)"])
@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_self_bracket_matches_the_two_circ_formula(arity, parity, cyclotomic):
    # [F, F] is one circ: zero when (arity - 1)^2 + parity is even, else F o F
    # added to itself; the oracle computes both circs.
    spec = cyclo(4) if cyclotomic else RATIONAL
    rng = random.Random(1000 * arity + 10 * parity + cyclotomic)
    cancels = ((arity - 1) ** 2 + parity) % 2 == 0
    nonzero = 0
    for _ in range(6):
        L, _ = rand_instance(rng, spec)
        F = rand_element(rng, L, arity - 1, parity)
        got = nr_bracket(F, F)
        assert got == two_circ_nr_bracket(F, F)
        assert (got.arity, got.parity) == (2 * arity - 1, 0)
        if cancels:
            assert got.is_zero()
        else:
            assert got == circ(F, F).scale(scalar(spec, 2))
            nonzero += not got.is_zero()
    assert cancels or nonzero, "no instance reached a nonzero [F, F]"


def test_self_bracket_keeps_the_errors_of_circ():
    L = make_gl(1, 1)
    v = basis_cochain(L, 0)
    with pytest.raises(DegreeOutOfRange):
        nr_bracket(v, v)
    H = heisenberg_algebra()
    for parity in (0, 1):  # both branches: the zero one and the doubled one
        foreign = Cochain(1, parity, L.basis, H.basis, {})
        with pytest.raises(BasisMismatch):
            nr_bracket(foreign, foreign)


def test_bracket_graded_antisymmetry():
    rng = random.Random(29)
    L = abelian_algebra(2, 2)
    for _ in range(8):
        z1, z2 = rng.choice([(0, 0), (0, 1), (1, 1), (1, 2)])
        f1, f2 = rng.randint(0, 1), rng.randint(0, 1)
        F = rand_element(rng, L, z1, f1, zero_bias=0.3)
        Fp = rand_element(rng, L, z2, f2, zero_bias=0.3)
        lhs = nr_bracket(F, Fp)
        rhs = nr_bracket(Fp, F)
        sign = MINUS if (z1 * z2 + f1 * f2) % 2 == 0 else ONE
        assert lhs == rhs.scale(sign)


def test_pre_lie_identity_on_random_triples():
    rng = random.Random(31)
    L = abelian_algebra(2, 2)
    for _ in range(6):
        zs = [rng.randint(0, 1) for _ in range(3)]
        fs = [rng.randint(0, 1) for _ in range(3)]
        F, Fp, Fpp = (
            rand_element(rng, L, z, f, zero_bias=0.35) for z, f in zip(zs, fs)
        )
        lhs = circ(circ(F, Fp), Fpp).add(circ(F, circ(Fp, Fpp)).scale(MINUS))
        rhs = circ(circ(F, Fpp), Fp).add(circ(F, circ(Fpp, Fp)).scale(MINUS))
        if (zs[1] * zs[2] + fs[1] * fs[2]) % 2:
            rhs = rhs.scale(MINUS)
        assert lhs == rhs


def test_graded_jacobi_identity():
    rng = random.Random(37)
    L = abelian_algebra(2, 2)
    picks = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (2, 0, 0)]
    for zs in picks:
        fs = [rng.randint(0, 1) for _ in range(3)]
        F, Fp, Fpp = (
            rand_element(rng, L, z, f, zero_bias=0.35) for z, f in zip(zs, fs)
        )
        lhs = nr_bracket(F, nr_bracket(Fp, Fpp))
        rhs = nr_bracket(nr_bracket(F, Fp), Fpp)
        inner = nr_bracket(Fp, nr_bracket(F, Fpp))
        if (zs[0] * zs[1] + fs[0] * fs[1]) % 2:
            inner = inner.scale(MINUS)
        rhs = rhs.add(inner)
        assert lhs == rhs


def test_equivariant_elements_close_under_circ_and_bracket():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = gl11_swap_rep(L)
    F0 = bracket_to_element(L)
    mu1 = gl11_mu1(L)
    units = cochain_basis(1, L, M, rep=(rep, rep))
    assert units
    unary = units[0]
    for A, B in [(F0, mu1), (mu1, unary), (F0, unary)]:
        assert is_equivariant(A, rep, rep, L, M)
        assert is_equivariant(B, rep, rep, L, M)
        for out in (circ(A, B), nr_bracket(A, B)):
            if not out.is_zero():
                assert is_equivariant(out, rep, rep, L, M)


# -- Maurer-Cartan ------------------------------------------------------------


def test_mc_check_accepts_gl11_bracket():
    L = make_gl(1, 1)
    report = mc_check(bracket_to_element(L), L.spec)
    assert report.is_mc and report.jacobi_ok and report.residual.is_zero()


def test_mc_check_accepts_zero_bracket():
    L = abelian_algebra(2, 1)
    report = mc_check(Cochain(2, 0, L.basis, L.basis, {}), RATIONAL)
    assert report.is_mc


def test_mc_check_reports_a_verdict_that_the_jacobi_sweep_contradicts(monkeypatch):
    from supercohom import nr_bracket as nr

    L = make_gl(1, 1)
    F0 = bracket_to_element(L)
    # [F, F] planted nonzero for a bracket whose Jacobi identity holds
    monkeypatch.setattr(nr, "nr_bracket", lambda f, g: coboundary(gl11_mu1(L), L, adjoint_module(L)))
    with pytest.raises(OracleDisagreement, match="^Maurer-Cartan verdict and the super-Jacobi sweep disagree"):
        mc_check(F0, L.spec)


def test_mc_check_rejects_perturbed_bracket():
    L = make_gl(1, 1)
    F0 = bracket_to_element(L)
    coords = dict(F0.coords)
    key = sorted(coords)[0]
    coords[key] = coords[key] + ONE
    bad = Cochain(2, 0, L.basis, L.basis, coords)
    report = mc_check(bad, RATIONAL)
    assert not report.is_mc
    assert not report.residual.is_zero()
    assert not report.jacobi_ok


def test_mc_check_rejects_wrong_bidegree():
    L = make_gl(1, 1)
    with pytest.raises(WrongBidegree):
        mc_check(Cochain(3, 0, L.basis, L.basis, {}), RATIONAL)
    with pytest.raises(WrongBidegree):
        mc_check(Cochain(2, 1, L.basis, L.basis, {}), RATIONAL)


# -- conversions --------------------------------------------------------------


def test_round_trip_on_gl21():
    L = make_gl(2, 1)
    F = bracket_to_element(L)
    back = element_to_bracket(F, L.spec)
    assert back.bracket == L.bracket
    assert bracket_to_element(back) == F


@pytest.mark.parametrize(
    "make",
    [lambda: make_gl(1, 1), lambda: make_gl(1, 2), lambda: make_sl(2, 1), make_super_poincare, heisenberg_algebra],
    ids=["gl11", "gl12", "sl21", "super_poincare", "heisenberg"],
)
def test_round_trip_keeps_the_catalogue_tables(make):
    L = make()
    assert element_to_bracket(bracket_to_element(L), L.spec).bracket == L.bracket


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_round_trip_keeps_the_bracket_table(seed, cyclotomic):
    L, _ = rand_instance(random.Random(seed), cyclo(4) if cyclotomic else RATIONAL)
    assert element_to_bracket(bracket_to_element(L), L.spec).bracket == L.bracket


def test_element_to_bracket_mirrors_antisymmetry():
    L = make_gl(1, 1)
    back = element_to_bracket(bracket_to_element(L), L.spec)
    par = L.basis.parities
    n = len(L.basis)
    for i in range(n):
        for j in range(n):
            sign = ONE if (par[i] * par[j]) % 2 else MINUS
            assert back.bracket.at((j, i)) == back.bracket.at((i, j)).scale(sign)


def test_element_to_bracket_of_non_mc_candidate_fails_jacobi():
    L = make_gl(1, 1)
    F0 = bracket_to_element(L)
    coords = dict(F0.coords)
    key = sorted(coords)[-1]
    coords[key] = coords[key] + ONE
    bad = Cochain(2, 0, L.basis, L.basis, coords)
    candidate = element_to_bracket(bad, L.spec)
    assert not validate_superalgebra(candidate).holds("jacobi")


def test_conversion_preserves_equivariance_verdict():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = gl11_swap_rep(L)
    F0 = bracket_to_element(L)
    assert is_equivariant(F0, rep, rep, L, M)
    # skewing one structure constant breaks equivariance under the swap
    coords = dict(F0.coords)
    coords[((0, 2), 2)] = coords[((0, 2), 2)] + ONE
    skew = Cochain(2, 0, L.basis, L.basis, coords)
    assert not is_equivariant(skew, rep, rep, L, M)


# -- consistency with the coboundary ------------------------------------------


@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 1), st.booleans())
def test_bracket_with_structure_element_is_plus_coboundary(seed, arity, parity, cyclotomic):
    """delta f == +[mu, f] on the adjoint module, with mu the structure
    element, for f of arity 0 to 3 (vectors are 0-cochains) and either
    parity, on random algebras over Q and Q(zeta_4)."""
    rng = random.Random(seed)
    L, _ = rand_instance(rng, cyclo(4) if cyclotomic else RATIONAL)
    M = adjoint_module(L)
    f = rand_cochain(rng, L, M, arity, parity, zero_bias=0.3)
    assert coboundary(f, L, M) == nr_bracket(bracket_to_element(L), f)


def test_delta_bracket_sign_table_script_reads_plus_one():
    """scripts/delta_bracket_sign_table.py runs on the library as it is and
    finds delta f = +[mu, f] in every bidegree it probes."""
    import os
    import subprocess
    import sys

    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "delta_bracket_sign_table.py")
    run = subprocess.run([sys.executable, script], capture_output=True, text=True, check=True)
    header, *rows = run.stdout.splitlines()
    assert header.split() == ["fixture", "arity", "z", "parity", "sign"]
    assert len(rows) == 16  # two fixtures, arities 0-3, both parities
    for row in rows:
        assert row.endswith("  +1") or row.endswith("  (all zero)"), row


# -- element plumbing ---------------------------------------------------------


def test_element_validation_errors():
    L = make_gl(1, 1)
    with pytest.raises(ValueError):
        Cochain(0, 0, L.basis, L.basis, {((), 2): ONE})  # odd vector tagged even
    F0 = bracket_to_element(L)
    H = heisenberg_algebra()
    with pytest.raises(BasisMismatch):
        circ(F0, Cochain(2, 0, H.basis, H.basis, {}))
    # a map from L to another space is no element of the graded Lie algebra on L
    with pytest.raises(BasisMismatch):
        circ(F0, Cochain(1, 0, L.basis, H.basis, {}))
    with pytest.raises(BasisMismatch):
        element_to_bracket(Cochain(2, 0, L.basis, H.basis, {}), RATIONAL)
    with pytest.raises(DegreeOutOfRange):
        nr_bracket(basis_cochain(L, 0), basis_cochain(L, 1))
    with pytest.raises(WrongBidegree):
        element_to_bracket(Cochain(2, 1, L.basis, L.basis, {}), RATIONAL)


def test_element_add_and_scale():
    L = make_gl(1, 1)
    F0 = bracket_to_element(L)
    doubled = F0.add(F0)
    assert doubled == F0.scale(scalar(RATIONAL, 2))
    assert F0.add(F0.scale(MINUS)).is_zero()
    with pytest.raises(ValueError):
        F0.add(Cochain(1, 0, L.basis, L.basis, {}))

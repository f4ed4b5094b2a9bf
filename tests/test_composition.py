"""The sparse Nijenhuis-Richardson composition and the row-form coboundary
solve against the element-wise oracles in util.py.

circ must equal the shuffle-by-shuffle product on every pair of cochains
of arities 0 to 3 (vectors are 0-cochains), over Q and Q(zeta_4).  The deformation identity, the
obstruction and its next term must equal the triple loops solved densely by
Bareiss elimination, and coboundary_preimage must agree with a Bareiss solve
against the cochain-by-cochain coboundary matrix, also for targets that are
nonzero where delta . B has no row at all.
"""

import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from supercohom.cohomology import Cochain, coboundary, coboundary_preimage, cochain_basis
from supercohom.deformation import (
    Deformation,
    check_order,
    obstruction,
    validate,
)
from supercohom.errors import DegreeOutOfRange, NotValidated
from supercohom.graded import GradedBasis, cochain_coords
from supercohom.group_action import cyclic_group, trivial_action
from supercohom.linalg import solve_rows
from supercohom.nr_bracket import bracket_to_element, circ
from supercohom.scalars import RATIONAL, cyclo, one, scalar, zero
from supercohom.superalgebra import adjoint_module, make_gl

from util import (
    abelian_algebra,
    bareiss_solve,
    coboundary_matrix_raw,
    elementwise_check_order,
    elementwise_circ,
    elementwise_obstruction,
    gl11_mu1,
    gl11_swap_rep,
    nullspace,
    rand_cochain,
    rand_instance,
    rand_module,
    rand_scalar,
)

seeds = st.integers(0, 2**32 - 1)
arities = st.integers(0, 3)
parities = st.integers(0, 1)


# -- circ ----------------------------------------------------------------------


@given(seeds, arities, arities, parities, parities, st.booleans())
def test_circ_matches_elementwise_oracle(seed, a, ap, p, pp, cyclotomic):
    assume(a + ap >= 1)
    rng = random.Random(seed)
    spec = cyclo(4) if cyclotomic else RATIONAL
    L = abelian_algebra(rng.randint(0, 2), rng.randint(1, 2), spec)
    M = adjoint_module(L)
    F = rand_cochain(rng, L, M, a, p, zero_bias=0.4 if a == 0 else 0.6)
    Fp = rand_cochain(rng, L, M, ap, pp, zero_bias=0.4 if ap == 0 else 0.6)
    assert circ(F, Fp) == elementwise_circ(F, Fp)


def test_circ_below_the_vector_stratum_raises_like_the_oracle():
    L = abelian_algebra(1, 1)
    v = Cochain(0, 0, L.basis, L.basis, {((), 0): one(L.spec)})
    for f in (circ, elementwise_circ):
        with pytest.raises(DegreeOutOfRange):
            f(v, v)


def test_circ_counts_the_shuffles_that_move_a_repeated_odd_index():
    # On (x | q): F(q, q) = x and F'(q, q) = q.  At S = (q, q, q) the head
    # (q,) and the tail (q, q) come from C(3, 1) = 3 shuffles, each with
    # Koszul sign +1 (all entries odd), and F' and the head are both odd, so
    # (F o F')(q, q, q) = -3 x.
    basis = GradedBasis(("x", "q"), (0, 1))
    o = one(RATIONAL)
    F = Cochain(2, 0, basis, basis, {((1, 1), 0): o})
    Fp = Cochain(2, 1, basis, basis, {((1, 1), 1): o})
    expected = {((1, 1, 1), 0): scalar(RATIONAL, -3)}
    assert circ(F, Fp).coords == expected
    assert elementwise_circ(F, Fp).coords == expected


def test_circ_matches_the_oracle_on_unit_cochains_that_repeat_an_odd_index():
    # On (x | q, r), every unit cochain F of arity 2 or 3 against every unit
    # F' of arity 1 or 2, wherever F or F' repeats an odd index: the merged
    # key, the shuffle sign and the shuffle count all come from one
    # canonicalize_tuple of head + tail.
    basis = GradedBasis(("x", "q", "r"), (0, 1, 1))
    o = one(RATIONAL)

    def units(n):
        for T, j in cochain_coords(basis, n, basis):
            parity = (sum(basis.parities[i] for i in T) + basis.parities[j]) % 2
            yield len(set(T)) < len(T), Cochain(n, parity, basis, basis, {(T, j): o})

    pairs = 0
    for a in (2, 3):
        for repeats, F in units(a):
            for repeats_p, Fp in units(a - 1):
                if repeats or repeats_p:
                    assert circ(F, Fp) == elementwise_circ(F, Fp), (F.coords, Fp.coords)
                    pairs += 1
    assert pairs > 100


# -- the deformation identity and the obstruction -------------------------------


def _instance(rng, cyclotomic, with_action):
    spec = cyclo(4) if cyclotomic else RATIONAL
    L, rep = rand_instance(rng, spec, with_action=with_action, max_d0=2, max_d1=2)
    if rep is None:
        rep = trivial_action(cyclic_group(1), spec, L.basis.parities)
    return L, rep


@given(seeds, st.integers(1, 2), st.booleans())
def test_check_order_matches_the_triple_loop(seed, order, cyclotomic):
    rng = random.Random(seed)
    L, rep = _instance(rng, cyclotomic, False)
    M = adjoint_module(L)
    terms = [bracket_to_element(L)] + [rand_cochain(rng, L, M, 2, 0, zero_bias=0.7) for _ in range(order)]
    d = Deformation(L, rep, terms)
    for r in range(2 * order + 1):
        assert check_order(d, r) == elementwise_check_order(d, r)


def _rand_cocycle(rng, L, rep):
    """A random even equivariant 2-cocycle of the adjoint module."""
    M = adjoint_module(L)
    basis = [f for f in cochain_basis(2, L, M, rep=rep) if f.parity == 0]
    mu = Cochain(2, 0, L.basis, L.basis, {})
    for v in nullspace(coboundary_matrix_raw(basis, 2, L, M), len(basis), L.spec):
        c = scalar(L.spec, rng.randint(-2, 2))
        for k, x in enumerate(v):
            if not x.is_zero():
                mu = mu.add(basis[k].scale(c * x))
    return mu


@given(seeds, st.booleans(), st.booleans())
def test_obstruction_matches_the_triple_loop_and_dense_solve(seed, cyclotomic, with_action):
    rng = random.Random(seed)
    L, rep = _instance(rng, cyclotomic, with_action)
    d = Deformation(L, rep, [bracket_to_element(L), _rand_cocycle(rng, L, rep)])
    for _ in range(2):
        rpt, want = obstruction(d), elementwise_obstruction(d)
        assert (rpt.cochain, rpt.solvable, rpt.next_term, rpt.closed) == (
            want.cochain,
            want.solvable,
            want.next_term,
            want.closed,
        )
        if not rpt.solvable:
            break
        d = Deformation(L, rep, d.terms + [rpt.next_term])
        assert validate(d, "truncated").ok


# -- the row-form solve ---------------------------------------------------------


@given(seeds, st.integers(0, 6), st.integers(0, 6), st.booleans(), st.booleans())
def test_solve_rows_matches_bareiss(seed, rows, cols, consistent, cyclotomic):
    rng = random.Random(seed)
    spec = cyclo(4) if cyclotomic else RATIONAL
    mat = [[rand_scalar(spec, rng, zero_bias=0.6) for _ in range(cols)] for _ in range(rows)]
    if consistent:
        x = [rand_scalar(spec, rng, zero_bias=0.3) for _ in range(cols)]
        z = zero(spec)
        rhs = [sum((a * b for a, b in zip(row, x)), z) for row in mat]
    else:
        rhs = [rand_scalar(spec, rng, zero_bias=0.5) for _ in range(rows)]
    sparse = [{c: a for c, a in enumerate(row) if not a.is_zero()} for row in mat]
    got, want = solve_rows(sparse, rhs, cols), bareiss_solve(mat, rhs, spec)
    if want is None:
        assert got is None
    else:
        assert got == {c: a for c, a in enumerate(want) if not a.is_zero()}


def test_solve_rows_empty_row_with_nonzero_rhs_is_inconsistent():
    o = one(RATIONAL)
    assert solve_rows([{}, {0: o}], [o, o], 1) is None
    assert solve_rows([{}, {0: o}], [zero(RATIONAL), o], 1) == {0: o}


def _dense_preimage(n, L, M, basis, target):
    """The oracle: Bareiss solve against the cochain-by-cochain delta . B."""
    z = zero(L.spec)
    rhs = [target.coords.get(key, z) for key in cochain_coords(L.basis, n + 1, M.space)]
    sol = bareiss_solve(coboundary_matrix_raw(basis, n, L, M), rhs, L.spec)
    if sol is None:
        return None
    f = Cochain(n, target.parity, L.basis, M.space, {})
    for c, u in zip(sol, basis):
        if not c.is_zero():
            f = f.add(u.scale(c))
    return f


@given(seeds, st.integers(0, 2), parities, st.sampled_from(["image", "random", "unreached"]), st.booleans())
def test_coboundary_preimage_matches_dense_solve(seed, n, parity, kind, with_action):
    rng = random.Random(seed)
    L, rep = rand_instance(rng, with_action=with_action, max_d0=2, max_d1=2)
    M, reps = rand_module(rng, L, rep)
    basis = cochain_basis(n, L, M, rep=reps)
    target = Cochain(n + 1, parity, L.basis, M.space, {})
    if kind != "random":
        for u in basis:
            if u.parity == parity:
                target = target.add(coboundary(u, L, M).scale(rand_scalar(L.spec, rng, zero_bias=0.3)))
    else:
        target = rand_cochain(rng, L, M, n + 1, parity)
    if kind == "unreached":
        # a coordinate no basis coboundary touches: delta . B has no row there
        mat = coboundary_matrix_raw(basis, n, L, M)
        keys = cochain_coords(L.basis, n + 1, M.space)
        empty = [
            (T, j)
            for (T, j), row in zip(keys, mat)
            if all(x.is_zero() for x in row)
            and (sum(L.basis.parities[t] for t in T) + M.space.parities[j]) % 2 == parity
        ]
        assume(empty)
        target = target.add(Cochain(n + 1, parity, L.basis, M.space, {rng.choice(empty): one(L.spec)}))
    got = coboundary_preimage(n, L, M, reps, target)
    assert got == _dense_preimage(n, L, M, basis, target)
    if got is not None:
        assert coboundary(got, L, M) == target
    if kind == "image":
        assert got is not None
    if kind == "unreached":
        assert got is None


def test_coboundary_preimage_of_a_target_delta_never_reaches():
    # delta vanishes on the abelian (1|1) adjoint complex, so the sweep gives
    # no row at all; a nonzero target must be reported as no coboundary.
    L = abelian_algebra(1, 1)
    M = adjoint_module(L)
    target = Cochain(2, 0, L.basis, L.basis, {((0, 1), 1): one(L.spec)})
    assert coboundary_preimage(1, L, M, None, target) is None
    assert _dense_preimage(1, L, M, cochain_basis(1, L, M), target) is None


# -- validation verdicts ------------------------------------------------------------


def test_not_validated_carries_the_failing_report():
    L = make_gl(1, 1)
    rep = gl11_swap_rep(L)
    d = Deformation(L, rep, [bracket_to_element(L), gl11_mu1(L)])
    with pytest.raises(NotValidated) as info:
        obstruction(d)
    assert info.value.report == validate(d, "truncated")
    assert info.value.report.first_failure().r == 1

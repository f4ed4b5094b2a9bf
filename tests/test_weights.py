"""The weight-graded cochain complex.

cohomology() assembles and reduces only the block of weight 0 under the
torus h of ad-diagonal basis elements and counts the ranks of the acyclic
blocks of nonzero weight.  Its reports, representatives included, must equal
those of the full complex (util.full_cohomology); the torus must leave out
every element that the module or the group does not respect; and each block
of nonzero weight, eliminated in full, must have the rank that the counting
gives.
"""

import os
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supercohom.cohomology import _complex, _delta_rows, _family, _torus, _weights, cohomology
from supercohom.graded import GradedBasis, Vector, cochain_coords, superalt_count
from supercohom.group_action import ActionRep, cyclic_group, diagonal_rep, resolve_reps, validate_action
from supercohom.linalg import mat_identity, rref_rows
from supercohom.scalars import RATIONAL, cyclo, root_of_unity, scalar
from supercohom.superalgebra import (
    LModule,
    adjoint_module,
    bracket_eval,
    make_gl,
    make_sl,
    zero_module,
)
from supercohom.workspace import load

from util import (
    abelian_algebra,
    direct_product,
    direct_sum,
    full_cohomology,
    module_act,
    s3_group,
    sign_characters,
    twist_algebra,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def trivial(L, parity=0):
    return zero_module(L, GradedBasis(("m",), (parity,)))


def assert_matches_full(n, L, M, rep=None):
    assert cohomology(n, L, M, rep) == full_cohomology(n, L, M, rep)


# -- the weight-0 block against the full complex ---------------------------------


@given(
    st.sampled_from([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]),
    st.integers(0, 1),
    st.integers(0, 1),
    st.sampled_from(["adjoint", "even trivial", "odd trivial"]),
    st.integers(0, 3),
)
def test_weight_zero_block_gives_the_full_report(mn, pad0, pad1, module, n):
    L = make_gl(*mn)
    if pad0 + pad1:
        L = direct_sum([L, abelian_algebra(pad0, pad1)])[0]
    M = adjoint_module(L) if module == "adjoint" else trivial(L, int(module == "odd trivial"))
    # Keep the full-complex oracle small: at most 3000 coordinates in C^n.
    while superalt_count(*L.basis.dims, n) * len(M.space) > 3000:
        n -= 1
    assert_matches_full(n, L, M)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_sl11_has_no_weights_and_keeps_the_full_complex(n):
    L = make_sl(1, 1)
    assert _weights(n + 2, _complex(L, adjoint_module(L), None)) is None
    assert_matches_full(n, L, adjoint_module(L))


# -- pinned tori ----------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_a_group_that_moves_the_torus_empties_it(n):
    ws = load(os.path.join(FIXTURES, "fixture_gl11_z2.json"))
    L, M = ws.algebra, adjoint_module(ws.algebra)
    assert _torus(L, M, None) == [0, 1]
    assert _torus(L, M, resolve_reps(ws.rep, L, M)) == []
    assert _weights(n + 2, _complex(L, M, resolve_reps(ws.rep, L, M))) is None
    assert_matches_full(n, L, M, ws.rep)


def sign_rep(space, signs):
    """Z/2 acting on the graded basis space by the given signs."""
    diags = [[scalar(RATIONAL, 1) for _ in signs], [scalar(RATIONAL, c) for c in signs]]
    return diagonal_rep(cyclic_group(2), RATIONAL, space.parities, diags)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_a_group_that_fixes_the_torus_counts_its_fixed_blocks(n):
    # e12 -> -e12, e21 -> -e21 on gl(1|1): the torus stays, and the blocks of
    # nonzero weight are counted by their G-fixed dimensions.
    L = make_gl(1, 1)
    rep = sign_rep(L.basis, [1, 1, -1, -1])
    M = adjoint_module(L)
    assert _torus(L, M, resolve_reps(rep, L, M)) == [0, 1]
    assert _weights(n + 2, _complex(L, M, resolve_reps(rep, L, M))) is not None
    assert_matches_full(n, L, M, rep)
    Mt = trivial(L)
    assert_matches_full(n, L, Mt, (rep, sign_rep(Mt.space, [-1])))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_the_parity_automorphism_fixes_the_torus_of_gl21(n):
    L = make_gl(2, 1)
    rep = sign_rep(L.basis, [1 - 2 * p for p in L.basis.parities])
    assert _torus(L, adjoint_module(L), resolve_reps(rep, L, adjoint_module(L))) == [0, 3, 4]
    assert_matches_full(n, L, adjoint_module(L), rep)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_an_element_acting_off_the_diagonal_leaves_the_torus(n):
    # Abelian (2|0): u0 acts as the identity, u1 swaps the two module vectors.
    L = abelian_algebra(2, 0)
    o = scalar(L.spec, 1)
    space = GradedBasis(("m0", "m1"), (0, 0))
    act = {(0, 0): Vector({0: o}), (0, 1): Vector({1: o}), (1, 0): Vector({1: o}), (1, 1): Vector({0: o})}
    M = LModule(L.basis, space, act)
    assert _torus(L, M, None) == [0]
    report = cohomology(n, L, M)
    assert report.h_dims == (0, 0)  # u0 acts by 1 on every cochain
    assert report == full_cohomology(n, L, M)


@given(
    st.sampled_from(["klein", "s3"]),
    st.sampled_from(["signs", "swap"]),
    st.sampled_from(["adjoint", "odd trivial"]),
    st.integers(0, 2),
)
def test_groups_with_two_generators_leave_the_torus_what_every_element_fixes(group, core, module, n):
    # gl(1|1) + abelian (3|1), basis e11, e22, u0, u1, u2 | e12, e21, v0.
    # The core move is e12, e21, v0 -> -e12, -e21, -v0 or the swap
    # e11 <-> e22, e12 <-> e21.  In the Klein four-group Z/2 x Z/2 the first
    # factor makes the core move and the second swaps u0 and u1; S3 permutes
    # u0, u1, u2 and makes the core move through its sign.
    L = direct_sum([make_gl(1, 1), abelian_algebra(3, 1)])[0]
    if core == "signs":
        move, signs = list(range(8)), [1, 1, 1, 1, 1, -1, -1, -1]
    else:
        move, signs = [1, 0, 2, 3, 4, 6, 5, 7], [1] * 8
    if group == "klein":
        G = direct_product(cyclic_group(2), cyclic_group(2))
        pads = [(2, 3, 4), (3, 2, 4)]
        chi = [1, 1, -1, -1]
        moved = [pads[g % 2] for g in range(4)]
        torus = [0, 1, 4] if core == "signs" else [4]
    else:
        G, perms = s3_group()
        (chi,) = sign_characters(G)
        moved = [tuple(2 + p[a] for a in range(3)) for p in perms]
        torus = [0, 1] if core == "signs" else []
    mats = []
    for g in range(G.order):
        image = [move[j] if chi[g] == -1 else j for j in range(8)]
        image[2:5] = moved[g]
        mat = [[scalar(RATIONAL, 0)] * 8 for _ in range(8)]
        for j, i in enumerate(image):
            mat[i][j] = scalar(RATIONAL, signs[j] if chi[g] == -1 else 1)
        mats.append(mat)
    rep = ActionRep(G, RATIONAL, L.basis.parities, mats)
    assert validate_action(rep, L).ok
    if module == "adjoint":
        M, reps = adjoint_module(L), rep
    else:
        M = trivial(L, 1)
        reps = (rep, diagonal_rep(G, RATIONAL, M.space.parities, [[scalar(RATIONAL, c)] for c in chi]))
    assert _torus(L, M, resolve_reps(reps, L, M)) == torus
    assert_matches_full(n, L, M, reps)


def rescaled(L, factors):
    """L in the basis x_i * factors[i]."""
    S, S_inv = mat_identity(len(L.basis), L.spec), mat_identity(len(L.basis), L.spec)
    for i, c in enumerate(factors):
        S[i][i], S_inv[i][i] = c.inverse(), c
    return twist_algebra(L, S, S_inv)


def rescaled_gl21():
    """gl(2|1) in the basis e11 / 2, 3 e12, e21, e22 / 2, 3 e33, -2 e13, e23,
    e31, 2/3 e32: the torus e11 / 2, e22 / 2, 3 e33 has weights in halves and
    in threes, which share one denominator."""
    q = [Fraction(c) for c in ("1/2", "3", "1", "1/2", "3", "-2", "1", "1", "2/3")]
    return rescaled(make_gl(2, 1), [scalar(RATIONAL, c) for c in q])


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_fractional_weights_are_cleared_and_packed(n):
    L = rescaled_gl21()
    wL, wM = _weights(n + 2, _complex(L, trivial(L), None))
    assert len(set(wL)) > 3 and wM == [0]
    assert_matches_full(n, L, trivial(L))
    if n <= 2:
        assert_matches_full(n, L, adjoint_module(L))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_cyclotomic_weights_pack_every_power_basis_digit(n):
    # gl(1|1) over Q(zeta_4) with z * e11: the weights of e12 and e21 under it
    # are -z and z.
    spec = cyclo(4)
    L = make_gl(1, 1, spec)
    one_ = scalar(spec, 1)
    L = rescaled(L, [root_of_unity(spec, 1), one_, one_, one_])
    wL, _ = _weights(n + 2, _complex(L, adjoint_module(L), None))
    assert wL[2] == -wL[3] != 0
    assert_matches_full(n, L, adjoint_module(L))


@pytest.mark.parametrize("adjoint", [False, True], ids=["trivial", "adjoint"])
@pytest.mark.parametrize("rescale", [False, True], ids=["gl21", "rescaled-gl21"])
def test_packed_weights_tell_the_weights_apart(adjoint, rescale):
    # A packed weight that wrapped around would merge blocks: still exact,
    # but more to eliminate.  Compare with the weights as tuples of scalars.
    # In base 2, gl(2|1) would merge -2, 3, -1 (at e12 e13 e32 e32) with 0.
    L = rescaled_gl21() if rescale else make_gl(2, 1)
    M = adjoint_module(L) if adjoint else trivial(L)
    h = _torus(L, M, None)
    z = scalar(RATIONAL, 0)

    onL = [tuple(bracket_eval(L, Vector.basis(x, RATIONAL), Vector.basis(y, RATIONAL)).coords.get(y, z) for x in h)
           for y in range(len(L.basis))]
    onM = [tuple(module_act(M, Vector.basis(x, RATIONAL), Vector.basis(j, RATIONAL)).coords.get(j, z) for x in h)
           for j in range(len(M.space))]
    top = 3 if adjoint else 5
    wL, wM = _weights(top, _complex(L, M, None))
    seen = {}
    for k in range(top):
        for T, j in cochain_coords(L.basis, k, M.space):
            exact = tuple(m - sum((onL[t][i] for t in T), z) for i, m in enumerate(onM[j]))
            packed = wM[j] - sum(wL[t] for t in T)
            assert seen.setdefault(packed, exact) == exact
    assert len(seen) > 10


# -- the counted ranks against the blocks eliminated in full -------------------


def coordinate_weights(k, L, M, wt):
    wL, wM = wt
    return [wM[j] - sum(wL[x] for x in T) for T, j in cochain_coords(L.basis, k, M.space)]


@pytest.mark.parametrize(
    "alg, adjoint, top",
    [((1, 1), True, 3), ((2, 1), False, 3), ((2, 1), True, 2), ((1, 2), True, 2)],
    ids=["gl11-adjoint", "gl21-trivial", "gl21-adjoint", "gl12-adjoint"],
)
def test_each_nonzero_weight_block_has_the_counted_rank(alg, adjoint, top):
    L = make_gl(*alg)
    M = adjoint_module(L) if adjoint else trivial(L)
    wt = _weights(top + 2, _complex(L, M, None))
    dims = []  # dims[k][(weight, parity)] = dim of that block of C^k
    for k in range(top + 2):
        block = {}
        for w, p in zip(coordinate_weights(k, L, M, wt), _family(k, L, M)[1]):
            block[(w, p)] = block.get((w, p), 0) + 1
        dims.append(block)
    for n in range(top + 1):
        cols, par, _ = _family(n, L, M)
        col_wt = coordinate_weights(n, L, M, wt)
        row_wt = coordinate_weights(n + 1, L, M, wt)
        blocks = {}
        for r, row in _delta_rows(n, L, M, cols).items():
            for c in row:
                assert col_wt[c] == row_wt[r], "delta maps across weights"
            blocks.setdefault(row_wt[r], []).append(row)
        for w, p in {key for key in dims[n] if key[0] != 0}:
            rank = sum(1 for c in rref_rows(blocks.get(w, []))[1] if par[c] == p)
            counted = sum((-1) ** (n - k) * dims[k].get((w, p), 0) for k in range(n + 1))
            assert rank == counted, (n, w, p)

"""Cayley-table groups, action validation, induced cochain actions."""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercohom import group_action
from supercohom.cohomology import cohomology
from supercohom.errors import BasisMismatch, LengthMismatch, OracleDisagreement, ValidationError
from supercohom.graded import Vector, superalt_basis
from supercohom.group_action import (
    ActionRep,
    FiniteGroup,
    cyclic_group,
    diagonal_rep,
    equivariant_subspace,
    induced_action_on_cochains,
    is_representation,
    permutation_rep,
    resolve_reps,
    trivial_action,
    validate_action,
    validate_module_action,
)
from supercohom.linalg import mat_identity, mat_mul
from supercohom.scalars import RATIONAL, cyclo, one, root_of_unity, scalar, zero
from supercohom.superalgebra import (
    adjoint_module,
    adjoint_submodule,
    make_gl,
    make_super_poincare,
)
from supercohom.workspace import ADJOINT, load

from util import (
    GROUP_SHAPES,
    apply_rep,
    cold_family,
    count_calls,
    dense_equivariant_subspace,
    densify,
    direct_product,
    elementwise_validate_action,
    eval_map,
    gl11_swap_rep,
    pulled_back_induced_columns,
    rand_instance,
    rand_module,
    rand_vector,
    s3_group,
    superalt_expand,
    twist_algebra,
)


def z2_swap_rep(L):
    # e11 <-> e22, e12 <-> e21 on the gl(1|1) basis.
    return permutation_rep(
        cyclic_group(2), RATIONAL, L.basis.parities, [(0, 1, 2, 3), (1, 0, 3, 2)]
    )


def sp_z4_rep(L):
    spec = L.spec
    diags = []
    for g in range(4):
        qs = root_of_unity(spec, g)
        qbs = root_of_unity(spec, (4 - g) % 4)
        diag = [one(spec)] * 10 + [qs, qs, qbs, qbs]
        diags.append(diag)
    return diagonal_rep(cyclic_group(4), spec, L.basis.parities, diags)


def test_cyclic_group_and_inverse():
    G = cyclic_group(4)
    assert G.mul(3, 2) == 1
    assert G.inverse(1) == 3
    assert G.inverse(0) == 0


def test_group_rejects_bad_tables():
    with pytest.raises(ValidationError):
        FiniteGroup(2, ((0, 0), (1, 1)), 0)
    with pytest.raises(ValidationError):
        FiniteGroup(2, ((0, 1), (1, 0)), 1)
    # A Latin square with two-sided identity that is not associative.
    loop = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    with pytest.raises(ValidationError, match="associative"):
        FiniteGroup(5, loop, 0)


def klein_four():
    return FiniteGroup(4, [[i ^ j for j in range(4)] for i in range(4)], 0)


def test_generators_are_read_greedily_off_the_table():
    assert cyclic_group(1).generators == ()
    for m in range(2, 7):
        assert cyclic_group(m).generators == (1,)
    assert klein_four().generators == (1, 2)
    assert direct_product(cyclic_group(2), cyclic_group(3)).generators == (1, 3)
    assert s3_group()[0].generators == (1, 2)
    assert klein_four() == direct_product(cyclic_group(2), cyclic_group(2))


@pytest.mark.parametrize(
    "G",
    [cyclic_group(1), cyclic_group(4), klein_four(), direct_product(cyclic_group(2), cyclic_group(4)), s3_group()[0]],
    ids=["Z1", "Z4", "V4", "Z2xZ4", "S3"],
)
def test_generators_reach_every_element(G):
    reached, frontier = {G.identity}, [G.identity]
    while frontier:
        x = frontier.pop()
        for s in G.generators:
            if G.mul(x, s) not in reached:
                reached.add(G.mul(x, s))
                frontier.append(G.mul(x, s))
    assert reached == set(range(G.order))
    assert G.identity not in G.generators


def _with_entry_moved(rep, g, i, j):
    mats = [[list(row) for row in mat] for mat in rep.matrices]
    mats[g][i][j] = mats[g][i][j] + one(rep.spec)
    return ActionRep(rep.group, rep.spec, rep.parities, mats)


def test_a_break_off_the_generators_is_still_found():
    # Element 2 of Z/4 and element 3 of the Klein four-group are not
    # generators: is_representation must see them through the products
    # s h, and the report must list what the element-wise oracle lists.
    L = make_super_poincare()
    rep = sp_z4_rep(L)
    assert is_representation(rep) and validate_action(rep, L).ok
    for i, j in ((10, 10), (0, 1), (12, 11)):
        bad = _with_entry_moved(rep, 2, i, j)
        assert not is_representation(bad)
        report = validate_action(bad, L)
        assert not report.holds("homomorphism")
        assert report == elementwise_validate_action(bad, L)

    L = make_gl(1, 1)  # the parity automorphism times the swap of the diagonal blocks
    o = one(RATIONAL)
    parity = [o, o, -o, -o]
    diags = [[o] * 4, [o] * 4, parity, parity]
    swaps = [(0, 1, 2, 3), (1, 0, 3, 2), (0, 1, 2, 3), (1, 0, 3, 2)]
    mats = [
        [[diags[g][i] if swaps[g][j] == i else zero(RATIONAL) for j in range(4)] for i in range(4)]
        for g in range(4)
    ]
    rep = ActionRep(klein_four(), RATIONAL, L.basis.parities, mats)
    assert is_representation(rep) and validate_action(rep, L).ok
    for i, j in ((0, 1), (2, 3), (3, 0)):
        bad = _with_entry_moved(rep, 3, i, j)
        assert not is_representation(bad)
        report = validate_action(bad, L)
        assert not report.ok
        assert report == elementwise_validate_action(bad, L)


def _dense(group, parities, entry):
    """The action through dense matrices: entry(g, i, j) is the (i, j) entry of g."""
    d = len(parities)
    mats = [[[entry(g, i, j) for j in range(d)] for i in range(d)] for g in range(group.order)]
    return ActionRep(group, RATIONAL, parities, mats)


KLEIN_FOUR = direct_product(cyclic_group(2), cyclic_group(2))


@pytest.mark.parametrize("group", [cyclic_group(3), KLEIN_FOUR, s3_group()[0]])
def test_constructors_equal_their_dense_construction(group):
    o, z = one(RATIONAL), zero(RATIONAL)
    n = group.order
    parities = (0, 0, 1)
    ident = _dense(group, parities, lambda g, i, j: o if i == j else z)
    assert trivial_action(group, RATIONAL, parities) == ident

    # the regular representation: g sends basis vector j to g j
    perms = [[group.mul(g, j) for j in range(n)] for g in range(n)]
    regular = permutation_rep(group, RATIONAL, (0,) * n, perms)
    assert regular == _dense(group, (0,) * n, lambda g, i, j: o if perms[g][j] == i else z)
    assert is_representation(regular)

    # a zero on the diagonal is dropped, as the scan of a dense matrix drops it
    diags = [[o, z, scalar(RATIONAL, g + 2)] for g in range(n)]
    rep = diagonal_rep(group, RATIONAL, parities, diags)
    assert all(cols[1] == {} for cols in rep.columns)
    assert rep == _dense(group, parities, lambda g, i, j: diags[g][i] if i == j else z)


def test_count_checks_cover_both_input_forms():
    G = cyclic_group(2)
    cols = [[{0: one(RATIONAL)}], [{0: one(RATIONAL)}]]
    with pytest.raises(LengthMismatch, match="one matrix per group element"):
        ActionRep(G, RATIONAL, (0,), columns=cols[:1])
    with pytest.raises(LengthMismatch, match="columns must match the space"):
        ActionRep(G, RATIONAL, (0, 0), columns=cols)
    with pytest.raises(LengthMismatch, match="one matrix per group element"):
        ActionRep(G, RATIONAL, (0,), [[[one(RATIONAL)]]])
    with pytest.raises(LengthMismatch, match="matrices must match the space"):
        ActionRep(G, RATIONAL, (0, 0), [[[one(RATIONAL)]]] * 2)
    with pytest.raises(LengthMismatch):
        permutation_rep(G, RATIONAL, (0, 0), [(0,), (0,)])
    with pytest.raises(ValueError, match="outside the space"):
        permutation_rep(G, RATIONAL, (0, 0), [(0, 1), (2, 0)])


@pytest.mark.parametrize("row", [-1, 2])
def test_columns_outside_the_space_are_refused(row):
    # Row -1 used to reach the validation report as "entry (-1, 0)", and row
    # d raised a raw IndexError.
    G, o = cyclic_group(2), one(RATIONAL)
    cols = [[{0: o}, {1: o}], [{row: o}, {1: o}]]
    with pytest.raises(ValueError, match="outside the space"):
        ActionRep(G, RATIONAL, (0, 0), columns=cols)


def test_validate_swap_action_on_gl11():
    L = make_gl(1, 1)
    rep = z2_swap_rep(L)
    report = validate_action(rep, L)
    assert report.ok and not report.counterexamples


def test_validate_trivial_action():
    L = make_gl(2, 1)
    rep = trivial_action(cyclic_group(1), RATIONAL, L.basis.parities)
    assert validate_action(rep, L).ok


def test_validate_super_poincare_z4_action():
    L = make_super_poincare()
    report = validate_action(sp_z4_rep(L), L)
    assert report.ok, report.describe()


def test_validate_flags_broken_bracket_equivariance():
    L = make_gl(1, 1)
    # e12 -> -e12 flips [e12, e21] but fixes e11 + e22.
    diags = [
        [one(RATIONAL)] * 4,
        [one(RATIONAL), one(RATIONAL), -one(RATIONAL), one(RATIONAL)],
    ]
    rep = diagonal_rep(cyclic_group(2), RATIONAL, L.basis.parities, diags)
    report = validate_action(rep, L)
    assert report.holds("identity") and report.holds("homomorphism") and report.holds("degree")
    assert not report.holds("bracket equivariance")


def test_validate_flags_broken_homomorphism():
    L = make_gl(1, 1)
    two = scalar(RATIONAL, 2)
    diags = [[one(RATIONAL)] * 4, [two] * 4]
    rep = diagonal_rep(cyclic_group(2), RATIONAL, L.basis.parities, diags)
    report = validate_action(rep, L)
    assert not report.holds("homomorphism")


def test_validate_flags_parity_mixing():
    L = make_gl(1, 1)
    mats = [mat_identity(4, RATIONAL), mat_identity(4, RATIONAL)]
    bad = [list(row) for row in mats[1]]
    bad[2][0] = one(RATIONAL)  # odd row, even column
    mats[1] = bad
    rep = ActionRep(cyclic_group(2), RATIONAL, L.basis.parities, mats)
    report = validate_action(rep, L)
    assert not report.holds("degree")


def test_validate_module_action_super_poincare():
    L = make_super_poincare()
    rep_L = sp_z4_rep(L)
    M = adjoint_submodule(L, ["P0", "P1", "P2", "P3", "Q1", "Q2", "Qb1", "Qb2"])
    spec = L.spec
    diags = []
    for g in range(4):
        qs = root_of_unity(spec, g)
        qbs = root_of_unity(spec, (4 - g) % 4)
        diags.append([one(spec)] * 4 + [qs, qs, qbs, qbs])
    rep_M = diagonal_rep(cyclic_group(4), spec, M.space.parities, diags)
    report = validate_module_action(rep_L, rep_M, L, M)
    assert report.ok, report.describe()


def conjugated_components(F, rep_L, rep_M, g, dim):
    """Direct evaluation of (g.F)(e_t1, ..., e_tn), avoiding the matrix path."""
    from itertools import product

    ginv = rep_L.group.inverse(g)
    spec = rep_L.spec
    out = {}
    for tup in product(range(dim), repeat=F.arity):
        args = [apply_rep(rep_L, ginv, Vector.basis(t, spec)) for t in tup]
        val = apply_rep(rep_M, g, eval_map(F, args))
        if not val.is_zero():
            out[tup] = val
    return out


@pytest.mark.parametrize("n,parity", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_induced_action_matches_direct_conjugation(n, parity):
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = z2_swap_rep(L)
    induced = induced_action_on_cochains(rep, rep, L, M, n)
    canon = superalt_basis(L.basis, n)
    coords = [(T, j) for T in canon for j in range(4)]
    rng = random.Random(7 + 2 * n + parity)
    per_tuple = [
        rand_vector(
            L.basis,
            RATIONAL,
            rng,
            parity=(parity + sum(L.basis.parities[i] for i in T)) % 2,
            zero_bias=0.3,
        )
        for T in canon
    ]
    F = superalt_expand(L.basis, n, per_tuple, L.basis, parity)
    flat = Vector(
        {
            t: per_tuple[canon.index(T)].get(j, RATIONAL)
            for t, (T, j) in enumerate(coords)
        }
    )
    for g in range(2):
        moved = apply_rep(induced, g, flat)
        direct = conjugated_components(F, rep, rep, g, 4)
        for t, (T, j) in enumerate(coords):
            want = direct.get(T, Vector()).get(j, RATIONAL)
            assert moved.get(t, RATIONAL) == want, (g, T, j)


def test_induced_action_trivial_group_is_identity():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = trivial_action(cyclic_group(1), RATIONAL, L.basis.parities)
    induced = induced_action_on_cochains(rep, rep, L, M, 2)
    dim = len(superalt_basis(L.basis, 2)) * 4
    assert induced.matrices[0] == mat_identity(dim, RATIONAL)


def test_induced_action_is_homomorphism_z4_super_poincare():
    L = make_super_poincare()
    spec = L.spec
    M = adjoint_submodule(L, ["P0", "P1", "P2", "P3", "Q1", "Q2", "Qb1", "Qb2"])
    rep_L = sp_z4_rep(L)
    diags = []
    for g in range(4):
        qs = root_of_unity(spec, g)
        qbs = root_of_unity(spec, (4 - g) % 4)
        diags.append([one(spec)] * 4 + [qs, qs, qbs, qbs])
    rep_M = diagonal_rep(cyclic_group(4), spec, M.space.parities, diags)
    induced = induced_action_on_cochains(rep_L, rep_M, L, M, 2)

    def entries(mat):
        return {
            (i, j): x
            for i, row in enumerate(mat)
            for j, x in enumerate(row)
            if not x.is_zero()
        }

    def sparse_mul(ea, eb):
        by_row = {}
        for (k, j), v in eb.items():
            by_row.setdefault(k, []).append((j, v))
        out = {}
        for (i, k), a in ea.items():
            for j, v in by_row.get(k, ()):
                s = out.get((i, j))
                out[(i, j)] = a * v if s is None else s + a * v
        return {k: v for k, v in out.items() if not v.is_zero()}

    cached = [entries(m) for m in induced.matrices]
    for g in range(4):
        for h in range(4):
            assert sparse_mul(cached[g], cached[h]) == cached[(g + h) % 4]


def _pulls(monkeypatch, L, n):
    """The pull_back calls of group_action, and the number of them that
    pulling back k group elements makes: the induced action on C^n pulls
    back each canonical n-tuple once per element, through the int images of
    the columns of g^-1."""
    tuples = len(superalt_basis(L.basis, n))
    return count_calls(monkeypatch, group_action, "pull_back"), lambda k: k * tuples


@pytest.mark.parametrize("shape", GROUP_SHAPES)
@pytest.mark.parametrize("n", [0, 1, 2])
def test_an_identity_that_acts_as_one_is_handed_over_as_unit_columns(monkeypatch, shape, n):
    for seed in range(4):
        rng = random.Random(seed)
        L, rep = rand_instance(rng, with_action=True, groups=(shape,))
        M, reps = rand_module(rng, L, rep)
        rep_L, rep_M = reps if isinstance(reps, tuple) else (reps, reps)
        e = rep_L.group.identity
        want = pulled_back_induced_columns(rep_L, rep_M, L, M, n)
        pulled, elements = _pulls(monkeypatch, L, n)
        induced = induced_action_on_cochains(rep_L, rep_M, L, M, n)
        monkeypatch.undo()
        assert induced.columns == want
        assert induced.columns[e] == [{t: one(L.spec)} for t in range(induced.dim)]
        assert len(pulled) == elements(rep_L.group.order - 1)


@pytest.mark.parametrize("n", [1, 2])
def test_an_identity_that_does_not_act_as_one_is_pulled_back(monkeypatch, n):
    # The identity sends e22 to e11 + e22, on L, on M, or on both: its
    # induced columns are pulled back, and the certificate of the fixed
    # subspace catches it.
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = z2_swap_rep(L)
    e = rep.group.identity
    mats = [[list(row) for row in mat] for mat in rep.matrices]
    mats[e][0][1] = one(RATIONAL)
    bad = ActionRep(rep.group, RATIONAL, L.basis.parities, mats)
    for rep_L, rep_M in ((bad, rep), (rep, bad), (bad, bad)):
        want = pulled_back_induced_columns(rep_L, rep_M, L, M, n)
        pulled, elements = _pulls(monkeypatch, L, n)
        induced = induced_action_on_cochains(rep_L, rep_M, L, M, n)
        monkeypatch.undo()
        assert induced.columns == want
        assert len(pulled) == elements(rep.group.order)
        with pytest.raises(OracleDisagreement, match="group element 0"):
            equivariant_subspace(induced)
        with pytest.raises(OracleDisagreement, match="group element 0"):
            group_action._fixed_cochains(rep_L, rep_M, L, M, n)


def test_equivariant_subspace_trivial_and_regular():
    G1 = cyclic_group(1)
    rep = trivial_action(G1, RATIONAL, (0, 0, 0))
    assert len(equivariant_subspace(rep)) == 3

    G2 = cyclic_group(2)
    regular = permutation_rep(G2, RATIONAL, (0, 0), [(0, 1), (1, 0)])
    fixed = densify(equivariant_subspace(regular), 2, RATIONAL)
    assert len(fixed) == 1
    col = fixed[0]
    assert col[0] == col[1] and not col[0].is_zero()


def test_equivariant_subspace_rejects_non_representation():
    G = cyclic_group(2)
    two = scalar(RATIONAL, 2)
    rep = diagonal_rep(G, RATIONAL, (0,), [[one(RATIONAL)], [two]])
    with pytest.raises(OracleDisagreement):
        equivariant_subspace(rep)


def test_equivariant_subspace_certifies_against_an_identity_that_does_not_act_as_one():
    # e acts by [[1, 1], [0, 1]] and the other element as one: the Reynolds
    # column (1/2, 1) is fixed by element 1, and the character formula
    # holds (2 + 2 = 2 * 2); only the identity moves it.
    G = cyclic_group(2)
    o, z = one(RATIONAL), zero(RATIONAL)
    rep = ActionRep(G, RATIONAL, (0, 0), [[[o, o], [z, o]], mat_identity(2, RATIONAL)])
    with pytest.raises(OracleDisagreement, match="group element 0"):
        equivariant_subspace(rep)


def test_equivariant_subspace_certificate_catches_what_the_character_misses():
    # g = [[1, 1], [0, 1]] has g^2 != 1, yet tr 1 + tr g = 4 = 2 * 2: the
    # character formula holds.  The Reynolds column (1/2, 1) is not fixed by g.
    G = cyclic_group(2)
    o, z = one(RATIONAL), zero(RATIONAL)
    rep = ActionRep(G, RATIONAL, (0, 0), [mat_identity(2, RATIONAL), [[o, o], [z, o]]])
    with pytest.raises(OracleDisagreement):
        equivariant_subspace(rep)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_equivariant_subspace_matches_dense_oracle(n):
    @given(st.integers(0, 2**32 - 1))
    def prop(seed):
        rng = random.Random(seed)
        L, rep = rand_instance(rng, with_action=True, groups=GROUP_SHAPES)
        M, reps = rand_module(rng, L, rep)
        rep_L, rep_M = reps if isinstance(reps, tuple) else (reps, reps)
        induced = induced_action_on_cochains(rep_L, rep_M, L, M, n)
        fixed = densify(equivariant_subspace(induced), induced.dim, induced.spec)
        assert fixed == dense_equivariant_subspace(induced)

    prop()


def root_twisted(rng, L, rep):
    """L and rep carried through a change of basis by roots of unity, a
    diagonal one and a shear by zeta inside one parity block, so that over
    Q(zeta_m) the bracket and a nontrivial action have entries off Q."""
    spec, par = L.spec, L.basis.parities
    d = len(par)
    ks = [rng.randrange(spec.conductor) for _ in range(d)]
    z = zero(spec)
    S = [[root_of_unity(spec, ks[i]) if i == j else z for j in range(d)] for i in range(d)]
    S_inv = [[root_of_unity(spec, -ks[i]) if i == j else z for j in range(d)] for i in range(d)]
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j and par[i] == par[j]]
    if pairs:
        i, j = rng.choice(pairs)
        shear, unshear = mat_identity(d, spec), mat_identity(d, spec)
        shear[i][j], unshear[i][j] = root_of_unity(spec, 1), -root_of_unity(spec, 1)
        S, S_inv = mat_mul(S, shear, spec), mat_mul(unshear, S_inv, spec)
    mats = [mat_mul(mat_mul(S, g, spec), S_inv, spec) for g in rep.matrices]
    return twist_algebra(L, S, S_inv), ActionRep(rep.group, spec, par, mats)


@pytest.mark.parametrize("spec", [RATIONAL, cyclo(3), cyclo(4), cyclo(5), cyclo(8), cyclo(12)], ids=str)
@pytest.mark.parametrize("shape", GROUP_SHAPES)
def test_the_fixed_family_equals_the_oracle_route(spec, shape):
    # _fixed_cochains adds up the induced action, the orbit sums and the
    # certificate on one IntImage; cold_family takes the pulled-back columns
    # and the dense Reynolds oracle on Scalars.
    @settings(max_examples=6)
    @given(st.integers(0, 2**32 - 1))
    def prop(seed):
        rng = random.Random(seed)
        L, rep = rand_instance(rng, spec=spec, with_action=True, groups=(shape,))
        L, rep = root_twisted(rng, L, rep)
        M, reps = rand_module(rng, L, rep)
        rep_L, rep_M = resolve_reps(reps, L, M)
        for n in (0, 1, 2):
            assert group_action._fixed_cochains(rep_L, rep_M, L, M, n) == cold_family(n, L, M, reps)

    prop()


def test_planted_defects_keep_their_messages_on_the_family_path(monkeypatch):
    # The family runs on ints; its OracleDisagreement messages, the value
    # of the character formula included, are those of the Scalar route.
    L = make_gl(1, 1)
    M = adjoint_module(L)
    o = one(RATIONAL)
    twice = diagonal_rep(  # g^2 scales e12 by 4: not a representation of Z/2
        cyclic_group(2), RATIONAL, L.basis.parities, [[o] * 4, [o, o, scalar(RATIONAL, 2), scalar(RATIONAL, "1/2")]]
    )
    for n in (0, 1, 2):
        with pytest.raises(OracleDisagreement, match="^group element 1 moves a column of the Reynolds operator$"):
            group_action._fixed_cochains(twice, twice, L, M, n)
    ws = load(os.path.join(os.path.dirname(__file__), "..", "fixtures", "fixture_super_poincare.json"))
    M, rep = ws.resolve_module(ADJOINT)
    real = group_action.pivot_columns
    monkeypatch.setattr(group_action, "pivot_columns", lambda cols: real(cols)[:-1])  # drop one Reynolds pivot
    with pytest.raises(OracleDisagreement, match="^character formula gives 2280, but the fixed space has dimension 569$"):
        group_action._fixed_cochains(rep, rep, ws.algebra, M, 2)


def test_equivariant_cochains_gl11_z2_dimension_and_probes():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = z2_swap_rep(L)
    induced = induced_action_on_cochains(rep, rep, L, M, 2)
    fixed = densify(equivariant_subspace(induced), induced.dim, RATIONAL)
    canon = superalt_basis(L.basis, 2)
    coords = [(T, j) for T in canon for j in range(4)]
    assert 0 < len(fixed) < len(coords)

    rng = random.Random(3)
    for col in fixed:
        per_tuple = [Vector({}) for _ in canon]
        parity = None
        for t, (T, j) in enumerate(coords):
            c = col[t]
            if not c.is_zero():
                per_tuple[canon.index(T)] = per_tuple[canon.index(T)] + Vector({j: c})
                p = (sum(L.basis.parities[i] for i in T) + L.basis.parities[j]) % 2
                parity = p if parity is None else parity
        if parity is None:
            continue
        F = superalt_expand(L.basis, 2, per_tuple, L.basis, parity)
        for g in range(2):
            for _ in range(5):
                x = rand_vector(L.basis, RATIONAL, rng)
                y = rand_vector(L.basis, RATIONAL, rng)
                lhs = eval_map(F, [apply_rep(rep, g, x), apply_rep(rep, g, y)])
                rhs = apply_rep(rep, g, eval_map(F, [x, y]))
                assert lhs == rhs


def test_induced_action_rejects_mismatched_basis():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = z2_swap_rep(L)
    bad = trivial_action(cyclic_group(2), RATIONAL, (0, 0))
    with pytest.raises(BasisMismatch):
        induced_action_on_cochains(bad, rep, L, M, 1)


@pytest.mark.parametrize(
    "malformed",
    [lambda r: [r], lambda r: (r,), lambda r: "x", lambda r: (r, r, r), lambda r: (r, "x")],
    ids=["list-of-one", "tuple-of-one", "string", "tuple-of-three", "pair-with-a-string"],
)
def test_a_malformed_rep_argument_is_one_type_error(malformed):
    L = make_gl(1, 1)
    with pytest.raises(TypeError, match=r"rep= takes None, an ActionRep, or a tuple or list of two ActionReps"):
        cohomology(1, L, adjoint_module(L), rep=malformed(gl11_swap_rep(L)))

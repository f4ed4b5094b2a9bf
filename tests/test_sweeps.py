"""The sparse validation sweeps against the element-wise oracles in util.py.

Each property draws a random algebra (over Q or Q(zeta_m), m = 3, 4, 5, 8,
12), optionally an action of a group with one generator (Z/m) or two
(Z/2 x Z/m, S3) and a module, and then either leaves it valid or breaks it
in one place: one structure constant, one action-table entry, one matrix entry
(which breaks the homomorphism property, degree 0 or equivariance), or one
cochain coordinate.  The sweep and its oracle must return identical reports,
counterexample lists and their order included, and identical verdicts.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supercohom import cohomology, group_action
from supercohom.cohomology import Cochain, cochain_basis, is_equivariant
from supercohom.graded import MultilinearMap, Vector
from supercohom.group_action import (
    ActionRep,
    cyclic_group,
    diagonal_rep,
    induced_action_on_cochains,
    is_representation,
    validate_action,
    validate_module_action,
)
from supercohom.linalg import mat_identity
from supercohom.nr_bracket import bracket_to_element
from supercohom.scalars import RATIONAL, cyclo, one, root_of_unity, zero
from supercohom.superalgebra import (
    LieSuperalgebra,
    LModule,
    adjoint_module,
    make_gl,
    make_super_poincare,
    validate_module,
    validate_superalgebra,
)

from util import (
    GROUP_SHAPES,
    abelian_algebra,
    count_calls,
    apply_rep,
    dense_apply_rep,
    dense_induced_matrices,
    elementwise_is_equivariant,
    elementwise_validate_action,
    elementwise_validate_module,
    elementwise_validate_module_action,
    elementwise_validate_superalgebra,
    equivariance_sweeps,
    gl11_swap_rep,
    rand_cochain,
    rand_instance,
    rand_module,
    rand_scalar,
    rand_vector,
    s3_group,
)

seeds = st.integers(0, 2**32 - 1)


def _nonzero(spec, rng):
    while True:
        c = rand_scalar(spec, rng)
        if not c.is_zero():
            return c


# Q and five cyclotomic fields: the bound of the integer image and Phi_m
# differ with m.
FIELDS = [RATIONAL, cyclo(3), cyclo(4), cyclo(5), cyclo(8), cyclo(12)]


def _instance(rng, with_action):
    spec = rng.choice(FIELDS)
    return rand_instance(rng, spec=spec, with_action=with_action, groups=GROUP_SHAPES)


def _reps(rng, L, rep):
    M, reps = rand_module(rng, L, rep)
    rep_L, rep_M = reps if isinstance(reps, tuple) else (reps, reps)
    return M, rep_L, rep_M


def _broken_bracket(L, rng):
    """L with one structure constant moved, to a coordinate of the right
    parity (the MultilinearMap constructor refuses any other), and sometimes
    its mirror too, so that antisymmetry survives.  L itself when no
    coordinate has the right parity (a single odd vector)."""
    n, par = len(L.basis), L.basis.parities
    pairs = [(i, j) for i in range(n) for j in range(n) if (par[i] + par[j]) % 2 in par]
    if not pairs:
        return L
    i, j = rng.choice(pairs)
    t = rng.choice([t for t in range(n) if par[t] == (par[i] + par[j]) % 2])
    delta = Vector({t: _nonzero(L.spec, rng)})
    comp = dict(L.bracket.components)
    comp[(i, j)] = comp.get((i, j), Vector()) + delta
    if rng.random() < 0.6 and i != j:
        mirror = delta if par[i] * par[j] else -delta
        comp[(j, i)] = comp.get((j, i), Vector()) + mirror
    return LieSuperalgebra(L.basis, L.spec, MultilinearMap(2, 0, L.basis, L.basis, comp), check=False)


def _broken_module(M, L, rng):
    """M with one action entry moved, sometimes to the wrong parity."""
    parL, parM = L.basis.parities, M.space.parities
    i, k = rng.randrange(len(parL)), rng.randrange(len(parM))
    want = (parL[i] + parM[k]) % 2
    homogeneous = rng.random() < 0.8
    targets = [t for t in range(len(parM)) if (parM[t] == want) == homogeneous]
    targets = targets or list(range(len(parM)))
    act = dict(M.act)
    act[(i, k)] = act.get((i, k), Vector()) + Vector({rng.choice(targets): _nonzero(L.spec, rng)})
    return LModule(M.algebra, M.space, act)


def _broken_rep(rep, rng):
    """rep with one to three entries of one matrix moved: the homomorphism
    property, the identity, degree 0 or equivariance then fail, alone or
    together (several degree failures test the counterexample order)."""
    mats = [[list(row) for row in mat] for mat in rep.matrices]
    g = rng.randrange(rep.group.order)
    d = rep.dim
    for _ in range(rng.choice([1, 1, 2, 3])):
        i, j = rng.randrange(d), rng.randrange(d)
        if rng.random() < 0.5:  # stay inside the parity blocks
            same = [r for r in range(d) if rep.parities[r] == rep.parities[j]]
            i = rng.choice(same)
        mats[g][i][j] = mats[g][i][j] + _nonzero(rep.spec, rng)
    return ActionRep(rep.group, rep.spec, rep.parities, mats)


@given(seeds)
def test_superalgebra_sweep_matches_oracle(seed):
    rng = random.Random(seed)
    L, _ = _instance(rng, with_action=False)
    if rng.random() < 0.7:
        L = _broken_bracket(L, rng)
    assert validate_superalgebra(L) == elementwise_validate_superalgebra(L)


@given(seeds)
def test_module_sweep_matches_oracle(seed):
    rng = random.Random(seed)
    L, _ = _instance(rng, with_action=False)
    M, _ = rand_module(rng, L, None)
    if rng.random() < 0.7:
        M = _broken_module(M, L, rng)
    assert validate_module(L, M) == elementwise_validate_module(L, M)


@given(seeds)
def test_action_sweep_matches_oracle(seed):
    rng = random.Random(seed)
    L, rep = _instance(rng, with_action=True)
    if rng.random() < 0.5:
        rep = _broken_rep(rep, rng)
    elif rng.random() < 0.5:
        L = _broken_bracket(L, rng)
    assert validate_action(rep, L) == elementwise_validate_action(rep, L)


@given(seeds)
def test_module_action_sweep_matches_oracle(seed):
    rng = random.Random(seed)
    L, rep = _instance(rng, with_action=True)
    M, rep_L, rep_M = _reps(rng, L, rep)
    roll = rng.random()
    if roll < 0.35:
        rep_M = _broken_rep(rep_M, rng)
    elif roll < 0.7:
        M = _broken_module(M, L, rng)
    assert validate_module_action(rep_L, rep_M, L, M) == elementwise_validate_module_action(
        rep_L, rep_M, L, M
    )
    assert validate_module(L, M) == elementwise_validate_module(L, M)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_is_equivariant_matches_oracle(n):
    @given(seeds)
    def prop(seed):
        rng = random.Random(seed)
        L, rep = _instance(rng, with_action=True)
        M, rep_L, rep_M = _reps(rng, L, rep)
        parity = rng.randrange(2)
        roll = rng.random()
        if roll < 0.6:  # an invariant cochain, perhaps with one coordinate moved
            basis = cochain_basis(n, L, M, (rep_L, rep_M))
            basis = [f for f in basis if f.parity == parity]
            f = Cochain(n, parity, L.basis, M.space, {})
            for b in basis:
                f = f.add(b.scale(rand_scalar(L.spec, rng)))
            if roll < 0.3:
                g = rand_cochain(rng, L, M, n, parity, zero_bias=0.9)
                if g.coords:
                    key = rng.choice(sorted(g.coords))
                    f = f.add(Cochain(n, parity, L.basis, M.space, {key: g.coords[key]}))
        else:
            f = rand_cochain(rng, L, M, n, parity)
        want = elementwise_is_equivariant(f, rep_L, rep_M, L, M)
        assert is_equivariant(f, rep_L, rep_M, L, M) == want
        if rep_M is rep_L and rng.random() < 0.5:
            bad = _broken_rep(rep_L, rng)
            verdict = elementwise_is_equivariant(f, bad, bad, L, M)
            assert is_equivariant(f, bad, bad, L, M) == verdict

    prop()


@pytest.mark.parametrize("n", [0, 1, 2])
def test_induced_columns_match_dense_oracle(n):
    @given(seeds)
    def prop(seed):
        rng = random.Random(seed)
        L, rep = _instance(rng, with_action=True)
        M, rep_L, rep_M = _reps(rng, L, rep)
        induced = induced_action_on_cochains(rep_L, rep_M, L, M, n)
        assert induced.matrices == dense_induced_matrices(rep_L, rep_M, L, M, n)
        rebuilt = ActionRep(induced.group, induced.spec, induced.parities, induced.matrices)
        assert rebuilt.columns == induced.columns and rebuilt == induced
        for g in range(rep_L.group.order):
            v = rand_vector(L.basis, L.spec, rng)
            assert apply_rep(rep_L, g, v) == dense_apply_rep(rep_L, g, v)

    prop()


def test_action_sweep_skips_the_identity_only_when_it_acts_as_one(monkeypatch):
    L = make_gl(1, 1)
    sweeps = equivariance_sweeps(monkeypatch)
    rep = gl11_swap_rep(L)
    assert validate_action(rep, L).ok and sweeps == [[1]]
    mats = [[list(row) for row in mat] for mat in rep.matrices]
    mats[rep.group.identity][0][1] = one(RATIONAL)  # the identity now sends e22 to e11 + e22
    bad = ActionRep(rep.group, RATIONAL, L.basis.parities, mats)
    sweeps.clear()
    report = validate_action(bad, L)
    assert not report.holds("identity") and sweeps == [[rep.group.identity, 1]]
    assert report == elementwise_validate_action(bad, L)

    # The module sweep reads the action on L and on M: the identity is swept
    # when it is broken on either.
    M = adjoint_module(L)
    sweeps.clear()
    assert validate_module_action(rep, rep, L, M).ok and sweeps == [[1]]
    for rep_L, rep_M in ((bad, rep), (rep, bad), (bad, bad)):
        sweeps.clear()
        report = validate_module_action(rep_L, rep_M, L, M)
        assert not report.ok and sweeps == [[rep.group.identity, 1]]
        assert report == elementwise_validate_module_action(rep_L, rep_M, L, M)

    # is_equivariant: the bracket is fixed by the swap, but not by a broken
    # identity; each pull_back reads the columns of one g^-1.
    pulled = []
    real_pull = cohomology.pull_back

    def pulling(A, *rest):
        pulled.append(A)
        return real_pull(A, *rest)

    monkeypatch.setattr(cohomology, "pull_back", pulling)
    mu = bracket_to_element(L)
    assert is_equivariant(mu, rep, rep, L, M)
    assert not any(A is rep.columns[rep.group.identity] for A in pulled)
    for rep_L, rep_M in ((bad, rep), (rep, bad), (bad, bad)):
        pulled.clear()
        verdict = is_equivariant(mu, rep_L, rep_M, L, M)
        assert not verdict and verdict == elementwise_is_equivariant(mu, rep_L, rep_M, L, M)
        assert any(A is rep_L.columns[rep.group.identity] for A in pulled)


def test_a_valid_action_sweeps_one_generator_and_a_failing_one_every_element(monkeypatch):
    # On a representation, the action sweeps visit the generators of Z/4,
    # which is (1,).  When element 1 fails, they run again over 1, 2 and 3,
    # so the report lists every failing element, as the oracle does.
    L = make_super_poincare()
    spec = L.spec
    sweeps = equivariance_sweeps(monkeypatch)

    def z4(q, qb):
        return diagonal_rep(
            cyclic_group(4),
            spec,
            L.basis.parities,
            [[one(spec)] * 10 + [root_of_unity(spec, q * g)] * 2 + [root_of_unity(spec, qb * g)] * 2 for g in range(4)],
        )

    # Under bad, g = 1 and g = 3 fix [Q, Qb], a combination of the P's, but
    # [g Q, g Qb] = -[Q, Qb].
    rep, bad = z4(1, -1), z4(1, 1)
    M = adjoint_module(L)
    assert validate_action(rep, L).ok and sweeps == [[1]]
    sweeps.clear()
    assert validate_module_action(rep, rep, L, M).ok and sweeps == [[1]]

    sweeps.clear()
    report = validate_action(bad, L)
    assert report.holds("homomorphism") and not report.holds("bracket equivariance") and sweeps == [[1, 1, 2, 3]]
    assert report == elementwise_validate_action(bad, L)
    sweeps.clear()
    report = validate_module_action(rep, bad, L, M)
    assert not report.holds("action equivariance") and sweeps == [[1, 1, 2, 3]]
    assert report == elementwise_validate_module_action(rep, bad, L, M)



def test_an_equivariance_sweep_maps_the_table_to_ints_once(monkeypatch):
    # Z/4 on the super-Poincare algebra, its odd elements negating J01: the
    # sweep of the generator fails and is re-run over 1, 2 and 3.  Each of
    # the two sweeps maps the bracket table and its columns once.
    L = make_super_poincare()
    o = one(L.spec)
    diags = [[-o if g % 2 and j == 0 else o for j in range(len(L.basis))] for g in range(4)]
    rep = diagonal_rep(cyclic_group(4), L.spec, L.basis.parities, diags)
    assert is_representation(rep)
    images = count_calls(monkeypatch, group_action, "IntImage")
    report = validate_action(rep, L)
    assert len(images) == 2 and len(report.counterexamples) == 48
    assert report == elementwise_validate_action(rep, L)


def test_degree_counterexamples_in_row_major_order():
    # Entries (2, 1) and (3, 0) mix parities; a column-major scan would list
    # (3, 0) first.
    L = make_gl(1, 1)
    o = one(RATIONAL)
    mats = [[list(row) for row in mat_identity(4, RATIONAL)] for _ in range(2)]
    mats[1][2][1] = o
    mats[1][3][0] = o
    rep = ActionRep(cyclic_group(2), RATIONAL, L.basis.parities, mats)
    report = validate_action(rep, L)
    assert report == elementwise_validate_action(rep, L)
    degree = [ce["where"] for ce in report.counterexamples if ce["kind"] == "degree"]
    assert degree == ["g=1, entry (2, 1)", "g=1, entry (3, 0)"]


def test_nonabelian_sweeps_match_oracles():
    # S3 permutes the three even vectors of an abelian (3|2) algebra and acts
    # on the odd ones by the sign character.  In a nonabelian group g h and
    # h g differ, and the 3-cycles are not their own inverses.
    G, perms = s3_group()
    L = abelian_algebra(3, 2)
    spec = L.spec
    o, z = one(spec), zero(spec)

    def sign(p):
        return 1 if sum(p[a] > p[b] for a in range(3) for b in range(a + 1, 3)) % 2 == 0 else -1

    mats = []
    for p in perms:
        mat = [[z] * 5 for _ in range(5)]
        for j in range(3):
            mat[p[j]][j] = o
        for j in (3, 4):
            mat[j][j] = o if sign(p) == 1 else -o
        mats.append(mat)
    rep = ActionRep(G, spec, L.basis.parities, mats)
    M = adjoint_module(L)
    assert validate_action(rep, L) == elementwise_validate_action(rep, L)
    assert validate_action(rep, L).ok
    rng = random.Random(11)
    for _ in range(10):
        bad = _broken_rep(rep, rng)
        assert validate_action(bad, L) == elementwise_validate_action(bad, L)
        assert validate_module_action(rep, bad, L, M) == elementwise_validate_module_action(
            rep, bad, L, M
        )
    for n in (1, 2):
        for f in cochain_basis(n, L, M, rep)[:6]:
            assert is_equivariant(f, rep, rep, L, M)
            assert elementwise_is_equivariant(f, rep, rep, L, M)
        for _ in range(5):
            f = rand_cochain(rng, L, M, n, rng.randrange(2), zero_bias=0.8)
            assert is_equivariant(f, rep, rep, L, M) == elementwise_is_equivariant(f, rep, rep, L, M)
        induced = induced_action_on_cochains(rep, rep, L, M, n)
        assert induced.matrices == dense_induced_matrices(rep, rep, L, M, n)


def test_super_poincare_sweeps_match_oracles_broken_and_whole():
    L = make_super_poincare()
    spec = L.spec
    rep = diagonal_rep(
        cyclic_group(4),
        spec,
        L.basis.parities,
        [[one(spec)] * 10 + [root_of_unity(spec, g)] * 2 + [root_of_unity(spec, -g)] * 2 for g in range(4)],
    )
    assert validate_superalgebra(L) == elementwise_validate_superalgebra(L)
    assert validate_action(rep, L) == elementwise_validate_action(rep, L)
    rng = random.Random(5)
    for _ in range(3):
        bad = _broken_bracket(L, rng)
        report = validate_superalgebra(bad)
        assert not report.ok
        assert report == elementwise_validate_superalgebra(bad)
        assert report.describe() == elementwise_validate_superalgebra(bad).describe()
        bad_rep = _broken_rep(rep, rng)
        report = validate_action(bad_rep, L)
        assert not report.ok
        assert report == elementwise_validate_action(bad_rep, L)
    # Z/4 acts by zeta on Q and zeta^-1 on Qbar: g and g^-1 differ.
    M = adjoint_module(L)
    f = bracket_to_element(L)
    assert is_equivariant(f, rep, rep, L, M) and elementwise_is_equivariant(f, rep, rep, L, M)
    for n in (1, 2):
        for _ in range(3):
            f = rand_cochain(rng, L, M, n, 0, zero_bias=0.97)
            assert is_equivariant(f, rep, rep, L, M) == elementwise_is_equivariant(f, rep, rep, L, M)
    twisted = diagonal_rep(
        cyclic_group(4),
        spec,
        L.basis.parities,
        [[one(spec)] * 10 + [root_of_unity(spec, -g)] * 2 + [root_of_unity(spec, g)] * 2 for g in range(4)],
    )
    assert is_equivariant(f, rep, twisted, L, M) == elementwise_is_equivariant(f, rep, twisted, L, M)
    assert not is_equivariant(bracket_to_element(L), rep, twisted, L, M)


def test_the_identity_sweeps_do_no_scalar_arithmetic_when_they_hold(monkeypatch):
    # Super-Jacobi, antisymmetry, the module axiom, rho(s)rho(h) = rho(sh),
    # both equivariance sweeps and the extension certificate add up their
    # sums as ints; Scalars are built only to report a failure.
    from supercohom import extension
    from supercohom.cohomology import coboundary
    from supercohom.extension import ExtensionDatum, extensions_equivalent
    from supercohom.scalars import Scalar

    L = make_super_poincare()
    spec, M = L.spec, adjoint_module(L)
    diags = [[one(spec)] * 10 + [root_of_unity(spec, q * g) for q in (1, 1, -1, -1)] for g in range(4)]
    rep = diagonal_rep(cyclic_group(4), spec, L.basis.parities, diags)
    gl = make_gl(1, 1)
    M11, swap = adjoint_module(gl), gl11_swap_rep(gl)
    basis = cochain_basis(1, gl, M11, swap)
    f0 = next(u for u in basis if u.parity == 0 and not coboundary(u, gl, M11).is_zero())
    x1 = ExtensionDatum(gl, M11, swap, coboundary(f0, gl, M11))
    x0 = ExtensionDatum(gl, M11, swap, Cochain(2, 0, gl.basis, gl.basis, {}))
    f = extensions_equivalent(x1, x0)

    def refuse(*args):
        raise AssertionError("Scalar arithmetic on the success path of an identity sweep")

    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "inverse"):
        monkeypatch.setattr(Scalar, name, refuse)
    assert validate_superalgebra(L).ok
    assert validate_module(L, M).ok
    assert validate_action(rep, L).ok
    assert validate_module_action(rep, rep, L, M).ok
    extension._verify_certificate(x1, x0, f)

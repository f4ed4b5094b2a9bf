"""Coboundary and cohomology tests.

Low-degree coboundaries are checked against hand-expanded formulas that were
derived separately from the general implementation, and the dimension data
is cross-checked against direct solvers for the annihilator and derivation
spaces.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercohom import cohomology as cohomology_module
from supercohom.cohomology import (
    Cochain,
    _complex,
    _delta_rows,
    _family,
    _matrix_from_basis,
    _weights,
    annihilator,
    coboundary,
    coboundary_matrix,
    coboundary_preimage,
    cochain_basis,
    cohomology,
    derivations,
    is_equivariant,
    zero_cochain,
)
from supercohom.errors import BasisMismatch, DegreeMismatch, ValidationError
from supercohom.graded import (
    GradedBasis,
    MultilinearMap,
    Vector,
    canonicalize_tuple,
    cochain_coords,
    superalt_basis,
)
from supercohom.group_action import (
    cyclic_group,
    diagonal_rep,
    induced_action_on_cochains,
    resolve_reps,
    trivial_action,
)
from supercohom.linalg import mat_mul
from supercohom.scalars import RATIONAL, cyclo, one, scalar, zero
from supercohom.superalgebra import (
    adjoint_module,
    make_gl,
    make_sl,
    zero_module,
)

from util import (
    GROUP_SHAPES,
    abelian_algebra,
    coboundary_matrix_raw,
    coboundary_raw,
    cochain_eval,
    dense_equivariant_subspace,
    gl11_mu1,
    gl11_swap_rep,
    is_zero_matrix,
    mat_vec,
    module_act,
    rand_cochain,
    rand_instance,
    rand_module,
    rand_scalar,
    value_at,
)


def _signed(v, exp):
    return v if exp % 2 == 0 else -v


def delta1_direct(f, L, M):
    """delta of a 1-cochain, from the two-argument formula written out by hand."""
    p = f.parity
    par = L.basis.parities
    vals = {}
    for a, b in superalt_basis(L.basis, 2):
        acc = Vector()
        br = L.bracket.at((a, b))
        for t, c in br.coords.items():
            acc = acc - value_at(f, (t,)).scale(c)
        acc = acc + _signed(module_act(M, Vector.basis(a, L.spec), value_at(f, (b,))), par[a] * p)
        acc = acc - _signed(
            module_act(M, Vector.basis(b, L.spec), value_at(f, (a,))),
            par[b] * p + par[a] * par[b],
        )
        vals[(a, b)] = acc
    return vals


def delta2_direct(g, L, M):
    """delta of a 2-cochain, from the three-argument formula written out by hand."""
    p = g.parity
    par = L.basis.parities
    spec = L.spec

    def g_of_bracket(a, b, rest):
        acc = Vector()
        for t, c in L.bracket.at((a, b)).coords.items():
            acc = acc + value_at(g, (t, rest)).scale(c)
        return acc

    vals = {}
    for x1, x2, x3 in superalt_basis(L.basis, 3):
        p1, p2, p3 = par[x1], par[x2], par[x3]
        acc = Vector()
        acc = acc - g_of_bracket(x1, x2, x3)
        acc = acc + _signed(g_of_bracket(x1, x3, x2), p2 * p3)
        acc = acc - _signed(g_of_bracket(x2, x3, x1), p1 * (p2 + p3))
        acc = acc + _signed(
            module_act(M, Vector.basis(x1, spec), value_at(g, (x2, x3))), p1 * p
        )
        acc = acc - _signed(
            module_act(M, Vector.basis(x2, spec), value_at(g, (x1, x3))),
            p2 * p + p1 * p2,
        )
        acc = acc + _signed(
            module_act(M, Vector.basis(x3, spec), value_at(g, (x1, x2))),
            p3 * p + p3 * (p1 + p2),
        )
        vals[(x1, x2, x3)] = acc
    return vals


def test_cochain_rejects_noncanonical_key():
    L = make_gl(1, 1)
    with pytest.raises(ValueError, match="canonical"):
        Cochain(2, 0, L.basis, L.basis, {((2, 0), 3): one(RATIONAL)})
    with pytest.raises(ValueError, match="canonical"):
        Cochain(2, 0, L.basis, L.basis, {((0, 0), 0): one(RATIONAL)})


def _sorted_key_check(T, j, arity, parity, algebra, space):
    """The key check as it was written with canonicalize_tuple: sort, keep
    the Koszul sign, compare the sorted tuple with the key.  An index
    outside the basis is refused first."""
    T = tuple(T)
    if len(T) != arity:
        raise ValueError(f"key {T} does not have arity {arity}")
    if not 0 <= j < len(space) or any(not 0 <= i < len(algebra) for i in T):
        raise ValueError(f"coordinate ({T}, {j}) indexes outside the basis")
    res = canonicalize_tuple(T, algebra.parities)
    if res is None or res[0] != T:
        raise ValueError(f"key {T} is not a canonical index tuple")
    want = (sum(algebra.parities[i] for i in T) + space.parities[j]) % 2
    if want != parity % 2:
        raise ValueError(f"coordinate ({T}, {j}) has parity {want}, cochain is tagged {parity}")


def _outcome(f, *args):
    try:
        f(*args)
    except (IndexError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=8 * settings.default.max_examples)
@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=4).map(sorted),
    st.integers(0, 3),
    st.lists(st.integers(-6, 6), max_size=4),
    st.integers(-3, 5),
    st.integers(0, 1),
)
def test_cochain_key_check_matches_the_sorting_check(parities, arity, T, j, parity):
    # Indices range past both ends of the basis: the same exception type and
    # text must come out for every key, out-of-range indices included.
    basis = GradedBasis(tuple(f"x{k}" for k in range(len(parities))), tuple(parities))
    space = GradedBasis(("m0", "m1", "m2"), (0, 0, 1))
    want = _outcome(_sorted_key_check, T, j, arity, parity, basis, space)
    assert _outcome(Cochain, arity, parity, basis, space, {(tuple(T), j): one(RATIONAL)}) == want


@pytest.mark.parametrize(
    "key, parity",
    [(((-1,), 2), 0), (((4,), 0), 0), (((0,), -1), 1), (((0,), 4), 0)],
    ids=["negative T", "too large T", "negative j", "too large j"],
)
def test_cochain_refuses_indices_outside_the_basis(key, parity):
    # Python reads index -1 from the end of the basis: the key used to be
    # accepted, and coboundary then failed with a KeyError.
    L = make_gl(1, 1)
    with pytest.raises(ValueError, match="outside the basis"):
        Cochain(1, parity, L.basis, L.basis, {key: one(RATIONAL)})


@given(st.integers(0, 2**32 - 1))
def test_cochains_built_from_canonical_keys_pass_the_public_constructor(seed):
    # _cochains (cochain_basis, the representatives, coboundary), add, scale,
    # circ, bracket_to_element, check_order, derivations and gauge_transform
    # skip the key checks of Cochain; each of their outputs must pass those
    # checks unchanged.  The last three run no key check at all.
    from supercohom.deformation import Deformation, GaugeTransform, check_order, gauge_transform, identity_endo
    from supercohom.nr_bracket import bracket_to_element, circ

    rng = random.Random(seed)
    L, _ = rand_instance(rng, spec=rng.choice([RATIONAL, cyclo(3), cyclo(4)]))
    M = adjoint_module(L)
    n, parity = rng.randrange(1, 3), rng.randrange(2)
    f, g = (rand_cochain(rng, L, M, n, parity, zero_bias=0.7) for _ in range(2))
    report = cohomology(n, L, M)
    built = [coboundary(f, L, M), f.add(g), f.scale(rand_scalar(L.spec, rng)), bracket_to_element(L)]
    built += cochain_basis(n, L, M)[:6] + report.representatives[0] + report.representatives[1]
    built += [circ(f, g), circ(bracket_to_element(L), f)]

    d = Deformation(L, None, [bracket_to_element(L), rand_cochain(rng, L, M, 2, 0, zero_bias=0.7)])
    gauge = GaugeTransform(L.spec, L.basis, [identity_endo(L.basis, L.spec), rand_cochain(rng, L, M, 1, 0)])
    checked = []
    real = Cochain.__post_init__

    def checking(h):
        checked.append(dict(h.coords))
        real(h)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Cochain, "__post_init__", checking)
        residuals = [check_order(d, r).residual for r in range(3)]
        der, inn = derivations(L, M)
        terms = gauge_transform(d, gauge).terms
    assert not any(checked)
    for residual in residuals:
        coords = {(T, j): c for T, v in residual.items() for j, c in v.coords.items()}
        assert Cochain(3, 0, L.basis, L.basis, coords).by_tuple() == residual
    built += [*der, *inn, *terms]
    for h in built:
        assert Cochain(h.arity, h.parity, h.algebra, h.space, dict(h.coords)) == h


def test_cochain_add_refuses_another_space():
    L = make_gl(1, 1)
    f = Cochain(1, 0, L.basis, L.basis, {((0,), 0): one(RATIONAL)})
    other = GradedBasis(("m", "n", "p", "q"), (0, 0, 1, 1))
    with pytest.raises(ValueError, match="same algebra and space"):
        f.add(Cochain(1, 0, L.basis, other, {((0,), 0): one(RATIONAL)}))


def test_cochain_rejects_parity_mismatch():
    L = make_gl(1, 1)
    with pytest.raises(ValueError, match="parity"):
        Cochain(1, 1, L.basis, L.basis, {((0,), 0): one(RATIONAL)})


def test_cochain_value_resorts_with_sign():
    L = make_gl(1, 1)
    f = Cochain(2, 0, L.basis, L.basis, {((2, 3), 0): one(RATIONAL)})
    # swapping two odd slots keeps the sign, a repeated even slot vanishes
    assert value_at(f, (3, 2)) == Vector.basis(0, RATIONAL)
    assert value_at(f, (2, 3)) == Vector.basis(0, RATIONAL)
    g = Cochain(2, 0, L.basis, L.basis, {((0, 1), 0): one(RATIONAL)})
    assert value_at(g, (1, 0)) == -Vector.basis(0, RATIONAL)
    assert value_at(g, (0, 0)).is_zero()


def test_delta0_frozen_even_element():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    m = Cochain(0, 0, L.basis, M.space, {((), 0): one(RATIONAL)})
    d = coboundary(m, L, M)
    assert d.coords == {
        ((2,), 2): -one(RATIONAL),
        ((3,), 3): one(RATIONAL),
    }
    center = Cochain(
        0, 0, L.basis, M.space, {((), 0): one(RATIONAL), ((), 1): one(RATIONAL)}
    )
    assert coboundary(center, L, M).is_zero()


def test_delta0_frozen_odd_element():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    m = Cochain(0, 1, L.basis, M.space, {((), 2): one(RATIONAL)})
    d = coboundary(m, L, M)
    assert d.coords == {
        ((0,), 2): one(RATIONAL),
        ((1,), 2): -one(RATIONAL),
        ((3,), 0): -one(RATIONAL),
        ((3,), 1): -one(RATIONAL),
    }


@pytest.mark.parametrize("parity", [0, 1])
def test_delta1_matches_hand_formula(parity):
    rng = random.Random(101 + parity)
    for _ in range(6):
        L, _ = rand_instance(rng)
        M, _ = rand_module(rng, L, None)
        f = rand_cochain(rng, L, M, 1, parity)
        d = coboundary(f, L, M)
        for pair, want in delta1_direct(f, L, M).items():
            assert value_at(d, pair) == want


@pytest.mark.parametrize("parity", [0, 1])
def test_delta2_matches_hand_formula(parity):
    rng = random.Random(202 + parity)
    for _ in range(6):
        L, _ = rand_instance(rng)
        M, _ = rand_module(rng, L, None)
        g = rand_cochain(rng, L, M, 2, parity)
        d = coboundary(g, L, M)
        for triple, want in delta2_direct(g, L, M).items():
            assert value_at(d, triple) == want


def test_delta_squared_zero_on_cochains():
    rng = random.Random(303)
    for _ in range(10):
        L, _ = rand_instance(rng)
        M, _ = rand_module(rng, L, None)
        for n in (0, 1, 2):
            for parity in (0, 1):
                f = rand_cochain(rng, L, M, n, parity)
                assert coboundary(coboundary(f, L, M), L, M).is_zero()


def test_delta_squared_zero_matrices_with_actions():
    rng = random.Random(404)
    for _ in range(6):
        L, rep = rand_instance(rng, with_action=True)
        M, reps = rand_module(rng, L, rep)
        for n in (0, 1, 2):
            full_next = coboundary_matrix(n + 1, L, M, None)
            restricted = coboundary_matrix(n, L, M, reps)
            if full_next and full_next[0] and restricted and restricted[0]:
                assert is_zero_matrix(mat_mul(full_next, restricted, L.spec))
            full = coboundary_matrix(n, L, M, None)
            if full_next and full_next[0] and full and full[0]:
                assert is_zero_matrix(mat_mul(full_next, full, L.spec))


def test_parity_blocks_vanish():
    rng = random.Random(505)
    for _ in range(5):
        L, _ = rand_instance(rng)
        M, _ = rand_module(rng, L, None)
        for n in (0, 1, 2):
            dom = cochain_coords(L.basis, n, M.space)
            cod = cochain_coords(L.basis, n + 1, M.space)
            mat = coboundary_matrix(n, L, M, None)

            def cparity(key):
                T, j = key
                return (
                    sum(L.basis.parities[i] for i in T) + M.space.parities[j]
                ) % 2

            for r in range(len(cod)):
                for k in range(len(dom)):
                    if cparity(cod[r]) != cparity(dom[k]):
                        assert mat[r][k].is_zero()


def test_rank_nullity_per_parity():
    rng = random.Random(606)
    from util import mat_rank

    for _ in range(5):
        L, _ = rand_instance(rng)
        M, _ = rand_module(rng, L, None)
        n = rng.choice((1, 2))
        rep_report = cohomology(n, L, M)
        dom = cochain_basis(n, L, M)
        mat = coboundary_matrix(n, L, M)
        for p in (0, 1):
            cols = [k for k, f in enumerate(dom) if f.parity == p]
            sub = [[row[k] for k in cols] for row in mat]
            rank = mat_rank(sub, L.spec) if cols else 0
            assert rep_report.c_dims[p] == len(cols)
            assert rep_report.z_dims[p] + rank == rep_report.c_dims[p]
            assert rep_report.h_dims[p] == rep_report.z_dims[p] - rep_report.b_dims[p]
            assert len(rep_report.representatives[p]) == rep_report.h_dims[p]


def test_representatives_are_cocycles():
    rng = random.Random(707)
    for _ in range(4):
        L, _ = rand_instance(rng)
        M, _ = rand_module(rng, L, None)
        report = cohomology(1, L, M)
        for p in (0, 1):
            for f in report.representatives[p]:
                assert coboundary(f, L, M).is_zero()
                assert not f.is_zero()


def test_h0_gl11_adjoint():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    report = cohomology(0, L, M)
    assert report.h_dims == (1, 0)
    assert report.b_dims == (0, 0)
    rep = report.representatives[0][0]
    v = value_at(rep, ())
    # the identity matrix spans the even kernel
    assert v.get(0, RATIONAL) == v.get(1, RATIONAL)
    assert not v.get(0, RATIONAL).is_zero()


def test_built_values_refuse_writes_and_keep_their_cohomology():
    # Writing into the shared bracket element, the module table or a Vector
    # used to change what later calls read, while the record of the complex
    # kept what it had found from the old values: clearing M.act read
    # H^1 = (1, 0), neither the old answer nor that of a fresh module.
    from supercohom.nr_bracket import bracket_element

    L = make_gl(1, 1)
    M = adjoint_module(L)
    assert cohomology(1, L, M).h_dims == (2, 0)
    mu, v = bracket_element(L), Vector({0: one(RATIONAL)})
    writes = [
        (mu.coords, ((0, 1), 1), one(RATIONAL)),
        (M.act, (0, 0), Vector({0: one(RATIONAL)})),
        (v.coords, 1, one(RATIONAL)),
    ]
    for table, key, value in writes:
        with pytest.raises(TypeError):
            table[key] = value
        with pytest.raises(AttributeError):
            table.clear()
    for obj, name in ((mu, "coords"), (M, "act"), (v, "coords"), (L.bracket, "components")):
        with pytest.raises(AttributeError):
            setattr(obj, name, {})
    assert mu.coords and M.act and v.coords and L.bracket.components
    assert cohomology(1, L, M).h_dims == (2, 0)
    assert cohomology(1, L, adjoint_module(L)).h_dims == (2, 0)


def test_gl11_annihilator_is_the_identity_line():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    ann = annihilator(L, M)
    assert len(ann) == 1
    v = ann[0]
    assert v.get(0, RATIONAL) == v.get(1, RATIONAL)
    assert v.get(2, RATIONAL).is_zero() and v.get(3, RATIONAL).is_zero()


def test_annihilator_matches_h0_random():
    rng = random.Random(808)
    for _ in range(8):
        L, rep = rand_instance(rng, with_action=rng.random() < 0.5, groups=GROUP_SHAPES)
        M, reps = rand_module(rng, L, rep)
        report = cohomology(0, L, M, reps)
        ann = annihilator(L, M, reps)
        assert len(ann) == report.h_dims[0]


def test_derivations_match_h1_random():
    rng = random.Random(909)
    for _ in range(8):
        L, rep = rand_instance(rng, with_action=rng.random() < 0.5, groups=GROUP_SHAPES)
        M, reps = rand_module(rng, L, rep)
        report = cohomology(1, L, M, reps)
        der, inn = derivations(L, M, reps)
        assert len(der) - len(inn) == report.h_dims[0]


def test_inner_derivations_are_derivations():
    rng = random.Random(111)
    for _ in range(5):
        L, _ = rand_instance(rng)
        M, _ = rand_module(rng, L, None)
        der, inn = derivations(L, M)
        for f in inn:
            assert coboundary(f, L, M).is_zero()
        for f in der:
            assert coboundary(f, L, M).is_zero()


def test_abelian_every_even_map_is_a_derivation():
    L = abelian_algebra(2, 1)
    M = adjoint_module(L)
    der, inn = derivations(L, M)
    assert len(der) == 2 * 2 + 1 * 1
    assert len(inn) == 0
    report = cohomology(1, L, M)
    assert report.h_dims[0] == 5


def test_equivariant_cochains_stay_equivariant_under_delta():
    rng = random.Random(121)
    hits = 0
    while hits < 4:
        L, rep = rand_instance(rng, with_action=True)
        M, reps = rand_module(rng, L, rep)
        if reps is None:
            continue
        basis = cochain_basis(1, L, M, reps)
        if not basis:
            continue
        hits += 1
        rep_pair = reps if isinstance(reps, tuple) else (reps, reps)
        for f in basis[:3]:
            df = coboundary(f, L, M, reps)
            assert is_equivariant(df, rep_pair[0], rep_pair[1], L, M)


def test_equivariant_matrix_columns_match_full_matrix():
    rng = random.Random(131)
    L, rep = rand_instance(rng, with_action=True)
    M = adjoint_module(L)
    n = 1
    basis = cochain_basis(n, L, M, rep)
    restricted = coboundary_matrix(n, L, M, rep)
    full = coboundary_matrix(n, L, M, None)
    coords = cochain_coords(L.basis, n, M.space)
    pos = {c: t for t, c in enumerate(coords)}
    for k, f in enumerate(basis):
        raw = [zero(L.spec)] * len(coords)
        for key, c in f.coords.items():
            raw[pos[key]] = c
        via_full = mat_vec(full, raw, L.spec)
        via_restricted = [restricted[r][k] for r in range(len(restricted))]
        assert via_full == via_restricted


def test_coboundary_rejects_nonequivariant_cochain():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = gl11_swap_rep(L)
    f = Cochain(0, 0, L.basis, M.space, {((), 0): one(RATIONAL)})
    with pytest.raises(ValidationError, match="equivariant"):
        coboundary(f, L, M, rep)


def test_coboundary_rejects_wrong_module():
    L = make_gl(1, 1)
    other = abelian_algebra(2, 2)
    M = adjoint_module(other)
    f = zero_cochain(1, 0, other, M)
    with pytest.raises(BasisMismatch):
        coboundary(f, L, M)


@pytest.mark.parametrize("call", ["cohomology", "coboundary", "coboundary_preimage", "derivations", "annihilator"])
def test_a_module_of_another_algebra_is_refused(call):
    # The adjoint module of gl(1|1) is no module of sl(1|1); cohomology used
    # to report h_dims (-1, 2) for it in degree 1.
    L = make_sl(1, 1)
    M = adjoint_module(make_gl(1, 1))
    f = zero_cochain(1, 0, L, M)
    calls = {
        "cohomology": lambda: cohomology(1, L, M),
        "coboundary": lambda: coboundary(f, L, M),
        "coboundary_preimage": lambda: coboundary_preimage(1, L, M, None, zero_cochain(2, 0, L, M)),
        "derivations": lambda: derivations(L, M),
        "annihilator": lambda: annihilator(L, M),
    }
    with pytest.raises(BasisMismatch, match="different algebra basis"):
        calls[call]()


@pytest.mark.parametrize("swapped", [False, True], ids=["Z2-Z3", "Z3-Z2"])
def test_actions_of_different_groups_are_refused(swapped):
    L = make_gl(1, 1)
    M = zero_module(L, GradedBasis(("m",), (0,)))
    rep_L = gl11_swap_rep(L)
    rep_M = trivial_action(cyclic_group(3), RATIONAL, M.space.parities)
    if swapped:
        rep_L = trivial_action(cyclic_group(3), RATIONAL, L.basis.parities)
        rep_M = trivial_action(cyclic_group(2), RATIONAL, M.space.parities)
    for call in (cohomology, lambda n, *args: cochain_basis(n, *args)):
        with pytest.raises(ValidationError, match="share the group"):
            call(1, L, M, (rep_L, rep_M))
    with pytest.raises(ValidationError, match="share the group"):
        derivations(L, M, (rep_L, rep_M))


def test_a_target_of_another_complex_is_refused():
    # A 2-cochain into a one-dimensional module used to read as "not a
    # coboundary" of the adjoint complex, and a 1-cochain raised KeyError.
    L = make_gl(1, 1)
    M = adjoint_module(L)
    Z = zero_module(L, GradedBasis(("m",), (0,)))
    o = one(RATIONAL)
    with pytest.raises(BasisMismatch):
        coboundary_preimage(1, L, M, None, Cochain(2, 0, L.basis, Z.space, {((0, 1), 0): o}))
    with pytest.raises(DegreeMismatch):
        coboundary_preimage(1, L, M, None, Cochain(1, 0, L.basis, M.space, {((0,), 0): o}))


def test_mu1_equivariant_but_not_a_cocycle():
    # The multiplication-induced direction is equivariant and kills every
    # triple of three distinct basis elements, yet it is not a cocycle: the
    # differential survives exactly on the triples with a repeated odd slot.
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = gl11_swap_rep(L)
    mu1 = gl11_mu1(L)
    assert is_equivariant(mu1, rep, rep, L, M)
    d = coboundary(mu1, L, M, rep)
    two = scalar(RATIONAL, 2)
    assert d.coords == {
        ((0, 2, 2), 0): -two,
        ((0, 2, 2), 1): -two,
        ((1, 2, 2), 0): two,
        ((1, 2, 2), 1): two,
        ((0, 3, 3), 0): two,
        ((0, 3, 3), 1): two,
        ((1, 3, 3), 0): -two,
        ((1, 3, 3), 1): -two,
    }
    for triple in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        assert value_at(d, triple).is_zero()
    # the eight evaluations with distinct arguments, in their original order
    for triple in (
        (0, 2, 3),
        (0, 3, 2),
        (0, 2, 1),
        (0, 1, 2),
        (0, 1, 3),
        (0, 3, 1),
        (1, 2, 3),
        (1, 3, 2),
    ):
        assert value_at(d, triple).is_zero()


def test_zero_module_coboundary_is_pure_bracket_term():
    rng = random.Random(141)
    L, _ = rand_instance(rng)
    space = abelian_algebra(1, 1).basis
    M = zero_module(L, space)
    f = rand_cochain(rng, L, M, 1, 0)
    d = coboundary(f, L, M)
    for a, b in superalt_basis(L.basis, 2):
        acc = Vector()
        for t, c in L.bracket.at((a, b)).coords.items():
            acc = acc - value_at(f, (t,)).scale(c)
        assert value_at(d, (a, b)) == acc


def test_cochain_eval_is_multilinear():
    rng = random.Random(151)
    L = make_gl(2, 1)
    M = adjoint_module(L)
    f = rand_cochain(rng, L, M, 2, 0, zero_bias=0.3)
    u = Vector({0: scalar(RATIONAL, 2), 3: one(RATIONAL)})
    v = Vector({1: scalar(RATIONAL, -1)})
    w = Vector({2: one(RATIONAL), 4: scalar(RATIONAL, 3)})
    lhs = cochain_eval(f, [u + v, w])
    rhs = cochain_eval(f, [u, w]) + cochain_eval(f, [v, w])
    assert lhs == rhs


def test_induced_action_commutes_with_coboundary_matrixwise():
    rng = random.Random(161)
    L, rep = rand_instance(rng, with_action=True)
    M = adjoint_module(L)
    n = 1
    full = coboundary_matrix(n, L, M, None)
    low = induced_action_on_cochains(rep, rep, L, M, n)
    high = induced_action_on_cochains(rep, rep, L, M, n + 1)
    for g in range(rep.group.order):
        lhs = mat_mul(high.matrices[g], full, L.spec)
        rhs = mat_mul(full, low.matrices[g], L.spec)
        assert lhs == rhs


# -- the one-sweep assembly against the cochain-by-cochain oracle -----------------


@pytest.mark.parametrize("with_action", [False, True], ids=["plain", "equivariant"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_sweep_matches_per_cochain_oracle(n, with_action):
    @given(st.integers(0, 2**32 - 1))
    def prop(seed):
        rng = random.Random(seed)
        L, rep = rand_instance(rng, with_action=with_action, groups=GROUP_SHAPES)
        M, reps = rand_module(rng, L, rep)
        basis = cochain_basis(n, L, M, reps)
        want = coboundary_matrix_raw(basis, n, L, M)
        assert _matrix_from_basis(basis, n, L, M) == want
        assert coboundary_matrix(n, L, M, reps) == want
        for parity in (0, 1):
            f = rand_cochain(rng, L, M, n, parity)
            assert coboundary(f, L, M) == coboundary_raw(f, L, M)

    prop()


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_cochain_basis_reads_off_the_dense_fixed_subspace(n, seed, with_action, cyclotomic):
    # Without a group the oracle is the fixed subspace of the trivial group.
    rng = random.Random(seed)
    spec = cyclo(4) if cyclotomic else RATIONAL
    L, rep = rand_instance(rng, spec, with_action=with_action, max_d0=2, max_d1=2, groups=GROUP_SHAPES)
    M, reps = rand_module(rng, L, rep)
    if reps is None:
        G = cyclic_group(1)
        rep_L, rep_M = trivial_action(G, spec, L.basis.parities), trivial_action(G, spec, M.space.parities)
    else:
        rep_L, rep_M = reps if isinstance(reps, tuple) else (reps, reps)
    induced = induced_action_on_cochains(rep_L, rep_M, L, M, n)
    coords = cochain_coords(L.basis, n, M.space)
    want = []
    for col in dense_equivariant_subspace(induced):
        support = [t for t, c in enumerate(col) if not c.is_zero()]
        (parity,) = {induced.parities[t] for t in support}
        want.append(Cochain(n, parity, L.basis, M.space, {coords[t]: col[t] for t in support}))
    assert cochain_basis(n, L, M, reps) == want


# -- sparse cochains: the dead-term skip against the per-cochain oracle -----------


def _as_cochain(col, parity, n, L, M):
    """A sparse column over the raw cochain_coords indices, as a Cochain."""
    keys = cochain_coords(L.basis, n, M.space)
    return Cochain(n, parity, L.basis, M.space, {keys[t]: c for t, c in col.items()})


def _rows_as_cochain(rows, parity, n, L, M):
    """The one-column result of _delta_rows, as an (n+1)-Cochain."""
    keys = cochain_coords(L.basis, n + 1, M.space)
    return Cochain(n + 1, parity, L.basis, M.space, {keys[r]: row[0] for r, row in rows.items()})


def _single_coordinates(rng, L, M, n, count):
    """Up to count cochains with one nonzero coordinate each."""
    keys = cochain_coords(L.basis, n, M.space)
    par = L.basis.parities
    out = []
    for T, j in rng.sample(keys, min(count, len(keys))):
        parity = (sum(par[i] for i in T) + M.space.parities[j]) % 2
        c = rand_scalar(L.spec, rng, zero_bias=0.0)
        out.append(Cochain(n, parity, L.basis, M.space, {(T, j): c}))
    return out


@pytest.mark.parametrize("cyclotomic", [False, True], ids=["Q", "Q(zeta4)"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_coboundary_of_sparse_cochains_matches_the_oracle(n, cyclotomic):
    spec = cyclo(4) if cyclotomic else RATIONAL
    rng = random.Random(7100 + 10 * n + cyclotomic)
    for _ in range(4):
        L, _ = rand_instance(rng, spec)
        M, _ = rand_module(rng, L, None)
        cochains = _single_coordinates(rng, L, M, n, 4)
        cochains += [rand_cochain(rng, L, M, n, p, zero_bias=0.9) for p in (0, 1)]
        cochains += [zero_cochain(n, p, L, M) for p in (0, 1)]
        for f in cochains:
            assert coboundary(f, L, M) == coboundary_raw(f, L, M)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_coboundary_of_sparse_equivariant_cochains_matches_the_oracle(n):
    # With a group, the sparse inputs are single Reynolds columns, a sum of
    # two, and the zero cochain.
    rng = random.Random(7200 + n)
    for _ in range(4):
        L, rep = rand_instance(rng, with_action=True, groups=GROUP_SHAPES)
        M, reps = rand_module(rng, L, rep)
        members = cochain_basis(n, L, M, reps)
        cochains = members[:4] + [zero_cochain(n, p, L, M) for p in (0, 1)]
        same = [f for f in members if f.parity == members[0].parity] if members else []
        if len(same) >= 2:
            cochains.append(same[0].add(same[-1]))
        for f in cochains:
            assert coboundary(f, L, M, reps) == coboundary_raw(f, L, M)


@pytest.mark.parametrize("with_group", [False, True], ids=["plain", "swap-Z2"])
def test_zero_cochain_costs_nothing(monkeypatch, with_group):
    # delta 0 = 0 and 0 is fixed by every g, so neither the sweep nor the
    # equivariance check reads a bracket entry or pulls anything back.
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = gl11_swap_rep(L) if with_group else None
    f = zero_cochain(2, 0, L, M)

    def refuse(*args):
        raise AssertionError("the zero cochain did some work")

    monkeypatch.setattr(MultilinearMap, "at", refuse)
    monkeypatch.setattr(cohomology_module, "pull_back", refuse)
    got = coboundary(f, L, M, rep)
    if with_group:
        assert is_equivariant(f, *resolve_reps(rep, L, M), L, M)
    monkeypatch.undo()
    assert got == zero_cochain(3, 0, L, M)
    assert got == coboundary_raw(f, L, M)


@pytest.mark.parametrize("with_group", [False, True], ids=["plain", "sign-Z2"])
@pytest.mark.parametrize("alg, adjoint", [((1, 1), True), ((2, 1), True), ((2, 1), False)])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_weighted_sweep_of_single_members_matches_the_oracle(n, alg, adjoint, with_group):
    # With the packed weights, _delta_rows of one weight-0 member of the
    # family (a unit coordinate, or one Reynolds column) is its coboundary.
    L = make_gl(*alg)
    M = adjoint_module(L) if adjoint else zero_module(L, GradedBasis(("m",), (0,)))
    reps = None
    if with_group:  # the parity automorphism fixes the torus
        G = cyclic_group(2)
        diags = [[one(RATIONAL)] * len(L), [scalar(RATIONAL, 1 - 2 * p) for p in L.basis.parities]]
        rep_L = diagonal_rep(G, RATIONAL, L.basis.parities, diags)
        rep = rep_L if adjoint else (rep_L, trivial_action(G, RATIONAL, M.space.parities))
        reps = resolve_reps(rep, L, M)
    wt = _weights(n + 2, _complex(L, M, reps))
    assert wt is not None
    cols, parities, _ = _family(n, L, M, reps, wt)
    assert cols
    for col, p in zip(cols, parities):
        f = _as_cochain(col, p, n, L, M)
        assert _rows_as_cochain(_delta_rows(n, L, M, [col], wt), p, n, L, M) == coboundary_raw(f, L, M)

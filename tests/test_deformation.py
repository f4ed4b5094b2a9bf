"""Tests for truncated formal deformations and gauge equivalence."""

import os
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supercohom.cohomology import Cochain, coboundary, cochain_basis, zero_cochain
from supercohom.deformation import (
    Deformation,
    GaugeTransform,
    check_order,
    gauge_transform,
    identity_endo,
    infinitesimal,
    infinitesimals_cohomologous,
    obstruction,
    validate,
)
from supercohom.errors import (
    AllZero,
    BasisMismatch,
    NotValidated,
    OracleDisagreement,
    ValidationError,
    WrongBidegree,
)
from supercohom.graded import Vector, superalt_basis
from supercohom.group_action import cyclic_group, trivial_action
from supercohom.nr_bracket import bracket_to_element, circ
from supercohom.scalars import RATIONAL, cyclo, one, scalar
from supercohom.superalgebra import adjoint_module, make_gl, make_sl
from supercohom.workspace import load

from util import (
    GROUP_SHAPES,
    abelian_algebra,
    elementwise_gauge_transform,
    gl11_mu1,
    gl11_swap_rep,
    rand_cochain,
    rand_instance,
    rand_scalar,
    value_at,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

ONE = one(RATIONAL)
MINUS = scalar(RATIONAL, -1)


@pytest.fixture
def gl11():
    L = make_gl(1, 1)
    return L, gl11_swap_rep(L), adjoint_module(L)


def displayed_deformation(L, rep):
    return Deformation(L, rep, [bracket_to_element(L), gl11_mu1(L)])


def rand_equivariant_endo(rng, L, M, rep, scale_range=2):
    psi = Cochain(1, 0, L.basis, L.basis, {})
    for u in cochain_basis(1, L, M, rep=(rep, rep)):
        if u.parity == 0:
            psi = psi.add(u.scale(scalar(RATIONAL, rng.randint(-scale_range, scale_range))))
    return psi


def abelian_fixture(d0, d1=0):
    L = abelian_algebra(d0, d1)
    rep = trivial_action(cyclic_group(1), RATIONAL, L.basis.parities)
    return L, rep


# -- construction -------------------------------------------------------------


def test_rejects_leading_term_other_than_bracket(gl11):
    L, rep, M = gl11
    with pytest.raises(ValidationError, match="order-0"):
        Deformation(L, rep, [gl11_mu1(L)])


def test_rejects_wrong_arity_or_parity_terms(gl11):
    L, rep, M = gl11
    with pytest.raises(WrongBidegree):
        Deformation(L, rep, [bracket_to_element(L), Cochain(3, 0, L.basis, L.basis, {})])
    with pytest.raises(WrongBidegree):
        Deformation(
            L, rep,
            [bracket_to_element(L), Cochain(2, 1, L.basis, L.basis, {((0, 2), 0): ONE})],
        )


def test_rejects_foreign_basis_terms(gl11):
    L, rep, M = gl11
    A, _ = abelian_fixture(2, 2)
    with pytest.raises(BasisMismatch):
        Deformation(L, rep, [bracket_to_element(A)])


def test_rejects_non_equivariant_term(gl11):
    L, rep, M = gl11
    skew = Cochain(2, 0, L.basis, L.basis, {((0, 2), 2): ONE})
    with pytest.raises(ValidationError, match="equivariant"):
        Deformation(L, rep, [bracket_to_element(L), skew])


def test_order_and_term_padding(gl11):
    L, rep, M = gl11
    d = displayed_deformation(L, rep)
    assert d.order == 1
    assert d.term(1) == gl11_mu1(L)
    assert d.term(5).is_zero()


# -- order-by-order checking --------------------------------------------------


def test_order_zero_holds_for_any_valid_base(gl11):
    L, rep, M = gl11
    d = displayed_deformation(L, rep)
    assert check_order(d, 0).ok


def test_order_one_residual_matches_coboundary_of_mu1(gl11):
    """The r=1 residual must equal delta^2(mu_1) computed by the complex."""
    rng = random.Random(13)
    L, rep, M = gl11
    mu0 = bracket_to_element(L)
    basis2 = [u for u in cochain_basis(2, L, M, rep=(rep, rep)) if u.parity == 0]
    assert basis2
    for _ in range(6):
        mu1 = Cochain(2, 0, L.basis, L.basis, {})
        for u in basis2:
            mu1 = mu1.add(u.scale(scalar(RATIONAL, rng.randint(-3, 3))))
        d = Deformation(L, rep, [mu0, mu1])
        rpt = check_order(d, 1)
        want = coboundary(mu1, L, M)
        for T in superalt_basis(L.basis, 3):
            got = rpt.residual.get(T)
            if got is None:
                assert value_at(want, T).is_zero()
            else:
                assert got == value_at(want, T)
        assert rpt.ok == want.is_zero()


def test_order_one_residual_matches_coboundary_without_equivariance(gl11):
    # the identity is algebraic: it needs antisymmetry only, not equivariance,
    # so a term the swap action does not fix is checked under the trivial action
    L, _, M = gl11
    rep = trivial_action(cyclic_group(1), RATIONAL, L.basis.parities)
    skew = Cochain(2, 0, L.basis, L.basis, {((0, 2), 2): ONE, ((2, 3), 1): scalar(RATIONAL, 2)})
    d = Deformation(L, rep, [bracket_to_element(L), skew])
    rpt = check_order(d, 1)
    want = coboundary(skew, L, M)
    for T in superalt_basis(L.basis, 3):
        got = rpt.residual.get(T, Vector())
        assert got == value_at(want, T)


def test_displayed_first_order_term_fails_at_order_one(gl11):
    """The bilinear term built from the product flip is equivariant but not a
    cocycle: the order-1 identity survives exactly on the four canonical
    triples with a repeated odd slot."""
    L, rep, M = gl11
    d = displayed_deformation(L, rep)
    rpt = check_order(d, 1)
    assert not rpt.ok
    two = scalar(RATIONAL, 2)
    minus_two = scalar(RATIONAL, -2)
    assert rpt.residual == {
        (0, 2, 2): Vector({0: minus_two, 1: minus_two}),
        (1, 2, 2): Vector({0: two, 1: two}),
        (0, 3, 3): Vector({0: two, 1: two}),
        (1, 3, 3): Vector({0: minus_two, 1: minus_two}),
    }


def test_validate_trivial_deformation_both_modes(gl11):
    L, rep, M = gl11
    d = Deformation(L, rep, [bracket_to_element(L)])
    assert validate(d, "truncated").ok
    assert validate(d, "strict").ok


def test_validate_modes_and_reports(gl11):
    L, rep, M = gl11
    d = displayed_deformation(L, rep)
    rpt = validate(d, "truncated")
    assert rpt.mode == "truncated"
    assert not rpt.ok
    assert rpt.first_failure().r == 1
    with pytest.raises(ValueError):
        validate(d, "loose")


def test_strict_valid_order_one_deformation():
    """Deforming the abelian bracket by a genuine Lie bracket passes strictly."""
    A, repA = abelian_fixture(2, 2)
    L = make_gl(1, 1)
    mu1 = Cochain(2, 0, A.basis, A.basis, dict(bracket_to_element(L).coords))
    d = Deformation(A, repA, [bracket_to_element(A), mu1])
    assert validate(d, "truncated").ok
    assert validate(d, "strict").ok
    rpt = obstruction(d)
    assert rpt.cochain.is_zero() and rpt.solvable and rpt.closed


# -- infinitesimals -----------------------------------------------------------


def test_infinitesimal_of_displayed_deformation_is_flagged(gl11):
    L, rep, M = gl11
    d = displayed_deformation(L, rep)
    rpt = infinitesimal(d)
    assert rpt.index == 1
    assert rpt.cochain == gl11_mu1(L)
    assert not rpt.is_cocycle


def test_infinitesimal_skips_zero_terms(gl11):
    L, rep, M = gl11
    zero2 = Cochain(2, 0, L.basis, L.basis, {})
    d = Deformation(L, rep, [bracket_to_element(L), zero2, gl11_mu1(L)])
    rpt = infinitesimal(d)
    assert rpt.index == 2


def test_infinitesimal_cocycle_flag_true_case():
    A, repA = abelian_fixture(2, 2)
    L = make_gl(1, 1)
    mu1 = Cochain(2, 0, A.basis, A.basis, dict(bracket_to_element(L).coords))
    d = Deformation(A, repA, [bracket_to_element(A), mu1])
    assert infinitesimal(d).is_cocycle


def test_infinitesimal_all_zero_raises(gl11):
    L, rep, M = gl11
    d = Deformation(L, rep, [bracket_to_element(L)])
    with pytest.raises(AllZero):
        infinitesimal(d)


# -- obstructions -------------------------------------------------------------


def test_obstruction_of_order_zero_is_zero(gl11):
    L, rep, M = gl11
    rpt = obstruction(Deformation(L, rep, [bracket_to_element(L)]))
    assert rpt.cochain.is_zero()
    assert rpt.solvable and rpt.next_term is not None and rpt.next_term.is_zero()
    assert rpt.closed


def test_obstruction_requires_truncated_validity(gl11):
    L, rep, M = gl11
    with pytest.raises(NotValidated):
        obstruction(displayed_deformation(L, rep))


def test_unsolvable_obstruction_on_abelian_base():
    B, repB = abelian_fixture(3)
    mu1 = Cochain(2, 0, B.basis, B.basis, {((0, 1), 0): ONE, ((0, 2), 2): ONE})
    d = Deformation(B, repB, [bracket_to_element(B), mu1])
    assert validate(d, "truncated").ok
    rpt = obstruction(d)
    assert dict(rpt.cochain.coords) == {((0, 1, 2), 2): MINUS}
    assert rpt.closed
    assert not rpt.solvable and rpt.next_term is None


def test_nonzero_solvable_obstruction_with_certificate(gl11):
    rng = random.Random(1)
    L, rep, M = gl11
    mu0 = bracket_to_element(L)
    seen_nonzero = 0
    for _ in range(8):
        psi = rand_equivariant_endo(rng, L, M, rep)
        mu1 = coboundary(psi, L, M)
        if mu1.is_zero():
            continue
        d = Deformation(L, rep, [mu0, mu1])
        rpt = obstruction(d)
        assert rpt.closed
        assert rpt.solvable
        neg = Cochain(3, 0, L.basis, L.basis, {k: -v for k, v in rpt.cochain.coords.items()})
        assert coboundary(rpt.next_term, L, M) == neg
        if not rpt.cochain.is_zero():
            seen_nonzero += 1
            if seen_nonzero >= 2:
                break
    assert seen_nonzero >= 2


# -- gauge transforms ---------------------------------------------------------


def test_gauge_maps_validated(gl11):
    L, rep, M = gl11
    ident = identity_endo(L.basis, RATIONAL)
    with pytest.raises(ValidationError, match="identity"):
        GaugeTransform(RATIONAL, L.basis, [ident.scale(scalar(RATIONAL, 2))])
    with pytest.raises(WrongBidegree):
        GaugeTransform(RATIONAL, L.basis, [ident, Cochain(2, 0, L.basis, L.basis, {})])
    with pytest.raises(ValueError):
        GaugeTransform(RATIONAL, L.basis, [])


def test_gauge_rejects_non_equivariant_map(gl11):
    L, rep, M = gl11
    ident = identity_endo(L.basis, RATIONAL)
    lopsided = Cochain(1, 0, L.basis, L.basis, {((0,), 0): ONE})
    g = GaugeTransform(RATIONAL, L.basis, [ident, lopsided])
    d = displayed_deformation(L, rep)
    with pytest.raises(ValidationError, match="equivariant"):
        gauge_transform(d, g)


def test_identity_gauge_fixes_deformation(gl11):
    L, rep, M = gl11
    d = displayed_deformation(L, rep)
    g = GaugeTransform(RATIONAL, L.basis, [identity_endo(L.basis, RATIONAL)])
    assert gauge_transform(d, g).terms == d.terms


def test_first_order_gauge_identity(gl11):
    rng = random.Random(21)
    L, rep, M = gl11
    d = displayed_deformation(L, rep)
    for _ in range(6):
        psi = rand_equivariant_endo(rng, L, M, rep)
        g = GaugeTransform(RATIONAL, L.basis, [identity_endo(L.basis, RATIONAL), psi])
        dt = gauge_transform(d, g)
        assert dt.terms[0] == d.terms[0]
        assert dt.terms[1] == d.terms[1].add(coboundary(psi, L, M).scale(MINUS))


def test_gauge_round_trip(gl11):
    rng = random.Random(27)
    L, rep, M = gl11
    mu0 = bracket_to_element(L)
    psi1 = rand_equivariant_endo(rng, L, M, rep)
    psi2 = rand_equivariant_endo(rng, L, M, rep)
    d = Deformation(L, rep, [mu0, gl11_mu1(L), Cochain(2, 0, L.basis, L.basis, {})])
    g = GaugeTransform(RATIONAL, L.basis, [identity_endo(L.basis, RATIONAL), psi1, psi2])
    dt = gauge_transform(d, g)
    back = gauge_transform(dt, g.inverse())
    assert back.terms == d.terms


def test_gauge_series_inverse_is_two_sided(gl11):
    rng = random.Random(33)
    L, rep, M = gl11
    psi1 = rand_equivariant_endo(rng, L, M, rep)
    psi2 = rand_equivariant_endo(rng, L, M, rep)
    g = GaugeTransform(RATIONAL, L.basis, [identity_endo(L.basis, RATIONAL), psi1, psi2])
    inv = g.inverse()
    # compose the series coefficientwise: sum_{i+j=k} psi_i phi_j = [k == 0]
    for k in range(3):
        acc = Cochain(1, 0, L.basis, L.basis, {})
        for i in range(k + 1):
            acc = acc.add(circ(g.map_at(i), inv.map_at(k - i)))
        if k == 0:
            assert acc == identity_endo(L.basis, RATIONAL)
        else:
            assert acc.is_zero()


def test_validity_is_gauge_invariant():
    rng = random.Random(39)
    A, repA = abelian_fixture(2, 2)
    L = make_gl(1, 1)
    mu1 = Cochain(2, 0, A.basis, A.basis, dict(bracket_to_element(L).coords))
    d = Deformation(A, repA, [bracket_to_element(A), mu1])
    M = adjoint_module(A)
    for _ in range(4):
        psi = rand_equivariant_endo(rng, A, M, repA)
        g = GaugeTransform(RATIONAL, A.basis, [identity_endo(A.basis, RATIONAL), psi])
        dt = gauge_transform(d, g)
        assert validate(dt, "truncated").ok
        assert validate(dt, "strict").ok


def _rand_combination(rng, spec, members, start):
    """start plus a random combination of the parity-0 members of a cochain basis."""
    for u in members:
        if u.parity == 0:
            start = start.add(u.scale(rand_scalar(spec, rng, zero_bias=0.5)))
    return start


@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.integers(1, 3), st.integers(1, 4))
def test_gauge_transform_matches_the_elementwise_oracle(seed, cyclotomic, with_action, order, maps):
    # Terms and maps are random equivariant combinations; the terms need not
    # satisfy the deformation identity, which gauge_transform does not read.
    rng = random.Random(seed)
    spec = cyclo(4) if cyclotomic else RATIONAL
    L, rep = rand_instance(rng, spec, with_action=with_action, groups=GROUP_SHAPES)
    M = adjoint_module(L)
    reps = None if rep is None else (rep, rep)
    C1, C2 = cochain_basis(1, L, M, reps), cochain_basis(2, L, M, reps)
    terms = [_rand_combination(rng, spec, C2, zero_cochain(2, 0, L, M)) for _ in range(order)]
    d = Deformation(L, rep, [bracket_to_element(L)] + terms)
    series = [_rand_combination(rng, spec, C1, zero_cochain(1, 0, L, M)) for _ in range(maps - 1)]
    g = GaugeTransform(spec, L.basis, [identity_endo(L.basis, spec)] + series)
    assert gauge_transform(d, g).terms == elementwise_gauge_transform(d, g).terms


def test_gauge_transform_through_a_repeated_odd_slot():
    # On sl(1|1), psi_1 swaps the odd e12 and e21, so at the canonical pair
    # (e12, e12) the transport meets (e12, e21) and (e21, e21) and must
    # canonicalize them with their Koszul signs.
    L = make_sl(1, 1)
    M = adjoint_module(L)
    swap = Cochain(1, 0, L.basis, L.basis, {((0,), 0): scalar(RATIONAL, 3), ((1,), 2): ONE, ((2,), 1): ONE})
    mu1 = Cochain(2, 0, L.basis, L.basis, {((1, 1), 0): ONE, ((0, 2), 2): MINUS})
    d = Deformation(L, None, [bracket_to_element(L), mu1, Cochain(2, 0, L.basis, L.basis, {})])
    g = GaugeTransform(RATIONAL, L.basis, [identity_endo(L.basis, RATIONAL), swap])
    dt = gauge_transform(d, g)
    assert dt.terms == elementwise_gauge_transform(d, g).terms
    assert dt.terms[1] == mu1.add(coboundary(swap, L, M).scale(MINUS))
    # at (e12, e12): mu1 + [phi_1 e12, e12] + [e12, phi_1 e12] = h1 - [e21, e12] - [e12, e21],
    # and [e21, e12] = [e12, e21] = h1 only with the Koszul sign of the swap
    assert dt.terms[1].by_tuple()[(1, 1)] == Vector({0: MINUS})


# -- cohomologous infinitesimals ----------------------------------------------


def test_gauge_pairs_have_cohomologous_infinitesimals(gl11):
    rng = random.Random(45)
    L, rep, M = gl11
    d = displayed_deformation(L, rep)
    for _ in range(5):
        psi = rand_equivariant_endo(rng, L, M, rep)
        g = GaugeTransform(RATIONAL, L.basis, [identity_endo(L.basis, RATIONAL), psi])
        dt = gauge_transform(d, g)
        assert infinitesimals_cohomologous(d, dt, g)
        assert infinitesimals_cohomologous(d, dt)


def test_a_gauge_certificate_that_the_solve_misses_is_an_oracle_disagreement(gl11, monkeypatch):
    from supercohom import deformation

    L, rep, M = gl11
    d = displayed_deformation(L, rep)
    psi = rand_equivariant_endo(random.Random(46), L, M, rep)
    assert not coboundary(psi, L, M).is_zero()
    g = GaugeTransform(RATIONAL, L.basis, [identity_endo(L.basis, RATIONAL), psi])
    dt = gauge_transform(d, g)
    monkeypatch.setattr(deformation, "coboundary_preimage", lambda *args: None)
    with pytest.raises(OracleDisagreement, match="^gauge certificate solves the coboundary equation"):
        infinitesimals_cohomologous(d, dt, g)
    assert not infinitesimals_cohomologous(d, dt)


def test_equal_deformations_are_cohomologous(gl11):
    L, rep, M = gl11
    d = displayed_deformation(L, rep)
    assert infinitesimals_cohomologous(d, d)


def test_non_cohomologous_infinitesimals_detected():
    B, repB = abelian_fixture(2)
    mu0 = bracket_to_element(B)
    h = Cochain(2, 0, B.basis, B.basis, {((0, 1), 0): ONE})
    d1 = Deformation(B, repB, [mu0, h])
    d2 = Deformation(B, repB, [mu0])
    assert not infinitesimals_cohomologous(d1, d2)


def test_cohomologous_rejects_foreign_algebras(gl11):
    L, rep, M = gl11
    B, repB = abelian_fixture(2)
    d1 = displayed_deformation(L, rep)
    d2 = Deformation(B, repB, [bracket_to_element(B)])
    with pytest.raises(BasisMismatch):
        infinitesimals_cohomologous(d1, d2)


@pytest.mark.parametrize("swapped", [False, True], ids=["none-swap", "swap-none"])
def test_cohomologous_refuses_different_actions(swapped):
    L = make_gl(1, 1)
    d1, d2 = (Deformation(L, rep, [bracket_to_element(L)]) for rep in (None, gl11_swap_rep(L)))
    if swapped:
        d1, d2 = d2, d1
    with pytest.raises(ValidationError, match="different group actions"):
        infinitesimals_cohomologous(d1, d2)


# -- no group: rep=None is the one-element group -----------------------------


def _with_one_element_group(d):
    L = d.base
    return Deformation(L, trivial_action(cyclic_group(1), L.spec, L.basis.parities), d.terms)


def _reports(d):
    """validate(d, "strict"), and the obstruction report or the report that
    NotValidated carries."""
    try:
        obs = obstruction(d)
    except NotValidated as exc:
        obs = exc.report
    return validate(d, "strict"), obs


@pytest.mark.parametrize(
    "fixture, name",
    [("fixture_gl11.json", "mu_t"), ("fixture_gl21.json", "flat"), ("fixture_sl11.json", "flat")],
)
def test_no_group_gives_the_reports_of_the_one_element_group_on_the_fixtures(fixture, name):
    d = load(os.path.join(FIXTURES, fixture)).deformation(name)
    assert d.rep is None
    assert _reports(d) == _reports(_with_one_element_group(d))


@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_no_group_gives_the_reports_of_the_one_element_group(seed, cyclotomic, closed):
    rng = random.Random(seed)
    spec = cyclo(4) if cyclotomic else RATIONAL
    L, _ = rand_instance(rng, spec, max_d0=2, max_d1=2)
    M = adjoint_module(L)
    # a coboundary passes order 1, so the obstruction and its solve run
    if closed:
        mu1 = coboundary(rand_cochain(rng, L, M, 1, 0), L, M)
    else:
        mu1 = rand_cochain(rng, L, M, 2, 0, zero_bias=0.7)
    d = Deformation(L, None, [bracket_to_element(L), mu1])
    d1 = _with_one_element_group(d)
    assert _reports(d) == _reports(d1)
    g = GaugeTransform(spec, L.basis, [identity_endo(L.basis, spec), rand_cochain(rng, L, M, 1, 0)])
    assert gauge_transform(d, g).terms == gauge_transform(d1, g).terms

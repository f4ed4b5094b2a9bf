"""Tests for extensions by abelian modules and their classification."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supercohom import extension
from supercohom.cohomology import (
    Cochain,
    _matrix_from_basis,
    coboundary,
    cochain_basis,
    cohomology,
    is_equivariant,
)
from supercohom.errors import (
    BasisMismatch,
    NotCocycle,
    OracleDisagreement,
    ValidationError,
    WrongBidegree,
)
from supercohom.extension import (
    ExtensionDatum,
    build_extension,
    classify_extensions,
    extension_layout,
    extensions_equivalent,
    jacobi_iff_cocycle,
)
from supercohom.graded import GradedBasis, MultilinearMap, Vector, cochain_coords
from supercohom.scalars import RATIONAL, cyclo, one, scalar, zero
from supercohom.superalgebra import (
    LieSuperalgebra,
    LModule,
    adjoint_module,
    make_gl,
    validate_superalgebra,
    zero_module,
)

from util import (
    GROUP_SHAPES,
    abelian_algebra,
    bareiss_solve,
    coboundary_matrix_raw,
    gl11_mu1,
    gl11_swap_rep,
    heisenberg_algebra,
    nullspace,
    rand_instance,
    rand_module,
    rand_scalar,
)

ONE = one(RATIONAL)


def zero_glue(L, M):
    return Cochain(2, 0, L.basis, M.space, {})


def rand_parity0_cochain(rng, L, M, n, lo=-2, hi=2):
    f = Cochain(n, 0, L.basis, M.space, {})
    for u in cochain_basis(n, L, M):
        if u.parity == 0:
            c = rng.randint(lo, hi)
            if c:
                f = f.add(u.scale(scalar(RATIONAL, c)))
    return f


def rand_cocycle(rng, L, M, n=2):
    """Random parity-0 cocycle drawn from the kernel of the coboundary."""
    basis_n = [u for u in cochain_basis(n, L, M) if u.parity == 0]
    mat = _matrix_from_basis(basis_n, n, L, M)
    kernel = nullspace(mat, len(basis_n), L.spec)
    f = Cochain(n, 0, L.basis, M.space, {})
    for col in kernel:
        c = scalar(RATIONAL, rng.randint(-2, 2))
        if c.is_zero():
            continue
        for u, coeff in zip(basis_n, col):
            prod = coeff * c
            if not prod.is_zero():
                f = f.add(u.scale(prod))
    return f


# -- construction -------------------------------------------------------------


def test_datum_rejects_mismatched_pieces():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    H = heisenberg_algebra()
    with pytest.raises(BasisMismatch):
        ExtensionDatum(L, M, None, zero_glue(H, adjoint_module(H)))
    with pytest.raises(WrongBidegree):
        ExtensionDatum(L, M, None, Cochain(1, 0, L.basis, L.basis, {}))


def test_datum_rejects_non_equivariant_glue():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = gl11_swap_rep(L)
    skew = Cochain(2, 0, L.basis, L.basis, {((0, 2), 2): ONE})
    with pytest.raises(ValidationError, match="equivariant"):
        ExtensionDatum(L, M, rep, skew)
    # the same glue is fine when no action constrains it
    assert ExtensionDatum(L, M, None, skew).h is skew


def test_datum_refuses_a_module_that_breaks_the_module_axiom():
    # z = [q, q] must act as 2 q.q = 0 on an even module, so z acting as one fails
    H = heisenberg_algebra()
    M = LModule(H.basis, GradedBasis(("m",), (0,)), {(0, 0): Vector({0: ONE})})
    with pytest.raises(ValidationError, match="^module axioms fail for the coefficient space$"):
        ExtensionDatum(H, M, None, zero_glue(H, M))


def test_combined_basis_interleaves_evens_first():
    H = heisenberg_algebra()
    W = GradedBasis(("w0", "w1"), (0, 1))
    M = zero_module(H, W)
    E = build_extension(ExtensionDatum(H, M, None, zero_glue(H, M)))
    assert E.basis.names == ("z", "w0", "q", "w1")
    assert E.basis.parities == (0, 0, 1, 1)
    l2e, m2e = extension_layout(H, M)
    assert l2e == {0: 0, 1: 2}
    assert m2e == {0: 1, 1: 3}


def test_the_extension_of_the_zero_algebra_is_zero():
    B = GradedBasis((), ())
    L = LieSuperalgebra(B, RATIONAL, MultilinearMap(2, 0, B, B, {}))
    M = adjoint_module(L)
    assert build_extension(ExtensionDatum(L, M, None, zero_glue(L, M))).basis == B


def test_combined_basis_renames_collisions():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    E = build_extension(ExtensionDatum(L, M, None, zero_glue(L, M)))
    assert E.basis.names == (
        "e11", "e22", "e11'", "e22'", "e12", "e21", "e12'", "e21'"
    )


# -- structural properties of the built algebra --------------------------------


def test_split_extension_validates_and_is_semidirect():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    x = ExtensionDatum(L, M, gl11_swap_rep(L), zero_glue(L, M))
    E = build_extension(x)
    assert validate_superalgebra(E).ok
    l2e, m2e = extension_layout(L, M)
    m_range = set(m2e.values())
    # the module embeds as an abelian ideal
    for u in m_range:
        for v in range(len(E.basis)):
            vec = E.bracket.at((u, v))
            assert set(vec.coords) <= m_range
            if v in m_range:
                assert vec.is_zero()
    # projecting to L is a homomorphism: L-parts reproduce the base bracket
    for i in range(len(L.basis)):
        for j in range(len(L.basis)):
            vec = E.bracket.at((l2e[i], l2e[j]))
            l_part = Vector({k: c for k, c in vec.coords.items() if k not in m_range})
            want = Vector({l2e[a]: c for a, c in L.bracket.at((i, j)).coords.items()})
            assert l_part == want


def test_module_ideal_survives_nonzero_glue():
    rng = random.Random(7)
    L = make_gl(1, 1)
    M = adjoint_module(L)
    h = rand_parity0_cochain(rng, L, M, 2)
    E = build_extension(ExtensionDatum(L, M, None, h))
    _, m2e = extension_layout(L, M)
    m_range = set(m2e.values())
    for u in m_range:
        for v in range(len(E.basis)):
            assert set(E.bracket.at((u, v)).coords) <= m_range


def test_glue_feeds_module_component():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    h = Cochain(2, 0, L.basis, L.basis, {((0, 2), 2): ONE})
    E = build_extension(ExtensionDatum(L, M, None, h))
    l2e, m2e = extension_layout(L, M)
    vec = E.bracket.at((l2e[0], l2e[2]))
    assert vec.coords.get(m2e[2]) == ONE
    # base bracket part is still there: [e11, e12] = e12
    assert vec.coords.get(l2e[2]) == ONE


# -- Jacobi vs cocycle --------------------------------------------------------


def test_zero_glue_reports_true_true():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rpt = jacobi_iff_cocycle(ExtensionDatum(L, M, None, zero_glue(L, M)))
    assert rpt.jacobi and rpt.is_cocycle


def test_random_cocycles_give_true_true():
    rng = random.Random(11)
    L = make_gl(1, 1)
    M = adjoint_module(L)
    hits = 0
    for _ in range(10):
        h = rand_cocycle(rng, L, M)
        x = ExtensionDatum(L, M, None, h)
        rpt = jacobi_iff_cocycle(x)
        assert rpt.jacobi and rpt.is_cocycle
        assert rpt.extension == build_extension(x)  # the algebra the check read
        if not h.is_zero():
            hits += 1
    assert hits >= 5


def test_random_non_cocycles_give_false_false():
    rng = random.Random(13)
    L = make_gl(1, 1)
    M = adjoint_module(L)
    hits = 0
    for _ in range(30):
        h = rand_parity0_cochain(rng, L, M, 2)
        if coboundary(h, L, M).is_zero():
            continue
        rpt = jacobi_iff_cocycle(ExtensionDatum(L, M, None, h))
        assert not rpt.jacobi and not rpt.is_cocycle
        hits += 1
        if hits >= 10:
            break
    assert hits >= 10


def test_displayed_flip_term_is_not_a_glue_cocycle():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rpt = jacobi_iff_cocycle(ExtensionDatum(L, M, gl11_swap_rep(L), gl11_mu1(L)))
    assert not rpt.jacobi and not rpt.is_cocycle


# -- equivalence --------------------------------------------------------------


def test_equal_glues_are_equivalent_via_zero():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    x = ExtensionDatum(L, M, None, zero_glue(L, M))
    f = extensions_equivalent(x, x)
    assert f is not None and f.is_zero()


def test_coboundary_shift_is_equivalent():
    rng = random.Random(17)
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = gl11_swap_rep(L)
    base = zero_glue(L, M)
    for _ in range(5):
        f0 = Cochain(1, 0, L.basis, L.basis, {})
        for u in cochain_basis(1, L, M, rep=rep):
            if u.parity == 0:
                f0 = f0.add(u.scale(scalar(RATIONAL, rng.randint(-2, 2))))
        h = coboundary(f0, L, M)
        x1 = ExtensionDatum(L, M, rep, h)
        x0 = ExtensionDatum(L, M, rep, base)
        f = extensions_equivalent(x1, x0)
        assert f is not None
        assert coboundary(f, L, M) == h


def _shifted_pair(L, M, rep):
    """Datums with glues delta f0 and 0 for an equivariant f0 with delta f0 != 0."""
    f0 = next(
        u for u in cochain_basis(1, L, M, rep=rep) if u.parity == 0 and not coboundary(u, L, M).is_zero()
    )
    return ExtensionDatum(L, M, rep, coboundary(f0, L, M)), ExtensionDatum(L, M, rep, zero_glue(L, M))


def test_certificate_rejects_a_planted_non_solution(monkeypatch):
    L = make_gl(1, 1)
    M = adjoint_module(L)
    x1, x0 = _shifted_pair(L, M, gl11_swap_rep(L))
    assert extensions_equivalent(x1, x0) is not None
    # phi = id does not carry the bracket glued by delta f0 to the split one
    monkeypatch.setattr(extension, "coboundary_preimage", lambda *args: Cochain(1, 0, L.basis, M.space, {}))
    with pytest.raises(OracleDisagreement, match="does not intertwine"):
        extensions_equivalent(x1, x0)


def test_certificate_rejects_a_planted_non_equivariant_solution(monkeypatch):
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = gl11_swap_rep(L)
    x1, x0 = _shifted_pair(L, M, rep)
    # x -> [x, e11] is a 1-cocycle, but the swap sends it to x -> [x, e22]
    coords = {((i,), j): c for i in range(4) for j, c in L.bracket.at((i, 0)).coords.items()}
    inner = Cochain(1, 0, L.basis, M.space, coords)
    assert coboundary(inner, L, M).is_zero() and not is_equivariant(inner, rep, rep, L, M)
    real = extension.coboundary_preimage
    monkeypatch.setattr(extension, "coboundary_preimage", lambda *args: real(*args).add(inner))
    with pytest.raises(OracleDisagreement, match="not equivariant"):
        extensions_equivalent(x1, x0)


def test_equivalence_requires_cocycles():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    x0 = ExtensionDatum(L, M, None, zero_glue(L, M))
    xb = ExtensionDatum(L, M, None, gl11_mu1(L))
    with pytest.raises(NotCocycle):
        extensions_equivalent(xb, x0)
    with pytest.raises(NotCocycle):
        extensions_equivalent(x0, xb)


def test_equivalence_rejects_different_modules():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    W = GradedBasis(("w",), (0,))
    Z = zero_module(L, W)
    x1 = ExtensionDatum(L, M, None, zero_glue(L, M))
    x2 = ExtensionDatum(L, Z, None, zero_glue(L, Z))
    with pytest.raises(BasisMismatch):
        extensions_equivalent(x1, x2)


@pytest.mark.parametrize("swapped", [False, True], ids=["none-swap", "swap-none"])
def test_equivalence_rejects_different_actions(swapped):
    L = make_gl(1, 1)
    M = adjoint_module(L)
    x1, x2 = (ExtensionDatum(L, M, rep, zero_glue(L, M)) for rep in (None, gl11_swap_rep(L)))
    if swapped:
        x1, x2 = x2, x1
    with pytest.raises(ValidationError, match="share the group action"):
        extensions_equivalent(x1, x2)


def test_distinct_classes_are_not_equivalent():
    B = abelian_algebra(2, 0)
    M = adjoint_module(B)
    reps = classify_extensions(B, M)
    assert len(reps) == 2
    x1 = ExtensionDatum(B, M, None, reps[0])
    x2 = ExtensionDatum(B, M, None, reps[1])
    assert extensions_equivalent(x1, x2) is None
    assert extensions_equivalent(x1, x1) is not None


# -- classification -----------------------------------------------------------


def test_classification_counts_match_cohomology():
    B = abelian_algebra(2, 0)
    M = adjoint_module(B)
    reps = classify_extensions(B, M)
    assert len(reps) == cohomology(2, B, M).h_dims[0]
    for h in reps:
        x = ExtensionDatum(B, M, None, h)
        assert validate_superalgebra(build_extension(x)).ok
        assert jacobi_iff_cocycle(x).is_cocycle


def test_trivial_classification_when_h2_vanishes():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = gl11_swap_rep(L)
    assert classify_extensions(L, M, rep=rep) == []
    H = heisenberg_algebra()
    assert classify_extensions(H, adjoint_module(H)) == []


def test_nonabelian_base_with_one_class():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    reps = classify_extensions(L, M)
    assert len(reps) == 1
    x = ExtensionDatum(L, M, None, reps[0])
    assert validate_superalgebra(build_extension(x)).ok
    split = ExtensionDatum(L, M, None, zero_glue(L, M))
    assert extensions_equivalent(x, split) is None


def _sum_of(basis, coeffs, n, L, M):
    """sum_k coeffs[k] basis[k], a parity-0 n-cochain."""
    f = Cochain(n, 0, L.basis, M.space, {})
    for u, c in zip(basis, coeffs):
        if not c.is_zero():
            f = f.add(u.scale(c))
    return f


def _rand_in_span(rng, spec, vectors, size):
    """A random combination of the coefficient vectors."""
    out = [zero(spec)] * size
    for v in vectors:
        c = rand_scalar(spec, rng, zero_bias=0.3)
        out = [a + c * x for a, x in zip(out, v)]
    return out


@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans())
def test_extensions_equivalent_matches_a_dense_parity0_solve(seed, with_action, cyclotomic, shifted):
    # The oracle solves delta f = h1 - h2 by Bareiss elimination over the
    # parity-0 equivariant 1-cochains only; the library solves over the whole
    # equivariant family and must return the same certificate.
    rng = random.Random(seed)
    spec = cyclo(4) if cyclotomic else RATIONAL
    L, rep = rand_instance(rng, spec, with_action=with_action, max_d0=2, max_d1=2, groups=GROUP_SHAPES)
    M, reps = rand_module(rng, L, rep)
    basis1 = [u for u in cochain_basis(1, L, M, reps) if u.parity == 0]
    basis2 = [u for u in cochain_basis(2, L, M, reps) if u.parity == 0]
    cocycles = nullspace(coboundary_matrix_raw(basis2, 2, L, M), len(basis2), spec)
    h1 = _sum_of(basis2, _rand_in_span(rng, spec, cocycles, len(basis2)), 2, L, M)
    if shifted:
        f0 = _sum_of(basis1, [rand_scalar(spec, rng, zero_bias=0.3) for _ in basis1], 1, L, M)
        h2 = h1.add(coboundary(f0, L, M))
    else:
        h2 = _sum_of(basis2, _rand_in_span(rng, spec, cocycles, len(basis2)), 2, L, M)
    got = extensions_equivalent(ExtensionDatum(L, M, reps, h1), ExtensionDatum(L, M, reps, h2))

    diff = h1.add(h2.scale(scalar(spec, -1)))
    rhs = [diff.coords.get(key, zero(spec)) for key in cochain_coords(L.basis, 2, M.space)]
    sol = bareiss_solve(coboundary_matrix_raw(basis1, 1, L, M), rhs, spec)
    if sol is None:
        assert got is None and not shifted
    else:
        assert got == _sum_of(basis1, sol, 1, L, M)


# -- a second route that disagrees is reported, not passed over ---------------


def _split_gl11():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    return ExtensionDatum(L, M, None, zero_glue(L, M))


def test_an_extension_bracket_without_its_mirror_is_an_oracle_disagreement(monkeypatch):
    x = _split_gl11()
    E = build_extension(x)
    comp = dict(E.bracket.components)
    i, j = next((i, j) for i, j in comp if i < j)
    del comp[(j, i)]
    lopsided = LieSuperalgebra(E.basis, E.spec, MultilinearMap(2, 0, E.basis, E.basis, comp), check=False)
    monkeypatch.setattr(extension, "build_extension", lambda datum: lopsided)
    with pytest.raises(OracleDisagreement, match="^extension bracket lost antisymmetry"):
        jacobi_iff_cocycle(x)


@pytest.mark.parametrize("glue", ["cocycle", "non-cocycle"])
def test_jacobi_and_the_cocycle_condition_must_agree(monkeypatch, glue):
    x = _split_gl11()
    L, M = x.L, x.M
    non_cocycle = extension.coboundary(gl11_mu1(L), L, M)
    assert not non_cocycle.is_zero()
    if glue == "cocycle":  # Jacobi holds; the planted coboundary says it is not a cocycle
        verdict, planted = True, non_cocycle
    else:
        x, verdict, planted = ExtensionDatum(L, M, None, gl11_mu1(L)), False, Cochain(3, 0, L.basis, M.space, {})
    monkeypatch.setattr(extension, "coboundary", lambda *args: planted)
    want = f"^Jacobi upstairs is {verdict} but the cocycle condition is {not verdict}$"
    with pytest.raises(OracleDisagreement, match=want):
        jacobi_iff_cocycle(x)


def test_classify_refuses_a_representative_count_off_the_dimension(monkeypatch):
    L = make_gl(1, 1)
    M = adjoint_module(L)
    assert len(classify_extensions(L, M)) == 1
    real = extension.cohomology

    def one_short(*args, **kwargs):
        report = real(*args, **kwargs)
        report.representatives[0] = report.representatives[0][:-1]
        return report

    monkeypatch.setattr(extension, "cohomology", one_short)
    with pytest.raises(OracleDisagreement, match="^representative count disagrees with the computed dimension$"):
        classify_extensions(L, M)

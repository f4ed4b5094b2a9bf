"""Structure-constant tables checked against plain Fraction matrix arithmetic."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from supercohom.errors import BasisMismatch, ValidationError
from supercohom.graded import GradedBasis, MultilinearMap, Vector
from supercohom.scalars import RATIONAL, cyclo, one, root_of_unity, scalar, zero
from supercohom.superalgebra import (
    KINDS,
    LieSuperalgebra,
    Report,
    _matrix_superalgebra,
    adjoint_module,
    adjoint_submodule,
    bracket_eval,
    from_pairs,
    make_gl,
    make_sl,
    make_super_poincare,
    supertrace,
    validate_module,
    validate_superalgebra,
    zero_module,
)

# -- independent matrix oracle (Fractions only, no package linalg) ------------


def fzero(N):
    return [[Fraction(0)] * N for _ in range(N)]


def fmul(a, b):
    N = len(a)
    out = fzero(N)
    for i in range(N):
        for k in range(N):
            if a[i][k] == 0:
                continue
            for j in range(N):
                out[i][j] += a[i][k] * b[k][j]
    return out


def fsupercomm(a, b, p1, p2):
    N = len(a)
    ab, ba = fmul(a, b), fmul(b, a)
    sign = -1 if (p1 * p2) % 2 == 0 else 1
    return [[ab[i][j] + sign * ba[i][j] for j in range(N)] for i in range(N)]


def pair_of(name):
    digits = name[1:].split("_") if "_" in name else list(name[1:])
    return int(digits[0]), int(digits[1])


def vector_to_matrix(v, basis, N):
    out = fzero(N)
    for t, c in v.coords.items():
        i, j = pair_of(basis.names[t])
        out[i - 1][j - 1] = c.coeffs[0]
    return out


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_gl_bracket_matches_matrix_oracle(m, n):
    L = make_gl(m, n)
    N = m + n
    mats = []
    for name in L.basis.names:
        i, j = pair_of(name)
        mat = fzero(N)
        mat[i - 1][j - 1] = Fraction(1)
        mats.append(mat)
    for p1 in range(len(L.basis)):
        for p2 in range(len(L.basis)):
            want = fsupercomm(mats[p1], mats[p2], L.basis.parities[p1], L.basis.parities[p2])
            got = vector_to_matrix(L.bracket.at((p1, p2)), L.basis, N)
            assert got == want, (L.basis.names[p1], L.basis.names[p2])


def test_gl11_fixture_table():
    L = make_gl(1, 1)
    assert L.basis.names == ("e11", "e22", "e12", "e21")
    assert L.basis.dims == (2, 2)
    ix = L.basis.index
    b = L.bracket.at

    def vec(**coords):
        return Vector({ix(k): scalar(RATIONAL, v) for k, v in coords.items()})

    assert b((ix("e11"), ix("e12"))) == vec(e12=1)
    assert b((ix("e11"), ix("e21"))) == vec(e21=-1)
    assert b((ix("e22"), ix("e12"))) == vec(e12=-1)
    assert b((ix("e22"), ix("e21"))) == vec(e21=1)
    assert b((ix("e12"), ix("e21"))) == vec(e11=1, e22=1)
    assert b((ix("e11"), ix("e22"))).is_zero()
    assert b((ix("e12"), ix("e12"))).is_zero()
    assert b((ix("e21"), ix("e21"))).is_zero()


def test_bracket_eval_bilinear():
    L = make_gl(1, 1)
    ix = L.basis.index
    x = Vector.basis(ix("e12"), RATIONAL) + Vector.basis(ix("e21"), RATIONAL)
    y = Vector.basis(ix("e21"), RATIONAL)
    got = bracket_eval(L, x, y)
    want = Vector({ix("e11"): one(RATIONAL), ix("e22"): one(RATIONAL)})
    assert got == want
    half = scalar(RATIONAL, "1/2")
    assert bracket_eval(L, x.scale(half), y) == want.scale(half)


def test_bracket_eval_range_check():
    L = make_gl(1, 1)
    with pytest.raises(BasisMismatch):
        bracket_eval(L, Vector({99: one(RATIONAL)}), Vector.basis(0, RATIONAL))


def test_validate_gl21_and_abelian():
    rep = validate_superalgebra(make_gl(2, 1))
    assert rep.ok and not rep.counterexamples
    basis = GradedBasis(("a", "b", "x"), (0, 0, 1))
    abelian = LieSuperalgebra(basis, RATIONAL, MultilinearMap(2, 0, basis, basis, {}))
    assert validate_superalgebra(abelian).ok


def test_validate_flags_jacobi_mutation():
    L = make_gl(1, 1)
    ix = L.basis.index
    comp = dict(L.bracket.components)
    # Flip [e11, e12] (and its mirror, keeping antisymmetry) so only Jacobi breaks.
    comp[(ix("e11"), ix("e12"))] = -comp[(ix("e11"), ix("e12"))]
    comp[(ix("e12"), ix("e11"))] = -comp[(ix("e12"), ix("e11"))]
    mutated = LieSuperalgebra(
        L.basis,
        RATIONAL,
        MultilinearMap(2, 0, L.basis, L.basis, comp),
        check=False,
    )
    rep = validate_superalgebra(mutated)
    assert rep.holds("antisymmetry")
    assert not rep.holds("jacobi")
    assert any(ce["kind"] == "jacobi" for ce in rep.counterexamples)
    with pytest.raises(ValidationError):
        LieSuperalgebra(L.basis, RATIONAL, MultilinearMap(2, 0, L.basis, L.basis, comp))


def test_validate_flags_antisymmetry_mutation():
    L = make_gl(1, 1)
    ix = L.basis.index
    comp = dict(L.bracket.components)
    comp[(ix("e12"), ix("e11"))] = comp[(ix("e11"), ix("e12"))]
    mutated = LieSuperalgebra(
        L.basis, RATIONAL, MultilinearMap(2, 0, L.basis, L.basis, comp), check=False
    )
    rep = validate_superalgebra(mutated)
    assert not rep.holds("antisymmetry")


def test_from_pairs_mirrors_each_pair_and_refuses_both_orders():
    L = make_gl(1, 1)
    ix = L.basis.index
    once = {(i, j): v for (i, j), v in L.bracket.components.items() if i <= j}
    flipped = {(i, j): v for (i, j), v in L.bracket.components.items() if i >= j}
    assert from_pairs(L.basis, RATIONAL, once).bracket == L.bracket
    assert from_pairs(L.basis, RATIONAL, flipped).bracket == L.bracket
    both = {**once, (ix("e12"), ix("e11")): L.bracket.at((ix("e12"), ix("e11")))}
    with pytest.raises(ValueError, match="both orders"):
        from_pairs(L.basis, RATIONAL, both)


@pytest.mark.parametrize("m,n,want", [(1, 1, 0), (2, 1, 1), (2, 2, 0), (3, 1, 2)])
def test_supertrace_identity(m, n, want):
    L = make_gl(m, n)
    ident = Vector(
        {L.basis.index(f"e{i}{i}"): one(RATIONAL) for i in range(1, m + n + 1)}
    )
    assert supertrace(m, n, ident) == scalar(RATIONAL, want)


def test_supertrace_offdiagonal_and_range():
    L = make_gl(1, 1)
    assert supertrace(1, 1, Vector.basis(L.basis.index("e12"), RATIONAL)).is_zero()
    with pytest.raises(BasisMismatch):
        supertrace(1, 1, Vector({7: one(RATIONAL)}))


def test_gl22_brackets_are_supertraceless():
    L = make_gl(2, 2)
    for tup, vec in L.bracket.components.items():
        assert supertrace(2, 2, vec).is_zero(), tup


def test_sl21_shape_and_axioms():
    L = make_sl(2, 1)
    assert len(L.basis) == 8
    assert L.basis.dims == (4, 4)
    assert validate_superalgebra(L).ok


def test_sl11_table():
    L = make_sl(1, 1)
    assert L.basis.names == ("h1", "e12", "e21")
    assert L.basis.dims == (1, 2)
    ix = L.basis.index
    # h1 = e11 + e22 is the identity matrix, hence central and supertraceless.
    assert L.bracket.at((ix("h1"), ix("e12"))).is_zero()
    assert L.bracket.at((ix("e12"), ix("e21"))) == Vector.basis(ix("h1"), RATIONAL)
    glix = make_gl(1, 1).basis.index
    ident = Vector({glix("e11"): one(RATIONAL), glix("e22"): one(RATIONAL)})
    assert supertrace(1, 1, ident).is_zero()


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_sl_closure_against_matrix_oracle(m, n):
    N = m + n
    L = make_sl(m, n)
    mats = []
    for t, name in enumerate(L.basis.names):
        mat = fzero(N)
        if name.startswith("h"):
            i = int(name[1:])
            mat[i - 1][i - 1] = Fraction(1)
            mat[i][i] = Fraction(1) if i == m else Fraction(-1)
        else:
            i, j = pair_of(name)
            mat[i - 1][j - 1] = Fraction(1)
        mats.append(mat)

    def expand(v):
        out = fzero(N)
        for t, c in v.coords.items():
            q = c.coeffs[0]
            for r in range(N):
                for s in range(N):
                    out[r][s] += q * mats[t][r][s]
        return out

    for p1 in range(len(L.basis)):
        for p2 in range(len(L.basis)):
            want = fsupercomm(mats[p1], mats[p2], L.basis.parities[p1], L.basis.parities[p2])
            assert expand(L.bracket.at((p1, p2))) == want


def test_matrix_builder_refuses_a_span_that_is_not_closed():
    # [e12, e21] = e11 + e22 in gl(1|1), which leaves the span of the odd pair.
    o = one(RATIONAL)
    basis = GradedBasis(("e12", "e21"), (1, 1))
    with pytest.raises(ValidationError, match=r"\[e12, e21\] leaves the span"):
        _matrix_superalgebra(basis, RATIONAL, [{(1, 2): o}, {(2, 1): o}])
    # With the traceless e11 - e22 added, e11 + e22 meets only known entries
    # but leaves a residue: the span is not the supertraceless sl(1|1).
    basis = GradedBasis(("h", "e12", "e21"), (0, 1, 1))
    with pytest.raises(ValidationError, match=r"\[e12, e21\] leaves the span"):
        _matrix_superalgebra(basis, RATIONAL, [{(1, 1): o, (2, 2): -o}, {(1, 2): o}, {(2, 1): o}])


def test_only_from_pairs_builds_an_algebra_or_a_bracket_table():
    src = Path(__file__).parent.parent / "src" / "supercohom"
    builders = {"LieSuperalgebra", "MultilinearMap"}
    stray = []
    paths = sorted(src.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "from_pairs":
                allowed |= {id(call) for call in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))  # f(...) or mod.f(...)
            if name in builders:
                stray.append(f"{path.name}:{node.lineno} {name}")
    assert stray == []


def test_super_poincare_frozen_components():
    L = make_super_poincare()
    spec = L.spec
    assert spec == cyclo(4)
    assert len(L.basis) == 14
    assert L.basis.dims == (10, 4)
    ix = L.basis.index
    iu = root_of_unity(spec, 1)
    two = scalar(spec, 2)

    def v(**coords):
        return Vector({ix(k): c for k, c in coords.items()})

    at = L.bracket.at
    assert at((ix("Q1"), ix("Qb1"))) == v(P0=two, P3=-two)
    assert at((ix("Q1"), ix("Qb2"))) == v(P1=-two, P2=two * iu)
    assert at((ix("Q2"), ix("Qb1"))) == v(P1=-two, P2=-(two * iu))
    assert at((ix("Q2"), ix("Qb2"))) == v(P0=two, P3=two)
    half = scalar(spec, "1/2")
    assert at((ix("Q1"), ix("J12"))) == v(Q1=-half)
    assert at((ix("Q2"), ix("J12"))) == v(Q2=half)
    assert at((ix("Qb1"), ix("J12"))) == v(Qb1=half)
    assert at((ix("Qb2"), ix("J12"))) == v(Qb2=-half)
    assert at((ix("J01"), ix("J12"))) == v(J02=iu)
    assert at((ix("P1"), ix("J12"))) == v(P2=iu)
    for a in ("P0", "P1", "P2", "P3"):
        for b in ("P0", "P1", "P2", "P3"):
            assert at((ix(a), ix(b))).is_zero()
    for a in ("Q1", "Q2"):
        for b in ("Q1", "Q2"):
            assert at((ix(a), ix(b))).is_zero()
    for a in ("Qb1", "Qb2"):
        for b in ("Qb1", "Qb2"):
            assert at((ix(a), ix(b))).is_zero()
    assert validate_superalgebra(L).ok


def test_adjoint_and_zero_modules():
    L = make_gl(1, 1)
    assert validate_module(L, adjoint_module(L)).ok
    space = GradedBasis(("u", "v", "w"), (0, 0, 1))
    assert validate_module(L, zero_module(L, space)).ok


def test_a_built_bracket_keeps_its_component_vectors_read_only():
    # [e11, e12] = e12 is odd; writing an even coordinate into it must fail.
    L = make_gl(1, 1)
    with pytest.raises(TypeError):
        L.bracket.components[(0, 2)].coords[0] = one(RATIONAL)
    with pytest.raises(AttributeError):  # nor can its mapping be rebound
        L.bracket.components[(0, 2)].coords = {0: one(RATIONAL)}
    with pytest.raises(AttributeError):
        del L.bracket.components[(0, 2)].coords
    assert L.bracket.at((0, 2)) == Vector({2: one(RATIONAL)})
    assert validate_superalgebra(L).ok
    act = adjoint_module(L).act
    assert act.keys() == L.bracket.components.keys()
    assert all(act[key] is vec for key, vec in L.bracket.components.items())


def test_super_poincare_translation_supercharge_module():
    L = make_super_poincare()
    M = adjoint_submodule(L, ["P0", "P1", "P2", "P3", "Q1", "Q2", "Qb1", "Qb2"])
    assert M.space.dims == (4, 4)
    assert validate_module(L, M).ok


def test_adjoint_submodule_rejects_open_span():
    L = make_gl(1, 1)
    with pytest.raises(ValidationError):
        adjoint_submodule(L, ["e12"])


def test_validate_module_flags_broken_axiom():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    ix = L.basis.index
    M.act[(ix("e11"), ix("e12"))] = Vector.basis(ix("e12"), RATIONAL).scale(
        scalar(RATIONAL, 3)
    )
    rep = validate_module(L, M)
    assert not rep.holds("module axiom")
    assert any(ce["kind"] == "module axiom" for ce in rep.counterexamples)


def test_validate_module_checks_basis_identity():
    L = make_gl(1, 1)
    other = make_sl(1, 1)
    with pytest.raises(BasisMismatch):
        validate_module(L, adjoint_module(other))


@pytest.mark.parametrize("where", ["low", "high"])
def test_values_outside_the_space_are_refused(where):
    # Index -1 used to read the last basis vector silently, and one past the
    # end raised a raw IndexError.
    xy = GradedBasis(("x", "y"), (0, 0))
    bad = -1 if where == "low" else len(xy)
    with pytest.raises(ValueError, match="outside the target basis"):
        from_pairs(xy, RATIONAL, {(0, 1): Vector({bad: one(RATIONAL)})})
    L = make_gl(1, 1)
    M = zero_module(L, xy)
    M.act[(0, 0)] = Vector({bad: one(RATIONAL)})
    with pytest.raises(BasisMismatch, match="outside the module basis"):
        validate_module(L, M)


EMITTED_KINDS = [
    "homogeneity",
    "antisymmetry",
    "jacobi",
    "module axiom",
    "identity",
    "homomorphism",
    "degree",
    "bracket equivariance",
    "action equivariance",
]


def test_report_holds_answers_each_emitted_kind():
    assert KINDS == set(EMITTED_KINDS)
    for kind in EMITTED_KINDS:
        report = Report([{"kind": kind, "where": "(x, y)"}])
        assert Report().holds(kind) and not report.holds(kind) and not report.ok
        assert all(report.holds(other) for other in EMITTED_KINDS if other != kind)


@pytest.mark.parametrize("kind", ["bracket_ok", "Jacobi", "equivariance", ""])
def test_report_holds_refuses_a_kind_that_no_check_emits(kind):
    with pytest.raises(ValueError, match="no check emits"):
        Report().holds(kind)

"""Extensions of a Lie superalgebra by an abelian module: building the
extension algebra from a bilinear glue term, the equivalence between the
Jacobi identity upstairs and the cocycle condition downstairs, and
classification of equivalence classes by degree-0 second cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import (
    Cochain,
    _resolve_reps,
    coboundary,
    coboundary_preimage,
    cohomology,
    is_equivariant,
)
from .errors import (
    BasisMismatch,
    NotCocycle,
    OracleDisagreement,
    ValidationError,
    WrongBidegree,
)
from .graded import GradedBasis, Vector
from .scalars import one, scalar
from .superalgebra import (
    LieSuperalgebra,
    LModule,
    bracket_eval,
    from_pairs,
    module_act,
    validate_module,
    validate_superalgebra,
)


@dataclass
class ExtensionDatum:
    L: LieSuperalgebra
    M: LModule
    rep: object
    h: Cochain

    def __post_init__(self):
        if self.h.algebra != self.L.basis or self.h.space != self.M.space:
            raise BasisMismatch("glue term must map algebra pairs into the module")
        if self.h.arity != 2 or self.h.parity != 0:
            raise WrongBidegree("glue term must be a binary map of parity 0")
        if not validate_module(self.L, self.M).ok:
            raise ValidationError("module axioms fail for the coefficient space")
        reps = _resolve_reps(self.rep, self.L, self.M)
        if reps is not None and not is_equivariant(self.h, reps[0], reps[1], self.L, self.M):
            raise ValidationError("glue term is not equivariant")


def extension_layout(L: LieSuperalgebra, M: LModule):
    """Index maps from the algebra and module bases into the combined basis.

    The combined basis lists even vectors of L, then of M, then odd vectors of
    L, then of M, so both embeddings preserve the evens-first layout.
    """
    nL0, _ = L.basis.dims
    nM0, _ = M.space.dims
    l2e, m2e = {}, {}
    for i, p in enumerate(L.basis.parities):
        l2e[i] = i if p == 0 else i + nM0
    for j, p in enumerate(M.space.parities):
        m2e[j] = nL0 + j if p == 0 else len(L.basis) + j
    return l2e, m2e


def _combined_basis(L: LieSuperalgebra, M: LModule) -> GradedBasis:
    l2e, m2e = extension_layout(L, M)
    size = len(L.basis) + len(M.space)
    names = [""] * size
    parities = [0] * size
    taken = set(L.basis.names)
    for i, name in enumerate(L.basis.names):
        names[l2e[i]] = name
        parities[l2e[i]] = L.basis.parities[i]
    for j, name in enumerate(M.space.names):
        fresh = name
        while fresh in taken:
            fresh = fresh + "'"
        taken.add(fresh)
        names[m2e[j]] = fresh
        parities[m2e[j]] = M.space.parities[j]
    return GradedBasis(tuple(names), tuple(parities))


def _push(vec: Vector, where: dict[int, int]) -> Vector:
    return Vector({where[i]: c for i, c in vec.coords.items()})


def build_extension(x: ExtensionDatum) -> LieSuperalgebra:
    """The algebra on L + M with the module acting through L, M abelian, and
    the glue term feeding the module component of brackets of algebra lifts.

    The result is intentionally unvalidated: the Jacobi identity upstairs is
    equivalent to the glue term being a cocycle, which is checked separately.
    """
    L, M, h = x.L, x.M, x.h
    spec = L.spec
    l2e, m2e = extension_layout(L, M)
    pairs = {}
    for i in range(len(L.basis)):
        for j in range(i, len(L.basis)):
            pairs[(l2e[i], l2e[j])] = _push(L.bracket.at((i, j)), l2e) + _push(h.value_at((i, j)), m2e)
        ei = Vector({i: one(spec)})
        for n in range(len(M.space)):
            pairs[(l2e[i], m2e[n])] = _push(module_act(M, ei, Vector({n: one(spec)})), m2e)
    return from_pairs(_combined_basis(L, M), spec, pairs, check=False)


@dataclass
class JacobiCocycleReport:
    jacobi: bool
    is_cocycle: bool


def jacobi_iff_cocycle(x: ExtensionDatum) -> JacobiCocycleReport:
    """Check the extension's Jacobi identity and the glue term's cocycle
    condition through independent pipelines; they must agree."""
    upstairs = validate_superalgebra(build_extension(x))
    if not upstairs.antisymmetry_ok or not upstairs.homogeneity_ok:
        raise OracleDisagreement(
            "extension bracket lost antisymmetry or homogeneity; "
            "the construction itself is broken"
        )
    jacobi = upstairs.jacobi_ok
    is_cocycle = coboundary(x.h, x.L, x.M).is_zero()
    if jacobi != is_cocycle:
        raise OracleDisagreement(
            f"Jacobi upstairs is {jacobi} but the cocycle condition is {is_cocycle}"
        )
    return JacobiCocycleReport(jacobi, is_cocycle)


def extensions_equivalent(x1: ExtensionDatum, x2: ExtensionDatum) -> Cochain | None:
    """An equivariant parity-0 1-cochain f with delta f = h1 - h2, or None.

    The returned f certifies the isomorphism (x, m) -> (x, m + f(x)) between
    the two extensions; the certificate is re-verified before returning.
    """
    L, M = x1.L, x1.M
    if x2.L.basis != L.basis or x2.M.space != M.space or x2.M.act != M.act:
        raise BasisMismatch("extensions must share the algebra and module")
    for label, x in (("first", x1), ("second", x2)):
        if not coboundary(x.h, L, M).is_zero():
            raise NotCocycle(f"{label} glue term is not a cocycle")
    diff = x1.h.add(x2.h.scale(scalar(L.spec, -1)))
    f = coboundary_preimage(1, L, M, x1.rep, diff)
    if f is None:
        return None
    _verify_certificate(x1, x2, f)
    return f


def _certificate_matrix(x: ExtensionDatum, f: Cochain):
    """The combined-basis matrix of (x, m) -> (x, m + f(x)), as columns."""
    L, M = x.L, x.M
    spec = L.spec
    l2e, m2e = extension_layout(L, M)
    size = len(L.basis) + len(M.space)
    cols = []
    for u in range(size):
        cols.append(Vector({u: one(spec)}))
    for i in range(len(L.basis)):
        cols[l2e[i]] = cols[l2e[i]] + _push(f.value_at((i,)), m2e)
    return cols


def _verify_certificate(x1: ExtensionDatum, x2: ExtensionDatum, f: Cochain) -> None:
    e1 = build_extension(x1)
    e2 = build_extension(x2)
    cols = _certificate_matrix(x1, f)

    def apply(v: Vector) -> Vector:
        out = Vector()
        for i, c in v.coords.items():
            out = out + cols[i].scale(c)
        return out

    size = len(e1.basis)
    for u in range(size):
        for v in range(size):
            lhs = apply(e1.bracket.at((u, v)))
            rhs_vec = bracket_eval(e2, apply(Vector({u: one(e1.spec)})), apply(Vector({v: one(e1.spec)})))
            if lhs != rhs_vec:
                raise OracleDisagreement(
                    "solved certificate does not intertwine the extension brackets"
                )
    reps = _resolve_reps(x1.rep, x1.L, x1.M)
    if reps is None:
        return
    rep_L, rep_M = reps
    l2e, m2e = extension_layout(x1.L, x1.M)
    for g in range(rep_L.group.order):
        for u in range(size):
            gu = _combined_apply(rep_L, rep_M, l2e, m2e, g, Vector({u: one(e1.spec)}))
            if apply(gu) != _combined_apply(rep_L, rep_M, l2e, m2e, g, apply(Vector({u: one(e1.spec)}))):
                raise OracleDisagreement("solved certificate is not equivariant")


def _combined_apply(rep_L, rep_M, l2e, m2e, g: int, v: Vector) -> Vector:
    from .group_action import apply_rep

    e2l = {u: i for i, u in l2e.items()}
    e2m = {u: j for j, u in m2e.items()}
    out = Vector()
    for u, c in v.coords.items():
        if u in e2l:
            img = apply_rep(rep_L, g, Vector({e2l[u]: c}))
            out = out + _push(img, l2e)
        else:
            img = apply_rep(rep_M, g, Vector({e2m[u]: c}))
            out = out + _push(img, m2e)
    return out


def classify_extensions(L: LieSuperalgebra, M: LModule, rep=None) -> list[Cochain]:
    """Cocycle representatives of a basis of degree-0 second cohomology.

    The split class is not listed: an empty result means every extension is
    equivalent to the split one.
    """
    report = cohomology(2, L, M, rep=rep)
    reps = report.representatives.get(0, [])
    if len(reps) != report.h_dims[0]:
        raise OracleDisagreement(
            "representative count disagrees with the computed dimension"
        )
    return list(reps)

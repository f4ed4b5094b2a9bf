"""Extensions of a Lie superalgebra by an abelian module: building the
extension algebra from a bilinear glue term, the equivalence between the
Jacobi identity upstairs and the cocycle condition downstairs, and
classification of equivalence classes by degree-0 second cohomology.

The extension algebra is read off the bracket, glue and action tables.  An
equivalence comes with a certificate, phi = (x, m) -> (x, m + f(x)), checked
on sparse columns: phi intertwines the two brackets (by the sweep
group_action.morphism_defects, which also checks an action against a
bracket), and f g_L = g_M f for each swept g, which is phi g = g phi since
g acts on L + M block by block.  The rep argument follows
group_action.resolve_reps and is resolved once, by ExtensionDatum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .cohomology import (
    Cochain,
    _map_columns,
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
from .group_action import (
    ActionRep,
    _product_columns,
    _same_columns,
    _scalars,
    morphism_defects,
    resolve_reps,
    swept_elements,
)
from .linalg import Row
from .nr_bracket import bracket_element
from .scalars import IntImage, one, scalar
from .superalgebra import (
    LieSuperalgebra,
    LModule,
    from_pairs,
    validate_module,
    validate_superalgebra,
)


@dataclass
class ExtensionDatum:
    """reps is rep resolved: None, or the pair (rep_L, rep_M)."""

    L: LieSuperalgebra
    M: LModule
    rep: object
    h: Cochain
    reps: tuple[ActionRep, ActionRep] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.h.algebra != self.L.basis or self.h.space != self.M.space:
            raise BasisMismatch("glue term must map algebra pairs into the module")
        if self.h.arity != 2 or self.h.parity != 0:
            raise WrongBidegree("glue term must be a binary map of parity 0")
        if not validate_module(self.L, self.M).ok:
            raise ValidationError("module axioms fail for the coefficient space")
        self.reps = resolve_reps(self.rep, self.L, self.M)
        if self.reps is not None and not is_equivariant(self.h, *self.reps, self.L, self.M):
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
    """One (name, parity) slot per combined index; a module name that is
    taken gets primes."""
    l2e, m2e = extension_layout(L, M)
    slots = [None] * (len(l2e) + len(m2e))
    taken = set(L.basis.names)
    for i, name in enumerate(L.basis.names):
        slots[l2e[i]] = (name, L.basis.parities[i])
    for j, name in enumerate(M.space.names):
        while name in taken:
            name += "'"
        taken.add(name)
        slots[m2e[j]] = (name, M.space.parities[j])
    return GradedBasis(tuple(name for name, _ in slots), tuple(p for _, p in slots))


def _push(row: Row, where: dict[int, int]) -> Row:
    return {where[i]: c for i, c in row.items()}


def build_extension(x: ExtensionDatum) -> LieSuperalgebra:
    """The algebra on L + M with the module acting through L, M abelian, and
    the glue term feeding the module component of brackets of algebra lifts.

    Read off mu, the bracket of L as an even 2-cochain and so its canonical
    half (nr_bracket.bracket_element), and the glue term's coordinates in one
    loop, then the action table.  The result is intentionally unvalidated:
    the Jacobi identity upstairs is equivalent to the glue term being a
    cocycle, which is checked separately.
    """
    L, M = x.L, x.M
    l2e, m2e = extension_layout(L, M)
    pairs: dict[tuple[int, int], Row] = {}
    for f, into in ((bracket_element(L), l2e), (x.h, m2e)):
        for ((i, j), k), c in f.coords.items():
            pairs.setdefault((l2e[i], l2e[j]), {})[into[k]] = c
    for (i, k), vec in M.act.items():
        pairs[(l2e[i], m2e[k])] = _push(vec.coords, m2e)
    vectors = {key: Vector(row) for key, row in pairs.items()}
    return from_pairs(_combined_basis(L, M), L.spec, vectors, check=False)


@dataclass
class JacobiCocycleReport:
    """extension is the algebra that build_extension read off the datum."""

    jacobi: bool
    is_cocycle: bool
    extension: LieSuperalgebra


def jacobi_iff_cocycle(x: ExtensionDatum) -> JacobiCocycleReport:
    """Check the extension's Jacobi identity and the glue term's cocycle
    condition through independent pipelines; they must agree."""
    extension = build_extension(x)
    upstairs = validate_superalgebra(extension)
    if not upstairs.holds("antisymmetry"):
        raise OracleDisagreement("extension bracket lost antisymmetry; the construction itself is broken")
    jacobi = upstairs.holds("jacobi")
    is_cocycle = coboundary(x.h, x.L, x.M).is_zero()
    if jacobi != is_cocycle:
        raise OracleDisagreement(
            f"Jacobi upstairs is {jacobi} but the cocycle condition is {is_cocycle}"
        )
    return JacobiCocycleReport(jacobi, is_cocycle, extension)


def extensions_equivalent(x1: ExtensionDatum, x2: ExtensionDatum) -> Cochain | None:
    """An equivariant parity-0 1-cochain f with delta f = h1 - h2, or None.

    The returned f certifies the isomorphism (x, m) -> (x, m + f(x)) between
    the two extensions; the certificate is re-verified before returning.
    """
    L, M = x1.L, x1.M
    if x2.L.basis != L.basis or x2.M.space != M.space or x2.M.act != M.act:
        raise BasisMismatch("extensions must share the algebra and module")
    if x1.reps != x2.reps:
        raise ValidationError("extensions must share the group action")
    for label, x in (("first", x1), ("second", x2)):
        if not coboundary(x.h, L, M).is_zero():
            raise NotCocycle(f"{label} glue term is not a cocycle")
    diff = x1.h.add(x2.h.scale(scalar(L.spec, -1)))
    f = coboundary_preimage(1, L, M, x1.reps, diff)
    if f is None:
        return None
    _verify_certificate(x1, x2, f)
    return f


def _verify_certificate(x1: ExtensionDatum, x2: ExtensionDatum, f: Cochain) -> None:
    """phi = (x, m) -> (x, m + f(x)) must intertwine the extension brackets,
    phi [u, v]_1 = [phi u, phi v]_2, and commute with every g (checked on
    the swept elements).  phi = id + f and g acts on L + M block by block,
    so phi g = g phi exactly when f g_L = g_M f.  Both are checked on sparse
    columns, built from the one column form of f (_map_columns) and added up
    as ints on an IntImage: the first on the columns of phi by
    group_action.morphism_defects, the second by comparing the columns of
    f g_L and g_M f, whose entries are sums of at most dim L and dim M
    products of two entries each."""
    br1 = {key: vec.coords for key, vec in build_extension(x1).bracket.components.items()}
    br2 = {key: vec.coords for key, vec in build_extension(x2).bracket.components.items()}
    l2e, m2e = extension_layout(x1.L, x1.M)
    f_cols, o = _map_columns(f), one(x1.L.spec)
    phi: list[Row] = [{u: o} for u in range(len(l2e) + len(m2e))]
    for i, col in enumerate(f_cols):
        phi[l2e[i]].update(_push(col, m2e))
    if any(morphism_defects(br1, br2, [(phi, phi)])):
        raise OracleDisagreement("solved certificate does not intertwine the extension brackets")
    if x1.reps is None:
        return
    rep_L, rep_M = x1.reps
    swept = swept_elements(rep_L, rep_M)
    read = [f_cols] + [rep.columns[g] for g in swept for rep in (rep_L, rep_M)]
    image = IntImage(x1.L.spec, _scalars(chain(*read)), 2, len(phi))
    f_int = [image.row(col) for col in f_cols]
    for g in swept:
        g_L = [image.row(col) for col in rep_L.columns[g]]
        g_M = [image.row(col) for col in rep_M.columns[g]]
        if not _same_columns(image, _product_columns(f_int, g_L), _product_columns(g_M, f_int)):
            raise OracleDisagreement("solved certificate is not equivariant")


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

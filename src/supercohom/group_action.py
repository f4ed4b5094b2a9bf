"""Finite groups as Cayley tables and their degree-0 linear actions.

The fixed subspace is spanned by the pivot columns of the Reynolds operator
R = (1/|G|) sum_g g, built in one pass over sparse columns.  Every vector
that all of G fixes satisfies R v = v, so it lies in the image of R.  The
result therefore comes with a certificate: each returned column is checked
to be fixed by every group element, which proves that the span is exactly
the fixed space, and the character formula (1/|G|) sum_g tr g must give its
dimension.  A sign slip in an induced action, or matrices that do not form
a representation, show up here as an OracleDisagreement rather than as a
silently wrong cohomology dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import (
    BasisMismatch,
    FieldMismatch,
    LengthMismatch,
    OracleDisagreement,
    ValidationError,
)
from .graded import (
    GradedBasis,
    Vector,
    canonicalize_tuple,
    cochain_coords,
    superalt_basis,
)
from .linalg import Matrix, Row, mat_identity, mat_mul, pivot_columns
from .scalars import FieldSpec, Scalar, one, scalar, zero
from .superalgebra import LieSuperalgebra, LModule, bracket_eval, module_act


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    element_parities: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        n = self.order
        if n < 1 or len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValidationError("Cayley table must be order x order")
        full = set(range(n))
        for r, row in enumerate(self.table):
            if set(row) != full:
                raise ValidationError(f"row {r} of the Cayley table is not a permutation")
        for c in range(n):
            if {row[c] for row in self.table} != full:
                raise ValidationError(f"column {c} of the Cayley table is not a permutation")
        e = self.identity
        if not 0 <= e < n or any(self.table[e][j] != j for j in range(n)) or any(
            self.table[i][e] != i for i in range(n)
        ):
            raise ValidationError("declared identity does not act as an identity")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise ValidationError(
                            f"Cayley table is not associative at ({i}, {j}, {k})"
                        )
        if self.element_parities is not None:
            object.__setattr__(self, "element_parities", tuple(self.element_parities))
            if len(self.element_parities) != n:
                raise ValidationError("one parity tag per group element expected")
            if any(p != 0 for p in self.element_parities):
                raise ValidationError(
                    "group elements of odd parity are not supported: the acting "
                    "group must be purely even"
                )

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        return self.table[i].index(self.identity)


def cyclic_group(m: int) -> FiniteGroup:
    table = tuple(tuple((i + j) % m for j in range(m)) for i in range(m))
    return FiniteGroup(m, table, 0)


@dataclass
class ActionRep:
    """One square matrix per group element, columns = images of basis vectors."""

    group: FiniteGroup
    spec: FieldSpec
    parities: tuple[int, ...]
    matrices: list[Matrix]

    def __post_init__(self):
        self.parities = tuple(self.parities)
        if len(self.matrices) != self.group.order:
            raise LengthMismatch("need one matrix per group element")
        d = len(self.parities)
        for mat in self.matrices:
            if len(mat) != d or any(len(row) != d for row in mat):
                raise LengthMismatch("representation matrices must match the space")

    @property
    def dim(self) -> int:
        return len(self.parities)


def apply_rep(rep: ActionRep, g: int, v: Vector) -> Vector:
    mat = rep.matrices[g]
    out: dict[int, Scalar] = {}
    for j, c in v.coords.items():
        for i in range(rep.dim):
            a = mat[i][j]
            if a.is_zero():
                continue
            s = out.get(i)
            out[i] = a * c if s is None else s + a * c
    return Vector(out)


def trivial_action(group: FiniteGroup, spec: FieldSpec, parities) -> ActionRep:
    d = len(parities)
    return ActionRep(group, spec, tuple(parities), [mat_identity(d, spec) for _ in range(group.order)])


def permutation_rep(group: FiniteGroup, spec: FieldSpec, parities, perms) -> ActionRep:
    """perms[g][j] = index that basis vector j is sent to by g."""
    d = len(parities)
    mats = []
    for perm in perms:
        mat = [[zero(spec) for _ in range(d)] for _ in range(d)]
        for j, i in enumerate(perm):
            mat[i][j] = one(spec)
        mats.append(mat)
    return ActionRep(group, spec, tuple(parities), mats)


def diagonal_rep(group: FiniteGroup, spec: FieldSpec, parities, diags) -> ActionRep:
    """diags[g] = list of diagonal Scalars for the matrix of g."""
    d = len(parities)
    mats = []
    for diag in diags:
        mat = [[zero(spec) for _ in range(d)] for _ in range(d)]
        for j, c in enumerate(diag):
            mat[j][j] = c
        mats.append(mat)
    return ActionRep(group, spec, tuple(parities), mats)


@dataclass
class ActionReport:
    identity_ok: bool = True
    homomorphism_ok: bool = True
    degree0_ok: bool = True
    bracket_ok: bool = True
    counterexamples: list = None

    def __post_init__(self):
        if self.counterexamples is None:
            self.counterexamples = []

    @property
    def ok(self) -> bool:
        return (
            self.identity_ok
            and self.homomorphism_ok
            and self.degree0_ok
            and self.bracket_ok
        )

    def describe(self) -> str:
        if self.ok:
            return "action axioms hold"
        return "\n".join(
            f"{ce['kind']} fails at {ce['where']}" for ce in self.counterexamples
        )


def _rep_structure_checks(rep: ActionRep, report: ActionReport) -> None:
    spec, group = rep.spec, rep.group
    if rep.matrices[group.identity] != mat_identity(rep.dim, spec):
        report.identity_ok = False
        report.counterexamples.append({"kind": "identity", "where": "identity element"})
    for g in range(group.order):
        for h in range(group.order):
            if mat_mul(rep.matrices[g], rep.matrices[h], spec) != rep.matrices[group.mul(g, h)]:
                report.homomorphism_ok = False
                report.counterexamples.append(
                    {"kind": "homomorphism", "where": f"pair ({g}, {h})"}
                )
    for g in range(group.order):
        mat = rep.matrices[g]
        for i in range(rep.dim):
            for j in range(rep.dim):
                if rep.parities[i] != rep.parities[j] and not mat[i][j].is_zero():
                    report.degree0_ok = False
                    report.counterexamples.append(
                        {"kind": "degree", "where": f"g={g}, entry ({i}, {j})"}
                    )


def validate_action(rep: ActionRep, L: LieSuperalgebra) -> ActionReport:
    if rep.parities != L.basis.parities:
        raise BasisMismatch("representation space does not match the algebra basis")
    report = ActionReport()
    _rep_structure_checks(rep, report)
    for g in range(rep.group.order):
        images = [apply_rep(rep, g, Vector.basis(i, L.spec)) for i in range(len(L.basis))]
        for i, gi in enumerate(images):
            for j, gj in enumerate(images):
                lhs = apply_rep(rep, g, L.bracket.at((i, j)))
                rhs = bracket_eval(L, gi, gj)
                if lhs != rhs:
                    report.bracket_ok = False
                    report.counterexamples.append(
                        {
                            "kind": "bracket equivariance",
                            "where": f"g={g}, pair ({L.basis.names[i]}, {L.basis.names[j]})",
                        }
                    )
    return report


def validate_module_action(
    rep_L: ActionRep, rep_M: ActionRep, L: LieSuperalgebra, M: LModule
) -> ActionReport:
    if rep_L.parities != L.basis.parities or rep_M.parities != M.space.parities:
        raise BasisMismatch("representation spaces do not match algebra/module bases")
    if rep_L.group is not rep_M.group and rep_L.group != rep_M.group:
        raise ValidationError("algebra and module actions must share the group")
    report = ActionReport()
    _rep_structure_checks(rep_M, report)
    for g in range(rep_L.group.order):
        module_images = [apply_rep(rep_M, g, Vector.basis(k, L.spec)) for k in range(len(M.space))]
        for i in range(len(L.basis)):
            gx = apply_rep(rep_L, g, Vector.basis(i, L.spec))
            for k, gm in enumerate(module_images):
                lhs = apply_rep(rep_M, g, module_act(M, Vector.basis(i, L.spec), Vector.basis(k, L.spec)))
                rhs = module_act(M, gx, gm)
                if lhs != rhs:
                    report.bracket_ok = False
                    report.counterexamples.append(
                        {
                            "kind": "action equivariance",
                            "where": f"g={g}, pair ({L.basis.names[i]}, {M.space.names[k]})",
                        }
                    )
    return report


def induced_action_on_cochains(
    rep_L: ActionRep, rep_M: ActionRep, L: LieSuperalgebra, M: LModule, n: int
) -> ActionRep:
    """Action (g.f)(x_1..x_n) = g f(g^{-1}x_1, ..., g^{-1}x_n) on coordinates."""
    if rep_L.spec != rep_M.spec:
        raise FieldMismatch("algebra and module actions live over different fields")
    if rep_L.parities != L.basis.parities or rep_M.parities != M.space.parities:
        raise BasisMismatch("representation spaces do not match algebra/module bases")
    spec = rep_L.spec
    group = rep_L.group
    coords = cochain_coords(L.basis, n, M.space)
    pos = {c: t for t, c in enumerate(coords)}
    parities = tuple(
        (sum(L.basis.parities[i] for i in T) + M.space.parities[j]) % 2
        for T, j in coords
    )
    dim = len(coords)
    dimM = len(M.space)
    canon = superalt_basis(L.basis, n)
    mats = []
    for g in range(group.order):
        ginv = group.inverse(g)
        A = rep_L.matrices[ginv]
        B = rep_M.matrices[g]
        cols_of = [
            [(i, A[i][s]) for i in range(len(L.basis)) if not A[i][s].is_zero()]
            for s in range(len(L.basis))
        ]
        z = zero(spec)
        mat = [[z] * dim for _ in range(dim)]
        for S in canon:
            acc: dict[tuple[int, ...], Scalar] = {}
            for picks in product(*[cols_of[s] for s in S]):
                K = tuple(i for i, _ in picks)
                res = canonicalize_tuple(K, L.basis.parities)
                if res is None:
                    continue
                T, sign = res
                c = one(spec) if sign == 1 else -one(spec)
                for _, a in picks:
                    c = c * a
                prev = acc.get(T)
                acc[T] = c if prev is None else prev + c
            for T, c in acc.items():
                if c.is_zero():
                    continue
                for j in range(dimM):
                    src = pos[(T, j)]
                    for r in range(dimM):
                        b = B[r][j]
                        if b.is_zero():
                            continue
                        dst = pos[(S, r)]
                        mat[dst][src] = mat[dst][src] + c * b
        mats.append(mat)
    return ActionRep(group, spec, parities, mats)


def equivariant_subspace(rep: ActionRep) -> list[list[Scalar]]:
    """Basis (as columns) of the vectors fixed by every group element.

    The basis is the pivot columns of the Reynolds operator
    R = (1/|G|) sum_g g, read left to right.  Certificate: each returned
    column v has g v = v for every g, so the columns, independent by
    construction, span exactly the fixed space (any fixed v has R v = v);
    and their count must equal the character formula (1/|G|) sum_g tr g.
    Either failure raises OracleDisagreement.
    """
    spec = rep.spec
    dim = rep.dim
    group = rep.group
    actions: list[list[Row]] = []  # per group element: its sparse columns
    reynolds: list[Row] = [{} for _ in range(dim)]
    trace_sum = zero(spec)
    for mat in rep.matrices:
        cols: list[Row] = [{} for _ in range(dim)]
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                if not x.is_zero():
                    cols[j][i] = x
        for j, col in enumerate(cols):
            acc = reynolds[j]
            for i, x in col.items():
                prev = acc.get(i)
                acc[i] = x if prev is None else prev + x
            if j in col:
                trace_sum = trace_sum + col[j]
        actions.append(cols)
    inv_order = scalar(spec, Fraction(1, group.order))
    reynolds = [{i: x * inv_order for i, x in col.items() if not x.is_zero()} for col in reynolds]
    fixed = [reynolds[c] for c in pivot_columns(reynolds)]

    for g, cols in enumerate(actions):
        for v in fixed:
            image: Row = {}
            for j, c in v.items():
                for i, x in cols[j].items():
                    prev = image.get(i)
                    image[i] = x * c if prev is None else prev + x * c
            if {i: x for i, x in image.items() if not x.is_zero()} != v:
                raise OracleDisagreement(
                    f"group element {g} moves a column of the Reynolds operator"
                )

    if trace_sum != scalar(spec, group.order * len(fixed)):
        raise OracleDisagreement(
            f"character formula gives {trace_sum}, but the fixed space has "
            f"dimension {len(fixed)}"
        )
    z = zero(spec)
    return [[v.get(i, z) for i in range(dim)] for v in fixed]

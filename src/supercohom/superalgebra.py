"""Lie superalgebras and modules presented by structure constants.

Brackets are stored as full component tables over a graded basis.  Every
constructor gives one entry per unordered pair to from_pairs, which writes
the mirrored half and is the one place that builds a LieSuperalgebra.  The
catalog algebras gl(m|n), sl(m|n) and the super-Poincare algebra (inside
gl(4|1)) go through one builder, _matrix_superalgebra, which takes each entry
from the super-commutator [a, b] = ab - (-1)^{|a||b|} ba of sparse matrices,
so no catalog table is written down by hand.

The super-Jacobi identity and the module axiom are checked by sweeps over
these sparse tables: for each canonical triple (or algebra-algebra-module
triple) lhs - rhs of the identity is one sparse sum of products of two table
entries, and it must vanish.  The tables are mapped once per check to exact
integers by scalars.IntImage, so the sums are added up as Python ints, and
Scalars are built only for the two sides of a failing triple; the
antisymmetry check compares the mapped entries.  Only nonzero structure
constants are touched.  The element-wise checks through bracket_eval and
module_act are kept in tests/util.py as test oracles.

Every axiom check, here and in group_action, returns one Report: the list
of its counterexamples, in the order found, and nothing else.  ok means the
list is empty, holds(kind) that no counterexample is of that kind (a kind
no check emits is a ValueError), and describe() prints one line per
counterexample.  The bracket of an algebra is homogeneous by construction:
the graded.MultilinearMap constructor refuses an entry of the wrong parity,
so only validate_module sweeps its table for homogeneity.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from itertools import product
from types import MappingProxyType

from .errors import BasisMismatch, ValidationError
from .graded import GradedBasis, MultilinearMap, Vector, superalt_basis, vec_str
from .linalg import lin_comb, rref_rows
from .scalars import RATIONAL, FieldSpec, IntImage, Scalar, cyclo, one, root_of_unity, scalar, zero


# The kinds of counterexample that the checks of this module and of group_action emit.
KINDS = frozenset(
    ["homogeneity", "antisymmetry", "jacobi", "module axiom"]
    + ["identity", "homomorphism", "degree", "bracket equivariance", "action equivariance"]
)


@dataclass
class Report:
    """The verdict of an axiom check: its counterexamples, in the order
    found, each a dict with a kind, a where (text) and, for the table
    checks, the two sides lhs and rhs."""

    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def holds(self, kind: str) -> bool:
        """Whether no counterexample is of kind, one of KINDS."""
        if kind not in KINDS:
            raise ValueError(f"no check emits counterexamples of kind {kind!r}")
        return all(ce["kind"] != kind for ce in self.counterexamples)

    def describe(self) -> str:
        if self.ok:
            return "all axioms hold"
        return "\n".join(
            f"{ce['kind']} fails at {ce['where']}"
            + (f": lhs = {ce['lhs']}, rhs = {ce['rhs']}" if "lhs" in ce else "")
            for ce in self.counterexamples
        )


def _table_failure(kind: str, names, lhs: str, rhs: str) -> dict:
    """A counterexample of a table check at the basis vectors names."""
    return {"kind": kind, "where": f"({', '.join(names)})", "lhs": lhs, "rhs": rhs}


@dataclass(frozen=True)
class LieSuperalgebra:
    basis: GradedBasis
    spec: FieldSpec
    bracket: MultilinearMap
    check: InitVar[bool] = True
    # the bracket as a Cochain, built once by nr_bracket.bracket_element
    element_memo: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self, check):
        if self.bracket.source != self.basis or self.bracket.target != self.basis:
            raise BasisMismatch("bracket must map the algebra basis to itself")
        if self.bracket.arity != 2 or self.bracket.parity != 0:
            raise ValueError("bracket must be a binary map of degree 0")
        if check:
            report = validate_superalgebra(self)
            if not report.ok:
                raise ValidationError("structure constants violate the axioms:\n" + report.describe())

    def __len__(self):
        return len(self.basis)


def from_pairs(basis: GradedBasis, spec: FieldSpec, pairs: dict, check: bool = True) -> LieSuperalgebra:
    """The Lie superalgebra with [x_i, x_j] = pairs[(i, j)]: one Vector per
    unordered pair, in either order.  The mirrored entry follows from
    super-antisymmetry, [x_j, x_i] = -(-1)^{|i||j|} [x_i, x_j]; this is the
    one place that writes it."""
    par = basis.parities
    table: dict[tuple[int, int], Vector] = {}
    for (i, j), vec in pairs.items():
        if i != j and (j, i) in pairs:
            raise ValueError(f"the pair ({i}, {j}) is given in both orders")
        table[(i, j)] = vec
        if i != j:
            table[(j, i)] = vec if par[i] and par[j] else -vec
    return LieSuperalgebra(basis, spec, MultilinearMap(2, 0, basis, basis, table), check)


def bracket_eval(L: LieSuperalgebra, x: Vector, y: Vector) -> Vector:
    n = len(L.basis)
    for v in (x, y):
        for i in v.coords:
            if not 0 <= i < n:
                raise BasisMismatch(f"coordinate index {i} outside the algebra basis")
    out = Vector()
    for i, a in x.coords.items():
        for j, b in y.coords.items():
            comp = L.bracket.at((i, j))
            if not comp.is_zero():
                out = out + comp.scale(a * b)
    return out


_NO_TERMS: dict = {}


def _leibniz_lhs(act: dict, i: int, j: int, k: int) -> dict:
    """x_i.(x_j.m_k) as a sparse sum over the action table act, an image
    table {pair: {index: int}} of IntImage."""
    acc: dict[int, int] = {}
    for t, c in act.get((j, k), _NO_TERMS).items():
        row = act.get((i, t))
        if row:
            for s, x in row.items():
                acc[s] = acc.get(s, 0) + c * x
    return acc


def _leibniz_image(L: LieSuperalgebra, act: dict, dim: int) -> tuple[IntImage, dict, dict]:
    """The IntImage of the Leibniz sweep of the bracket of L and the action
    table act ({pair: Vector} into a space of dimension dim), and the two
    tables mapped by it.  Each side of the identity is a sum of products of
    two entries, at most dim L + 2 dim of them per coordinate."""
    br = L.bracket.components
    tables = (br,) if act is br else (br, act)
    scalars = (c for table in tables for vec in table.values() for c in vec.coords.values())
    image = IntImage(L.spec, scalars, 2, len(L.basis) + 2 * dim)
    br_int = {key: image.row(vec.coords) for key, vec in br.items()}
    act_int = br_int if act is br else {key: image.row(vec.coords) for key, vec in act.items()}
    return image, br_int, act_int


def _leibniz_failures(image: IntImage, br_int: dict, act_int: dict, par, triples):
    """The triples (i, j, k), in order, where
    x_i.(x_j.m_k) = [x_i, x_j].m_k + (-1)^{|i||j|} x_j.(x_i.m_k)
    fails, each with its two sides as Vectors: br_int and act_int are the
    bracket and action tables mapped by image (_leibniz_image), and par the
    parities of the algebra basis.  With act_int the bracket table this is
    the super-Jacobi identity.

    lhs - rhs is added up as one sparse sum of ints; Scalars are built only
    for the sides of a failing triple.
    """
    for i, j, k in triples:
        acc = _leibniz_lhs(act_int, i, j, k)
        for t, c in br_int.get((i, j), _NO_TERMS).items():
            row = act_int.get((t, k))
            if row:
                for s, x in row.items():
                    acc[s] = acc.get(s, 0) - c * x
        for t, c in act_int.get((i, k), _NO_TERMS).items():
            row = act_int.get((j, t))
            if row:
                c = c if par[i] and par[j] else -c
                for s, x in row.items():
                    acc[s] = acc.get(s, 0) + c * x
        if not acc or image.vanishes(acc):
            continue
        lhs = _leibniz_lhs(act_int, i, j, k)
        rhs = dict(lhs)
        for s, v in acc.items():
            rhs[s] = rhs.get(s, 0) - v
        lhs, rhs = (Vector({s: image.back(v) for s, v in side.items()}) for side in (lhs, rhs))
        yield i, j, k, lhs, rhs


def validate_superalgebra(L: LieSuperalgebra) -> Report:
    basis = L.basis
    par = basis.parities
    report = Report()

    # A single scalar maps to an int whose signed base-B digits are its
    # scaled numerators, so entries are equal exactly when their images are.
    image, br, _ = _leibniz_image(L, L.bracket.components, len(basis))
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            v, w = br.get((i, j), _NO_TERMS), br.get((j, i), _NO_TERMS)
            if v != (w if par[i] and par[j] else {t: -x for t, x in w.items()}):
                lhs, rhs = (vec_str(L.bracket.at(key), basis) for key in ((i, j), (j, i)))
                report.counterexamples.append(_table_failure("antisymmetry", (basis.names[i], basis.names[j]), lhs, rhs))

    # Given antisymmetry, the Jacobi residual is super-alternating, so the
    # canonical tuples already cover every basis triple.
    for i, j, k, lhs, rhs in _leibniz_failures(image, br, br, par, superalt_basis(basis, 3)):
        names = (basis.names[i], basis.names[j], basis.names[k])
        report.counterexamples.append(_table_failure("jacobi", names, vec_str(lhs, basis), vec_str(rhs, basis)))
    return report


# -- modules ------------------------------------------------------------------


@dataclass(frozen=True)
class LModule:
    """Module data: act[(i, j)] = action of algebra basis i on module basis j,
    a read-only mapping without zero entries.

    A module is a frozen value, so what is computed from it stays true.
    _complexes, the one writable part, holds one cohomology._Complex per
    cochain complex with coefficients in this module: its torus, its
    G-fixed families and what cohomology keeps of each coboundary.  It takes
    no part in equality.
    """

    algebra: GradedBasis
    space: GradedBasis
    act: Mapping[tuple[int, int], Vector]
    _complexes: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "act", MappingProxyType({tuple(k): v for k, v in self.act.items() if not v.is_zero()}))


def validate_module(L: LieSuperalgebra, M: LModule) -> Report:
    if M.algebra != L.basis:
        raise BasisMismatch("module is declared over a different algebra basis")
    parL, parM = L.basis.parities, M.space.parities
    for (i, j), vec in M.act.items():
        if not (0 <= i < len(parL) and 0 <= j < len(parM)):
            raise BasisMismatch(f"action key ({i}, {j}) out of range")
        if any(not 0 <= t < len(parM) for t in vec.coords):
            raise BasisMismatch(f"action value at ({i}, {j}) indexes outside the module basis")
    report = Report()
    for (i, j), vec in M.act.items():
        want = (parL[i] + parM[j]) % 2
        if vec.parity_support(M.space) - {want}:
            names = (L.basis.names[i], M.space.names[j])
            lhs = vec_str(vec, M.space)
            report.counterexamples.append(_table_failure("homogeneity", names, lhs, f"parity {want} expected"))

    image, br, act = _leibniz_image(L, M.act, len(parM))
    triples = product(range(len(parL)), range(len(parL)), range(len(parM)))
    for i, j, k, lhs, rhs in _leibniz_failures(image, br, act, parL, triples):
        names = (L.basis.names[i], L.basis.names[j], M.space.names[k])
        lhs, rhs = vec_str(lhs, M.space), vec_str(rhs, M.space)
        report.counterexamples.append(_table_failure("module axiom", names, lhs, rhs))
    return report


def adjoint_module(L: LieSuperalgebra) -> LModule:
    return LModule(L.basis, L.basis, L.bracket.components)


def adjoint_submodule(L: LieSuperalgebra, labels: list[str]) -> LModule:
    """Restrict the adjoint action to the span of the named basis vectors.

    The span must be closed under the bracket with every algebra element.
    """
    idx = [L.basis.index(name) for name in labels]
    pos = {b: a for a, b in enumerate(idx)}
    names = tuple(L.basis.names[b] for b in idx)
    parities = tuple(L.basis.parities[b] for b in idx)
    space = GradedBasis(names, parities)
    act: dict[tuple[int, int], Vector] = {}
    for i in range(len(L.basis)):
        for a, b in enumerate(idx):
            vec = L.bracket.at((i, b))
            coords = {}
            for t, c in vec.coords.items():
                if t not in pos:
                    raise ValidationError(
                        f"span of {labels} is not closed: [{L.basis.names[i]}, "
                        f"{L.basis.names[b]}] leaves it"
                    )
                coords[pos[t]] = c
            act[(i, a)] = Vector(coords)
    return LModule(L.basis, space, act)


def zero_module(L: LieSuperalgebra, space: GradedBasis) -> LModule:
    return LModule(L.basis, space, {})


# -- matrix superalgebras -----------------------------------------------------


def _gl_layout(m: int, n: int):
    """The matrix units (i, j) of gl(m|n), even ones first, each part row-major."""
    N = m + n
    odd = lambda p: (p[0] <= m) != (p[1] <= m)
    ordered = sorted(((i, j) for i in range(1, N + 1) for j in range(1, N + 1)), key=lambda p: (odd(p), p))
    names = tuple(f"e{i}{j}" if N <= 9 else f"e{i}_{j}" for i, j in ordered)
    parities = tuple(int(odd(p)) for p in ordered)
    return ordered, names, parities, {p: t for t, p in enumerate(ordered)}


def _super_commutator(a: dict, b: dict, odd: bool) -> dict:
    """ab - (-1)^{|a||b|} ba of sparse matrices {(row, col): Scalar}, without
    zero entries; odd says whether a and b are both odd."""
    return lin_comb(
        (-u if neg else u, {(r, c): v})
        for x, y, neg in ((a, b, False), (b, a, not odd))
        for (r, k), u in x.items()
        for (k2, c), v in y.items()
        if k == k2
    )


def _matrix_superalgebra(basis: GradedBasis, spec: FieldSpec, mats: list[dict]) -> LieSuperalgebra:
    """The span of the linearly independent sparse matrices mats
    ({(row, col): Scalar}, one per basis element) under the super-commutator,
    through from_pairs.

    The matrices are reduced once, each as a row over the matrix entries with
    one tag column per basis element appended, so a reduced row is a matrix
    of the span next to its coordinates.  A commutator in the span is the
    combination of the reduced rows read off at its pivot entries; a residue,
    or an entry outside every matrix, means the span is not closed.
    """
    o = one(spec)
    keys = dict.fromkeys(key for mat in mats for key in mat)
    entry = {key: c for c, key in enumerate(keys)}  # (row, col) -> column of the reduction
    E = len(entry)
    reduced, pivots = rref_rows({**{entry[k]: x for k, x in mat.items()}, E + t: o} for t, mat in enumerate(mats))
    by_pivot = dict(zip(pivots, reduced))
    names, par = basis.names, basis.parities
    pairs: dict[tuple[int, int], Vector] = {}
    for i, a in enumerate(mats):
        for j in range(i, len(mats)):
            comm = _super_commutator(a, mats[j], par[i] and par[j])
            row = {entry[key]: x for key, x in comm.items() if key in entry}
            acc = lin_comb((x, by_pivot[p]) for p, x in row.items() if p in by_pivot)
            if len(row) < len(comm) or {c: x for c, x in acc.items() if c < E} != row:
                raise ValidationError(f"[{names[i]}, {names[j]}] leaves the span of the matrices")
            pairs[(i, j)] = Vector({c - E: x for c, x in acc.items() if c >= E})
    return from_pairs(basis, spec, pairs)


def make_gl(m: int, n: int, spec: FieldSpec = RATIONAL) -> LieSuperalgebra:
    if m + n < 1:
        raise ValueError("need at least a one-dimensional space")
    ordered, names, parities, _ = _gl_layout(m, n)
    o = one(spec)
    return _matrix_superalgebra(GradedBasis(names, parities), spec, [{p: o} for p in ordered])


def supertrace(m: int, n: int, a: Vector, spec: FieldSpec = RATIONAL) -> Scalar:
    N = m + n
    _, _, _, index = _gl_layout(m, n)
    for t in a.coords:
        if not 0 <= t < N * N:
            raise BasisMismatch(f"coordinate index {t} outside the gl({m},{n}) basis")
    total = zero(spec)
    for i in range(1, N + 1):
        c = a.get(index[(i, i)], spec)
        total = total + c if i <= m else total - c
    return total


def make_sl(m: int, n: int, spec: FieldSpec = RATIONAL) -> LieSuperalgebra:
    if m + n < 2:
        raise ValueError("need an at least two-dimensional space")
    ordered, gl_names, gl_parities, _ = _gl_layout(m, n)
    o = one(spec)
    # Crossing the block boundary the supertrace flips sign, so the traceless
    # combination is a sum there.
    hs = [{(i, i): o, (i + 1, i + 1): o if i == m else -o} for i in range(1, m + n)]
    off = [t for t, (i, j) in enumerate(ordered) if i != j]
    names = [f"h{i}" for i in range(1, m + n)] + [gl_names[t] for t in off]
    basis = GradedBasis(names, [0] * len(hs) + [gl_parities[t] for t in off])
    return _matrix_superalgebra(basis, spec, hs + [{ordered[t]: o} for t in off])


# -- the N=1 super-Poincare algebra ------------------------------------------


def make_super_poincare() -> LieSuperalgebra:
    """The 14-dimensional N=1 super-Poincare algebra over Q(zeta_4), as
    supermatrices of gl(4|1) (rows and columns 0-3 even, 4 odd) through
    _matrix_superalgebra, with the imaginary unit realised as zeta_4.

    With the transposed Pauli matrices s_mu = (1, s1, s2^T, s3) and
    sb_mu = (1, -s1, -s2^T, -s3), gamma_mu = [[0, sb_mu], [s_mu, 0]] in 2x2
    blocks; J_mn = -(i/4)(gamma_m gamma_n - gamma_n gamma_m),
    P_mu = 1/4 [[0, sb_mu], [0, 0]], Q_a = E_(a,4) and Qb_a = E_(4,2+a).
    The metric is eta = diag(+,-,-,-).
    """
    spec = cyclo(4)
    iu, o = root_of_unity(spec, 1), one(spec)
    quarter = scalar(spec, Fraction(1, 4))
    sigma = [
        {(0, 0): o, (1, 1): o},
        {(0, 1): o, (1, 0): o},
        {(0, 1): iu, (1, 0): -iu},
        {(0, 0): o, (1, 1): -o},
    ]
    sbar = [sigma[0]] + [{key: -x for key, x in s.items()} for s in sigma[1:]]

    def block(s: dict, r0: int, c0: int, k: Scalar) -> dict:
        return {(r0 + r, c0 + c): k * x for (r, c), x in s.items()}

    gamma = [{**block(sb, 0, 2, o), **block(s, 2, 0, o)} for s, sb in zip(sigma, sbar)]
    jpairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    J = [block(_super_commutator(gamma[m], gamma[n], False), 0, 0, -(iu * quarter)) for m, n in jpairs]
    P = [block(sb, 0, 2, quarter) for sb in sbar]
    Q = [{(a, 4): o} for a in range(2)] + [{(4, 2 + a): o} for a in range(2)]
    names = [f"J{m}{n}" for m, n in jpairs] + [f"P{mu}" for mu in range(4)] + ["Q1", "Q2", "Qb1", "Qb2"]
    basis = GradedBasis(tuple(names), (0,) * 10 + (1,) * 4)
    return _matrix_superalgebra(basis, spec, J + P + Q)

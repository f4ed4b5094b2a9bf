"""Lie superalgebras and modules presented by structure constants.

Brackets are stored as full component tables over a graded basis.  The
matrix-algebra constructors derive their tables from the super-commutator
[a, b] = ab - (-1)^{|a||b|} ba of honest matrices, so the table is never
written down by hand.  Every other constructor gives one entry per unordered
pair to from_pairs, which writes the mirrored half.

The super-Jacobi identity and the module axiom are checked by sweeps over
these sparse tables: for each canonical triple (or algebra-algebra-module
triple) each side of the identity is one sparse sum of table entries, and
the two sides are compared once.  Only nonzero structure constants are
touched.  The element-wise checks through bracket_eval and module_act are
kept in tests/util.py as test oracles.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from fractions import Fraction

from .errors import BasisMismatch, ValidationError
from .graded import GradedBasis, MultilinearMap, Vector, superalt_basis, vec_str
from .linalg import lin_comb, mat_mul, solve_rows
from .scalars import RATIONAL, FieldSpec, Scalar, cyclo, one, root_of_unity, scalar, zero


@dataclass
class AlgebraReport:
    antisymmetry_ok: bool = True
    jacobi_ok: bool = True
    homogeneity_ok: bool = True
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.antisymmetry_ok and self.jacobi_ok and self.homogeneity_ok

    def describe(self) -> str:
        return "all axioms hold" if self.ok else _describe_counterexamples(self.counterexamples)


def _describe_counterexamples(counterexamples: list) -> str:
    return "\n".join(
        f"{ce['kind']} fails at ({', '.join(ce['where'])}): lhs = {ce['lhs']}, rhs = {ce['rhs']}"
        for ce in counterexamples
    )


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


def _leibniz_sides(br: dict, act: dict, i: int, j: int, k: int, odd: int):
    """Both sides of x_i.(x_j.m_k) = [x_i, x_j].m_k + (-1)^{|i||j|} x_j.(x_i.m_k)
    as sparse sums over the bracket table br and the action table act (both
    {pair: Row}).  With act = br this is the super-Jacobi identity."""
    lhs = lin_comb((c, act[(i, t)]) for t, c in act.get((j, k), {}).items() if (i, t) in act)
    rhs = [(c, act[(t, k)]) for t, c in br.get((i, j), {}).items() if (t, k) in act]
    rhs += [(-c if odd else c, act[(j, t)]) for t, c in act.get((i, k), {}).items() if (j, t) in act]
    return lhs, lin_comb(rhs)


def validate_superalgebra(L: LieSuperalgebra) -> AlgebraReport:
    report = AlgebraReport()
    basis = L.basis
    par = basis.parities

    for tup, vec in L.bracket.components.items():
        want = (par[tup[0]] + par[tup[1]]) % 2
        if vec.parity_support(basis) - {want}:
            report.homogeneity_ok = False
            report.counterexamples.append(
                {
                    "kind": "homogeneity",
                    "where": (basis.names[tup[0]], basis.names[tup[1]]),
                    "lhs": vec_str(vec, basis),
                    "rhs": f"parity {want} expected",
                }
            )

    for i in range(len(basis)):
        for j in range(i, len(basis)):
            v = L.bracket.at((i, j))
            w = L.bracket.at((j, i))
            diff = v + w if (par[i] * par[j]) % 2 == 0 else v - w
            if not diff.is_zero():
                report.antisymmetry_ok = False
                report.counterexamples.append(
                    {
                        "kind": "antisymmetry",
                        "where": (basis.names[i], basis.names[j]),
                        "lhs": vec_str(v, basis),
                        "rhs": vec_str(w, basis),
                    }
                )

    # Given antisymmetry, the Jacobi residual is super-alternating, so the
    # canonical tuples already cover every basis triple.
    br = {key: vec.coords for key, vec in L.bracket.components.items()}
    for i, j, k in superalt_basis(basis, 3):
        lhs, rhs = _leibniz_sides(br, br, i, j, k, par[i] * par[j])
        if lhs != rhs:
            report.jacobi_ok = False
            report.counterexamples.append(
                {
                    "kind": "jacobi",
                    "where": (basis.names[i], basis.names[j], basis.names[k]),
                    "lhs": vec_str(Vector(lhs), basis),
                    "rhs": vec_str(Vector(rhs), basis),
                }
            )
    return report


# -- modules ------------------------------------------------------------------


@dataclass
class LModule:
    """Module data: act[(i, j)] = action of algebra basis i on module basis j."""

    algebra: GradedBasis
    space: GradedBasis
    act: dict[tuple[int, int], Vector]

    def __post_init__(self):
        self.act = {
            tuple(k): v for k, v in self.act.items() if not v.is_zero()
        }


@dataclass
class ModuleReport:
    axiom_ok: bool = True
    homogeneity_ok: bool = True
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.axiom_ok and self.homogeneity_ok

    def describe(self) -> str:
        return "module axioms hold" if self.ok else _describe_counterexamples(self.counterexamples)


def validate_module(L: LieSuperalgebra, M: LModule) -> ModuleReport:
    report = ModuleReport()
    if M.algebra != L.basis:
        raise BasisMismatch("module is declared over a different algebra basis")
    parL, parM = L.basis.parities, M.space.parities

    for (i, j), vec in M.act.items():
        if not (0 <= i < len(parL) and 0 <= j < len(parM)):
            raise BasisMismatch(f"action key ({i}, {j}) out of range")
        want = (parL[i] + parM[j]) % 2
        if vec.parity_support(M.space) - {want}:
            report.homogeneity_ok = False
            report.counterexamples.append(
                {
                    "kind": "homogeneity",
                    "where": (L.basis.names[i], M.space.names[j]),
                    "lhs": vec_str(vec, M.space),
                    "rhs": f"parity {want} expected",
                }
            )

    br = {key: vec.coords for key, vec in L.bracket.components.items()}
    act = {key: vec.coords for key, vec in M.act.items()}
    for i in range(len(parL)):
        for j in range(len(parL)):
            for k in range(len(parM)):
                lhs, rhs = _leibniz_sides(br, act, i, j, k, parL[i] * parL[j])
                if lhs != rhs:
                    report.axiom_ok = False
                    report.counterexamples.append(
                        {
                            "kind": "module axiom",
                            "where": (
                                L.basis.names[i],
                                L.basis.names[j],
                                M.space.names[k],
                            ),
                            "lhs": vec_str(Vector(lhs), M.space),
                            "rhs": vec_str(Vector(rhs), M.space),
                        }
                    )
    return report


def adjoint_module(L: LieSuperalgebra) -> LModule:
    act = {tup: vec for tup, vec in L.bracket.components.items()}
    return LModule(L.basis, L.basis, act)


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
            if vec.is_zero():
                continue
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
    N = m + n
    block = lambda i: 0 if i <= m else 1

    def label(i, j):
        return f"e{i}{j}" if N <= 9 else f"e{i}_{j}"

    pairs = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
    evens = [(i, j) for (i, j) in pairs if block(i) == block(j)]
    odds = [(i, j) for (i, j) in pairs if block(i) != block(j)]
    ordered = evens + odds
    names = tuple(label(i, j) for (i, j) in ordered)
    parities = tuple([0] * len(evens) + [1] * len(odds))
    index = {p: t for t, p in enumerate(ordered)}
    return ordered, names, parities, index


def make_gl(m: int, n: int, spec: FieldSpec = RATIONAL) -> LieSuperalgebra:
    if m + n < 1:
        raise ValueError("need at least a one-dimensional space")
    ordered, names, parities, index = _gl_layout(m, n)
    basis = GradedBasis(names, parities)
    o = one(spec)
    comp: dict[tuple[int, int], Vector] = {}
    for p1, (i, j) in enumerate(ordered):
        for p2, (k, l) in enumerate(ordered):
            coords: dict[int, Scalar] = {}
            if j == k:
                coords[index[(i, l)]] = coords.get(index[(i, l)], zero(spec)) + o
            if l == i:
                sign = -o if (parities[p1] * parities[p2]) % 2 == 0 else o
                t = index[(k, j)]
                coords[t] = coords.get(t, zero(spec)) + sign
            vec = Vector(coords)
            if not vec.is_zero():
                comp[(p1, p2)] = vec
    bracket = MultilinearMap(2, 0, basis, basis, comp)
    return LieSuperalgebra(basis, spec, bracket)


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


def _matrix_of(entries: dict[tuple[int, int], Scalar], N: int, spec: FieldSpec):
    out = [[zero(spec) for _ in range(N)] for _ in range(N)]
    for (i, j), c in entries.items():
        out[i - 1][j - 1] = c
    return out


def make_sl(m: int, n: int, spec: FieldSpec = RATIONAL) -> LieSuperalgebra:
    if m + n < 2:
        raise ValueError("need an at least two-dimensional space")
    N = m + n
    block = lambda i: 0 if i <= m else 1
    o = one(spec)

    def elabel(i, j):
        return f"e{i}{j}" if N <= 9 else f"e{i}_{j}"

    offdiag = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1) if i != j]
    offdiag_sorted = sorted(offdiag, key=lambda p: (block(p[0]) != block(p[1]), p))

    mats: list = []
    names: list[str] = []
    parities: list[int] = []
    for i in range(1, N):
        names.append(f"h{i}")
        parities.append(0)
        if i != m:
            mats.append(_matrix_of({(i, i): o, (i + 1, i + 1): -o}, N, spec))
        else:
            # Crossing the block boundary the supertrace flips sign, so the
            # traceless combination is a sum there.
            mats.append(_matrix_of({(i, i): o, (i + 1, i + 1): o}, N, spec))
    for i, j in offdiag_sorted:
        names.append(elabel(i, j))
        parities.append(int(block(i) != block(j)))
        mats.append(_matrix_of({(i, j): o}, N, spec))
    basis = GradedBasis(tuple(names), tuple(parities))

    h_rows = [
        {t: mats[t][d][d] for t in range(N - 1) if not mats[t][d][d].is_zero()}
        for d in range(N)
    ]

    def decompose(mat) -> Vector:
        coords: dict[int, Scalar] = {}
        for t, (i, j) in enumerate(offdiag_sorted):
            c = mat[i - 1][j - 1]
            if not c.is_zero():
                coords[N - 1 + t] = c
        diag = [mat[d][d] for d in range(N)]
        sol = solve_rows(h_rows, diag, N - 1)
        if sol is None:
            raise ValidationError("bracket left the supertraceless subspace")
        coords.update(sol)
        return Vector(coords)

    comp: dict[tuple[int, int], Vector] = {}
    for p1 in range(len(mats)):
        for p2 in range(len(mats)):
            ab = mat_mul(mats[p1], mats[p2], spec)
            ba = mat_mul(mats[p2], mats[p1], spec)
            sign = -1 if (parities[p1] * parities[p2]) % 2 == 0 else 1
            comm = [
                [
                    ab[r][c] + ba[r][c] if sign == 1 else ab[r][c] - ba[r][c]
                    for c in range(N)
                ]
                for r in range(N)
            ]
            vec = decompose(comm)
            if not vec.is_zero():
                comp[(p1, p2)] = vec
    bracket = MultilinearMap(2, 0, basis, basis, comp)
    return LieSuperalgebra(basis, spec, bracket)


# -- the N=1 super-Poincare algebra ------------------------------------------


def make_super_poincare() -> LieSuperalgebra:
    """The 14-dimensional N=1 super-Poincare algebra over Q(zeta_4).

    Conventions: eta = diag(+,-,-,-); spinor indices raised/lowered with
    eps^{12} = +1; the J-J, P-J and Q-Qbar tables follow the usual 4d form
    with the imaginary unit realised as zeta_4.
    """
    spec = cyclo(4)
    iu = root_of_unity(spec, 1)
    o, z = one(spec), zero(spec)
    quarter = scalar(spec, Fraction(1, 4))
    eta = (o, -o, -o, -o)

    def mk(rows):
        return [[scalar(spec, x) for x in row] for row in rows]

    s0 = mk([[1, 0], [0, 1]])
    s1 = mk([[0, 1], [1, 0]])
    s2 = [[z, -iu], [iu, z]]
    s3 = mk([[1, 0], [0, -1]])
    sigma = [s0, s1, s2, s3]
    sbar = [s0] + [[[-c for c in row] for row in s] for s in (s1, s2, s3)]

    def msub(a, b):
        return [[a[r][c] - b[r][c] for c in range(2)] for r in range(2)]

    def mscale(k, a):
        return [[k * a[r][c] for c in range(2)] for r in range(2)]

    coeff = -(iu * quarter)
    smunu = {}
    sbmunu = {}
    for mu in range(4):
        for nu in range(4):
            smunu[(mu, nu)] = mscale(
                coeff,
                msub(mat_mul(sigma[mu], sbar[nu], spec), mat_mul(sigma[nu], sbar[mu], spec)),
            )
            sbmunu[(mu, nu)] = mscale(
                coeff,
                msub(mat_mul(sbar[mu], sigma[nu], spec), mat_mul(sbar[nu], sigma[mu], spec)),
            )
    # Acting on the upper-dotted Qbar components the Lorentz generator appears
    # conjugated by eps, which is the same as minus the transpose.
    tmunu = {
        key: [[-mat[0][0], -mat[1][0]], [-mat[0][1], -mat[1][1]]]
        for key, mat in sbmunu.items()
    }

    jpairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    names = (
        [f"J{a}{b}" for a, b in jpairs]
        + [f"P{mu}" for mu in range(4)]
        + ["Q1", "Q2", "Qb1", "Qb2"]
    )
    parities = tuple([0] * 10 + [1] * 4)
    basis = GradedBasis(tuple(names), parities)
    jindex = {p: t for t, p in enumerate(jpairs)}
    P = lambda mu: 6 + mu
    Q = lambda a: 10 + a
    Qb = lambda a: 12 + a

    def jterm(coords, a, b, k: Scalar):
        if a == b or k.is_zero():
            return
        if a < b:
            t = jindex[(a, b)]
        else:
            t, k = jindex[(b, a)], -k
        coords[t] = coords.get(t, z) + k

    comp: dict[tuple[int, int], Vector] = {}
    for t, (mu, nu) in enumerate(jpairs):
        for (rho, sg) in jpairs[t + 1 :]:
            coords: dict[int, Scalar] = {}
            if nu == rho:
                jterm(coords, mu, sg, -iu * eta[nu])
            if mu == rho:
                jterm(coords, nu, sg, iu * eta[mu])
            if mu == sg:
                jterm(coords, nu, rho, -iu * eta[mu])
            if nu == sg:
                jterm(coords, mu, rho, iu * eta[nu])
            comp[(jindex[(mu, nu)], jindex[(rho, sg)])] = Vector(coords)

    for mu in range(4):
        for (rho, sg) in jpairs:
            coords = {}
            if mu == rho:
                coords[P(sg)] = -iu * eta[mu]
            if mu == sg:
                coords[P(rho)] = coords.get(P(rho), z) + iu * eta[mu]
            comp[(P(mu), jindex[(rho, sg)])] = Vector(coords)

    for a in range(2):
        for (mu, nu) in jpairs:
            S = smunu[(mu, nu)]
            comp[(Q(a), jindex[(mu, nu)])] = Vector({Q(b): S[a][b] for b in range(2)})
            T = tmunu[(mu, nu)]
            comp[(Qb(a), jindex[(mu, nu)])] = Vector({Qb(b): T[a][b] for b in range(2)})

    two = scalar(spec, 2)
    for a in range(2):
        for b in range(2):
            comp[(Q(a), Qb(b))] = Vector({P(mu): two * sigma[mu][a][b] * eta[mu] for mu in range(4)})

    return from_pairs(basis, spec, comp)

"""Finite groups as Cayley tables and their degree-0 linear actions, and
the one home of how a group acts.  resolve_reps is the rule for every rep=
argument: None means no group, a single ActionRep covers L and a module on
the same basis, and a pair (rep_L, rep_M) covers anything else.

swept_elements decides which elements an equivariance sweep visits.  A
FiniteGroup carries a generating set, read greedily off its Cayley table,
and is_representation proves, once per ActionRep, that g -> rho(g) is a
homomorphism by checking rho(s) rho(h) = rho(s h) for each generator s and
every h.  acts_by_automorphisms likewise keeps, per (ActionRep, algebra),
the verdict of the bracket sweep that validate_action runs.  When every
action a sweep reads is such a representation, an equation that each
generator satisfies holds for all of G, so the sweep visits the generators
only.  Otherwise it visits every element, except an identity that acts as
the identity.  One function, _equivariance_failures, sweeps
g t(x, y) = t(g x, g y) for the bracket (validate_action,
acts_by_automorphisms) and the module action (validate_module_action); it
re-runs over every element when a generator fails, so the reports list
each failing element.  The validators return superalgebra.Report, the list
of their counterexamples, each placed by a text where such as
"g=1, pair (x, y)".

An action keeps, for each group element, the sparse columns of its matrix
(the image of each basis vector as a {row: Scalar} dict), computed once or
handed over as columns by the parser and by the induced action.
The identity / homomorphism / degree-0 checks, the
bracket-equivariance sweeps of validate_action and validate_module_action,
the induced action on cochains and the fixed subspace all read these
columns.  Maps move along linear maps in one place each: pull_back for
cochains (also in is_equivariant and the gauge transform), morphism_defects
for bilinear tables (also in the extension certificate).  The element-wise
checks they replaced are kept in tests/util.py as test oracles.

The checks whose only answer is whether two sparse sums agree, rho(s)rho(h)
= rho(sh), the equivariance sweeps through morphism_defects (once per
sweep) and g v = v in the fixed-space certificate, map the columns
and tables they read once per call to exact integers (scalars.IntImage)
and add up each sum as Python ints; no Scalar arithmetic runs on their
success path.  pull_back, the induced action and the Reynolds sums return
values, so they stay on Scalars.

The fixed subspace is spanned by the pivot columns of the Reynolds operator
R = (1/|G|) sum_g g, built in one pass over sparse columns.  Every vector
that all of G fixes satisfies R v = v, so it lies in the image of R.  The
result therefore comes with a certificate: each returned column is checked
to be fixed by every group element (the identity is skipped only when it
acts as the identity), which proves that the span is exactly the fixed
space, and the character formula (1/|G|) sum_g tr g must give its
dimension.  This certificate does not assume that the induced matrices
form a representation, so it does not stop at the generators.  A sign slip
in an induced action, or matrices that do not form a representation, show
up here as an OracleDisagreement rather than as a silently wrong cohomology
dimension.  The certified columns are returned as they are, sparse, and
become the columns of cohomology._family.  The pivots are chosen on the
unscaled orbit sums sum_g g, and only the returned columns are scaled.

The induced action on C^n hands over unit columns for the identity when it
acts as one on both L and M, instead of pulling back every tuple.
_fixed_cochains builds the certified family of G-fixed n-cochains and the
parity of each column; it keeps nothing.  The family is kept once per
degree in the record of its complex (cohomology._Complex), read only after
resolve_reps has checked that the two actions are of one group, over one
field, on the spaces of L and of M.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product

from .errors import (
    BasisMismatch,
    FieldMismatch,
    LengthMismatch,
    OracleDisagreement,
    ValidationError,
)
from .graded import canonicalize_tuple, cochain_parities, superalt_basis
from .linalg import Matrix, Row, pivot_columns
from .scalars import FieldSpec, IntImage, Scalar, one, scalar, zero
from .superalgebra import LieSuperalgebra, LModule, Report


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as its Cayley table.  generators is computed from the
    table: an element joins it, in index order, when the elements found so
    far do not already generate it; so it generates the group, and it is
    empty for the trivial group."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    generators: tuple[int, ...] = field(init=False, repr=False, compare=False)

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
        gens: list[int] = []
        reached = {e}
        for g in range(n):
            if g in reached:
                continue
            gens.append(g)
            stack = list(reached)  # close the reached subgroup under the new generator set
            while stack:
                x = stack.pop()
                for s in gens:
                    y = self.table[x][s]
                    if y not in reached:
                        reached.add(y)
                        stack.append(y)
        object.__setattr__(self, "generators", tuple(gens))

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        return self.table[i].index(self.identity)


def cyclic_group(m: int) -> FiniteGroup:
    table = tuple(tuple((i + j) % m for j in range(m)) for i in range(m))
    return FiniteGroup(m, table, 0)


class ActionRep:
    """One linear map per group element on a graded space.

    columns[g][j] is the image of basis vector j under g, a sparse
    {row: Scalar} dict without zeros; the action checks, the
    induced action and the fixed subspace all read these.  The action is
    given by its dense matrices (constructed actions) or by its columns
    (parsed actions, the induced action on cochains); either way only the
    columns are kept, and matrices[g], the dense matrix whose columns are
    those images, is built on first use.  Besides these it keeps only its
    own verdicts (is_representation, acts_by_automorphisms); the G-fixed
    cochains live with their complex (cohomology._Complex).
    """

    def __init__(self, group: FiniteGroup, spec: FieldSpec, parities, matrices=None, columns=None):
        self.group, self.spec, self.parities = group, spec, tuple(parities)
        if (matrices is None) == (columns is None):
            raise TypeError("give the action by its matrices or by its columns")
        self._matrices = None
        self._is_representation: bool | None = None
        self._automorphisms: tuple[LieSuperalgebra, bool] | None = None  # (L, verdict)
        d = len(self.parities)
        if columns is None:
            if any(len(mat) != d or any(len(row) != d for row in mat) for mat in matrices):
                raise LengthMismatch("representation matrices must match the space")
            columns = [
                [{i: row[j] for i, row in enumerate(mat) if not row[j].is_zero()} for j in range(d)]
                for mat in matrices
            ]
        if len(columns) != group.order:
            raise LengthMismatch("need one matrix per group element")
        if any(len(cols) != d for cols in columns):
            raise LengthMismatch("representation columns must match the space")
        if any(col and not (0 <= min(col) and max(col) < d) for cols in columns for col in cols):
            raise ValueError("a column has an entry outside the space")
        self.columns: list[list[Row]] = columns

    @property
    def dim(self) -> int:
        return len(self.parities)

    @property
    def matrices(self) -> list[Matrix]:
        if self._matrices is None:
            z, d = zero(self.spec), self.dim
            self._matrices = []
            for cols in self.columns:
                mat = [[z] * d for _ in range(d)]
                for j, col in enumerate(cols):
                    for i, x in col.items():
                        mat[i][j] = x
                self._matrices.append(mat)
        return self._matrices

    def __eq__(self, other):
        return isinstance(other, ActionRep) and (
            self.group, self.spec, self.parities, self.columns
        ) == (other.group, other.spec, other.parities, other.columns)


def trivial_action(group: FiniteGroup, spec: FieldSpec, parities) -> ActionRep:
    o = one(spec)
    columns = [[{j: o} for j in range(len(parities))] for _ in range(group.order)]
    return ActionRep(group, spec, tuple(parities), columns=columns)


def permutation_rep(group: FiniteGroup, spec: FieldSpec, parities, perms) -> ActionRep:
    """perms[g][j] = index that basis vector j is sent to by g."""
    o = one(spec)
    return ActionRep(group, spec, tuple(parities), columns=[[{i: o} for i in perm] for perm in perms])


def diagonal_rep(group: FiniteGroup, spec: FieldSpec, parities, diags) -> ActionRep:
    """diags[g] = list of diagonal Scalars for the matrix of g."""
    columns = [[{} if c.is_zero() else {j: c} for j, c in enumerate(diag)] for diag in diags]
    return ActionRep(group, spec, tuple(parities), columns=columns)


def resolve_reps(rep, L: LieSuperalgebra, M: LModule) -> tuple[ActionRep, ActionRep] | None:
    """The rule for every rep= argument: None means no group, a single
    ActionRep covers L and a module on the algebra basis, and a pair
    (rep_L, rep_M) covers anything else.  Returns None or the pair.
    Anything else, a tuple or list of another length included, is a
    TypeError.

    It also checks what every (L, M, rep) entry point needs: M is a module
    of L, and the two actions are of one group, over one field, on the
    spaces of L and of M.
    """
    pair = isinstance(rep, (tuple, list)) and len(rep) == 2 and all(isinstance(r, ActionRep) for r in rep)
    if not (rep is None or isinstance(rep, ActionRep) or pair):
        raise TypeError("rep= takes None, an ActionRep, or a tuple or list of two ActionReps (rep_L, rep_M)")
    if M.algebra != L.basis:
        raise BasisMismatch("module is declared over a different algebra basis")
    if rep is None:
        return None
    if isinstance(rep, ActionRep):
        if M.space != L.basis:
            raise BasisMismatch("a single representation only covers a module on the algebra basis")
        rep_L = rep_M = rep
    else:
        rep_L, rep_M = rep
    if rep_L.group is not rep_M.group and rep_L.group != rep_M.group:
        raise ValidationError("algebra and module actions must share the group")
    if rep_L.spec != rep_M.spec:
        raise FieldMismatch("algebra and module actions live over different fields")
    if rep_L.parities != L.basis.parities or rep_M.parities != M.space.parities:
        raise BasisMismatch("representation spaces do not match algebra/module bases")
    return rep_L, rep_M


def _acts_as_one(rep: ActionRep, g: int) -> bool:
    o = one(rep.spec)
    return all(len(col) == 1 and col.get(j) == o for j, col in enumerate(rep.columns[g]))


def _scalars(rows):
    """The entries of an iterable of sparse rows, for an IntImage."""
    return (c for row in rows for c in row.values())


def _product_columns(cols_g: list[dict], cols_h: list[dict]) -> list[dict]:
    """The columns of g h as image sums, from the image columns of g and of h
    (cols_g indexed by row, as a list or a dict)."""
    out = []
    for col in cols_h:
        acc: dict[int, int] = {}
        for t, c in col.items():
            for s, x in cols_g[t].items():
                acc[s] = acc.get(s, 0) + c * x
        out.append(acc)
    return out


def _same_columns(image: IntImage, left: list[dict], right: list[dict], scale: int = 1) -> bool:
    """Whether the image columns left equal scale times the image columns
    right; left is used up."""
    for acc, col in zip(left, right):
        for s, x in col.items():
            acc[s] = acc.get(s, 0) - scale * x
        if not image.vanishes(acc):
            return False
    return True


def _homomorphism_defects(rep: ActionRep, pairs):
    """The pairs (g, h), in order, where (g)(h) differs from (g h).

    The columns of every element are mapped once to ints by one IntImage.
    An entry of (g)(h) is a sum of at most dim products of two entries, and
    the entry of (g h) is compared times the image of 1.
    """
    image = IntImage(rep.spec, _scalars(chain.from_iterable(rep.columns)), 2, rep.dim + 1)
    cols = [[image.row(col) for col in cols_g] for cols_g in rep.columns]
    for g, h in pairs:
        product_gh = _product_columns(cols[g], cols[h])
        if not _same_columns(image, product_gh, cols[rep.group.mul(g, h)], image.den):
            yield g, h


def is_representation(rep: ActionRep) -> bool:
    """Whether g -> rep.columns[g] is a homomorphism, computed once per rep.

    It is when the identity acts as one and s h acts as (s)(h) for every
    generator s and every h: each g is a product s_1 ... s_k of generators,
    so by induction g acts as (s_1) ... (s_k), and g h as (g)(h).  That is
    |generators| * |G| compositions instead of |G|^2.
    """
    if rep._is_representation is None:
        group = rep.group
        pairs = product(group.generators, range(group.order))
        rep._is_representation = _acts_as_one(rep, group.identity) and not any(
            _homomorphism_defects(rep, pairs)
        )
    return rep._is_representation


def _every_moving_element(*reps: ActionRep) -> list[int]:
    """Every group element, except the identity when it acts as the identity
    on each of the spaces of reps, where both sides of each equation agree."""
    group = reps[0].group
    e = group.identity
    skip = all(_acts_as_one(rep, e) for rep in reps)
    return [g for g in range(group.order) if g != e or not skip]


def swept_elements(*reps: ActionRep) -> list[int]:
    """The group elements that a sweep reading the spaces of reps must visit.

    When every rep is a representation, an equation that each generator
    satisfies holds for every product of generators, so the generators
    suffice.  Otherwise every element is visited, except an identity that
    acts as the identity on every one of those spaces.
    """
    if all(is_representation(rep) for rep in reps):
        return list(reps[0].group.generators)
    return _every_moving_element(*reps)


def _rep_structure_failures(rep: ActionRep) -> list:
    """The counterexamples to the identity, homomorphism and degree-0 checks.
    A verified representation passes the first two; otherwise every pair is
    compared, so the list names each failing pair."""
    group, failures = rep.group, []
    if not is_representation(rep):
        if not _acts_as_one(rep, group.identity):
            failures.append({"kind": "identity", "where": "identity element"})
        for g, h in _homomorphism_defects(rep, product(range(group.order), repeat=2)):
            failures.append({"kind": "homomorphism", "where": f"pair ({g}, {h})"})
    par = rep.parities
    for g, cols in enumerate(rep.columns):
        mixed = sorted((i, j) for j, col in enumerate(cols) for i in col if par[i] != par[j])
        failures += ({"kind": "degree", "where": f"g={g}, entry ({i}, {j})"} for i, j in mixed)
    return failures


def morphism_defects(src: dict, dst: dict, pairs: list[tuple[list[Row], list[Row]]]):
    """The (position, i, k), in order, where cols_y src(x_i, y_k) differs
    from dst(cols_x x_i, cols_y y_k) for the pair (cols_x, cols_y) at that
    position of pairs: bilinear tables {pair: Row} into the y space, and
    pairs of linear maps on the two factors.

    The tables and every pair are mapped once to ints by one IntImage, over
    the field of their entries.  Each entry of lhs - rhs is one sparse sum:
    of products of three entries from the right side, at most
    dim x * dim y of them, and of two entries times the image of 1 from the
    left, at most dim y.
    """
    read = [src.values()] if dst is src else [src.values(), dst.values()]
    for cols_x, cols_y in pairs:
        read += [cols_x] if cols_y is cols_x else [cols_x, cols_y]
    entries = _scalars(chain(*read))
    first = next(entries, None)
    if first is None or not pairs:  # every sum is empty
        return
    dim_x, dim_y = len(pairs[0][0]), len(pairs[0][1])
    image = IntImage(first.spec, chain((first,), entries), 3, dim_y * (dim_x + 1))
    src_int = {key: image.row(row) for key, row in src.items()}
    dst_int = src_int if dst is src else {key: image.row(row) for key, row in dst.items()}
    unit = image.den
    for position, (cols_x, cols_y) in enumerate(pairs):
        x_int = [image.row(col) for col in cols_x]
        y_int = x_int if cols_y is cols_x else [image.row(col) for col in cols_y]
        for i, gx in enumerate(x_int):
            for k, gy in enumerate(y_int):
                acc: dict[int, int] = {}
                for t, c in src_int.get((i, k), {}).items():
                    c *= unit
                    for s, y in y_int[t].items():
                        acc[s] = acc.get(s, 0) + c * y
                for a, x in gx.items():
                    for b, y in gy.items():
                        row = dst_int.get((a, b))
                        if row:
                            xy = x * y
                            for s, z in row.items():
                                acc[s] = acc.get(s, 0) - xy * z
                if acc and not image.vanishes(acc):
                    yield position, i, k


def _equivariance_failures(kind: str, table: dict, rep_x: ActionRep, rep_y: ActionRep, basis_x, basis_y) -> list:
    """The counterexamples to g t(x_i, y_k) = t(g x_i, g y_k), for a bilinear
    table t, {pair: Vector} (the bracket, or the module action), and the
    actions on the two factors: one morphism_defects call per sweep.

    It sweeps swept_elements(rep_x, rep_y).  When that finds a failure and
    skipped elements, it sweeps every moving element instead, so the list
    names each failing g.
    """
    rows = {key: vec.coords for key, vec in table.items()}

    def sweep(elements):
        pairs = [(rep_x.columns[g], rep_y.columns[g]) for g in elements]
        return [
            {"kind": kind, "where": f"g={elements[p]}, pair ({basis_x.names[i]}, {basis_y.names[k]})"}
            for p, i, k in morphism_defects(rows, rows, pairs)
        ]

    swept = swept_elements(rep_x, rep_y)
    failures = sweep(swept)
    if failures:
        everything = _every_moving_element(rep_x, rep_y)
        if swept != everything:
            failures = sweep(everything)
    return failures


def acts_by_automorphisms(rep: ActionRep, L: LieSuperalgebra) -> bool:
    """Whether every g preserves the bracket of L, proved once per (rep, L):
    validate_action records the verdict of its bracket sweep on rep, and a
    rep that never went through it runs the sweep here."""
    memo = rep._automorphisms
    if memo is None or memo[0] is not L:
        failures = _equivariance_failures("bracket equivariance", L.bracket.components, rep, rep, L.basis, L.basis)
        rep._automorphisms = (L, not failures)
    return rep._automorphisms[1]


def validate_action(rep: ActionRep, L: LieSuperalgebra) -> Report:
    if rep.parities != L.basis.parities:
        raise BasisMismatch("representation space does not match the algebra basis")
    report = Report(_rep_structure_failures(rep))
    failures = _equivariance_failures("bracket equivariance", L.bracket.components, rep, rep, L.basis, L.basis)
    rep._automorphisms = (L, not failures)
    report.counterexamples += failures
    return report


def validate_module_action(rep_L: ActionRep, rep_M: ActionRep, L: LieSuperalgebra, M: LModule) -> Report:
    resolve_reps((rep_L, rep_M), L, M)
    report = Report(_rep_structure_failures(rep_M))
    report.counterexamples += _equivariance_failures("action equivariance", M.act, rep_L, rep_M, L.basis, M.space)
    return report


def pull_back(
    A: list[Row], S: tuple[int, ...], parities, o: Scalar, memo: dict
) -> dict[tuple[int, ...], Scalar]:
    """f(A[s_1], ..., A[s_n]) as sum_T coeff[T] f(e_T), for any
    super-alternating f, with A[s] the sparse image of argument s (the columns
    of one map h, or images under different maps) and o the field's 1.

    Each index tuple picked from the columns is canonicalized with its Koszul
    sign (memo caches that across calls); coefficients that cancel stay in
    the result as zeros.
    """
    acc: dict[tuple[int, ...], Scalar] = {}
    for picks in product(*[A[s].items() for s in S]):
        K = tuple(i for i, _ in picks)
        if K not in memo:
            memo[K] = canonicalize_tuple(K, parities)
        if memo[K] is None:
            continue
        T, sign = memo[K]
        c = o if sign == 1 else -o
        for _, a in picks:
            c = c * a
        prev = acc.get(T)
        acc[T] = c if prev is None else prev + c
    return acc


def induced_action_on_cochains(
    rep_L: ActionRep, rep_M: ActionRep, L: LieSuperalgebra, M: LModule, n: int
) -> ActionRep:
    """Action (g.f)(x_1..x_n) = g f(g^{-1}x_1, ..., g^{-1}x_n) on coordinates.

    Built column by column from the sparse columns of g^{-1} on L and of g on
    M; the result is handed over as columns, so no dense matrix is filled.
    When the identity acts as one on both L and M, its columns are the unit
    columns, handed over without pulling back any tuple.
    """
    resolve_reps((rep_L, rep_M), L, M)
    spec = rep_L.spec
    group = rep_L.group
    canon = superalt_basis(L.basis, n)
    where = {T: k for k, T in enumerate(canon)}
    dimM = len(M.space)
    # cochain_coords order is tuple-major: (T, j) sits at where[T] * dimM + j.
    parities = tuple(cochain_parities(L.basis, n, M.space))
    o = one(spec)
    unit = _acts_as_one(rep_L, group.identity) and _acts_as_one(rep_M, group.identity)
    memo: dict = {}
    columns = []
    for g in range(group.order):
        if unit and g == group.identity:
            columns.append([{t: o} for t in range(len(parities))])
            continue
        A = rep_L.columns[group.inverse(g)]
        B = rep_M.columns[g]
        cols: list[Row] = [{} for _ in parities]
        for k, S in enumerate(canon):
            for T, c in pull_back(A, S, L.basis.parities, o, memo).items():
                if c.is_zero():
                    continue
                for j, image in enumerate(B):
                    col = cols[where[T] * dimM + j]
                    for r, b in image.items():
                        dst = k * dimM + r
                        prev = col.get(dst)
                        col[dst] = c * b if prev is None else prev + c * b
        columns.append([{i: x for i, x in col.items() if not x.is_zero()} for col in cols])
    return ActionRep(group, spec, parities, columns=columns)


def equivariant_subspace(rep: ActionRep) -> list[Row]:
    """Basis of the vectors fixed by every group element, as sparse columns.

    The basis is the pivot columns of the Reynolds operator
    R = (1/|G|) sum_g g, read left to right, each a {row: Scalar} dict
    without zeros, returned as certified.  The pivots are chosen on the
    orbit sums sum_g g, which have the same pivot columns, and only the
    returned columns are scaled by 1/|G|.  Certificate: each returned
    column v has g v = v for every g (an identity that acts as the identity
    is not multiplied out), so the columns, independent by
    construction, span exactly the fixed space (any fixed v has R v = v);
    and their count must equal the character formula (1/|G|) sum_g tr g.
    Either failure raises OracleDisagreement.
    """
    spec, group = rep.spec, rep.group
    sums: list[Row] = [{} for _ in range(rep.dim)]
    trace_sum = zero(spec)
    for cols in rep.columns:
        for j, col in enumerate(cols):
            acc = sums[j]
            for i, x in col.items():
                prev = acc.get(i)
                acc[i] = x if prev is None else prev + x
            if j in col:
                trace_sum = trace_sum + col[j]
    inv_order = scalar(spec, Fraction(1, group.order))
    fixed = [
        {i: x * inv_order for i, x in sums[c].items() if not x.is_zero()} for c in pivot_columns(sums)
    ]

    moving = _every_moving_element(rep)
    support = set().union(*fixed)  # the columns of g that g v reads
    read = chain(_scalars(fixed), _scalars(rep.columns[g][j] for g in moving for j in support))
    image = IntImage(spec, read, 2, rep.dim + 1)
    fixed_int = [image.row(v) for v in fixed]
    for g in moving:
        cols = {j: image.row(rep.columns[g][j]) for j in support}
        if not _same_columns(image, _product_columns(cols, fixed_int), fixed_int, image.den):
            raise OracleDisagreement(f"group element {g} moves a column of the Reynolds operator")

    if trace_sum != scalar(spec, group.order * len(fixed)):
        raise OracleDisagreement(
            f"character formula gives {trace_sum}, but the fixed space has "
            f"dimension {len(fixed)}"
        )
    return fixed


def _fixed_cochains(
    rep_L: ActionRep, rep_M: ActionRep, L: LieSuperalgebra, M: LModule, n: int
) -> tuple[list[Row], list[int]]:
    """The certified basis of the G-fixed n-cochains (equivariant_subspace of
    the induced action on C^n) and the parity of each column."""
    induced = induced_action_on_cochains(rep_L, rep_M, L, M, n)
    cols = equivariant_subspace(induced)
    parities = []
    for col in cols:
        found = {induced.parities[t] for t in col}
        if len(found) != 1:
            raise ValidationError("fixed-space basis vector mixes parities")
        parities.append(found.pop())
    return cols, parities

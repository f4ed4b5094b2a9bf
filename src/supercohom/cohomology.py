"""The equivariant cochain complex and its coboundary.

Cochains are stored by their coordinates on canonical index tuples only.  A
basis of C^n, or of its G-fixed subspace under a group, has one form: the
_family, sparse columns over the raw cochain_coords indices with one parity
per column (the unit coordinates, or the certified Reynolds columns of
group_action.equivariant_subspace).  Only _family builds it; cochain_basis
wraps its columns as Cochains, and cohomology builds Cochains only for the
representatives, per parity and only when that parity is first read
(_Representatives).

The coboundary is assembled by one sweep over the canonical (n+1)-tuples
(_delta_rows): each bracket and module-action term goes straight into a
sparse row of delta^n, with its sign read off from prefix parity sums and
from inserting one index into a canonical tuple.  The sweep takes the
columns of a family and multiplies by its matrix on the fly, so the
equivariant complex delta . B comes out sparse as well; with one cochain's
coordinates as the only column it is coboundary(f).  Ranks, kernels and
pivot columns then come from the sparse Gauss-Jordan kernel of linalg, and
"is this cochain a coboundary of an (equivariant) one?" is one row-form
solve on the rows of the sweep, coboundary_preimage(n, L, M, rep, target).
The per-cochain coboundary this sweep replaced is kept in tests/util.py as
a test oracle.

cohomology reduces only one block of the complex.  The torus h is spanned by
the even basis elements x whose ad(x) is diagonal in the given basis, which
act diagonally on M and which every group element fixes.  Every coordinate
(T, j) of C^n then has a weight under h, wt(j) - sum of wt(t) over t in T,
and delta preserves it, so delta^n is block diagonal.  By Cartan's formula
L_x = delta i_x + i_x delta, with L_x = lambda(x) on the block of weight
lambda, every block of nonzero weight is acyclic (Hochschild-Serre; Fuks,
ch. 1), and so is its G-fixed part, since G fixes x.  Its ranks follow from
its dimensions, rank delta^n = sum over k <= n of (-1)^(n-k) dim C^k, per
parity; only the weight-0 block is assembled and eliminated.  RREFs, pivot
columns and the greedy choice of representatives split by block, so the
report, representatives included, is the one of the full complex, which
tests/util.py keeps as full_cohomology.  Weights are exact integers: the
eigenvalues' power-basis numerators over one denominator, packed as the
digits of one int (_weights), so the weight of a tuple is an int sum.

A complex C^*_G(L, M) has at most one record, a _Complex on the module,
reached through _complex after resolve_reps has checked the actions and
made only by cohomology and by _family under a group.  It keeps only what
a later call reads: the torus, found once; per degree, the G-fixed _family
of C^n, so each is certified once; and per degree k, the pivot columns of
delta^k by parity and its rank off weight 0.  Since B^n is the image of
delta^(n-1), walking n = 0, 1, 2, ... sweeps and reduces each delta^k once.
The unit family, sweep rows and reduced rows are not kept, and the oracle
full_cohomology reads no record.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from math import lcm

from .errors import BasisMismatch, DegreeMismatch, ValidationError
from .graded import GradedBasis, Vector, canonicalize_tuple, cochain_coords, cochain_parities, superalt_basis
from .group_action import (
    ActionRep,
    _fixed_cochains,
    pull_back,
    resolve_reps,
    swept_elements,
)
from .linalg import Row, lin_comb, nullspace_from_rref, pivot_columns, rref_rows, solve_rows
from .scalars import Scalar, one, zero
from .superalgebra import LieSuperalgebra, LModule


@dataclass
class Cochain:
    arity: int
    parity: int
    algebra: GradedBasis
    space: GradedBasis
    coords: dict[tuple[tuple[int, ...], int], Scalar]

    def __post_init__(self):
        clean = {}
        par = self.algebra.parities
        idx_L, idx_M = set(range(len(par))), set(range(len(self.space)))
        for (T, j), c in self.coords.items():
            T = tuple(T)
            if len(T) != self.arity:
                raise ValueError(f"key {T} does not have arity {self.arity}")
            if j not in idx_M or not idx_L.issuperset(T):
                raise ValueError(f"coordinate ({T}, {j}) indexes outside the basis")
            if canonicalize_tuple(T, par) != (T, 1):
                raise ValueError(f"key {T} is not a canonical index tuple")
            want = (sum(par[i] for i in T) + self.space.parities[j]) % 2
            if want != self.parity % 2:
                raise ValueError(
                    f"coordinate ({T}, {j}) has parity {want}, cochain is tagged {self.parity}"
                )
            if not c.is_zero():
                clean[(T, j)] = c
        self.coords = clean

    def is_zero(self) -> bool:
        return not self.coords

    def by_tuple(self) -> dict[tuple[int, ...], Vector]:
        """The nonzero values f(e_T) at canonical tuples T, in tuple order."""
        out: dict[tuple[int, ...], Row] = {}
        for (T, j), c in sorted(self.coords.items()):
            out.setdefault(T, {})[j] = c
        return {T: Vector(coords) for T, coords in out.items()}

    def add(self, other: "Cochain") -> "Cochain":
        if (self.arity, self.parity) != (other.arity, other.parity):
            raise ValueError("can only add cochains of equal arity and parity")
        if (self.algebra, self.space) != (other.algebra, other.space):
            raise ValueError("can only add cochains over the same algebra and space")
        merged = dict(self.coords)
        for key, c in other.coords.items():
            s = merged.get(key)
            merged[key] = c if s is None else s + c
        return _new_cochain(self.arity, self.parity, self.algebra, self.space, merged)

    def scale(self, a: Scalar) -> "Cochain":
        return _new_cochain(
            self.arity,
            self.parity,
            self.algebra,
            self.space,
            {k: a * c for k, c in self.coords.items()},
        )


def _new_cochain(arity: int, parity: int, algebra: GradedBasis, space: GradedBasis, coords: dict) -> Cochain:
    """A Cochain whose keys src/ derives from canonical tuples, so each is in
    range, canonical and of the given parity: only the zero values are
    dropped.  The public constructor checks every key."""
    f = object.__new__(Cochain)
    f.arity, f.parity, f.algebra, f.space = arity, parity, algebra, space
    f.coords = {key: c for key, c in coords.items() if not c.is_zero()}
    return f


def zero_cochain(n: int, parity: int, L: LieSuperalgebra, M: LModule) -> Cochain:
    return Cochain(n, parity, L.basis, M.space, {})


def is_equivariant(f: Cochain, rep_L: ActionRep, rep_M: ActionRep, L, M) -> bool:
    """Whether g.f = f for every g, with (g.f)(x_1..x_n) = g f(g^-1 x_1, ..., g^-1 x_n).

    f's coordinates are grouped by canonical tuple.  For each canonical T,
    f(g^-1 e_T) is read off through the sparse columns of g^-1 (pull_back),
    pushed through the sparse columns of g, and compared once with f(T).
    """
    if not f.coords:  # 0 is fixed by every g
        return True
    by_tuple = {T: v.coords for T, v in f.by_tuple().items()}
    o = one(L.spec)
    memo: dict = {}
    group = rep_L.group
    canon = superalt_basis(L.basis, f.arity)
    for g in swept_elements(rep_L, rep_M):
        A = rep_L.columns[group.inverse(g)]
        B = rep_M.columns[g]
        for T in canon:
            terms = pull_back(A, T, L.basis.parities, o, memo).items()
            value = lin_comb((c, by_tuple[S]) for S, c in terms if S in by_tuple)
            if lin_comb((c, B[j]) for j, c in value.items()) != by_tuple.get(T, {}):
                return False
    return True


def coboundary(f: Cochain, L: LieSuperalgebra, M: LModule, rep=None) -> Cochain:
    col = _column(f, f.arity, L, M)
    reps = resolve_reps(rep, L, M)
    if reps is not None and not is_equivariant(f, reps[0], reps[1], L, M):
        raise ValidationError("cochain is not equivariant under the given action")
    rows = _delta_rows(f.arity, L, M, [col])
    return _cochains([{r: row[0] for r, row in rows.items()}], [f.parity], f.arity + 1, L, M)[0]


def _column(f: Cochain, n: int, L: LieSuperalgebra, M: LModule) -> Row:
    """The n-cochain f as a sparse column over the raw indices of C^n, the
    order of cochain_coords: (T, j) sits at t * dim M + j, with T the t-th
    tuple of superalt_basis.  This and _cochains are the layout's only
    readers.  A cochain over another algebra or space raises BasisMismatch,
    one of another arity DegreeMismatch."""
    if f.algebra != L.basis or f.space != M.space:
        raise BasisMismatch("cochain does not live over the given algebra and module")
    if f.arity != n:
        raise DegreeMismatch(f"cochain has arity {f.arity}, not {n}")
    tpos = {T: t for t, T in enumerate(superalt_basis(L.basis, n))}
    return {tpos[T] * len(M.space) + j: c for (T, j), c in f.coords.items()}


def _map_columns(f: Cochain) -> list[Row]:
    """The 1-cochain f read as a linear map: its sparse columns, the image of
    each basis vector of the algebra."""
    cols: list[Row] = [{} for _ in f.algebra.names]
    for ((t,), r), c in f.coords.items():
        cols[t][r] = c
    return cols


def _cochains(cols: list[Row], parities: list[int], n: int, L: LieSuperalgebra, M: LModule) -> list[Cochain]:
    """The sparse columns cols over the raw indices of C^n as n-cochains of
    the given parities."""
    canon, dimM = superalt_basis(L.basis, n), len(M.space)
    out = []
    for col, p in zip(cols, parities):
        coords = {(canon[t // dimM], t % dimM): c for t, c in sorted(col.items())}
        out.append(_new_cochain(n, p, L.basis, M.space, coords))
    return out


def _delta_rows(n: int, L: LieSuperalgebra, M: LModule, cols: list[Row], wt=None) -> dict[int, Row]:
    """delta^n . B as sparse rows, in one sweep over the canonical (n+1)-tuples.

    cols is a family of n-cochains as sparse columns over the raw indices of
    cochain_coords(L.basis, n, M.space): a _family, or one cochain's
    coordinates.  B is their matrix, transposed here to rows (raw index ->
    {member: coefficient}).  Row r of the result is coordinate r of
    cochain_coords(L.basis, n + 1, M.space); zero rows are left out.  When
    the packed weights wt of _weights are given, the columns must have
    weight 0, and the (n+1)-tuples without a coordinate of weight 0 are
    skipped: delta preserves weight, so their rows are zero.

    Every bracket term f([x_a, x_b], rest) and every action term
    x_i . f(S without i) of delta f(S) is emitted once per tuple S.  The sign
    of f at (t,) + rest comes from inserting t into the canonical tuple rest:
    an even t passes the k entries below it, an odd t passes every even entry
    (odd past odd is a Koszul swap that cancels the transposition).  This is
    canonicalize_tuple's sign for one inserted index, written inline because
    this is the assembly hot loop; tests/util.coboundary_raw, which reads
    every value through canonicalize_tuple, checks it.  A term whose n-tuple
    T has no column (T, j) in B is dropped before any scalar arithmetic, so
    one sparse cochain pays only for the terms it meets.
    """
    B: dict[int, Row] = {}
    for k, col in enumerate(cols):
        for t, c in col.items():
            B.setdefault(t, {})[k] = c
    if not B:  # delta of zero columns has only zero rows, which are left out
        return {}
    par, parM = L.basis.parities, M.space.parities
    dimM = len(parM)
    tpos = {T: t for t, T in enumerate(superalt_basis(L.basis, n))}
    live = {t // dimM for t in B}  # the n-tuples T with a column (T, j) in B
    if wt is not None:
        wL, wM = wt
        reached = set(wM)
    out: dict[int, Row] = {}
    for s, S in enumerate(superalt_basis(L.basis, n + 1)):
        if wt is not None and sum([wL[x] for x in S]) not in reached:
            continue
        pars = [par[x] for x in S]
        pre = [0]
        for q in pars:
            pre.append(pre[-1] + q)
        on_tuple: dict[int, Scalar] = {}  # bracket terms: index of T -> coefficient of f(T)
        for a in range(n + 1):
            for b in range(a + 1, n + 1):
                br = L.bracket.at((S[a], S[b]))
                if br.is_zero():
                    continue
                rest = S[:a] + S[a + 1 : b] + S[b + 1 :]
                exp = a + b + (pars[a] + pars[b]) * pre[a] + pars[b] * (pre[b] - pre[a + 1])
                evens = n - 1 - (pre[n + 1] - pars[a] - pars[b])
                for t, c in br.coords.items():
                    k = bisect_left(rest, t)
                    if par[t]:
                        e = exp + evens
                    elif k < len(rest) and rest[k] == t:
                        continue
                    else:
                        e = exp + k
                    T = tpos[rest[:k] + (t,) + rest[k:]]
                    if T not in live:
                        continue
                    term = -c if e % 2 else c
                    prev = on_tuple.get(T)
                    on_tuple[T] = term if prev is None else prev + term
        raw: dict[int, Row] = {}  # module index j -> {raw column of C^n: coefficient}
        for T, c in on_tuple.items():
            if c.is_zero():
                continue
            for j in range(dimM):
                col = T * dimM + j
                if col in B:
                    raw.setdefault(j, {})[col] = c
        for i in range(n + 1):
            T = tpos[S[:i] + S[i + 1 :]]
            par_T = pre[n + 1] - pars[i]
            for jp in range(dimM):
                act = M.act.get((S[i], jp))
                col = T * dimM + jp
                if act is None or col not in B:
                    continue
                odd = (i + pars[i] * (par_T + parM[jp] + pre[i])) % 2
                for j, x in act.coords.items():
                    term = -x if odd else x
                    entries = raw.setdefault(j, {})
                    prev = entries.get(col)
                    entries[col] = term if prev is None else prev + term
        for j in sorted(raw):
            row: Row = {}
            for col, c in raw[j].items():
                if c.is_zero():
                    continue
                for k, x in B[col].items():
                    prev = row.get(k)
                    row[k] = c * x if prev is None else prev + c * x
            row = {k: x for k, x in row.items() if not x.is_zero()}
            if row:
                out[s * dimM + j] = row
    return out


def _torus(L: LieSuperalgebra, M: LModule, reps) -> list[int]:
    """The basis of the torus h: the even basis elements x with ad(x)
    diagonal in the basis of L, acting diagonally on M, and fixed by every
    group element.  One pass over the bracket and action tables and the
    columns of the group elements."""
    moved = {x for (x, y), v in L.bracket.components.items() if v.coords.keys() - {y}}
    moved |= {x for (x, j), v in M.act.items() if v.coords.keys() - {j}}
    h = [x for x, p in enumerate(L.basis.parities) if p == 0 and x not in moved]
    if reps is not None:
        o, rep_L = one(L.spec), reps[0]
        swept = [rep_L.columns[g] for g in swept_elements(rep_L)]
        h = [x for x in h if all(cols[x] == {x: o} for cols in swept)]
    return h


@dataclass(eq=False)
class _Complex:
    """What later calls read of one cochain complex C^*_G(L, M), made by _complex.

    torus is h (_torus) and eigen its eigenvalue table: per basis vector of
    L, then of M, the power-basis numerators of its eigenvalues under h over
    one common denominator, or None when all are 0.  families[n] is the
    unfiltered G-fixed _family of C^n, (columns, parities).  images[k] and
    ranks[k] are what _reduce keeps of delta^k: its pivot columns by parity
    and its rank off weight 0 per parity.  refs are weak references to L
    and the actions.
    """

    refs: list
    torus: list[int]
    eigen: tuple[list[list[int]], list[list[int]]] | None
    families: dict = field(default_factory=dict)
    images: dict = field(default_factory=dict)
    ranks: dict = field(default_factory=dict)


def _complex(L: LieSuperalgebra, M: LModule, reps) -> _Complex:
    """The record of the complex of (L, M, reps), reps as resolve_reps
    returns them, in M._complexes under the identities of L and the actions.
    Its weak references to them drop it when one dies, so no id is reused
    while it lives and M keeps none of them alive."""
    objs = (L, *reps) if reps is not None else (L,)
    key = tuple(map(id, objs))
    cx = M._complexes.get(key)
    if cx is None:
        home = weakref.ref(M)

        def drop(_):
            module = home()
            if module is not None:
                module._complexes.pop(key, None)

        h = _torus(L, M, reps)
        z = zero(L.spec)
        br, act = L.bracket.components, M.act
        eigen = [[br[(x, y)].coords[y] if (x, y) in br else z for x in h] for y in range(len(L.basis))]
        eigen += [[act[(x, j)].coords[j] if (x, j) in act else z for x in h] for j in range(len(M.space))]
        den = lcm(*[c.den for row in eigen for c in row])
        digits = [[d * (den // c.den) for c in row for d in c.num] for row in eigen]
        table = (digits[: len(L.basis)], digits[len(L.basis) :]) if any(map(any, digits)) else None
        cx = M._complexes[key] = _Complex([weakref.ref(x, drop) for x in objs], h, table)
    return cx


def _weights(terms: int, cx: _Complex) -> tuple[list[int], list[int]] | None:
    """The weights under h of the basis of L and of M, packed into ints, or
    None when every weight is 0.

    The weight of a basis vector is its eigenvalue under each x in h.  Its
    digits in cx.eigen become the digits of one int in a base greater than
    2 * terms * (the largest digit).  No digit of a signed sum of at most
    `terms` packed weights can carry, so such a sum is 0 exactly when the
    weights sum to 0.
    """
    if cx.eigen is None:
        return None
    base = 2 * terms * max([abs(d) for rows in cx.eigen for row in rows for d in row]) + 1
    return tuple([sum([d * base**k for k, d in enumerate(row)]) for row in rows] for rows in cx.eigen)


def _family(
    n: int, L: LieSuperalgebra, M: LModule, rep=None, wt=None
) -> tuple[list[Row], list[int], list[int]]:
    """A basis of C^n, or of its G-fixed subspace when rep is given, as
    sparse columns over the raw cochain_coords indices, their parities, and
    the number of basis members of each parity left out.

    Without a group the members are the coordinate unit vectors, built on
    each call and kept nowhere.  With one they are the certified Reynolds
    columns of equivariant_subspace (group_action._fixed_cochains); each is
    homogeneous, since the action is even, and lies in one weight, since G
    fixes h.  They are built once per degree and kept in the record of the
    complex (_complex), whose lists and column dicts must not be mutated.
    When the packed weights wt of _weights are given, only the members of
    weight 0 are kept.
    """
    reps = resolve_reps(rep, L, M)
    if reps is None:
        all_par = cochain_parities(L.basis, n, M.space)
        o = one(L.spec)
        all_cols = [{t: o} for t in range(len(all_par))]
    else:
        families = _complex(L, M, reps).families
        if n not in families:
            families[n] = _fixed_cochains(reps[0], reps[1], L, M, n)
        all_cols, all_par = families[n]
    if wt is None:
        return all_cols, all_par, [0, 0]
    wL, wM = wt
    weight = [w - s for s in (sum([wL[x] for x in T]) for T in superalt_basis(L.basis, n)) for w in wM]
    cols, parities, left_out = [], [], [0, 0]
    for col, p in zip(all_cols, all_par):
        if weight[min(col)] == 0:
            cols.append(col)
            parities.append(p)
        else:
            left_out[p] += 1
    return cols, parities, left_out


def cochain_basis(n: int, L: LieSuperalgebra, M: LModule, rep=None) -> list[Cochain]:
    """Basis cochains of C^n (equivariant basis when a representation is given):
    the columns of _family as Cochains."""
    cols, parities, _ = _family(n, L, M, rep)
    return _cochains(cols, parities, n, L, M)


def coboundary_preimage(
    n: int, L: LieSuperalgebra, M: LModule, rep, target: Cochain
) -> Cochain | None:
    """An n-cochain f with delta f = target, equivariant when rep is given,
    or None.

    One row-form solve (linalg.solve_rows) of delta^n . B x = target, with B
    the _family of C^n, over the rows of the sweep and an empty row for each
    coordinate of the target that delta . B does not reach.  Free variables
    are zero, so f is unique.  delta preserves parity, so members of the
    other parity than the target never get a pivot value.  The target is
    checked by _column.
    """
    target_col = _column(target, n + 1, L, M)
    cols = _family(n, L, M, rep)[0]
    rows = _delta_rows(n, L, M, cols)
    rhs = dict.fromkeys(rows, zero(L.spec))
    rhs.update(target_col)
    sol = solve_rows([rows.get(r, {}) for r in rhs], list(rhs.values()), len(cols))
    if sol is None:
        return None
    return _cochains([lin_comb((c, cols[k]) for k, c in sol.items())], [target.parity], n, L, M)[0]


def _dense_delta(n: int, L, M, cols: list[Row]):
    """delta^n . B as a dense matrix over the raw (n+1)-coordinates, with B
    the sparse columns cols over the raw n-coordinates."""
    rows = _delta_rows(n, L, M, cols)
    z = zero(L.spec)
    mat = []
    for r in range(len(cochain_coords(L.basis, n + 1, M.space))):
        row = rows.get(r)
        mat.append([z] * len(cols) if row is None else [row.get(k, z) for k in range(len(cols))])
    return mat


def _matrix_from_basis(basis_cochains: list[Cochain], n: int, L, M):
    """Columns: coboundaries of the basis cochains, in raw (n+1)-coordinates."""
    return _dense_delta(n, L, M, [_column(f, n, L, M) for f in basis_cochains])


def coboundary_matrix(n: int, L: LieSuperalgebra, M: LModule, rep=None):
    """The dense matrix of delta^n on the _family of C^n."""
    return _dense_delta(n, L, M, _family(n, L, M, rep)[0])


@dataclass
class CohomologyReport:
    n: int
    c_dims: tuple[int, int]
    z_dims: tuple[int, int]
    b_dims: tuple[int, int]
    h_dims: tuple[int, int]
    representatives: Mapping[int, list[Cochain]] = field(default_factory=dict)


class _Representatives(Mapping):
    """The representatives of H^n by parity, each parity built the first
    time it is read, or assigned.

    A parity's representatives are the kernel vectors of delta^n of that
    parity, in free-column order, that extend the pivot columns of
    delta^(n-1) of that parity to a basis of its cocycles: the greedy rule,
    one pivot_columns per parity.  Until both parities are built the mapping
    holds what they read: the reduced rows and pivots of delta^n, replaced
    on the first read by its kernel split by parity; the weight-0 _family
    of C^n with its parities; and the record's pivot images of delta^(n-1).
    Then it drops them.
    """

    def __init__(self, n: int, L, M, dom: list[Row], dom_par: list[int], rref, images):
        self._built: dict[int, list[Cochain]] = {}
        self._rref, self._kernel = rref, None
        self._inputs = (n, L, M, dom, dom_par, images)

    def __getitem__(self, p: int) -> list[Cochain]:
        if p not in self._built:
            if p not in (0, 1):
                raise KeyError(p)
            n, L, M, dom, dom_par, images = self._inputs
            if self._kernel is None:  # the first read
                kernel = nullspace_from_rref(*self._rref, len(dom), L.spec)
                self._kernel = {q: [v for fc, v in kernel.items() if dom_par[fc] == q] for q in (0, 1)}
                self._rref = None
            img = images[p]
            ker = [lin_comb((c, dom[k]) for k, c in v.items()) for v in self._kernel.pop(p)]
            chosen = [ker[q - len(img)] for q in pivot_columns(img + ker) if q >= len(img)]
            self[p] = _cochains(chosen, [p] * len(chosen), n, L, M)
        return self._built[p]

    def __setitem__(self, p: int, cochains: list[Cochain]) -> None:
        self._built[p] = cochains
        if self._built.keys() >= {0, 1}:
            self._rref = self._kernel = self._inputs = None

    def __iter__(self):
        return iter((0, 1))

    def __len__(self) -> int:
        return 2


def _pivot_images(rows: dict[int, Row], pivots: list[int], parities: list[int]) -> tuple[list[Row], list[Row]]:
    """The columns of the sweep rows at the pivots, in raw coordinates and in
    pivot order, split by the parity of their family member: one pass over
    the nonzeros of the rows."""
    images: dict[int, Row] = {k: {} for k in pivots}
    for r, row in rows.items():
        for k, x in row.items():
            if k in images:
                images[k][r] = x
    return tuple([col for k, col in images.items() if parities[k] == p] for p in (0, 1))


def _off_rank(k: int, L, M, rep, cx: _Complex, wt, left_out=None) -> list[int]:
    """The rank of delta^k off weight 0 per parity, kept in cx.ranks.  Those
    blocks are acyclic, so it is dim C^k off weight 0 (the left_out of
    _family, unless given) minus the rank of delta^(k-1) there."""
    if k < 0 or wt is None:
        return [0, 0]
    if k not in cx.ranks:
        below = _off_rank(k - 1, L, M, rep, cx, wt)
        cx.ranks[k] = [d - r for d, r in zip(left_out or _family(k, L, M, rep, wt)[2], below)]
    return cx.ranks[k]


def _reduce(k: int, L, M, rep, cx: _Complex, wt):
    """The step of cohomology: sweep delta^k on the weight-0 _family of C^k,
    reduce it, and record its pivot columns by parity and its rank off weight
    0 in cx.  Returns the _family and the reduced rows with their pivots."""
    dom, dom_par, left_out = _family(k, L, M, rep, wt)
    rows = _delta_rows(k, L, M, dom, wt)
    reduced, pivots = rref_rows(rows.values())
    if k not in cx.images:
        cx.images[k] = _pivot_images(rows, pivots, dom_par)
    _off_rank(k, L, M, rep, cx, wt, left_out)
    return dom, dom_par, left_out, reduced, pivots


def cohomology(n: int, L: LieSuperalgebra, M: LModule, rep=None) -> CohomologyReport:
    """Dimensions of C, Z, B and H in degree n per parity, and representatives.

    Only the block of weight 0 under the torus h (_weights) is assembled and
    reduced, by one step (_reduce) per coboundary: one sweep on the weight-0
    _family of its domain (the unit coordinates, or the fixed-space columns
    under a group) and one reduction; the two parities are the two diagonal
    blocks of that reduced form.  The blocks of nonzero weight are acyclic,
    so only their dimensions are counted (_off_rank).  With h empty, or
    every weight 0, the block is the whole complex.

    The call stops at the dimensions.  The representatives of H^n are built
    per parity the first time report.representatives[p] is read
    (_Representatives): the kernel vectors, in free-column order, that
    extend the pivot columns of delta^(n-1) to a basis of the cocycles;
    only they become Cochains.  Until then the report holds the reduced
    rows of delta^n.

    B^n is all that degree n needs of delta^(n-1), so the step keeps the
    pivot columns of each delta^k it reduces, with its rank off weight 0, in
    the record of the complex (_complex), which fixes the torus once.  A
    call for degree n after one for n - 1 or n on the same objects then
    sweeps and reduces delta^n only; a cold call also takes the step for
    delta^(n-1).
    """
    reps = resolve_reps(rep, L, M)
    cx = _complex(L, M, reps)
    wt = _weights(n + 2, cx)
    if n > 0 and n - 1 not in cx.images:
        _reduce(n - 1, L, M, rep, cx, wt)
    dom, dom_par, left_out, reduced, pivots = _reduce(n, L, M, rep, cx, wt)
    images = cx.images[n - 1] if n > 0 else ([], [])
    counted = _off_rank(n - 1, L, M, rep, cx, wt)

    c_dims, z_dims, b_dims, h_dims = [0, 0], [0, 0], [0, 0], [0, 0]
    for p in (0, 1):
        c_dims[p] = dom_par.count(p) + left_out[p]
        z_dims[p] = dom_par.count(p) - sum(1 for k in pivots if dom_par[k] == p) + counted[p]
        b_dims[p] = len(images[p]) + counted[p]
        h_dims[p] = z_dims[p] - b_dims[p]
    return CohomologyReport(
        n,
        tuple(c_dims),
        tuple(z_dims),
        tuple(b_dims),
        tuple(h_dims),
        _Representatives(n, L, M, dom, dom_par, (reduced, pivots), images),
    )


def annihilator(L: LieSuperalgebra, M: LModule, rep=None) -> list[Vector]:
    """Basis of {m in M_0 : [x, m] = 0 for all x}, fixed by G when given.

    Assembled directly from the action table; shares nothing with the
    coboundary machinery.
    """
    reps = resolve_reps(rep, L, M)
    return _fixed_even_vectors(M, reps[1] if reps else None, L.spec, range(len(L.basis)))


def _fixed_even_vectors(M: LModule, rep_M: ActionRep | None, spec, acting=()) -> list[Vector]:
    """Basis of the even m with g.m = m for every g, and x_i.m = 0 for i in
    acting.  A vector m is the map 1 -> m from a point on which G acts
    trivially, so g.m = m is its _commuting_rows."""
    evens = [j for j, p in enumerate(M.space.parities) if p == 0]
    rows: list[Row] = []
    for i in acting:
        acts = [(k, M.act.get((i, j))) for k, j in enumerate(evens)]
        for r in range(len(M.space)):
            rows.append({k: v.coords[r] for k, v in acts if v is not None and r in v.coords})
    if rep_M is not None:
        point, vpos = [{0: one(spec)}], {(0, j): k for k, j in enumerate(evens)}
        for g in swept_elements(rep_M):
            rows += _commuting_rows(point, rep_M.columns[g], vpos)
    kernel = nullspace_from_rref(*rref_rows(rows), len(evens), spec)
    return [Vector({evens[k]: c for k, c in sorted(v.items())}) for v in kernel.values()]


def _add(row: Row, k: int, c: Scalar) -> None:
    row[k] = row[k] + c if k in row else c


def _commuting_rows(cols_x: list[Row], cols_y: list[Row], vpos: dict[tuple[int, int], int]) -> list[Row]:
    """The linear conditions D(g e_i) = g D(e_i) on a degree-0 map D from X
    to Y, for the columns of g on X and on Y, whose unknown coordinate
    D(e_i)_j is variable vpos[(i, j)] (a coordinate not in vpos is 0): per
    basis vector e_i of X and coordinate r of Y, the row of
    sum_t g_ti D(e_t)_r - sum_j g_rj D(e_i)_j."""
    rows: list[Row] = []
    for i, gi in enumerate(cols_x):
        for r in range(len(cols_y)):
            row: Row = {}
            for t, x in gi.items():
                if (t, r) in vpos:
                    _add(row, vpos[(t, r)], x)
            for j, col in enumerate(cols_y):
                if (i, j) in vpos and r in col:
                    _add(row, vpos[(i, j)], -col[r])
            rows.append(row)
    return rows


def derivations(L: LieSuperalgebra, M: LModule, rep=None):
    """(basis of Der^G, basis of Der^G_Inn) as degree-0 1-cochains.

    The derivation constraints, and x -> x.m for the inner derivations, are
    read off the tables here, and D g = g D for each swept g is
    _commuting_rows; only the elimination kernel is shared with the
    coboundary path.
    """
    reps = resolve_reps(rep, L, M)
    spec = L.spec
    parL, parM = L.basis.parities, M.space.parities
    # the even coordinates ((i,), j) of C^1, the unknowns of the constraints
    variables = [((i,), j) for i in range(len(parL)) for j in range(len(parM)) if parL[i] == parM[j]]
    vpos = {(i, j): k for k, ((i,), j) in enumerate(variables)}

    rows: list[Row] = []
    for a in range(len(parL)):
        for b in range(len(parL)):
            odd_ab = parL[a] * parL[b]
            br = L.bracket.at((a, b))
            for r in range(len(parM)):
                row: Row = {}
                for t, c in br.coords.items():
                    k = vpos.get((t, r))
                    if k is not None:
                        _add(row, k, c)
                for j in range(len(parM)):
                    act_a = M.act.get((a, j))
                    if act_a is not None and (b, j) in vpos and r in act_a.coords:
                        _add(row, vpos[(b, j)], -act_a.coords[r])
                    act_b = M.act.get((b, j))
                    if act_b is not None and (a, j) in vpos and r in act_b.coords:
                        x = act_b.coords[r]
                        _add(row, vpos[(a, j)], -x if odd_ab else x)
                rows.append(row)
    if reps is not None:
        rep_L, rep_M = reps
        for g in swept_elements(rep_L, rep_M):
            rows += _commuting_rows(rep_L.columns[g], rep_M.columns[g], vpos)
    der = [
        _new_cochain(1, 0, L.basis, M.space, {variables[k]: c for k, c in sorted(sol.items())})
        for sol in nullspace_from_rref(*rref_rows(rows), len(variables), spec).values()
    ]

    inner_cochains = []
    for m in _fixed_even_vectors(M, reps[1] if reps else None, spec):
        cs = {}
        for i in range(len(parL)):
            val = lin_comb((c, M.act[(i, j)].coords) for j, c in m.coords.items() if (i, j) in M.act)
            cs.update({((i,), j): c for j, c in val.items()})
        inner_cochains.append(_new_cochain(1, 0, L.basis, M.space, cs))
    inn = [inner_cochains[q] for q in pivot_columns([_column(f, 1, L, M) for f in inner_cochains])]
    return der, inn

"""Shared helpers for randomized exact tests (seeded, deterministic)."""

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

from supercohom.errors import BasisMismatch, DegreeMismatch, LengthMismatch, OracleDisagreement
from supercohom.graded import (
    GradedBasis,
    MultilinearMap,
    Vector,
    canonicalize_tuple,
    cochain_coords,
    superalt_basis,
)
from supercohom.group_action import (
    ActionRep,
    FiniteGroup,
    cyclic_group,
    pull_back,
    resolve_reps,
)
from supercohom.linalg import add_scaled, mat_identity, mat_mul, rref_rows, solve_rows
from supercohom.scalars import RATIONAL, Scalar, one, scalar, zero
from supercohom.superalgebra import (
    LieSuperalgebra,
    adjoint_module,
    bracket_eval,
    make_gl,
    make_sl,
    zero_module,
)


def rand_fraction(rng, zero_bias=0.0):
    if zero_bias and rng.random() < zero_bias:
        return Fraction(0)
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))


def rand_scalar(spec, rng, zero_bias=0.0):
    if zero_bias and rng.random() < zero_bias:
        return Scalar(spec, [0])
    return Scalar(spec, [rand_fraction(rng) for _ in range(spec.degree)])


def rand_vector(basis, spec, rng, parity=None, zero_bias=0.6):
    coords = {}
    for i in range(len(basis)):
        if parity is not None and basis.parities[i] != parity:
            continue
        c = rand_scalar(spec, rng, zero_bias=zero_bias)
        if not c.is_zero():
            coords[i] = c
    return Vector(coords)


def rand_multilinear(basis, spec, rng, arity, parity=0, zero_bias=0.6):
    comps = {}
    for tup in product(range(len(basis)), repeat=arity):
        want = (parity + sum(basis.parities[i] for i in tup)) % 2
        v = rand_vector(basis, spec, rng, parity=want, zero_bias=zero_bias)
        if not v.is_zero():
            comps[tup] = v
    return MultilinearMap(arity, parity, basis, basis, comps)


BASIS_22 = GradedBasis(("a", "b", "x", "y"), (0, 0, 1, 1))


def abelian_algebra(d0, d1, spec=RATIONAL):
    names = tuple(f"u{i}" for i in range(d0)) + tuple(f"v{i}" for i in range(d1))
    basis = GradedBasis(names, (0,) * d0 + (1,) * d1)
    return LieSuperalgebra(basis, spec, MultilinearMap(2, 0, basis, basis, {}))


def heisenberg_algebra(spec=RATIONAL):
    """One odd generator squaring to an even central element."""
    basis = GradedBasis(("z", "q"), (0, 1))
    comps = {(1, 1): Vector({0: one(spec)})}
    return LieSuperalgebra(basis, spec, MultilinearMap(2, 0, basis, basis, comps))


def direct_sum(parts, spec=RATIONAL):
    """Direct sum of superalgebras, re-sorted so even slots come first.

    Returns (algebra, slot) where slot[(part, local)] is the global index.
    """
    order = []
    for want in (0, 1):
        for pi, L in enumerate(parts):
            for i, p in enumerate(L.basis.parities):
                if p == want:
                    order.append((pi, i))
    slot = {key: g for g, key in enumerate(order)}
    names = tuple(f"{parts[pi].basis.names[i]}.{pi}" for pi, i in order)
    parities = tuple(parts[pi].basis.parities[i] for pi, i in order)
    basis = GradedBasis(names, parities)
    comps = {}
    for pi, L in enumerate(parts):
        for (i, j), v in L.bracket.components.items():
            w = Vector({slot[(pi, k)]: c for k, c in v.coords.items()})
            comps[(slot[(pi, i)], slot[(pi, j)])] = w
    return LieSuperalgebra(basis, spec, MultilinearMap(2, 0, basis, basis, comps)), slot


def random_basis_change(parities, spec, rng, rounds=5):
    """Random parity-preserving change of basis; returns (S, S_inv)."""
    n = len(parities)
    S, S_inv = mat_identity(n, spec), mat_identity(n, spec)
    scales = [Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(3)]
    for _ in range(rounds):
        p = rng.randint(0, 1)
        block = [i for i in range(n) if parities[i] == p]
        if len(block) >= 2 and rng.random() < 0.6:
            i, j = rng.sample(block, 2)
            c = scalar(spec, rng.choice([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]))
            E = mat_identity(n, spec)
            E[i][j] = c
            E_inv = mat_identity(n, spec)
            E_inv[i][j] = -c
        else:
            i = rng.randrange(n)
            u = scalar(spec, rng.choice(scales))
            E = mat_identity(n, spec)
            E[i][i] = u
            E_inv = mat_identity(n, spec)
            E_inv[i][i] = u.inverse()
        S = mat_mul(E, S, spec)
        S_inv = mat_mul(S_inv, E_inv, spec)
    return S, S_inv


def _apply_matrix(mat, v, n):
    out = Vector()
    for k, c in v.coords.items():
        col = Vector({r: mat[r][k] for r in range(n) if not mat[r][k].is_zero()})
        out = out + col.scale(c)
    return out


def twist_algebra(L, S, S_inv):
    """Transport the bracket through the change of basis S."""
    n = len(L.basis)
    cols_inv = [
        Vector({r: S_inv[r][c] for r in range(n) if not S_inv[r][c].is_zero()})
        for c in range(n)
    ]
    comps = {}
    for i in range(n):
        for j in range(n):
            w = bracket_eval(L, cols_inv[i], cols_inv[j])
            if not w.is_zero():
                comps[(i, j)] = _apply_matrix(S, w, n)
    bracket = MultilinearMap(2, 0, L.basis, L.basis, comps)
    return LieSuperalgebra(L.basis, L.spec, bracket)


def _perm_matrix(perm, spec):
    n = len(perm)
    z, o = zero(spec), one(spec)
    return [[o if perm[j] == i else z for j in range(n)] for i in range(n)]


def direct_product(G, H):
    """The direct product of two Cayley-table groups: (g, h) is element
    g * |H| + h."""
    n = H.order
    order = G.order * n
    table = [[G.mul(a // n, b // n) * n + H.mul(a % n, b % n) for b in range(order)] for a in range(order)]
    return FiniteGroup(order, table, G.identity * n + H.identity)


def s3_group():
    """S3 as the permutations of {0, 1, 2}: (group, perms), where element k
    is perms[k] and k * l is perms[k] after perms[l]."""
    perms = list(permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]
    return FiniteGroup(6, table, index[(0, 1, 2)]), perms


def sign_characters(group):
    """The nontrivial homomorphisms G -> {1, -1}, as tuples indexed by
    element: each choice of signs on the generators, extended to products
    and kept when it is multiplicative."""
    n, e = group.order, group.identity
    out = []
    for signs in product((1, -1), repeat=len(group.generators)):
        if -1 not in signs:
            continue
        chi, stack = {e: 1}, [e]
        while stack:
            x = stack.pop()
            for s, sign in zip(group.generators, signs):
                y = group.mul(x, s)
                if y not in chi:
                    chi[y] = chi[x] * sign
                    stack.append(y)
        if all(chi[group.mul(x, y)] == chi[x] * chi[y] for x in range(n) for y in range(n)):
            out.append(tuple(chi[g] for g in range(n)))
    return out


GROUP_SHAPES = ("cyclic", "parity", "s3")


def _core_automorphism(kind, L, slot, pi, rng, spec):
    """An order-two automorphism of the chosen core, as a permutation/diag
    global matrix seed (dict of index -> (index, scale))."""
    moves = {}
    if kind == "gl11" and rng.random() < 0.7:
        loc = {name: k for k, name in enumerate(("e11", "e22", "e12", "e21"))}
        for a, b in (("e11", "e22"), ("e12", "e21")):
            moves[slot[(pi, loc[a])]] = (slot[(pi, loc[b])], Fraction(1))
            moves[slot[(pi, loc[b])]] = (slot[(pi, loc[a])], Fraction(1))
    elif kind == "heis" and rng.random() < 0.7:
        moves[slot[(pi, 1)]] = (slot[(pi, 1)], Fraction(-1))
    elif kind == "sl11" and rng.random() < 0.7:
        moves[slot[(pi, 1)]] = (slot[(pi, 2)], Fraction(1))
        moves[slot[(pi, 2)]] = (slot[(pi, 1)], Fraction(1))
    return moves


def rand_instance(rng, spec=RATIONAL, with_action=False, max_d0=3, max_d1=2, groups=("cyclic",)):
    """A random Lie superalgebra of dimension at most (max_d0 | max_d1),
    optionally with a faithful-or-not action of a group drawn from groups:

    - "cyclic": Z/m for m <= 4, generated by one automorphism;
    - "parity": Z/2 x Z/m, the parity automorphism (-1)^|x| times the
      cyclic action, with two generators;
    - "s3": S3 permuting three even vectors of the abelian summand, and
      acting through its sign by an order-two automorphism elsewhere; the
      summand gets three even vectors when max_d0 allows, and "parity" is
      used when it does not.

    Built from a small catalog of cores padded with an abelian summand, then
    pushed through a random parity-preserving change of basis so the
    structure constants look nothing like the catalog.
    """
    shape = None
    if with_action:
        shape = rng.choice(groups) if len(groups) > 1 else groups[0]
        if shape == "s3" and max_d0 < 3:
            shape = "parity"
    cores = [("abelian", 0, 0), ("heis", 1, 1)]
    if max_d0 >= 1 and max_d1 >= 2:
        cores.append(("sl11", 1, 2))
    if max_d0 >= 2 and max_d1 >= 2:
        cores.append(("gl11", 2, 2))
    if shape == "s3":
        cores = [core for core in cores if core[1] + 3 <= max_d0]
    kind, d0, d1 = rng.choice(cores)
    pad0 = 3 if shape == "s3" else rng.randint(0, max_d0 - d0)
    pad1 = rng.randint(0, max_d1 - d1)
    if kind == "abelian" and pad0 + pad1 == 0:
        pad0 = 1
    parts = []
    if kind == "heis":
        parts.append(heisenberg_algebra(spec))
    elif kind == "sl11":
        parts.append(make_sl(1, 1, spec))
    elif kind == "gl11":
        parts.append(make_gl(1, 1, spec))
    core_pi = 0 if parts else None
    if pad0 + pad1:
        parts.append(abelian_algebra(pad0, pad1, spec))
    pad_pi = len(parts) - 1 if pad0 + pad1 else None
    L, slot = direct_sum(parts, spec)
    n = len(L.basis)

    rep = None
    if with_action:
        # m is the order of the cyclic part: S3 acts through its sign.
        m = 2 if shape == "s3" else rng.choice([2, 3, 4])
        moves = {}
        if m % 2 == 0 and core_pi is not None:
            moves.update(_core_automorphism(kind, parts[core_pi], slot, core_pi, rng, spec))
        if pad_pi is not None:
            pads0 = [slot[(pad_pi, k)] for k in range(pad0)]
            pads1 = [slot[(pad_pi, pad0 + k)] for k in range(pad1)]
            if shape == "s3":
                if pads1 and rng.random() < 0.5:
                    moves[pads1[0]] = (pads1[0], Fraction(-1))
            elif m == 3:
                if len(pads0) == 3 and rng.random() < 0.8:
                    moves[pads0[0]] = (pads0[1], Fraction(1))
                    moves[pads0[1]] = (pads0[2], Fraction(1))
                    moves[pads0[2]] = (pads0[0], Fraction(1))
            else:
                for group in (pads0, pads1):
                    if len(group) >= 2 and rng.random() < 0.5:
                        a, b = group[0], group[1]
                        moves[a] = (b, Fraction(1))
                        moves[b] = (a, Fraction(1))
                    elif group and rng.random() < 0.5:
                        moves[group[0]] = (group[0], Fraction(-1))
        z = zero(spec)
        phi = [[z] * n for _ in range(n)]
        for j in range(n):
            i, c = moves.get(j, (j, Fraction(1)))
            phi[i][j] = scalar(spec, c)
        powers = [mat_identity(n, spec)]
        for _ in range(m - 1):
            powers.append(mat_mul(phi, powers[-1], spec))
        if shape == "cyclic":
            group, mats = cyclic_group(m), powers
        elif shape == "parity":
            group = direct_product(cyclic_group(2), cyclic_group(m))
            par = L.basis.parities
            mats = powers + [[[-x if par[i] else x for x in row] for i, row in enumerate(mat)] for mat in powers]
        else:
            group, perms = s3_group()
            (sign,) = sign_characters(group)
            where = {slot[(pad_pi, a)]: a for a in range(3)}
            evens = sorted(where)
            mats = []
            for k, p in enumerate(perms):
                perm = [evens[p[where[j]]] if j in where else j for j in range(n)]
                mats.append(mat_mul(_perm_matrix(perm, spec), powers[sign[k] == -1], spec))
        rep = ActionRep(group, spec, L.basis.parities, mats)

    S, S_inv = random_basis_change(L.basis.parities, spec, rng, rounds=rng.randint(2, 6))
    L = twist_algebra(L, S, S_inv)
    if rep is not None:
        mats = [mat_mul(mat_mul(S, g, spec), S_inv, spec) for g in rep.matrices]
        rep = ActionRep(rep.group, spec, L.basis.parities, mats)
    return L, rep


def gl11_swap_rep(L):
    """Order-two action on gl(1|1) swapping the two diagonal blocks."""
    from supercohom.group_action import permutation_rep

    return permutation_rep(
        cyclic_group(2), L.spec, L.basis.parities, [(0, 1, 2, 3), (1, 0, 3, 2)]
    )


def gl11_mu1(L):
    """First-order direction deforming the gl(1|1) bracket toward the one
    induced by the rule e_ij * e_kl = [j == k] e_li."""
    from supercohom.cohomology import Cochain

    spec = L.spec
    o = one(spec)
    coords = {
        ((0, 2), 3): o,
        ((0, 3), 2): -o,
        ((1, 2), 3): -o,
        ((1, 3), 2): o,
        ((2, 3), 0): o,
        ((2, 3), 1): o,
    }
    return Cochain(2, 0, L.basis, L.basis, coords)


def rand_cochain(rng, L, M, n, parity, zero_bias=0.5):
    from supercohom.cohomology import Cochain

    coords = {}
    for T, j in cochain_coords(L.basis, n, M.space):
        p = (sum(L.basis.parities[i] for i in T) + M.space.parities[j]) % 2
        if p != parity:
            continue
        c = rand_scalar(L.spec, rng, zero_bias=zero_bias)
        if not c.is_zero():
            coords[(T, j)] = c
    return Cochain(n, parity, L.basis, M.space, coords)


def rand_module(rng, L, rep):
    """Adjoint module most of the time, a zero-action module otherwise.

    Returns (module, reps) where reps is suitable for the rep= arguments:
    the algebra rep itself for the adjoint, a (rep_L, rep_M) pair otherwise.
    """
    if rng.random() < 0.3:
        d0, d1 = rng.randint(0, 2), rng.randint(0, 1)
        if d0 + d1 == 0:
            d0 = 1
        names = tuple(f"m{i}" for i in range(d0 + d1))
        space = GradedBasis(names, (0,) * d0 + (1,) * d1)
        M = zero_module(L, space)
        if rep is None:
            return M, None
        spec = L.spec
        dim = d0 + d1
        # Each basis vector spans a line on which G acts trivially or by a
        # sign character (for Z/m, m even, the only one: k -> (-1)^k).
        chars = sign_characters(rep.group)
        if chars:
            diag = [rng.choice([1, -1]) for _ in range(dim)]
            chi = chars[0] if len(chars) == 1 else rng.choice(chars)
        else:
            diag, chi = [1] * dim, None
        z = zero(spec)
        mats = [
            [[scalar(spec, chi[g] if diag[i] == -1 else 1) if i == j else z for j in range(dim)] for i in range(dim)]
            for g in range(rep.group.order)
        ]
        return M, (rep, ActionRep(rep.group, spec, space.parities, mats))
    return adjoint_module(L), rep


# -- dense oracles --------------------------------------------------------------
#
# The library eliminates on sparse rows with one Gauss-Jordan kernel and
# assembles the coboundary in one sweep.  The dense fraction-free (Bareiss)
# elimination and the cochain-by-cochain coboundary they replaced are kept
# here, unchanged, as independent references for the property tests.


def bareiss_echelon(m, spec):
    """In-place fraction-free row echelon; returns list of pivot columns."""
    if not m:
        return []
    rows, cols = len(m), len(m[0])
    # The exact division by the previous pivot happens once per updated
    # entry, so hoist its (possibly costly) field inverse out of the loops.
    prev_inv = None
    r = 0
    pivots = []
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if not m[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        scale = piv if prev_inv is None else piv * prev_inv
        for i in range(r + 1, rows):
            mic = m[i][c]
            row_i, row_r = m[i], m[r]
            if mic.is_zero():
                for j in range(c, cols):
                    x = row_i[j]
                    if not x.is_zero():
                        row_i[j] = x * scale
                continue
            for j in range(c, cols):
                x, y = row_i[j], row_r[j]
                if y.is_zero():
                    if not x.is_zero():
                        row_i[j] = x * scale
                    continue
                v = x * piv - mic * y if not x.is_zero() else -(mic * y)
                row_i[j] = v if prev_inv is None else v * prev_inv
        prev_inv = piv.inverse()
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def bareiss_rref(mat, spec):
    """Reduced row echelon form (fresh matrix) plus pivot column list."""
    m = [list(row) for row in mat]
    pivots = bareiss_echelon(m, spec)
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        inv = m[r][c].inverse()
        m[r] = [x if x.is_zero() else x * inv for x in m[r]]
        for i in range(r):
            f = m[i][c]
            if not f.is_zero():
                m[i] = [a if b.is_zero() else a - f * b for a, b in zip(m[i], m[r])]
    return m, pivots


def bareiss_rank(mat, spec):
    return len(bareiss_echelon([list(row) for row in mat], spec))


def bareiss_nullspace(mat, cols, spec):
    """Basis of {x : mat @ x = 0}; one vector per free column."""
    if not mat:
        return [[one(spec) if i == j else zero(spec) for i in range(cols)] for j in range(cols)]
    m, pivots = bareiss_rref(mat, spec)
    basis = []
    for fc in [c for c in range(cols) if c not in pivots]:
        v = [zero(spec)] * cols
        v[fc] = one(spec)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def bareiss_solve(mat, rhs, spec):
    """One solution of mat @ x = rhs with the free variables at zero, or None."""
    if not mat:
        return [] if all(b.is_zero() for b in rhs) else None
    cols = len(mat[0])
    m, pivots = bareiss_rref([list(row) + [b] for row, b in zip(mat, rhs)], spec)
    if cols in pivots:
        return None
    x = [zero(spec)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][cols]
    return x


def bareiss_column_space(mat, spec):
    """The pivot columns of mat, as column vectors."""
    if not mat or not mat[0]:
        return []
    pivots = bareiss_echelon([list(row) for row in mat], spec)
    return [[row[c] for row in mat] for c in pivots]


def bareiss_span_equal(a_cols, b_cols, spec):
    if not a_cols and not b_cols:
        return True
    dim = len(a_cols[0]) if a_cols else len(b_cols[0])
    rows_a = [[col[i] for col in a_cols] for i in range(dim)]
    rows_b = [[col[i] for col in b_cols] for i in range(dim)]
    rows_ab = [ra + rb for ra, rb in zip(rows_a, rows_b)]
    ra, rb = bareiss_rank(rows_a, spec), bareiss_rank(rows_b, spec)
    return ra == rb == bareiss_rank(rows_ab, spec)


# Column-family helpers over the library's sparse kernel; only tests use them.


def column_space_basis(mat, spec):
    """The pivot columns of mat, as column vectors, through the sparse kernel."""
    pivots = rref_rows(_sparse(mat))[1]
    return [[row[c] for row in mat] for c in pivots]


def span_equal(a_cols, b_cols, spec):
    """Do two column families span the same subspace? Through the sparse kernel."""
    if not a_cols and not b_cols:
        return True
    dim = len(a_cols[0]) if a_cols else len(b_cols[0])
    if any(len(col) != dim for col in a_cols) or any(len(col) != dim for col in b_cols):
        raise LengthMismatch("columns must all live in the same space")

    def rank(cols):  # a family's rank is that of the matrix with it as rows
        return len(rref_rows(_sparse(cols))[1])

    ra, rb = rank(a_cols), rank(b_cols)
    return ra == rb == rank(a_cols + b_cols)


# The library takes the fixed subspace as the pivot columns of a sparse
# Reynolds operator, certified by a fixed-vector check and the character
# formula.  The dense route it replaced is kept here as the reference: the
# Reynolds operator must be idempotent, its column space must span the same
# subspace as a stacked fixed-point nullspace, and the character formula must
# give the dimension.


def densify(columns, dim, spec):
    """Sparse {row: Scalar} columns as dense lists of length dim."""
    z = zero(spec)
    return [[col.get(i, z) for i in range(dim)] for col in columns]


def dense_equivariant_subspace(rep):
    """Basis (as columns) of the vectors fixed by every group element."""
    spec = rep.spec
    dim = rep.dim
    group = rep.group
    inv_order = scalar(spec, Fraction(1, group.order))
    reynolds = [[zero(spec) for _ in range(dim)] for _ in range(dim)]
    for g in range(group.order):
        mat = rep.matrices[g]
        for i in range(dim):
            for j in range(dim):
                if not mat[i][j].is_zero():
                    reynolds[i][j] = reynolds[i][j] + mat[i][j]
    reynolds = [[x * inv_order for x in row] for row in reynolds]

    if mat_mul(reynolds, reynolds, spec) != reynolds:
        raise OracleDisagreement("Reynolds operator is not idempotent")

    fixed = column_space_basis(reynolds, spec)

    stacked = []  # the rows of g - 1: only the diagonal entries change
    o = one(spec)
    for g in range(group.order):
        for i, row in enumerate(rep.matrices[g]):
            row = list(row)
            row[i] = row[i] - o
            stacked.append(row)
    kernel = nullspace(stacked, dim, spec)

    if not span_equal(fixed, kernel, spec):
        raise OracleDisagreement(
            "Reynolds image and stacked fixed-point kernel span different subspaces"
        )

    trace_sum = zero(spec)
    for g in range(group.order):
        for i in range(dim):
            trace_sum = trace_sum + rep.matrices[g][i][i]
    if trace_sum != scalar(spec, group.order * len(fixed)):
        raise OracleDisagreement(
            f"character formula gives {trace_sum}, but the fixed space has "
            f"dimension {len(fixed)}"
        )
    return fixed


def coboundary_raw(f, L, M):
    """delta f, one canonical (n+1)-tuple at a time, through value_at."""
    from supercohom.cohomology import Cochain

    n = f.arity
    par = L.basis.parities
    out = {}
    for S in superalt_basis(L.basis, n + 1):
        pars = [par[s] for s in S]
        pre = [0] * (n + 2)
        for t, p in enumerate(pars):
            pre[t + 1] = pre[t] + p
        acc = Vector()
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                br = L.bracket.at((S[i], S[j]))
                if br.is_zero():
                    continue
                exp = (
                    (i + 1)
                    + (j + 1)
                    + (pars[i] + pars[j]) * pre[i]
                    + pars[j] * (pre[j] - pre[i + 1])
                )
                rest = S[:i] + S[i + 1 : j] + S[j + 1 :]
                term = Vector()
                for t, c in br.coords.items():
                    val = value_at(f, (t,) + rest)
                    if not val.is_zero():
                        term = term + val.scale(c)
                if not term.is_zero():
                    acc = acc + (term if exp % 2 == 0 else -term)
        for i in range(n + 1):
            val = value_at(f, S[:i] + S[i + 1 :])
            if val.is_zero():
                continue
            term = module_act(M, Vector.basis(S[i], L.spec), val)
            if term.is_zero():
                continue
            exp = i + pars[i] * (f.parity + pre[i])
            acc = acc + (term if exp % 2 == 0 else -term)
        for j, c in acc.coords.items():
            out[(S, j)] = c
    return Cochain(n + 1, f.parity, L.basis, M.space, out)


def coboundary_matrix_raw(basis_cochains, n, L, M):
    """Columns: coboundary_raw of each basis cochain, in raw (n+1)-coordinates."""
    cod = cochain_coords(L.basis, n + 1, M.space)
    pos = {c: t for t, c in enumerate(cod)}
    z = zero(L.spec)
    mat = [[z] * len(basis_cochains) for _ in range(len(cod))]
    for k, f in enumerate(basis_cochains):
        for key, c in coboundary_raw(f, L, M).coords.items():
            mat[pos[key]][k] = c
    return mat


def equivariance_sweeps(monkeypatch, kind=None):
    """Record each equivariance sweep of group_action (of the given kind, or
    of every kind) as the list of group elements it visits, in order.  The
    sweep hands each morphism_defects call the column pairs of the elements
    it visits, and each element is read off the columns of its pair."""
    from supercohom import group_action

    sweep, defects = group_action._equivariance_failures, group_action.morphism_defects
    sweeps, open_sweeps = [], []

    def sweeping(sweep_kind, table, rep_x, *rest):
        if kind is not None and sweep_kind != kind:
            return sweep(sweep_kind, table, rep_x, *rest)
        open_sweeps.append((rep_x, []))
        try:
            return sweep(sweep_kind, table, rep_x, *rest)
        finally:
            sweeps.append(open_sweeps.pop()[1])

    def visiting(src, dst, pairs):
        if open_sweeps:
            rep_x, visited = open_sweeps[-1]
            visited += (next(g for g, cols in enumerate(rep_x.columns) if cols is cols_x) for cols_x, _ in pairs)
        return defects(src, dst, pairs)

    monkeypatch.setattr(group_action, "_equivariance_failures", sweeping)
    monkeypatch.setattr(group_action, "morphism_defects", visiting)
    return sweeps


def count_calls(monkeypatch, module, name, keep=lambda *args: True):
    """Wrap module.name, and every supercohom module that bound it by name,
    with a wrapper that records the arguments of each call kept by keep."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        if keep(*args):
            calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "supercohom" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def cold_family(n, L, M, rep=None):
    """The columns and parities of the _family of C^n, built afresh by the
    oracles, without reading or filling the record of the complex
    (cohomology._Complex in M._complexes): the unit coordinates, or the
    columns of dense_equivariant_subspace on the induced action of
    pulled_back_induced_columns, made sparse."""
    reps = resolve_reps(rep, L, M)
    coords = cochain_coords(L.basis, n, M.space)
    all_par = [(sum(L.basis.parities[i] for i in T) + M.space.parities[j]) % 2 for T, j in coords]
    if reps is None:
        o = one(L.spec)
        return [{t: o} for t in range(len(coords))], all_par
    columns = pulled_back_induced_columns(reps[0], reps[1], L, M, n)
    induced = ActionRep(reps[0].group, L.spec, all_par, columns=columns)
    cols = [{t: x for t, x in enumerate(col) if not x.is_zero()} for col in dense_equivariant_subspace(induced)]
    parities = []
    for col in cols:
        found = {all_par[t] for t in col}
        assert len(found) == 1, "a fixed column mixes parities"
        parities.append(found.pop())
    return cols, parities


def full_cohomology(n, L, M, rep=None):
    """cohomology() on the whole complex: delta^n and delta^(n-1) assembled
    on every member of a cold_family of their domain and reduced in full,
    with no split by weight."""
    from supercohom.cohomology import Cochain, CohomologyReport, _delta_rows
    from supercohom.linalg import lin_comb, nullspace_from_rref, pivot_columns

    dom, dom_par = cold_family(n, L, M, rep)
    reduced, pivots = rref_rows(_delta_rows(n, L, M, dom).values())
    kernel = nullspace_from_rref(reduced, pivots, len(dom), L.spec)

    images = {}  # pivot columns of delta^(n-1), in raw n-coordinates
    prev_par = []
    if n > 0:
        prev, prev_par = cold_family(n - 1, L, M, rep)
        prev_rows = _delta_rows(n - 1, L, M, prev)
        images = {k: {} for k in rref_rows(prev_rows.values())[1]}
        for r, row in prev_rows.items():
            for k, x in row.items():
                if k in images:
                    images[k][r] = x

    coords = cochain_coords(L.basis, n, M.space)
    c_dims, z_dims, b_dims, h_dims = [0, 0], [0, 0], [0, 0], [0, 0]
    reps_out = {}
    for p in (0, 1):
        c_dims[p] = dom_par.count(p)
        z_dims[p] = c_dims[p] - sum(1 for k in pivots if dom_par[k] == p)
        img = [col for k, col in images.items() if prev_par[k] == p]
        b_dims[p] = len(img)
        h_dims[p] = z_dims[p] - b_dims[p]
        ker = [lin_comb((c, dom[k]) for k, c in v.items()) for fc, v in kernel.items() if dom_par[fc] == p]
        reps_out[p] = [
            Cochain(n, p, L.basis, M.space, {coords[t]: x for t, x in sorted(ker[q - len(img)].items())})
            for q in pivot_columns(img + ker)
            if q >= len(img)
        ]
    return CohomologyReport(n, tuple(c_dims), tuple(z_dims), tuple(b_dims), tuple(h_dims), reps_out)


# -- element-wise oracles for the sparse sweeps ---------------------------------
#
# The library checks the axioms, the actions and equivariance by sweeps over
# the sparse bracket/action tables and the cached sparse columns of each group
# element.  The element-wise versions they replaced are kept here unchanged:
# one Vector per basis element through bracket_eval / module_act, dense matrix
# columns scanned with is_zero, and cochains evaluated through cochain_eval.
# The reports must agree exactly, counterexample lists included.  The library
# reads the action table and moves multilinear maps through sparse columns
# (group_action.pull_back), so module_act, cochain_eval, value_at and
# apply_rep live here.


def value_at(f, T):
    """f(e_{t_1}, ..., e_{t_n}) for a Cochain f and an arbitrary index tuple."""
    res = canonicalize_tuple(tuple(T), f.algebra.parities)
    if res is None:
        return Vector()
    S, sign = res
    out = {}
    for j in range(len(f.space)):
        c = f.coords.get((S, j))
        if c is not None:
            out[j] = c if sign == 1 else -c
    return Vector(out)


def apply_rep(rep, g, v):
    """g v through the sparse columns of g."""
    cols = rep.columns[g]
    out = {}
    for j, c in v.coords.items():
        add_scaled(out, c, cols[j])
    return Vector(out)


def module_act(M, x, v):
    na, nm = len(M.algebra), len(M.space)
    for i in x.coords:
        if not 0 <= i < na:
            raise BasisMismatch(f"coordinate index {i} outside the algebra basis")
    for j in v.coords:
        if not 0 <= j < nm:
            raise BasisMismatch(f"coordinate index {j} outside the module basis")
    out = Vector()
    for i, a in x.coords.items():
        for j, b in v.coords.items():
            comp = M.act.get((i, j))
            if comp is not None:
                out = out + comp.scale(a * b)
    return out


def cochain_eval(f, args):
    if len(args) != f.arity:
        raise ValueError("argument count must equal cochain arity")
    if f.arity == 0:
        return value_at(f, ())
    out = Vector()
    for picks in product(*[list(a.coords.items()) for a in args]):
        idx = tuple(i for i, _ in picks)
        val = value_at(f, idx)
        if val.is_zero():
            continue
        c = picks[0][1]
        for _, extra in picks[1:]:
            c = c * extra
        out = out + val.scale(c)
    return out


def regex_parse_scalar(spec, text):
    """parse_scalar as it was written with per-call regexes: whitespace
    removed by re.sub(r"\\s+", ...) and terms split by re.split.  The
    reference for the library's str.split() and precompiled split pattern."""
    import re

    from supercohom.errors import ParseError
    from supercohom.scalars import _TERM_RE, _new
    from math import gcd

    s = re.sub(r"\s+", "", text)
    body = s[1:] if s[:1] in ("+", "-") else s
    num, slash, den = body.partition("/")
    if num.isascii() and num.isdigit() and (not slash or (den.isascii() and den.isdigit() and int(den))):
        p, q = int(num), int(den) if slash else 1
        g = gcd(p, q)
        return _new(spec, ((-p if s[0] == "-" else p) // g,) + (0,) * (spec.degree - 1), q // g)
    if not s:
        raise ParseError("empty scalar")
    pieces = re.split(r"(?=[+-])", s)
    if not pieces[0]:
        del pieces[0]
    accum = {}
    for piece in pieces:
        mt = _TERM_RE.match(piece)
        if not mt:
            raise ParseError(f"bad term {piece!r} in scalar {text!r}")
        if mt.group("coeff") is not None:
            try:
                coeff = Fraction(mt.group("coeff"))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in term {piece!r} of scalar {text!r}") from None
            exp = (int(mt.group("exp1")) if mt.group("exp1") else 1) if "*z" in piece else 0
        else:
            coeff = Fraction(-1 if mt.group("sign") == "-" else 1)
            exp = int(mt.group("exp2")) if mt.group("exp2") else 1
        accum[exp] = accum.get(exp, Fraction(0)) + coeff
    if spec.kind == "rational":
        if any(e != 0 for e in accum):
            raise ParseError(f"z is not an element of the rational field: {text!r}")
        return Scalar(spec, [accum.get(0, Fraction(0))])
    out = zero(spec)
    for exp, c in accum.items():  # z^m = 1, and Scalar reduces modulo Phi_m
        out = out + Scalar(spec, [0] * (exp % spec.conductor) + [c])
    return out


# Scalar arithmetic on tuples of Fractions, one per power-basis coefficient:
# the reference that Scalar's integer numerators over one denominator must
# match coefficient for coefficient.


def fraction_scalar_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def fraction_scalar_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def fraction_scalar_mul(spec, a, b):
    """The schoolbook product reduced by long division modulo Phi_m."""
    from supercohom.scalars import _poly_mod

    if len(a) == 1:
        return (a[0] * b[0],)
    prod = [Fraction(0)] * (2 * len(a) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    return tuple(_poly_mod(prod, spec.conductor))


def fraction_scalar_inverse(spec, a):
    """Solve a * u = 1 by Gauss-Jordan on the multiplication matrix of a."""
    deg = len(a)
    if deg == 1:
        return (1 / a[0],)
    units = [tuple(Fraction(int(i == j)) for i in range(deg)) for j in range(deg)]
    cols = [fraction_scalar_mul(spec, a, e) for e in units]
    rows = [[cols[j][i] for j in range(deg)] + [units[0][i]] for i in range(deg)]
    for c in range(deg):
        p = next(r for r in range(c, deg) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        piv = rows[c][c]
        rows[c] = [x / piv for x in rows[c]]
        for r in range(deg):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return tuple(row[deg] for row in rows)


def scalar_mul_oracle(x, y):
    return Scalar(x.spec, fraction_scalar_mul(x.spec, x.coeffs, y.coeffs))


def elementwise_validate_superalgebra(L):
    from supercohom.graded import vec_str
    from supercohom.superalgebra import Report

    report = Report()
    basis, spec = L.basis, L.spec
    par = basis.parities

    for i in range(len(basis)):
        for j in range(i, len(basis)):
            v = L.bracket.at((i, j))
            w = L.bracket.at((j, i))
            diff = v + w if (par[i] * par[j]) % 2 == 0 else v - w
            if not diff.is_zero():
                report.counterexamples.append(
                    {
                        "kind": "antisymmetry",
                        "where": f"({basis.names[i]}, {basis.names[j]})",
                        "lhs": vec_str(v, basis),
                        "rhs": vec_str(w, basis),
                    }
                )

    for i, j, k in superalt_basis(basis, 3):
        ea, eb, ec = (Vector.basis(t, spec) for t in (i, j, k))
        lhs = bracket_eval(L, ea, bracket_eval(L, eb, ec))
        rhs = bracket_eval(L, bracket_eval(L, ea, eb), ec)
        inner = bracket_eval(L, eb, bracket_eval(L, ea, ec))
        rhs = rhs + (inner if (par[i] * par[j]) % 2 == 0 else -inner)
        if lhs != rhs:
            report.counterexamples.append(
                {
                    "kind": "jacobi",
                    "where": f"({basis.names[i]}, {basis.names[j]}, {basis.names[k]})",
                    "lhs": vec_str(lhs, basis),
                    "rhs": vec_str(rhs, basis),
                }
            )
    return report


def elementwise_validate_module(L, M):
    from supercohom.errors import BasisMismatch
    from supercohom.graded import vec_str
    from supercohom.superalgebra import Report

    report = Report()
    if M.algebra != L.basis:
        raise BasisMismatch("module is declared over a different algebra basis")
    parL, parM = L.basis.parities, M.space.parities

    for (i, j), vec in M.act.items():
        if not (0 <= i < len(parL) and 0 <= j < len(parM)):
            raise BasisMismatch(f"action key ({i}, {j}) out of range")
        want = (parL[i] + parM[j]) % 2
        if vec.parity_support(M.space) - {want}:
            report.counterexamples.append(
                {
                    "kind": "homogeneity",
                    "where": f"({L.basis.names[i]}, {M.space.names[j]})",
                    "lhs": vec_str(vec, M.space),
                    "rhs": f"parity {want} expected",
                }
            )

    for i in range(len(parL)):
        ea = Vector.basis(i, L.spec)
        for j in range(len(parL)):
            eb = Vector.basis(j, L.spec)
            ab = bracket_eval(L, ea, eb)
            sign = 1 if (parL[i] * parL[j]) % 2 == 0 else -1
            for k in range(len(parM)):
                em = Vector.basis(k, L.spec)
                lhs = module_act(M, ea, module_act(M, eb, em))
                rhs = module_act(M, ab, em)
                swapped = module_act(M, eb, module_act(M, ea, em))
                rhs = rhs + (swapped if sign == 1 else -swapped)
                if lhs != rhs:
                    report.counterexamples.append(
                        {
                            "kind": "module axiom",
                            "where": f"({L.basis.names[i]}, {L.basis.names[j]}, {M.space.names[k]})",
                            "lhs": vec_str(lhs, M.space),
                            "rhs": vec_str(rhs, M.space),
                        }
                    )
    return report


def dense_apply_rep(rep, g, v):
    mat = rep.matrices[g]
    out = {}
    for j, c in v.coords.items():
        for i in range(rep.dim):
            a = mat[i][j]
            if a.is_zero():
                continue
            s = out.get(i)
            out[i] = a * c if s is None else s + a * c
    return Vector(out)


def _dense_rep_structure_checks(rep, report):
    spec, group = rep.spec, rep.group
    if rep.matrices[group.identity] != mat_identity(rep.dim, spec):
        report.counterexamples.append({"kind": "identity", "where": "identity element"})
    for g in range(group.order):
        for h in range(group.order):
            if mat_mul(rep.matrices[g], rep.matrices[h], spec) != rep.matrices[group.mul(g, h)]:
                report.counterexamples.append(
                    {"kind": "homomorphism", "where": f"pair ({g}, {h})"}
                )
    for g in range(group.order):
        mat = rep.matrices[g]
        for i in range(rep.dim):
            for j in range(rep.dim):
                if rep.parities[i] != rep.parities[j] and not mat[i][j].is_zero():
                    report.counterexamples.append(
                        {"kind": "degree", "where": f"g={g}, entry ({i}, {j})"}
                    )


def elementwise_validate_action(rep, L):
    from supercohom.errors import BasisMismatch
    from supercohom.superalgebra import Report

    if rep.parities != L.basis.parities:
        raise BasisMismatch("representation space does not match the algebra basis")
    report = Report()
    _dense_rep_structure_checks(rep, report)
    for g in range(rep.group.order):
        images = [dense_apply_rep(rep, g, Vector.basis(i, L.spec)) for i in range(len(L.basis))]
        for i, gi in enumerate(images):
            for j, gj in enumerate(images):
                lhs = dense_apply_rep(rep, g, L.bracket.at((i, j)))
                rhs = bracket_eval(L, gi, gj)
                if lhs != rhs:
                    report.counterexamples.append(
                        {
                            "kind": "bracket equivariance",
                            "where": f"g={g}, pair ({L.basis.names[i]}, {L.basis.names[j]})",
                        }
                    )
    return report


def elementwise_validate_module_action(rep_L, rep_M, L, M):
    from supercohom.errors import BasisMismatch, ValidationError
    from supercohom.superalgebra import Report

    if rep_L.parities != L.basis.parities or rep_M.parities != M.space.parities:
        raise BasisMismatch("representation spaces do not match algebra/module bases")
    if rep_L.group is not rep_M.group and rep_L.group != rep_M.group:
        raise ValidationError("algebra and module actions must share the group")
    report = Report()
    _dense_rep_structure_checks(rep_M, report)
    for g in range(rep_L.group.order):
        module_images = [
            dense_apply_rep(rep_M, g, Vector.basis(k, L.spec)) for k in range(len(M.space))
        ]
        for i in range(len(L.basis)):
            gx = dense_apply_rep(rep_L, g, Vector.basis(i, L.spec))
            for k, gm in enumerate(module_images):
                lhs = dense_apply_rep(
                    rep_M, g, module_act(M, Vector.basis(i, L.spec), Vector.basis(k, L.spec))
                )
                rhs = module_act(M, gx, gm)
                if lhs != rhs:
                    report.counterexamples.append(
                        {
                            "kind": "action equivariance",
                            "where": f"g={g}, pair ({L.basis.names[i]}, {M.space.names[k]})",
                        }
                    )
    return report


def elementwise_is_equivariant(f, rep_L, rep_M, L, M):
    spec = L.spec
    group = rep_L.group
    for g in range(group.order):
        ginv = group.inverse(g)
        for T in superalt_basis(L.basis, f.arity):
            args = [dense_apply_rep(rep_L, ginv, Vector.basis(t, spec)) for t in T]
            lhs = dense_apply_rep(rep_M, g, cochain_eval(f, args))
            rhs = value_at(f, T)
            if lhs != rhs:
                return False
    return True


def dense_induced_matrices(rep_L, rep_M, L, M, n):
    """The induced action on C^n as dense matrices, filled cell by cell."""
    from supercohom.graded import canonicalize_tuple

    spec = rep_L.spec
    group = rep_L.group
    coords = cochain_coords(L.basis, n, M.space)
    pos = {c: t for t, c in enumerate(coords)}
    dim = len(coords)
    dimM = len(M.space)
    mats = []
    for g in range(group.order):
        A = rep_L.matrices[group.inverse(g)]
        B = rep_M.matrices[g]
        cols_of = [
            [(i, A[i][s]) for i in range(len(L.basis)) if not A[i][s].is_zero()]
            for s in range(len(L.basis))
        ]
        z = zero(spec)
        mat = [[z] * dim for _ in range(dim)]
        for S in superalt_basis(L.basis, n):
            acc = {}
            for picks in product(*[cols_of[s] for s in S]):
                res = canonicalize_tuple(tuple(i for i, _ in picks), L.basis.parities)
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
    return mats


def pulled_back_induced_columns(rep_L, rep_M, L, M, n):
    """The sparse columns of the induced action on C^n, every element, the
    identity included, pulled back tuple by tuple through pull_back."""
    group, o = rep_L.group, one(rep_L.spec)
    coords = cochain_coords(L.basis, n, M.space)
    pos = {c: t for t, c in enumerate(coords)}
    memo = {}
    columns = []
    for g in range(group.order):
        A, B = rep_L.columns[group.inverse(g)], rep_M.columns[g]
        cols = [{} for _ in coords]
        for S in superalt_basis(L.basis, n):
            for T, c in pull_back(A, S, L.basis.parities, o, memo).items():
                for j, image in enumerate(B):
                    col = cols[pos[(T, j)]]
                    for r, b in image.items():
                        dst = pos[(S, r)]
                        col[dst] = col[dst] + c * b if dst in col else c * b
        columns.append([{i: x for i, x in col.items() if not x.is_zero()} for col in cols])
    return columns


# -- dense wrappers and test-only helpers ---------------------------------------
#
# The library works on sparse rows and canonical coordinates.  These dense
# entry points around its kernel, and the helpers on full component tables,
# have no caller in the library; the tests use them.


def _sparse(mat):
    return [{c: x for c, x in enumerate(row) if not x.is_zero()} for row in mat]


def rref(mat, spec):
    """Reduced row echelon form (fresh matrix) plus pivot column list."""
    reduced, pivots = rref_rows(_sparse(mat))
    cols = len(mat[0]) if mat else 0
    z = zero(spec)
    out = [[row.get(c, z) for c in range(cols)] for row in reduced]
    out.extend([z] * cols for _ in range(len(mat) - len(reduced)))
    return out, pivots


def mat_rank(mat, spec):
    return len(rref_rows(_sparse(mat))[1])


def nullspace(mat, cols, spec):
    """Basis of {x : mat @ x = 0}; one vector per free column."""
    from supercohom.linalg import nullspace_from_rref

    reduced, pivots = rref_rows(_sparse(mat))
    z = zero(spec)
    return [
        [v.get(c, z) for c in range(cols)]
        for v in nullspace_from_rref(reduced, pivots, cols, spec).values()
    ]


def solve(mat, rhs, spec):
    """One exact solution of mat @ x = rhs through solve_rows, or None.

    Free variables are set to zero.  Any shape is accepted, 0 rows or 0
    columns included: with no columns the answer is [] exactly when rhs is 0.
    """
    if len(rhs) != len(mat):
        raise LengthMismatch("right-hand side length differs from the row count")
    cols = len(mat[0]) if mat else 0
    sol = solve_rows(_sparse(mat), rhs, cols)
    if sol is None:
        return None
    z = zero(spec)
    return [sol.get(c, z) for c in range(cols)]


def mat_vec(a, v, spec):
    out = []
    for row in a:
        acc = zero(spec)
        for x, y in zip(row, v):
            if not x.is_zero() and not y.is_zero():
                acc = acc + x * y
        out.append(acc)
    return out


def is_zero_matrix(mat):
    return all(x.is_zero() for row in mat for x in row)


def arith(a, b, op):
    ops = {
        "add": Scalar.__add__,
        "sub": Scalar.__sub__,
        "mul": Scalar.__mul__,
        "div": Scalar.__truediv__,
    }
    if op not in ops:
        raise ValueError(f"unknown op {op!r}")
    return ops[op](a, b)


# -- the permutation oracle of the Koszul sign ---------------------------------
# Permutations of {1..n} are stored 0-based: sigma[i] is the image of position
# i.  The sign conventions follow the twisted symmetric-group action
# (sigma.F)(X) = eps(sigma, X) * F(X_{sigma(1)}, ..., X_{sigma(n)}) where
# eps(sigma, X) = sign(sigma) * (-1)^{# inverted odd-odd pairs}.  The library
# keeps only the closed form of graded.canonicalize_tuple.


def perm_sign(sigma) -> int:
    n = len(sigma)
    inv = 0
    for i in range(n):
        for j in range(i + 1, n):
            if sigma[j] < sigma[i]:
                inv += 1
    return -1 if inv % 2 else 1


def koszul_count(sigma, parities) -> int:
    """Number of pairs i < j with sigma(j) < sigma(i) and both entries odd."""
    if len(sigma) != len(parities):
        raise LengthMismatch("permutation and parity tuple differ in length")
    n = len(sigma)
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if sigma[j] < sigma[i] and parities[sigma[i]] == 1 and parities[sigma[j]] == 1:
                count += 1
    return count


def koszul_sign(sigma, parities) -> int:
    k = koszul_count(sigma, parities)
    return perm_sign(sigma) * (-1 if k % 2 else 1)


def permutation_canonicalize(tup, parities_by_index):
    """canonicalize_tuple through the permutation oracle: sigma the stable
    sort of tup, the sign koszul_sign(sigma, parities of tup), or None on a
    repeated even index."""
    evens = [i for i in tup if parities_by_index[i] == 0]
    if len(set(evens)) != len(evens):
        return None
    sigma = tuple(sorted(range(len(tup)), key=lambda k: (tup[k], k)))
    parities = tuple(parities_by_index[i] for i in tup)
    return tuple(tup[k] for k in sigma), koszul_sign(sigma, parities)


@dataclass(frozen=True)
class PermSigns:
    sigma: tuple
    k_count: int
    eps: int

    @staticmethod
    def of(sigma, parities):
        k = koszul_count(sigma, parities)
        return PermSigns(tuple(sigma), k, perm_sign(sigma) * (-1 if k % 2 else 1))


def invert_perm(sigma):
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    return tuple(inv)


def eval_map(F, args):
    """Multilinear evaluation of F on coordinate vectors."""
    if len(args) != F.arity:
        raise LengthMismatch("argument count must equal map arity")
    if F.arity == 0:
        return F.at(())
    out = Vector()
    for picks in product(*[list(a.coords.items()) for a in args]):
        idx = tuple(i for i, _ in picks)
        comp = F.at(idx)
        if comp.is_zero():
            continue
        c = picks[0][1]
        for _, extra in picks[1:]:
            c = c * extra
        out = out + comp.scale(c)
    return out


def act_permutation(sigma, F):
    """The twisted action (sigma.F)(X) = eps(sigma, X) F(X_{sigma(1)}, ...)."""
    if len(sigma) != F.arity:
        raise DegreeMismatch("permutation degree must equal map arity")
    out = {}
    for S, vec in F.components.items():
        # The component of sigma.F at T is eps(sigma, T) * F(T o sigma); here
        # we enumerate T by scattering S back through sigma.
        T = [0] * F.arity
        for k, s in enumerate(sigma):
            T[s] = S[k]
        T = tuple(T)
        parities = tuple(F.source.parities[i] for i in T)
        eps = koszul_sign(sigma, parities)
        contrib = vec if eps == 1 else -vec
        prev = out.get(T)
        out[T] = contrib if prev is None else prev + contrib
    return MultilinearMap(F.arity, F.parity, F.source, F.target, out)


def add_maps(F, G):
    """F + G, for multilinear maps of one arity and parity between the same bases."""
    out = dict(F.components)
    for tup, vec in G.components.items():
        out[tup] = out.get(tup, Vector()) + vec
    return MultilinearMap(F.arity, F.parity, F.source, F.target, out)


def superalt_expand(basis, n, coords, target, parity):
    """Expand canonical coordinates to the full component table."""
    canon = superalt_basis(basis, n)
    if len(coords) != len(canon):
        raise LengthMismatch(
            f"expected {len(canon)} coordinate vectors, got {len(coords)}"
        )
    table = dict(zip(canon, coords))
    out = {}
    for tup in product(range(len(basis)), repeat=n):
        res = canonicalize_tuple(tup, basis.parities)
        if res is None:
            continue
        sorted_tup, sign = res
        vec = table.get(sorted_tup)
        if vec is None or vec.is_zero():
            continue
        out[tup] = vec if sign == 1 else -vec
    return MultilinearMap(n, parity, basis, target, out)


# -- element-wise oracles for the Nijenhuis-Richardson composition --------------
#
# The library computes F o F' by one sweep over the two coordinate tables,
# and the deformation identity, the obstruction and the Maurer-Cartan residual
# as sums of it; the coboundary preimage is one row-form solve.  The versions
# they replaced are kept here: the raw product F * F' evaluated on every
# shuffle of every canonical tuple, the triple loops through cochain_eval, and
# a dense coboundary matrix solved by Bareiss elimination.


def shuffles(p, q):
    """0-based (p,q)-shuffles: permutations increasing on the first p and the
    last q positions, each generated once by choosing the first block's image."""
    m = p + q
    out = []
    for first in combinations(range(m), p):
        chosen = set(first)
        out.append(tuple(first) + tuple(k for k in range(m) if k not in chosen))
    return out


def star_value(F, Fp, T):
    """Value of F*F' on basis arguments indexed by T, for cochains F, F' from
    a space to itself."""
    if F.arity == 0:
        # no slot of F receives the second factor; the product collapses
        return Vector()
    head, tail = T[: F.arity - 1], T[F.arity - 1 :]
    inner = value_at(Fp, tail)
    if inner.is_zero():
        return Vector()
    acc = Vector()
    for k, c in inner.coords.items():
        acc = acc + value_at(F, head + (k,)).scale(c)
    if Fp.parity and sum(F.space.parities[t] for t in head) % 2:
        return -acc
    return acc


def star(F, Fp):
    """The raw (not yet symmetrized) composition, as a full multilinear map."""
    from supercohom.errors import DegreeOutOfRange

    m = F.arity + Fp.arity - 1
    if m < 0:
        raise DegreeOutOfRange("both factors are vectors")
    parity = (F.parity + Fp.parity) % 2
    comps = {}
    dim = len(F.space)
    for T in product(range(dim), repeat=m):
        v = star_value(F, Fp, T)
        if not v.is_zero():
            comps[T] = v
    return MultilinearMap(m, parity, F.space, F.space, comps)


def elementwise_circ(F, Fp):
    """Shuffle symmetrization of F*F', one canonical tuple and shuffle at a time."""
    from supercohom.cohomology import Cochain
    from supercohom.errors import BasisMismatch, DegreeOutOfRange

    space = F.space
    if not F.algebra == space == Fp.algebra == Fp.space:
        raise BasisMismatch("factors must be maps from one space to itself")
    m = F.arity + Fp.arity - 1
    if m < 0:
        raise DegreeOutOfRange("both factors are vectors")
    parity = (F.parity + Fp.parity) % 2
    sigmas = shuffles(F.arity - 1, Fp.arity) if F.arity else []  # a vector F has no slot
    coords = {}
    for S in superalt_basis(space, m):
        pars = tuple(space.parities[i] for i in S)
        acc = Vector()
        for sigma in sigmas:
            eps = koszul_sign(sigma, pars)
            val = star_value(F, Fp, tuple(S[sigma[k]] for k in range(m)))
            if val.is_zero():
                continue
            acc = acc + (val if eps == 1 else -val)
        for j, c in acc.coords.items():
            coords[(S, j)] = c
    return Cochain(m, parity, space, space, coords)


def two_circ_nr_bracket(F, Fp):
    """[F, F'] = F o F' - (-1)^{zz'+ff'} F' o F, z = arity - 1, with both
    circs computed: the formula that nr_bracket shortcuts for [F, F]."""
    from supercohom.cohomology import Cochain
    from supercohom.nr_bracket import circ

    left, right = circ(F, Fp), circ(Fp, F)
    if ((F.arity - 1) * (Fp.arity - 1) + F.parity * Fp.parity) % 2 == 0:
        minus = {key: -c for key, c in right.coords.items()}
        right = Cochain(right.arity, right.parity, right.algebra, right.space, minus)
    return left.add(right)


def _identity_triples(d, pairs):
    """sum over (i, j) in pairs of the deformation identity terms, by triple."""
    L = d.base
    par = L.basis.parities
    out = {}
    for T in superalt_basis(L.basis, 3):
        a, b, c = T
        ea, eb, ec = (Vector.basis(i, L.spec) for i in T)
        sign_ab = (par[a] * par[b]) % 2
        acc = Vector()
        for i, j in pairs:
            mi, mj = d.terms[i], d.terms[j]
            t1 = cochain_eval(mi, [ea, value_at(mj, (b, c))])
            t2 = cochain_eval(mi, [value_at(mj, (a, b)), ec])
            t3 = cochain_eval(mi, [eb, value_at(mj, (a, c))])
            acc = acc + t1 + (-t2) + (t3 if sign_ab else -t3)
        if not acc.is_zero():
            out[T] = acc
    return out


def elementwise_check_order(d, r):
    """Coefficient of t^r in the deformation identity, triple by triple."""
    from supercohom.deformation import OrderReport

    pairs = [(i, r - i) for i in range(r + 1) if i <= d.order and r - i <= d.order]
    residual = _identity_triples(d, pairs)
    return OrderReport(r, not residual, residual)


def elementwise_obstruction(d):
    """The order-(N+1) obstruction of a valid truncation, triple by triple,
    solved by Bareiss elimination against the cochain-by-cochain coboundary
    matrix."""
    from supercohom.cohomology import Cochain, coboundary, cochain_basis, zero_cochain
    from supercohom.deformation import ObstructionReport

    L = d.base
    r = d.order + 1
    pairs = [(i, r - i) for i in range(1, r) if i <= d.order and r - i <= d.order]
    coords = {(T, j): c for T, v in _identity_triples(d, pairs).items() for j, c in v.coords.items()}
    M = adjoint_module(L)
    obs = Cochain(3, 0, L.basis, L.basis, coords)
    if obs.is_zero():
        return ObstructionReport(obs, True, zero_cochain(2, 0, L, M), True)
    closed = coboundary(obs, L, M).is_zero()
    basis2 = cochain_basis(2, L, M, rep=d.rep)
    mat = coboundary_matrix_raw(basis2, 2, L, M)
    z = zero(L.spec)
    rhs = [-coords.get(key, z) for key in cochain_coords(L.basis, 3, L.basis)]
    sol = bareiss_solve(mat, rhs, L.spec)
    if sol is None:
        return ObstructionReport(obs, False, None, closed)
    nxt = zero_cochain(2, 0, L, M)
    for c, f in zip(sol, basis2):
        if not c.is_zero():
            nxt = nxt.add(f.scale(c))
    return ObstructionReport(obs, True, nxt, closed)


def elementwise_gauge_transform(d, g):
    """The gauge-transformed deformation, pair by pair: psi_i mu_j(phi_l a,
    phi_p b) summed over i + j + l + p = k, every value through cochain_eval."""
    from supercohom.cohomology import Cochain
    from supercohom.deformation import Deformation

    L = d.base
    N = d.order
    phi = g._inverse_maps(N)
    new_terms = []
    for k in range(N + 1):
        coords = {}
        for pair in superalt_basis(L.basis, 2):
            a, b = pair
            acc = Vector()
            for i in range(k + 1):
                for j in range(k - i + 1):
                    for l in range(k - i - j + 1):
                        p = k - i - j - l
                        if j > N:
                            continue
                        va = value_at(phi[l], (a,))
                        vb = value_at(phi[p], (b,))
                        inner = cochain_eval(d.terms[j], [va, vb])
                        if inner.is_zero():
                            continue
                        acc = acc + cochain_eval(g.map_at(i), [inner])
            for j, c in acc.coords.items():
                coords[(pair, j)] = c
        new_terms.append(Cochain(2, 0, L.basis, L.basis, coords))
    return Deformation(L, d.rep, new_terms)


def oracle_parsers():
    """The CLI parsers written out by hand, one add_parser call at a time:
    the reference that cli._build_parsers, built from cli.COMMANDS, and the
    parse of plain argv in cli._parse_plain must agree with."""
    import argparse

    from supercohom import cli
    from supercohom.workspace import ADJOINT

    def add_common(parser):
        parser.add_argument("file", help="workspace file")
        parser.add_argument("--emit", choices=("text", "json"), default="text")

    top = argparse.ArgumentParser(
        prog="supercohom",
        description="exact cohomology, deformations, and extensions of Lie superalgebras",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check every axiom in a workspace file")
    add_common(p)
    p.set_defaults(handler=cli._cmd_validate)

    p = sub.add_parser("cohomology", help="parity-split cohomology dimensions")
    add_common(p)
    p.add_argument("--n", type=int, required=True, help="cochain degree")
    p.add_argument("--module", default=ADJOINT)
    p.set_defaults(handler=cli._cmd_cohomology)

    p = sub.add_parser("mc-check", help="test [F, F] = 0 for a structure candidate")
    add_common(p)
    p.add_argument("--candidate", default=None, help="cochain name (default: the bracket)")
    p.set_defaults(handler=cli._cmd_mc_check)

    deform = sub.add_parser("deform", help="formal deformation checks")
    dsub = deform.add_subparsers(dest="subcommand", required=True)
    p = dsub.add_parser("check", help="validate a deformation order by order")
    add_common(p)
    p.add_argument("--deformation", required=True)
    p.add_argument("--strict", action="store_true", help="also check orders above the truncation")
    p.set_defaults(handler=cli._cmd_deform_check)
    p = dsub.add_parser("obstruct", help="next-order obstruction and solvability")
    add_common(p)
    p.add_argument("--deformation", required=True)
    p.set_defaults(handler=cli._cmd_deform_obstruct)

    p = sub.add_parser("derivations", help="derivation and inner-derivation counts")
    add_common(p)
    p.add_argument("--module", default=ADJOINT)
    p.set_defaults(handler=cli._cmd_derivations)

    extend = sub.add_parser("extend", help="build or classify abelian extensions")
    esub = extend.add_subparsers(dest="subcommand", required=True)
    p = esub.add_parser("build", help="build the extension attached to a 2-cochain")
    add_common(p)
    p.add_argument("--cocycle", required=True)
    p.set_defaults(handler=cli._cmd_extend)
    p = esub.add_parser("classify", help="representatives of every extension class")
    add_common(p)
    p.add_argument("--module", default=ADJOINT)
    p.set_defaults(handler=cli._cmd_extend_classify)

    return top


def oracle_parse_args(argv):
    """argv read by oracle_parsers, after the CLI's one rewrite: `extend FILE
    --cocycle NAME` may be spelled without the word "build", and -h, --help
    and its abbreviations show the help of the extend group."""
    argv = list(argv)
    words = ("build", "classify", "-h", "--h", "--he", "--hel", "--help")
    if len(argv) > 1 and argv[0] == "extend" and argv[1] not in words:
        argv.insert(1, "build")
    return oracle_parsers().parse_args(argv)

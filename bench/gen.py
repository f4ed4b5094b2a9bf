"""Seeded generator of small equivariant instances (random-equivariant workload).

Every instance is a Lie superalgebra of dimension at most (3|2): a catalog core
(abelian, Heisenberg, sl(1|1) or gl(1|1)) plus an abelian summand, pushed
through a random parity-preserving change of basis.  A cyclic group of order
2, 3 or 4 acts through an automorphism of the direct sum; after the change of
basis its matrices are dense, so no instance has a monomial action.  The module
is the adjoint module or a zero-action module with a diagonal sign action.

Only public constructors of supercohom are used.  The shape of each instance
(core, padding, group order, module kind, automorphism, and which basis
vectors the change of basis mixes) follows the fixed schedule SHAPES, so that
every seed asks for about the same amount of work; the seed draws the
coefficients of the change of basis and the module signs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from supercohom.graded import GradedBasis, MultilinearMap, Vector
from supercohom.group_action import ActionRep, cyclic_group
from supercohom.linalg import mat_identity, mat_mul
from supercohom.scalars import RATIONAL, one, scalar, zero
from supercohom.superalgebra import (
    LieSuperalgebra,
    adjoint_module,
    bracket_eval,
    make_gl,
    make_sl,
    zero_module,
)

# (core, even padding, odd padding, group order, module); module "adjoint" or
# "zero:d0:d1" for a zero-action module of dimension (d0|d1).
SHAPES = (
    ("gl11", 1, 0, 2, "adjoint"),
    ("sl11", 2, 0, 4, "adjoint"),
    ("heis", 2, 1, 3, "adjoint"),
    ("abelian", 3, 2, 3, "adjoint"),
    ("gl11", 1, 0, 4, "zero:1:1"),
    ("sl11", 2, 0, 2, "zero:2:1"),
    ("heis", 1, 1, 2, "adjoint"),
    ("gl11", 0, 0, 2, "adjoint"),
)

SCALES = (Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(3))
SHEARS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))


class Instance:
    """One generated problem: algebra L, module M, and the rep= argument."""

    def __init__(self, label, L, M, reps):
        self.label = label
        self.L = L
        self.M = M
        self.reps = reps


def _abelian(d0, d1, spec):
    names = tuple(f"u{i}" for i in range(d0)) + tuple(f"v{i}" for i in range(d1))
    basis = GradedBasis(names, (0,) * d0 + (1,) * d1)
    return LieSuperalgebra(basis, spec, MultilinearMap(2, 0, basis, basis, {}))


def _heisenberg(spec):
    basis = GradedBasis(("z", "q"), (0, 1))
    comps = {(1, 1): Vector({0: one(spec)})}
    return LieSuperalgebra(basis, spec, MultilinearMap(2, 0, basis, basis, comps))


def _direct_sum(parts, spec):
    """Direct sum with even slots first; slot[(part, local)] = global index."""
    order = [
        (pi, i)
        for want in (0, 1)
        for pi, L in enumerate(parts)
        for i, p in enumerate(L.basis.parities)
        if p == want
    ]
    slot = {key: g for g, key in enumerate(order)}
    names = tuple(f"{parts[pi].basis.names[i]}.{pi}" for pi, i in order)
    basis = GradedBasis(names, tuple(parts[pi].basis.parities[i] for pi, i in order))
    comps = {}
    for pi, L in enumerate(parts):
        for (i, j), v in L.bracket.components.items():
            comps[(slot[(pi, i)], slot[(pi, j)])] = Vector(
                {slot[(pi, k)]: c for k, c in v.coords.items()}
            )
    return LieSuperalgebra(basis, spec, MultilinearMap(2, 0, basis, basis, comps)), slot


def _block_automorphism(size, m):
    """A size x size rational matrix g with g^m = 1 (entries as Fractions)."""
    g = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    if size >= 3 and m == 3:
        for i in range(3):
            g[i][i] = Fraction(0)
            g[(i + 1) % 3][i] = Fraction(1)
    elif size >= 2 and m in (3, 4):
        # rotation of order 3 or 4 in the plane of the first two vectors
        g[0][0], g[0][1], g[1][0], g[1][1] = (Fraction(0), Fraction(-1), Fraction(1), Fraction(m - 4))
    elif size >= 2:
        g[0][0], g[0][1], g[1][0], g[1][1] = (Fraction(0), Fraction(1), Fraction(1), Fraction(0))
    elif size == 1 and m % 2 == 0:
        g[0][0] = Fraction(-1)
    return g


def _core_moves(kind, m, slot):
    """Order-two automorphism of the core (identity when m is odd)."""
    if m % 2:
        return {}
    pairs = {"gl11": ((0, 1), (2, 3)), "sl11": ((1, 2),), "heis": (), "abelian": ()}[kind]
    moves = {}
    for a, b in pairs:
        moves[slot[(0, a)]] = slot[(0, b)]
        moves[slot[(0, b)]] = slot[(0, a)]
    sign = {}
    if kind == "heis":
        sign[slot[(0, 1)]] = Fraction(-1)
    return {j: (moves.get(j, j), sign.get(j, Fraction(1))) for j in set(moves) | set(sign)}


def _random_basis_change(parities, spec, rng, rounds):
    """Random parity-preserving change of basis; returns (S, S_inv).

    The rounds shear fixed pairs of basis vectors (even and odd blocks in
    turn) and a last step rescales the last vector, so every seed gives
    matrices of the same shape and density; the seed draws the coefficients.
    """
    n = len(parities)
    blocks = [b for b in ([i for i in range(n) if parities[i] == p] for p in (0, 1)) if len(b) >= 2]
    S, S_inv = mat_identity(n, spec), mat_identity(n, spec)
    for r in range(rounds + 1):
        E, E_inv = mat_identity(n, spec), mat_identity(n, spec)
        if r < rounds and blocks:
            block = blocks[r % len(blocks)]
            i, j = block[r % len(block)], block[(r + 1) % len(block)]
            c = scalar(spec, rng.choice(SHEARS))
            E[i][j], E_inv[i][j] = c, -c
        else:
            u = scalar(spec, rng.choice(SCALES))
            E[n - 1][n - 1], E_inv[n - 1][n - 1] = u, u.inverse()
        S = mat_mul(E, S, spec)
        S_inv = mat_mul(S_inv, E_inv, spec)
    return S, S_inv


def _column(mat, k, n):
    return Vector({r: mat[r][k] for r in range(n) if not mat[r][k].is_zero()})


def _twist(L, S, S_inv):
    """Transport the bracket of L through the change of basis S."""
    n = len(L.basis)
    cols_inv = [_column(S_inv, c, n) for c in range(n)]
    comps = {}
    for i in range(n):
        for j in range(n):
            w = bracket_eval(L, cols_inv[i], cols_inv[j])
            if not w.is_zero():
                out = Vector()
                for k, c in w.coords.items():
                    out = out + _column(S, k, n).scale(c)
                comps[(i, j)] = out
    return LieSuperalgebra(L.basis, L.spec, MultilinearMap(2, 0, L.basis, L.basis, comps))


def _cyclic_rep(gen, m, spec, parities):
    mats = [mat_identity(len(parities), spec)]
    for _ in range(m - 1):
        mats.append(mat_mul(gen, mats[-1], spec))
    if mat_mul(gen, mats[-1], spec) != mats[0]:
        raise ValueError("generator does not have the declared order")
    return ActionRep(cyclic_group(m), spec, parities, mats)


def _is_monomial(mat):
    return all(sum(not x.is_zero() for x in row) <= 1 for row in mat)


def make_instance(rng, shape, spec=RATIONAL, rounds=2):
    kind, pad0, pad1, m, module = shape
    parts = {
        "gl11": lambda: [make_gl(1, 1, spec)],
        "sl11": lambda: [make_sl(1, 1, spec)],
        "heis": lambda: [_heisenberg(spec)],
        "abelian": lambda: [],
    }[kind]()
    core = bool(parts)
    if pad0 + pad1:
        parts.append(_abelian(pad0, pad1, spec))
    L0, slot = _direct_sum(parts, spec)
    n = len(L0.basis)

    z = zero(spec)
    gen = [[z] * n for _ in range(n)]
    moves = _core_moves(kind, m, slot) if core else {}
    for j in range(n):
        i, c = moves.get(j, (j, Fraction(1)))
        gen[i][j] = scalar(spec, c)
    pad = len(parts) - 1
    if pad0 + pad1:
        for offset, size in ((0, pad0), (pad0, pad1)):
            idx = [slot[(pad, offset + k)] for k in range(size)]
            block = _block_automorphism(size, m)
            for a, ia in enumerate(idx):
                for b, ib in enumerate(idx):
                    gen[ia][ib] = scalar(spec, block[a][b])

    while True:
        S, S_inv = _random_basis_change(L0.basis.parities, spec, rng, rounds)
        twisted = mat_mul(mat_mul(S, gen, spec), S_inv, spec)
        if not _is_monomial(twisted):
            break
        rounds += 1
    L = _twist(L0, S, S_inv)
    rep_L = _cyclic_rep(twisted, m, spec, L.basis.parities)

    if module == "adjoint":
        return Instance(f"{kind}+{pad0}|{pad1} Z/{m} adjoint", L, adjoint_module(L), rep_L)
    d0, d1 = (int(x) for x in module.split(":")[1:])
    space = GradedBasis(
        tuple(f"m{i}" for i in range(d0 + d1)), (0,) * d0 + (1,) * d1
    )
    M = zero_module(L, space)
    signs = [rng.choice((1, -1)) if m % 2 == 0 else 1 for _ in range(d0 + d1)]
    diag = [[scalar(spec, signs[i]) if i == j else z for j in range(d0 + d1)] for i in range(d0 + d1)]
    rep_M = _cyclic_rep(diag, m, spec, space.parities)
    return Instance(f"{kind}+{pad0}|{pad1} Z/{m} zero({d0}|{d1})", L, M, (rep_L, rep_M))


def generate(seed: int, count: int) -> list[Instance]:
    """count instances, cycling through SHAPES; the same seed gives the same list."""
    rng = random.Random(seed)
    return [make_instance(rng, SHAPES[k % len(SHAPES)]) for k in range(count)]

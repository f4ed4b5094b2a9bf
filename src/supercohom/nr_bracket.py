"""The Z x Z2-graded Lie algebra of super-alternating multilinear maps on a
graded space V, in the Nijenhuis-Richardson style: the o (circle) product, the
graded bracket, and the Maurer-Cartan test that recognizes Lie superalgebra
structures among bilinear elements.

An element of degree z is a (z+1)-cochain from V to V (a Cochain with
algebra == space == V); a vector of V, degree -1, is a 0-cochain.

circ is the one Nijenhuis-Richardson composition of the package: the
Maurer-Cartan residual here and the deformation identity and obstruction of
deformation.py are sums of it.  The element-wise composition it replaced,
through the raw * product on every shuffle, is kept in tests/util.py as a
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .cohomology import Cochain, _new_cochain
from .errors import BasisMismatch, DegreeOutOfRange, OracleDisagreement, WrongBidegree
from .graded import canonicalize_tuple, superalt_basis
from .scalars import FieldSpec, Scalar, scalar
from .superalgebra import LieSuperalgebra, from_pairs, validate_superalgebra


def circ(F: Cochain, Fp: Cochain) -> Cochain:
    """F o F' for an a-cochain F and an a'-cochain F' from V to V: an
    (a+a'-1)-cochain of parity f+f'.  At a canonical tuple S it is the sum
    over the (a-1, a')-shuffles of S into (head, tail) of the Koszul sign
    times F(head, F'(tail)), negated when F' and the head are both odd.

    One sweep over the nonzero coordinates: a coordinate (V, j) of F and an
    entry k of V give the head V minus one k, which pairs with every
    coordinate (W, k) of F' and lands on S, the canonical merge of head and W
    (none when an even index repeats).  Since head and W are each canonical,
    canonicalize_tuple(head + W) gives S and the shuffle sign: each tail
    entry passes the head entries above it, and an odd-odd crossing is a
    Koszul swap with no sign.  When an odd index occurs a times in
    the head and b times in W, C(a+b, a) shuffles of S give this head and
    tail, all with the same sign.  A 0-cochain F has no slot for F', so
    F o F' is zero; a 0-cochain F' is the vector plugged into F.
    """
    space = F.space
    if not F.algebra == space == Fp.algebra == Fp.space:
        raise BasisMismatch("factors must be maps from one space to itself")
    if F.arity == Fp.arity == 0:
        raise DegreeOutOfRange("the composition of two vectors has arity -1")
    par = space.parities
    tails: dict[int, list] = {}  # output index k of F' -> [(W, coefficient)]
    for (W, k), c in Fp.coords.items():
        tails.setdefault(k, []).append((W, c))
    out: dict[tuple, Scalar] = {}
    for (V, j), c in F.coords.items():
        for k in dict.fromkeys(V):
            if k not in tails:
                continue
            i = V.index(k)
            head = V[:i] + V[i + 1 :]
            sign = canonicalize_tuple(head + (k,), par)[1]
            if Fp.parity and sum(par[h] for h in head) % 2:
                sign = -sign
            for W, cp in tails[k]:
                merged = canonicalize_tuple(head + W, par)
                if merged is None:
                    continue
                S, f = merged[0], merged[1] * sign
                for x in set(head).intersection(W):  # both odd
                    f *= comb(head.count(x) + W.count(x), head.count(x))
                term = c * cp
                if f != 1:
                    term = -term if f == -1 else term * scalar(term.spec, f)
                key = (S, j)
                prev = out.get(key)
                out[key] = term if prev is None else prev + term
    return _new_cochain(F.arity + Fp.arity - 1, (F.parity + Fp.parity) % 2, space, space, out)


def nr_bracket(F: Cochain, Fp: Cochain) -> Cochain:
    """[F, F'] = F o F' - (-1)^{zz'+ff'} F' o F, with z = arity - 1.

    [F, F] (Fp is F) costs at most one circ: with z^2 + f^2 even the two
    terms cancel and it is the zero cochain, else it is F o F added to itself.
    """
    even = ((F.arity - 1) * (Fp.arity - 1) + F.parity * Fp.parity) % 2 == 0
    if Fp is F and F.arity and even:
        if F.algebra != F.space:
            raise BasisMismatch("factors must be maps from one space to itself")
        return Cochain(2 * F.arity - 1, 0, F.space, F.space, {})
    left = circ(F, Fp)
    if Fp is F:
        return left.add(left)
    right = circ(Fp, F)
    if even:
        right.coords = {key: -c for key, c in right.coords.items()}
    return left.add(right)


@dataclass
class MCReport:
    is_mc: bool
    residual: Cochain
    jacobi_ok: bool


def bracket_to_element(L: LieSuperalgebra) -> Cochain:
    coords = {}
    for pair in superalt_basis(L.basis, 2):
        v = L.bracket.at(pair)
        for j, c in v.coords.items():
            coords[(pair, j)] = c
    return _new_cochain(2, 0, L.basis, L.basis, coords)


def bracket_element(L: LieSuperalgebra) -> Cochain:
    """bracket_to_element(L), built once per algebra and then shared: the
    "bracket" terms of Workspace.deformation are this object, so the order-0
    check of Deformation is an identity test."""
    if not L.element_memo:
        L.element_memo.append(bracket_to_element(L))
    return L.element_memo[0]


def element_to_bracket(F0: Cochain, spec: FieldSpec) -> LieSuperalgebra:
    """Unvalidated candidate superalgebra with the bracket encoded by F0, an
    even 2-cochain from a space to itself with coefficients in spec."""
    if (F0.arity, F0.parity) != (2, 0):
        raise WrongBidegree(
            f"only even 2-cochains encode brackets, got arity {F0.arity}, parity {F0.parity}"
        )
    if F0.algebra != F0.space:
        raise BasisMismatch("a bracket maps the space to itself")
    return from_pairs(F0.space, spec, F0.by_tuple(), check=False)


def mc_check(F0: Cochain, spec: FieldSpec) -> MCReport:
    """Maurer-Cartan test for an even 2-cochain, cross-checked against a
    direct super-Jacobi sweep of the encoded bracket."""
    candidate = element_to_bracket(F0, spec)
    residual = nr_bracket(F0, F0)
    is_mc = residual.is_zero()
    jacobi = validate_superalgebra(candidate).holds("jacobi")
    if jacobi != is_mc:
        raise OracleDisagreement(
            "Maurer-Cartan verdict and the super-Jacobi sweep disagree: "
            f"[F,F]=0 is {is_mc}, Jacobi is {jacobi}"
        )
    return MCReport(is_mc, residual, jacobi)

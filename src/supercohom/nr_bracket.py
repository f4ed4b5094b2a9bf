"""The Z x Z2-graded Lie algebra of super-alternating multilinear maps on a
graded space, in the Nijenhuis-Richardson style: the o (circle) product, the
graded bracket, and the Maurer-Cartan test that recognizes Lie superalgebra
structures among bilinear elements.

circ is the one Nijenhuis-Richardson composition of the package: the
Maurer-Cartan residual here and the deformation identity and obstruction of
deformation.py are sums of it.  The element-wise composition it replaced,
through the raw * product on every shuffle, is kept in tests/util.py as a
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .cohomology import Cochain
from .errors import (
    BasisMismatch,
    DegreeOutOfRange,
    OracleDisagreement,
    WrongBidegree,
)
from .graded import (
    GradedBasis,
    MultilinearMap,
    Vector,
    canonicalize_tuple,
    superalt_basis,
)
from .scalars import FieldSpec, Scalar, scalar
from .superalgebra import LieSuperalgebra, validate_superalgebra


@dataclass
class NRElement:
    spec: FieldSpec
    space: GradedBasis
    z_degree: int
    parity: int
    payload: Cochain | Vector

    def __post_init__(self):
        if self.z_degree < -1:
            raise DegreeOutOfRange(
                f"z-degree {self.z_degree} is below the vector stratum"
            )
        self.parity %= 2
        if self.z_degree == -1:
            if not isinstance(self.payload, Vector):
                raise TypeError("a z-degree -1 element holds a plain vector")
            support = self.payload.parity_support(self.space)
            if support - {self.parity}:
                raise ValueError(
                    f"vector payload is not homogeneous of parity {self.parity}"
                )
        else:
            if not isinstance(self.payload, Cochain):
                raise TypeError("a z-degree >= 0 element holds a cochain")
            if self.payload.algebra != self.space or self.payload.space != self.space:
                raise BasisMismatch("payload must be a map from the space to itself")
            if self.payload.arity != self.z_degree + 1:
                raise WrongBidegree(
                    f"payload arity {self.payload.arity} does not match z-degree {self.z_degree}"
                )
            if self.payload.parity != self.parity:
                raise WrongBidegree("payload parity does not match the element")

    @property
    def arity(self) -> int:
        return self.z_degree + 1

    def is_zero(self) -> bool:
        return self.payload.is_zero()

    def add(self, other: "NRElement") -> "NRElement":
        if (self.z_degree, self.parity) != (other.z_degree, other.parity):
            raise WrongBidegree("can only add elements of equal bidegree")
        return NRElement(
            self.spec, self.space, self.z_degree, self.parity,
            self.payload + other.payload
            if self.z_degree == -1
            else self.payload.add(other.payload),
        )

    def scale(self, a) -> "NRElement":
        return NRElement(
            self.spec, self.space, self.z_degree, self.parity, self.payload.scale(a)
        )

    def __eq__(self, other):
        return (
            isinstance(other, NRElement)
            and (self.z_degree, self.parity) == (other.z_degree, other.parity)
            and self.space == other.space
            and self.payload == other.payload
        )


def zero_element(spec: FieldSpec, space: GradedBasis, z_degree: int, parity: int) -> NRElement:
    if z_degree == -1:
        return NRElement(spec, space, -1, parity, Vector())
    return NRElement(
        spec, space, z_degree, parity, Cochain(z_degree + 1, parity, space, space, {})
    )


def circ(F: NRElement, Fp: NRElement) -> NRElement:
    """F o F' in bidegree (n+n', f+f'): at a canonical tuple S, the sum over
    the (n, n'+1)-shuffles of S into (head, tail) of the Koszul sign times
    F(head, F'(tail)), negated when F' and the head are both odd.

    One sweep over the nonzero coordinates: a coordinate (V, j) of F and an
    entry k of V give the head V minus one k, which pairs with every
    coordinate (W, k) of F' (W = () for a vector F') and lands on S, the
    canonical merge of head and W (none when an even index repeats).  When
    an odd index occurs a times in the head and b times in W, C(a+b, a)
    shuffles of S give this head and tail, all with the same sign.
    """
    if F.space != Fp.space:
        raise BasisMismatch("factors live on different spaces")
    z = F.z_degree + Fp.z_degree
    parity = (F.parity + Fp.parity) % 2
    if z < -1:
        raise DegreeOutOfRange("composition drops below the vector stratum")
    if F.z_degree == -1:
        return zero_element(F.spec, F.space, z, parity)
    space, spec = F.space, F.spec
    par = space.parities
    tails: dict[int, list] = {}  # output index k of F' -> [(W, coefficient)]
    if Fp.z_degree == -1:
        for k, c in Fp.payload.coords.items():
            tails[k] = [((), c)]
    else:
        for (W, k), c in Fp.payload.coords.items():
            tails.setdefault(k, []).append((W, c))
    out: dict[tuple, Scalar] = {}
    for (V, j), c in F.payload.coords.items():
        for k in dict.fromkeys(V):
            if k not in tails:
                continue
            i = V.index(k)
            head = V[:i] + V[i + 1 :]
            sign = canonicalize_tuple(head + (k,), par)[1]
            if Fp.parity and sum(par[h] for h in head) % 2:
                sign = -sign
            for W, cp in tails[k]:
                if any(not par[w] and w in head for w in W):
                    continue
                # the shuffle passes each tail entry w over the head entries
                # above it; an odd-odd crossing is a Koszul swap with no sign
                crossings = sum(1 for h in head for w in W if w < h and not (par[h] and par[w]))
                f = -sign if crossings % 2 else sign
                for x in set(head).intersection(W):  # both odd
                    f *= comb(head.count(x) + W.count(x), head.count(x))
                term = c * cp
                if f != 1:
                    term = -term if f == -1 else term * scalar(spec, f)
                key = (tuple(sorted(head + W)), j)
                prev = out.get(key)
                out[key] = term if prev is None else prev + term
    if z == -1:
        return NRElement(spec, space, -1, parity, Vector({j: x for (_, j), x in out.items()}))
    return NRElement(spec, space, z, parity, Cochain(z + 1, parity, space, space, out))


def nr_bracket(F: NRElement, Fp: NRElement) -> NRElement:
    """[F, F'] = F o F' - (-1)^{nn'+ff'} F' o F."""
    left = circ(F, Fp)
    right = circ(Fp, F)
    sign = (F.z_degree * Fp.z_degree + F.parity * Fp.parity) % 2
    if sign == 0:
        right = right.scale(scalar(F.spec, -1))
    return left.add(right)


@dataclass
class MCReport:
    is_mc: bool
    residual: NRElement
    jacobi_ok: bool


def bracket_to_element(L: LieSuperalgebra) -> NRElement:
    coords = {}
    for pair in superalt_basis(L.basis, 2):
        v = L.bracket.at(pair)
        for j, c in v.coords.items():
            coords[(pair, j)] = c
    payload = Cochain(2, 0, L.basis, L.basis, coords)
    return NRElement(L.spec, L.basis, 1, 0, payload)


def element_to_bracket(F0: NRElement, basis: GradedBasis) -> LieSuperalgebra:
    """Unvalidated candidate superalgebra with the bracket encoded by F0."""
    if (F0.z_degree, F0.parity) != (1, 0):
        raise WrongBidegree("only bidegree (1,0) elements encode brackets")
    if F0.space != basis:
        raise BasisMismatch("element does not live on the given basis")
    comps = {}
    for (pair, j), c in F0.payload.coords.items():
        i1, i2 = pair
        v = comps.get((i1, i2), Vector())
        comps[(i1, i2)] = v + Vector({j: c})
    full = {}
    for (i1, i2), v in comps.items():
        full[(i1, i2)] = v
        if i1 != i2:
            p = basis.parities[i1] * basis.parities[i2]
            full[(i2, i1)] = v.scale(scalar(F0.spec, -1 if p % 2 == 0 else 1))
    bracket = MultilinearMap(2, 0, basis, basis, full)
    return LieSuperalgebra(basis, F0.spec, bracket, check=False)


def mc_check(F0: NRElement) -> MCReport:
    """Maurer-Cartan test for a bidegree (1,0) element, cross-checked against
    a direct super-Jacobi sweep of the encoded bracket."""
    if (F0.z_degree, F0.parity) != (1, 0):
        raise WrongBidegree(
            f"Maurer-Cartan candidates have bidegree (1,0), got ({F0.z_degree},{F0.parity})"
        )
    residual = nr_bracket(F0, F0)
    is_mc = residual.is_zero()
    candidate = element_to_bracket(F0, F0.space)
    report = validate_superalgebra(candidate)
    if report.jacobi_ok != is_mc:
        raise OracleDisagreement(
            "Maurer-Cartan verdict and the super-Jacobi sweep disagree: "
            f"[F,F]=0 is {is_mc}, Jacobi is {report.jacobi_ok}"
        )
    return MCReport(is_mc, residual, report.jacobi_ok)
